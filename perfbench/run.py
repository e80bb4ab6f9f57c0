"""Benchmark runner for msf7.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller: the next op starts only when the
previous one has returned (no threads).  Inputs come from the seed and are
generated cycle by cycle with the clock stopped; the loop measures whole
cycles until the summed op time reaches ``--seconds``.  Every answer is
checked against the label it was generated with.

Ops are timed in CPU time and rescaled to a fixed machine speed (see
:class:`Speed`), because the speed of a vCPU on a shared host drifts by
up to 1.8x over tens of seconds; raw wall-clock figures are kept in the
record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics.  The last
stdout line is the result object; the line before it is the full record
(reproducibility data included), which is also written to ``--out``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 5           # fresh interpreters per run for the set-up time
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10     # the tail is the highest percentile with this many samples above it
REF_EVERY_S = 0.05   # op CPU time between two measurements of the machine's speed
# Fastest CPU time of one reference_kernel() call seen on the machine the
# benchmark was written on (2.1 GHz Xeon vCPU, Python 3.11.7): rescaled
# times read as that machine's seconds when no other tenant slows it.
REF_NOMINAL_S = 0.002


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def reference_kernel() -> Fraction:
    """Fixed stdlib-only work (exact elimination on a rational 7x7 matrix,
    the kind of arithmetic msf7 spends its time in).  It never touches the
    package, so its CPU time measures the machine, not the code under test."""
    a = [[Fraction((7 * i + 3 * j * j) % 19 - 9, 1 + (i * j + 2 * i + j) % 8)
          for j in range(7)] for i in range(7)]
    det = Fraction(1)
    for _ in range(3):
        for c in range(7):
            det *= a[c][c]
            for r in range(c + 1, 7):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        a = [[x + 1 for x in row] for row in a]
    return det


def reference_s() -> float:
    start = process_time()
    reference_kernel()
    return process_time() - start


class Speed:
    """Machine speed measured next to the ops.

    The reference kernel runs at the start and then after every
    REF_EVERY_S of op CPU time.  An op's CPU time is rescaled by
    REF_NOMINAL_S / (mean kernel time of the two measurements around it),
    which cancels slowdowns from other tenants of the host (they slow the
    kernel and the op alike) but not a change in the package (it does not
    touch the kernel).
    """

    def __init__(self):
        self.samples = [reference_s()]
        self.since = 0.0

    def segment(self, cpu: float) -> int:
        """Index of the stretch between two measurements holding an op just run."""
        seg = len(self.samples) - 1
        self.since += cpu
        if self.since >= REF_EVERY_S:
            self.close()
        return seg

    def close(self) -> None:
        self.samples.append(reference_s())
        self.since = 0.0

    def scale(self, seg: int) -> float:
        return 2 * REF_NOMINAL_S / (self.samples[seg] + self.samples[seg + 1])


class Loop:
    """Outcome of one closed-loop pass over whole cycles."""

    def __init__(self):
        self.cpu: list[float] = []       # CPU time of each op
        self.wall: list[float] = []      # wall time of each op
        self.segments: list[int] = []    # Speed segment of each op
        self.latencies: list[float] = []  # rescaled times, filled by finish()
        self.verdicts: list[str] = []    # topology verdict statuses
        self.unknown: list[tuple] = []   # (op index, box points) of UNKNOWN verdicts
        self.attempted = 0
        self.failed = 0
        self.cycles = 0

    @property
    def busy(self) -> float:
        return sum(self.wall)

    def finish(self, speed: Speed) -> None:
        self.latencies = [t * speed.scale(s) for t, s in zip(self.cpu, self.segments)]

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def unknown_rates(self) -> list[float]:
        """Box points per (rescaled) second of each UNKNOWN verdict."""
        return [points / self.latencies[i] for i, points in self.unknown]


def run_op(workloads, workload: str, op: dict, loop: Loop, tracer=None, tag=None):
    thunk, check = workloads.prepare(workload, op)
    if tracer is not None:
        tracer.op = tag
    start, cpu_start = perf_counter(), process_time()
    try:
        result, error = thunk(), None
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        result, error = None, exc
    cpu = process_time() - cpu_start
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.op = None
    try:
        ok = error is None and bool(check(result))
    except Exception as exc:
        ok, error = False, exc
    loop.attempted += 1
    if not ok:
        loop.failed += 1
        print(f"perfbench: wrong answer on {workload} op {tag}: {result!r}", file=sys.stderr)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
    return cpu, elapsed, result


def run_cycle(workloads, workload: str, seed: int, c: int, loop: Loop, speed: Speed,
              tracer=None) -> None:
    for i, op in enumerate(workloads.cycle(workload, seed, c)):
        cpu, elapsed, result = run_op(workloads, workload, op, loop, tracer, (c, i))
        status = getattr(result, "status", None)
        if status is not None:
            loop.verdicts.append(status)
            if status == "UNKNOWN":
                loop.unknown.append((len(loop.cpu), workloads.box_points(op)))
        loop.cpu.append(cpu)
        loop.wall.append(elapsed)
        loop.segments.append(speed.segment(cpu))
    loop.cycles += 1


def probe_setup(workload: str, op: dict) -> dict:
    """Spawn a fresh interpreter that imports the package and runs `op`.

    Its set-up time is the CPU time the child has used, interpreter start
    included, when the checked op returns, rescaled by the machine speed
    measured just before and after the child runs."""
    request = json.dumps({"workload": workload, "op": op})
    ref_before = reference_s()
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(request)
        proc.stdin.close()
        line = proc.stdout.readline()
        wall_s = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    scale = 2 * REF_NOMINAL_S / (ref_before + reference_s())
    if code != 0 or not line:
        return {"ok": False, "setup_s": 0.0, "wall_s": wall_s, "import_s": 0.0,
                "first_op_s": 0.0}
    report = json.loads(line)
    report["wall_s"] = wall_s
    for key in ("setup_s", "import_s", "first_op_s"):
        report[key] *= scale
    return report


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(latencies)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, probes: list[dict]) -> dict:
    tail_ms, _ = tail(loop.latencies)
    return {
        "ops_per_s": metric(loop.ops_per_s(), "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(loop.latencies), "ms"),
        "op_tail_ms": metric(1000 * tail_ms, "ms"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans, tracer, traced: Loop, untraced: Loop, probes: list[dict]) -> dict:
    n, busy = len(traced.latencies), traced.busy
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = metric(tracer.calls[name] / n, "calls/op")
        out[f"{name}.self_ms"] = metric(1000 * tracer.self_s[name] / n, "ms/op")
        out[f"{name}.share"] = metric(tracer.self_s[name] / busy, "ratio")
    for verdict in ("ADMITS", "NO", "UNKNOWN"):
        out[f"topology.verdict.{verdict.lower()}"] = metric(traced.verdicts.count(verdict),
                                                            "count")
    rates = traced.unknown_rates()
    out["topology.box_points_per_s"] = metric(statistics.median(rates) if rates else 0.0, "1/s")
    out["setup.import_s"] = metric(statistics.median(p["import_s"] for p in probes), "s")
    out["setup.first_op_s"] = metric(statistics.median(p["first_op_s"] for p in probes), "s")
    out["trace_overhead"] = metric(traced.ops_per_s() / untraced.ops_per_s(), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for the run record (and spans when tracing)")
    args = parser.parse_args(argv)

    if not (SRC / "msf7" / "__init__.py").is_file():
        return _fail(f"package sources not found at {SRC / 'msf7'}")
    sys.path.insert(0, str(SRC))
    import msf7
    if Path(msf7.__file__).resolve().parent != (SRC / "msf7").resolve():
        return _fail(f"imported msf7 from {msf7.__file__}, not from {SRC}")
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    first = workloads.cycle(args.workload, args.seed, 0)
    input_hash = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()

    # untimed warm-up on a cycle of its own: lazy tables and caches fill here
    speed, warm = Speed(), Loop()
    run_cycle(workloads, args.workload, args.seed, -1, warm, speed)
    probes = [probe_setup(args.workload, first[0]) for _ in range(PROBES)]
    probe_failures = sum(not p["ok"] for p in probes)

    speed.close()
    measured, c = Loop(), 0
    if args.trace:
        # even cycles untraced, odd cycles traced: both halves see the same
        # stretches of machine load, so their ratio is the tracing overhead
        untraced, tracer = Loop(), spans.Tracer()
        while untraced.busy + measured.busy < args.seconds:
            run_cycle(workloads, args.workload, args.seed, c, untraced, speed)
            tracer.install()
            try:
                run_cycle(workloads, args.workload, args.seed, c + 1, measured, speed, tracer)
            finally:
                tracer.uninstall()
            c += 2
        speed.close()
        untraced.finish(speed)
        measured.finish(speed)
        loops = (warm, untraced, measured)
        metrics = per_layer(spans, tracer, measured, untraced, probes)
    else:
        while measured.busy < args.seconds:
            run_cycle(workloads, args.workload, args.seed, c, measured, speed)
            c += 1
        speed.close()
        measured.finish(speed)
        loops = (warm, measured)
        metrics = end_to_end(measured, probes)

    attempted = sum(l.attempted for l in loops) + len(probes)
    failed = sum(l.failed for l in loops) + probe_failures
    _, tail_pct = tail(measured.latencies)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_hash": input_hash, "commit": commit(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "cycles": measured.cycles,
        "samples": len(measured.latencies), "tail_percentile": tail_pct,
        "tail_samples_beyond": min(TAIL_BEYOND, len(measured.latencies) - 1),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "ref_nominal_s": REF_NOMINAL_S, "ref_median_s": statistics.median(speed.samples),
        "wall": {"ops_per_s": len(measured.wall) / measured.busy,
                 "op_p50_ms": 1000 * statistics.median(measured.wall),
                 "op_tail_ms": 1000 * tail(measured.wall)[0]},
        "probes": probes, "metrics": metrics,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(args.out / f"{stem}-spans.jsonl")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
