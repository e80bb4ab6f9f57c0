"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py --out DIR`` writes, normally ten seeds per workload for each
commit, made with the same ``--seconds``.  For every workload and
end-to-end metric this prints both medians, the base's quartile spread as a
share of its median, the change, and a verdict under the rules of the
benchmark:

* ``worse``: the new median is worse than the base median by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved``: the base's own spread is wider than the bound;
* ``better``: the new side wins at least 9 in 10 seed pairs and the medians
  differ by more than the base's quartile spread;
* ``same`` otherwise.

Per-layer records (``trace1``) are listed with their medians only: counts
compare exactly, times only as a pointer to where a change went.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace): {seed: metrics}}"""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec["metrics"]
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: dict, new: dict, name: str, better: str, bound: float) -> str:
    b = [m[name]["value"] for m in base.values()]
    n = [m[name]["value"] for m in new.values()]
    mb, mn = statistics.median(b), statistics.median(n)
    sign = 1 if better == "higher" else -1
    if sign * (mb - mn) > bound * mb:
        return "worse"
    if spread(b) > bound:
        return "unresolved"
    pairs = [(base[s][name]["value"], new[s][name]["value"]) for s in base if s in new]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mn - mb) > spread(b) * mb:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    worse = False
    print(f"{'workload':20s} {'metric':40s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        specs = spec["end_to_end"] if trace == 0 else spec["per_layer"]
        for m in specs:
            b = [r[m["name"]]["value"] for r in base[key].values()]
            n = [r[m["name"]]["value"] for r in new[key].values()]
            mb, mn = statistics.median(b), statistics.median(n)
            if mb == mn == 0:
                continue  # a layer this workload never reaches
            change = f"{(mn - mb) / mb:+.1%}" if mb else "-"
            v = verdict(base[key], new[key], m["name"], m["better"], m["bound"]) \
                if trace == 0 else ""
            worse |= v == "worse"
            print(f"{workload:20s} {m['name']:40s} {mb:12.4g} {mn:12.4g} "
                  f"{change:>8s} {spread(b):7.1%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
