"""Command-line front end.

Commands:

    canon <orbit> [--variant prime]       print a canonical form as JSON
    classify <file|->                     orbit id / NonMultisymplectic / Unknown
    invariants <file|->                   invariant vector of a 3-form
    sample --orbit <i> --seed <n>         pseudorandom orbit element + witness map
    verify-paper [--draws N]              run the whole verification catalog
    topo-check <model.json> --type <k>    existence verdict for a cohomology model

All commands accept --json for machine output.  Exit codes: 0 on success
(and, for verify-paper, only if every check passes), 1 when a semantic check
fails or a theorem hypothesis is violated, 2 for usage or input errors.
The environment variable MSF7_FUZZ_ITERS overrides randomized check counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exterior import KForm
from .forms7 import canonical, classify, compact_dim, invariant_vector, sample_orbit
from .stabilizers import verify_paper
from .topology import (
    DEFAULT_BOUND,
    HypothesisError,
    ModelError,
    check_type,
    load_model,
)


def fuzz_iterations(default: int = 100) -> int:
    """Randomized-check count, overridable through MSF7_FUZZ_ITERS; a value
    that is not a positive integer exits with code 2."""
    raw = os.environ.get("MSF7_FUZZ_ITERS")
    if raw is None:
        return default
    n = int(raw) if raw.strip().isdecimal() else 0
    if n < 1:
        print(f"error: MSF7_FUZZ_ITERS must be a positive integer, got {raw!r}",
              file=sys.stderr)
        raise SystemExit(2)
    return n


def _read_form(path: str) -> KForm:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return KForm.from_json(data)


def _cmd_canon(args) -> int:
    cf = canonical(args.orbit, args.variant)
    payload = cf.form.to_json()
    if args.json:
        payload = {"orbit_id": cf.orbit_id, "variant": cf.variant,
                   "source_basis": cf.source_basis, "form": payload}
        if cf.change_of_basis is not None:
            payload["change_of_basis"] = cf.change_of_basis.to_json()
    print(json.dumps(payload))
    return 0


def _cmd_classify(args) -> int:
    result = classify(_read_form(args.form))
    if args.json:
        if isinstance(result, int):
            print(json.dumps({"classification": result}))
        else:
            print(json.dumps({"classification": None, "status": result}))
    else:
        print(result)
    return 0


def _cmd_invariants(args) -> int:
    form = _read_form(args.form)
    iv = invariant_vector(form)
    if args.json:
        print(json.dumps(iv.to_json()))
    else:
        print(f"ms_rank      {iv.ms_rank}")
        print(f"b_rank       {iv.b_rank}")
        print(f"b_signature  {iv.b_signature[0]},{iv.b_signature[1]}")
        print(f"stab_dim     {iv.stab_dim}")
        print(f"compact_dim  {compact_dim(form)}  (representative dependent)")
    return 0


def _cmd_sample(args) -> int:
    form, g = sample_orbit(args.orbit, args.seed)
    payload = {"orbit_id": args.orbit, "seed": args.seed,
               "form": form.to_json(), "map": g.to_json()}
    if args.json:
        print(json.dumps(payload))
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_verify_paper(args) -> int:
    draws = args.draws if args.draws is not None else fuzz_iterations(10)
    report = verify_paper(draws=draws, seed=args.seed)
    ok = all(r["status"] == "pass" for r in report)
    if args.json:
        print(json.dumps(report))
    else:
        for r in report:
            print(f"{r['status'].upper():4s} {r['anchor']}")
        print(f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
              f"({sum(r['status'] == 'pass' for r in report)}/{len(report)})")
    return 0 if ok else 1


def _cmd_topo_check(args) -> int:
    model = load_model(args.model)
    verdict = check_type(model, args.type, args.bound)
    if args.json:
        print(json.dumps(verdict.to_json()))
    else:
        line = verdict.status
        if verdict.witness is not None and verdict.witness:
            line += " witness=" + json.dumps([list(v) for v in verdict.witness])
        if verdict.reason:
            line += f"  ({verdict.reason})"
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msf7",
        description="exact classification toolkit for 3-forms on a "
                    "7-dimensional space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="print a canonical orbit representative")
    p.add_argument("orbit", type=int, choices=range(1, 9), metavar="orbit")
    p.add_argument("--variant", choices=("standard", "prime"), default="standard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("classify", help="classify a 3-form read from JSON")
    p.add_argument("form", help="path to a KForm JSON file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("invariants", help="print the invariant vector of a 3-form")
    p.add_argument("form", help="path to a KForm JSON file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("sample", help="pseudorandom element of an orbit")
    p.add_argument("--orbit", type=int, required=True, choices=range(1, 9),
                   metavar="ORBIT")
    p.add_argument("--seed", type=int, required=True,
                   help="seed in 0..2^64-1; same seed gives identical output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify-paper",
                       help="verify the transformation catalog, identity suite, "
                            "compact dimensions and embeddings")
    p.add_argument("--draws", type=int, default=None,
                   help="random parameter draws per embedding "
                        "(default MSF7_FUZZ_ITERS or 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed in 0..2^64-1 (default 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify_paper)

    p = sub.add_parser("topo-check", help="existence verdict for a cohomology model")
    p.add_argument("model", help="path to a cohomology model JSON file")
    p.add_argument("--type", type=int, required=True, choices=range(1, 9),
                   metavar="TYPE")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_topo_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
