"""Set-up probe: one fresh interpreter doing what a one-shot CLI call does.

Reads ``{"workload": ..., "op": ...}`` on stdin, imports the package, runs
and checks that single op, then prints ``{"setup_s", "import_s",
"first_op_s", "ok"}`` as one JSON line.  The first op pays every lazy cost
it needs (the classifier key table, the canonical-form and algebra caches).
The times are CPU times; ``setup_s`` counts from the start of the process,
so interpreter start is included.  The parent (`run.py`) rescales them to
its fixed machine speed.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import msf7  # noqa: F401
    t1 = time.process_time()
    import workloads

    thunk, check = workloads.prepare(request["workload"], request["op"])
    ok = bool(check(thunk()))
    t2 = time.process_time()
    print(json.dumps({"setup_s": t2, "import_s": t1 - t0, "first_op_s": t2 - t1, "ok": ok}),
          flush=True)


if __name__ == "__main__":
    main()
