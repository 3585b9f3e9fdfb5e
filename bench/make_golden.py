"""Write golden.json: the sha256 of every op's output, keyed by op.

    python3 bench/make_golden.py

The golden digests are recorded from the program as it is and checked on
every run; regenerate them only for a change that is meant to alter CLI
output.  Every op a seed can produce is covered, each run once in this
process (outputs do not depend on cache state or order).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import truncsym.cli  # noqa: E402,F401  (loads every submodule)
import workloads  # noqa: E402


def main() -> int:
    ops = []
    for workload in workloads.WORKLOADS:
        if workload != "fuzz_warm":
            ops.extend(workloads.make_ops(workload, 0))
    ops.extend(workloads.all_fuzz_ops())
    golden = {}
    for op in ops:
        golden[workloads.op_key(op)] = workloads.digest(workloads.execute(op))
    for n, s, k in sorted({tuple(op[1:4]) for op in ops if op[0] == "fuzz"}):
        golden[workloads.point_key(n, s, k)] = workloads.point_digest(n, s, k)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
