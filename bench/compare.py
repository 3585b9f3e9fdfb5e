"""Compare two result files written by ``suite.py``.

    python3 bench/compare.py BASE.json CHANGE.json

For every (workload, end-to-end metric) it prints each side's median,
quartiles and run count, and a verdict judged against the bound the metric
has in BENCHMARK.json:

* ``worse``: the change's median is worse than the base's by more than the bound;
* ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, unless every change run reads better
  than every base run;
* ``better``: the change wins at least nine tenths of the run pairs (runs
  paired in order, ties counting for neither) and the medians differ by more
  than the base's quartile distance;
* ``unchanged``: otherwise.

Correctness is judged apart from any bound: when a change run printed
``"correct": false``, or the change failed more checks than the base, the
workload's ``ok_frac`` verdict is ``worse``.

The per-layer metrics of the traced runs follow, base and change side by
side, without a verdict.  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0 means x is worse than y
    b1, bmed, b3 = stats.quartiles(base)
    c1, cmed, c3 = stats.quartiles(change)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    if not all_better and max(stats.spread(base), stats.spread(change)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if ((all_better or wins >= 0.9 * len(pairs)) and abs(cmed - bmed) > (b3 - b1)
            and sign * (cmed - bmed) < 0):
        return "better"
    return "unchanged"


def wrong_output(base_runs: list[dict], change_runs: list[dict]) -> bool:
    """A change run not correct, or more failed checks than the base: worse at any bound."""
    b_failed = sum(r["failed"] for r in base_runs)
    c_failed = sum(r["failed"] for r in change_runs)
    return c_failed > b_failed or not all(r["correct"] for r in change_runs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    spec = load_spec()
    worse = False
    print(f"{'workload':16s} {'metric':14s} {'base median [q1, q3] n':>34s} "
          f"{'change median [q1, q3] n':>34s}  verdict (bound)")
    for workload, b_entry in base["workloads"].items():
        c_entry = change["workloads"][workload]
        wrong = wrong_output(b_entry["runs"], c_entry["runs"])
        for name, metric in spec.items():
            b_vals = [r["metrics"][name] for r in b_entry["runs"]]
            c_vals = [r["metrics"][name] for r in c_entry["runs"]]
            v = verdict(b_vals, c_vals, metric["better"], metric["bound"])
            if name == "ok_frac" and wrong:
                v = "worse"
            worse |= v == "worse"
            cols = []
            for vals in (b_vals, c_vals):
                q1, med, q3 = stats.quartiles(vals)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(vals)}")
            print(f"{workload:16s} {name:14s} {cols[0]:>34s} {cols[1]:>34s}  "
                  f"{v} ({metric['bound']:g}, {metric['unit']})")
        failed = [sum(r["failed"] for r in entry["runs"]) for entry in (b_entry, c_entry)]
        print(f"{workload:16s} {'failed checks':14s} {failed[0]:>34d} {failed[1]:>34d}  "
              + ("worse (any rise, or a run not correct)" if wrong else "ok"))
    print()
    print(f"{'workload':16s} {'per-layer metric':34s} {'base':>14s} {'change':>14s}")
    for workload, b_entry in base["workloads"].items():
        c_trace = change["workloads"][workload]["trace"]
        for name, value in b_entry["trace"]["metrics"].items():
            other = c_trace["metrics"].get(name)
            other_text = f"{other:14.6g}" if other is not None else f"{'-':>14s}"
            print(f"{workload:16s} {name:34s} {value:14.6g} {other_text}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
