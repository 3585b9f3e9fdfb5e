"""Run every workload over several seeds and write one result file.

    python3 bench/suite.py --out bench/results/BENCH_<label>.json [--seeds 1..10]

Each run is the benchmark's own command, ``python3 bench/run.py --workload W
--seed N --seconds S --trace 0`` with S the ``run_seconds`` of
BENCHMARK.json, one after another; a final ``--trace 1``
run per workload adds the per-layer metrics and the tracing overhead.  The
table printed at the end gives every end-to-end metric of every workload
with its unit (median and quartiles over the runs), fail_frac, the wall_s
tail over all passes, and the property shares that later changes cite:
``symfun.hit_ratio``, ``multipoly.large_pair_share`` and
``combinatorics.yield``.  Compare two result files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SHARES = ("symfun.hit_ratio", "multipoly.large_pair_share", "combinatorics.yield")


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the benchmark command; returns its result line and passes."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "passes": [
            {key: p.get(key) for key in ("traced", "setup_only", "setup_s", "setup_raw_s",
                                         "wall_s", "wall_raw_s", "speed", "maxrss_kib",
                                         "attempted", "failed")}
            for p in detail["passes"]
        ],
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def print_table(doc: dict) -> None:
    print(f"{'workload':16s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'runs':>4s}  unit")
    for workload, entry in doc["workloads"].items():
        runs = entry["runs"]
        units = runs[0]["units"]
        for name in runs[0]["metrics"]:
            q1, med, q3 = stats.quartiles([r["metrics"][name] for r in runs])
            print(f"{workload:16s} {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{len(runs):4d}  {units[name]}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:16s} {'fail_frac':28s} {failed / attempted:12.6g} {'':12s} {'':12s} "
              f"{len(runs):4d}  ratio ({failed} of {attempted} checks)")
        walls = [p["wall_s"] for r in runs for p in r["passes"]
                 if not p["traced"] and not p["setup_only"]]
        t = stats.tail(walls)
        tail = f"p{t[0]} {t[1]:.4f} s" if t else "no tail percentile (needs 11 passes)"
        print(f"{workload:16s} {'wall_s over passes':28s} median {stats.median(walls):.4f} s, "
              f"{tail}, {len(walls)} passes")
        m = entry["trace"]["metrics"]
        shares = ", ".join(f"{name} {m[name]:.4g}" for name in SHARES)
        print(f"{workload:16s} {'shares':28s} {shares}")
        print(f"{workload:16s} {'trace.overhead_s':28s} {m['trace.overhead_s']:.4g} s "
              f"(traced wall_s {m['trace.wall_s']:.4g} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result file to write")
    parser.add_argument("--seeds", default="1..10", help="'1..10' or '3,5,8'")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}",
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        entry = {"runs": []}
        for seed in seeds:
            run = run_once(workload, seed, seconds, trace=False)
            entry["runs"].append(run)
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()), flush=True)
        entry["trace"] = run_once(workload, seeds[0], seconds, trace=True)
        entry["shares"] = {name: entry["trace"]["metrics"][name] for name in SHARES}
        doc["workloads"][workload] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print_table(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
