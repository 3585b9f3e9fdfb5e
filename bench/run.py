"""truncsym benchmark: one workload, one seed, measured for about --seconds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured pass is a fresh interpreter (``child.py``) running the
workload's seeded op list once: one caller, one thread, passes started one
after another (a closed loop with a single client).  Passes repeat until
the next one would end after --seconds, and at least MIN_PASSES run.
Set-up-only passes (a fresh interpreter that sets up and exits) run
between the first measured passes, so that setup_s is a median of at
least SETUP_SAMPLES set-ups.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics (medians over the passes); with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced passes, plus the tracing overhead.  The
lines before it are a readable summary and one ``detail`` JSON line with
every pass, which ``suite.py`` collects.

The exit code is 0 when a result was printed, also for a run whose outputs
were wrong (``"correct": false``), and nonzero when no run was possible:
for example without ``src/truncsym`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads
from speed import SENSITIVITY
from tracer import COVERAGE_TOLERANCE, SAMPLE_GAP_TOLERANCE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPANS_DIR = BENCH / "out"

MIN_PASSES = 3  # untraced passes per run, even when they take longer than --seconds
SETUP_SAMPLES = 20  # set-ups per untraced run, spread over its first MIN_PASSES passes
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def spawn(ops: list, golden: dict, *, trace: bool, fill: bool, spans_out=None,
          timeout: float, setup_only: bool = False) -> dict:
    """One pass in a fresh interpreter; setup_s runs from spawning it to its ``ready``."""
    request = json.dumps({
        "src": str(SRC), "ops": ops, "golden": golden, "trace": trace, "fill": fill,
        "spans_out": str(spans_out) if spans_out else None, "setup_only": setup_only,
    })
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(BENCH / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(request, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass exited with code {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready_mono"] - t_spawn
    result["pass_s"] = time.monotonic() - t_spawn
    result["traced"] = trace
    result["setup_only"] = setup_only
    return result


def load_golden() -> dict:
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN}")
    return json.loads(GOLDEN.read_text())


def golden_for(ops: list[list], table: dict) -> dict:
    """The digests the ops of one pass are checked against."""
    keys = {workloads.op_key(op) for op in ops}
    keys |= {workloads.point_key(*op[1:4]) for op in ops if op[0] == "fuzz"}
    return {key: table[key] for key in keys if key in table}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    if not (SRC / "truncsym" / "__init__.py").is_file():
        raise BenchError(f"no truncsym package under {SRC}")
    start = time.monotonic()
    table = load_golden()
    # Untimed first pass with no ops: compiles bytecode and warms the file cache.
    spawn([], {}, trace=False, fill=False, timeout=DEADLINE_S)
    passes: list[dict] = []
    t0 = time.monotonic()
    kinds = [False, True] if trace else [False]
    min_passes = len(kinds) if trace else MIN_PASSES
    fill = workload == "fuzz_warm"
    while True:
        measured = [p for p in passes if not p["setup_only"]]
        traced = kinds[len(measured) % len(kinds)]
        spans_out = None
        if traced:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_out = SPANS_DIR / f"spans-{workload}.tsv.gz"
        # a traced pass runs the same ops as the untraced pass before it
        ops = workloads.make_ops(workload, seed, len(measured) // len(kinds))
        remaining = DEADLINE_S - (time.monotonic() - start)
        passes.append(spawn(ops, golden_for(ops, table), trace=traced, fill=fill,
                            spans_out=spans_out, timeout=remaining))
        measured.append(passes[-1])
        pass_speed = passes[-1]["speed"]
        if not trace:
            share = SETUP_SAMPLES * min(len(measured), MIN_PASSES) // MIN_PASSES
            while len(passes) < share:
                passes.append(spawn(ops, {}, trace=False, fill=fill, setup_only=True,
                                    timeout=DEADLINE_S - (time.monotonic() - start)))
                passes[-1]["speed"] = pass_speed
            for p in passes:
                p.setdefault("setup_s", p["setup_raw_s"] * p["speed"] ** SENSITIVITY)
        kind = kinds[len(measured) % len(kinds)]
        same = [p["pass_s"] for p in measured if p["traced"] == kind]
        estimate = stats.median(same) if same else measured[-1]["pass_s"]
        elapsed = time.monotonic() - t0
        if len(measured) >= min_passes and elapsed + estimate > seconds:
            break
        if time.monotonic() - start + estimate > DEADLINE_S:
            break
    return passes


def summarize(passes: list[dict], trace: bool) -> tuple[dict, dict]:
    """(result line, metrics) for the passes of one run."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    plain = [p for p in passes if not p["traced"] and not p["setup_only"]]
    if not trace:
        setups = [p["setup_s"] for p in passes]
        metrics = {
            "setup_s": (stats.median(setups), "s"),
            "wall_s": (stats.median([p["wall_s"] for p in plain]), "s"),
            "peak_rss_mib": (max(p["maxrss_kib"] for p in plain) / 1024, "MiB"),
            "ok_frac": (1 - failed / attempted if attempted else 0.0, "ratio"),
        }
    else:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = (stats.median([p["layers"][name] for p in traced]), _unit(name))
        traced_wall = stats.median([p["wall_s"] for p in traced])
        metrics["trace.wall_s"] = (traced_wall, "s")
        untraced_wall = stats.median([p["wall_s"] for p in plain])
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return line, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", ".yield", "_gap")):
        return "ratio"
    if name.endswith("ns_per_pair"):
        return "ns"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def report(workload: str, seed: int, passes: list[dict], trace: bool, line: dict,
           metrics: dict) -> None:
    plain = [p for p in passes if not p["traced"] and not p["setup_only"]]
    traced = [p for p in passes if p["traced"]]
    print(f"workload={workload} seed={seed} passes={len(plain)} untraced"
          + (f", {len(traced)} traced" if trace else
             f", {len(passes) - len(plain)} set-up only"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    attempted, failed = line["attempted"], line["failed"]
    print(f"  {'fail_frac':32s} {failed / attempted if attempted else 0:14.6g} ratio"
          f"  ({failed} of {attempted} checks)")
    if trace:
        share = metrics["bench.uncovered_share"][0]
        gap = metrics["bench.sample_gap"][0]
        ok = share <= COVERAGE_TOLERANCE and gap <= SAMPLE_GAP_TOLERANCE
        print(f"  layer accounting: {share:.2%} of the traced wall_s is outside every span "
              f"(tolerance {COVERAGE_TOLERANCE:.0%}); span and stack-sample shares differ "
              f"by up to {gap:.2%} (tolerance {SAMPLE_GAP_TOLERANCE:.0%}): "
              + ("ok" if ok else "a layer is missing a wrapper"))
    walls = [p["wall_s"] for p in plain]
    t = stats.tail(walls)
    print(f"  wall_s over {len(walls)} passes: median {stats.median(walls):.4f} s, "
          + (f"p{t[0]} {t[1]:.4f} s" if t else "no tail percentile (needs 11 passes)"))
    setups = [p["setup_raw_s"] for p in passes if not p["traced"]]
    print(f"  unscaled: setup {stats.median(setups):.4f} s, "
          f"wall {stats.median([p['wall_raw_s'] for p in plain]):.4f} s; "
          f"speed {stats.median([p['speed'] for p in plain]):.3f} of the reference")
    for p in passes:
        for problem in p["problems"] + p["failures"]:
            print(f"  FAIL {problem}")
    detail = {"workload": workload, "seed": seed, "trace": trace, "passes": passes}
    print("detail " + json.dumps(detail))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    line, metrics = summarize(passes, bool(args.trace))
    report(args.workload, args.seed, passes, bool(args.trace), line, metrics)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
