"""Self-tests of the benchmark: cold passes, output checks, layer accounting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import speed  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import truncsym.cli  # noqa: E402,F401
import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())

# Rendering-heavy CLI ops: most of their time is cli self time.
RENDER_OPS = [
    ["cli", *workloads._table("plain", 60, 6, "json")],
    ["cli", *workloads._table("plain", 60, 6, "csv")],
    ["cli", *workloads._objects("paths", "E", 7, 10, 3, "json")],
]


def test_first_op_of_a_pass_is_cold():
    op = ["cli", "expand", "--kind", "E", "--k", "1", "--s", "4", "--n", "8",
          "--format", "json", "--deterministic"]
    result = run.spawn([op, op], run.golden_for([op], GOLDEN), trace=False, fill=False, timeout=120)
    assert result["problems"] == []  # no memo table held an entry before the first op
    assert result["failed"] == 0
    # The same op again in the same interpreter is served from the caches.
    assert result["first_op_s"] > 5 * result["last_op_s"]


def test_warm_cache_scan_sees_filled_caches():
    workloads.execute(["fuzz", 3, 2, 4, [2, 2]])
    workloads.execute(["cli", "verify", "--id", "cubic_E", "--n", "2", "--k", "3",
                       "--s", "2", "--deterministic"])
    workloads.execute(["cli", "bisnomial", "--n", "3", "--k", "2", "--s", "2"])
    warm = workloads.warm_caches()
    assert any(name.startswith("truncsym.symfun.") for name in warm)
    assert any(name.startswith("truncsym.identities.") for name in warm)
    assert any(name.startswith("truncsym.bisnomial.") for name in warm)


def _fail_frac(result: dict) -> float:
    passes = [dict(result, traced=False, setup_only=False, problems=[], setup_s=0.1, wall_s=1.0,
                   maxrss_kib=1024)]
    line, _ = run.summarize(passes, trace=False)
    return 1 - line["metrics"]["ok_frac"]["value"]


def test_clean_outputs_pass():
    ops = workloads.make_ops("count_enumerate", 1)[:20] + workloads.make_ops("fuzz_warm", 1)[:50]
    result = workloads.run_ops(ops, GOLDEN)
    assert result["failed"] == 0, result["failures"]
    assert _fail_frac(result) == 0


def test_corrupted_output_fails(monkeypatch):
    ops = RENDER_OPS + workloads.make_ops("fuzz_warm", 2)[:5]
    corrupted = workloads.op_key(RENDER_OPS[1])
    real = workloads.execute

    def execute(op):
        out = real(op)
        return out.replace("1", "2", 1) if workloads.op_key(op) == corrupted else out

    monkeypatch.setattr(workloads, "execute", execute)
    result = workloads.run_ops(ops, GOLDEN)
    assert result["failed"] == 1
    assert result["failures"][0].startswith(corrupted)
    assert _fail_frac(result) > 0


def test_failed_fuzz_assertion_fails(monkeypatch):
    symfun = sys.modules["truncsym.symfun"]
    real_H = symfun.H

    def wrong_H(k, s, n):
        value = real_H(k, s, n)
        return value + value if (k, s, n) == (3, 2, 2) else value

    monkeypatch.setattr(symfun, "H", wrong_H)
    result = workloads.run_ops([["fuzz", 2, 2, 3, [2, 1]], ["fuzz", 2, 2, 2, [1, 1]]], GOLDEN)
    assert result["failed"] == 1
    assert "AssertionError" in result["failures"][0]


def test_bad_fuzz_point_fails_the_run():
    ops = [["fuzz", 2, 2, 3, [2, 1]], ["fuzz", 3, 1, 2, [1, 1]]]
    golden = run.golden_for(ops, GOLDEN)
    golden[workloads.point_key(3, 1, 2)] = workloads.digest("not the terms")
    result = run.spawn(ops, golden, trace=False, fill=False, timeout=120)
    # the ops themselves pass; the E/H digest of one point does not
    assert result["attempted"] == 1 + len(ops) + 2
    assert result["failed"] == 1
    line, _ = run.summarize([dict(result, setup_s=0.1, setup_only=False)], trace=False)
    assert line["correct"] is False and line["metrics"]["ok_frac"]["value"] < 1


# Ops for the layer-accounting tests: rendering, enumeration and small products.
ACCOUNTING_OPS = RENDER_OPS * 2 + workloads.make_ops("fuzz_warm", 5)[:400]


def _accounting(layers) -> tuple[float, float]:
    """(uncovered share, span-versus-sample gap) of a traced run with only these layers."""
    tracer = tracer_mod.Tracer()
    tracer.install(layers)
    stacks = tracer_mod.StackSampler(tracer)
    try:
        tracer.reset()
        stacks.start()
        t0 = time.perf_counter()
        result = workloads.run_ops(ACCOUNTING_OPS, GOLDEN, tracer)
        wall = time.perf_counter() - t0
        samples = stacks.stop()
        metrics = tracer.metrics(wall, samples)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0, result["failures"]
    assert sum(samples.values()) > 0.3  # seconds sampled
    return metrics["bench.uncovered_share"], metrics["bench.sample_gap"]


def test_layer_accounting_covers_traced_wall():
    uncovered, gap = _accounting(tracer_mod.LAYERS)
    assert uncovered <= tracer_mod.COVERAGE_TOLERANCE
    assert gap <= tracer_mod.SAMPLE_GAP_TOLERANCE


def test_layer_accounting_flags_a_missing_entry_wrapper():
    uncovered, gap = _accounting([layer for layer in tracer_mod.LAYERS if layer != "cli"])
    assert uncovered > tracer_mod.COVERAGE_TOLERANCE
    assert gap > tracer_mod.SAMPLE_GAP_TOLERANCE


@pytest.mark.parametrize("missing", ["multipoly", "combinatorics"])
def test_layer_accounting_flags_a_missing_inner_wrapper(missing):
    # An inner layer's time goes to its callers' spans, so nothing is
    # uncovered; the stack samples still find the layer's own code.
    uncovered, gap = _accounting([layer for layer in tracer_mod.LAYERS if layer != missing])
    assert uncovered <= tracer_mod.COVERAGE_TOLERANCE
    assert gap > tracer_mod.SAMPLE_GAP_TOLERANCE


def test_uninstall_restores_every_binding():
    symfun, multipoly = sys.modules["truncsym.symfun"], sys.modules["truncsym.multipoly"]
    before = (symfun.E, multipoly.MPoly.__mul__, vars(multipoly.MPoly)["zero"], truncsym.cli.run)
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert symfun.E is not before[0]
    tracer.uninstall()
    after = (symfun.E, multipoly.MPoly.__mul__, vars(multipoly.MPoly)["zero"], truncsym.cli.run)
    assert after == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_follow_the_seed_and_have_golden_digests(workload):
    ops = workloads.make_ops(workload, 7)
    assert ops == workloads.make_ops(workload, 7)
    assert ops != workloads.make_ops(workload, 8)
    assert ops != workloads.make_ops(workload, 7, 1)  # each pass of a run has its own order
    if workload != "fuzz_warm":
        assert sorted(map(workloads.op_key, ops)) == sorted(
            map(workloads.op_key, workloads.make_ops(workload, 8, 3)))
    missing = [workloads.op_key(op) for op in ops if workloads.op_key(op) not in GOLDEN]
    assert missing == []


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count_enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_wrong_output_at_any_bound():
    base = [{"correct": True, "failed": 0}] * 3
    assert not compare.wrong_output(base, base)
    assert compare.wrong_output(base, [{"correct": True, "failed": 0}] * 2
                                + [{"correct": True, "failed": 1}])
    assert compare.wrong_output(base, [{"correct": False, "failed": 0}] * 3)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, base, "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"


def test_speed_probes_sample_inside_a_long_call():
    sampler = speed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        total = 0
        while time.perf_counter() - t0 < 0.4:
            total += sum(range(1000))
        pass_speed, spent = sampler.take()
    finally:
        sampler.stop()
    assert 0 < spent < 0.2  # the start probes plus about eight timer probes
    assert 0.1 < pass_speed < 10
