"""End-to-end tests for the command line interface."""

import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import truncsym
from truncsym import cli
from truncsym.identities import IdentitySpec, REGISTRY


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_prints_the_polynomial(capsys):
    code, out, err = run_cli(
        capsys, "expand", "--kind", "H", "--k", "3", "--s", "2", "--n", "3",
        "--deterministic",
    )
    assert code == 0
    assert out == "-x1^3 - x2^3 - x3^3 + x1*x2*x3\n"
    assert err == ""


def test_expand_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--kind", "m", "--lambda", "2,1,1", "--n", "4",
        "--format", "json", "--deterministic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "m"
    assert payload["lam"] == [2, 1, 1]
    assert len(payload["poly"]["terms"]) == 12


def test_expand_reports_elapsed_on_stderr_by_default(capsys):
    code, out, err = run_cli(capsys, "expand", "--kind", "e", "--k", "2", "--n", "3")
    assert code == 0
    assert out.strip()
    assert err.startswith("elapsed") and err.rstrip().endswith("s")


def test_verify_emits_json_lines(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--id", "ortho", "--n", "1..2", "--k", "0..2",
        "--s", "1..1", "--deterministic",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    for line in lines:
        rec = json.loads(line)
        assert rec["identity_id"] == "ortho"
        assert rec["holds"] is True
        assert "elapsed" not in rec
    assert err == "6 checks, 0 failed\n"


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "ortho", "--n", "1..1", "--k", "0..1",
        "--s", "1..1", "--format", "text", "--deterministic",
    )
    assert code == 0
    assert out == "PASS ortho k=0 n=1 s=1\nPASS ortho k=1 n=1 s=1\ntotal=2 failed=0\n"


def test_verify_all_runs_every_identity_and_conversion(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "all", "--n", "1..2", "--k", "0..3",
        "--s", "1..2", "--deterministic",
    )
    assert code == 0
    ids = {json.loads(line)["identity_id"] for line in out.strip().split("\n")}
    assert "ortho" in ids and "mroots_closed_k" in ids
    assert "conversion:plain" in ids and "conversion:qs_recovery" in ids


def test_verify_ranges_bound_the_conversions_from_both_ends(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "conversions", "--n", "3..3", "--k", "2..2",
        "--s", "2..2", "--format", "text", "--deterministic",
    )
    assert code == 0
    kinds = ("plain", "q", "pq", "binom_recovery", "qs_recovery")
    assert out == "".join(f"PASS conversion:{kind} k=2 n=3 s=2\n" for kind in kinds) + "total=5 failed=0\n"


def test_verify_runs_one_conversion_family_by_name(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--id", "conversion:pq", "--n", "3", "--k", "2", "--s", "2",
        "--deterministic",
    )
    assert (code, err) == (0, "1 checks, 0 failed\n")
    rec = json.loads(out)
    assert rec["identity_id"] == "conversion:pq" and rec["holds"] is True
    assert rec["params"] == {"k": 2, "n": 3, "s": 2}


def test_verify_exit_code_flags_failures(capsys, monkeypatch):
    spec = IdentitySpec(
        name="always_false",
        arity=("k", "s"),
        check=lambda k, s: (False, 0, 1),
        requires=lambda k, s: None,
    )
    monkeypatch.setitem(REGISTRY, "always_false", spec)
    code, out, err = run_cli(
        capsys, "verify", "--id", "always_false", "--k", "0..0", "--s", "1..1",
        "--deterministic",
    )
    assert code == 1
    assert json.loads(out)["holds"] is False
    assert err == "1 checks, 1 failed\n"


def test_verify_unknown_identity_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "nope", "--deterministic")
    assert code == 2
    assert err.startswith("error:")


def test_paths_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--model", "H", "--n", "3", "--k", "3", "--s", "2",
        "--deterministic",
    )
    assert code == 0
    assert out.splitlines() == [
        "EEENN weight=x1^3 sign=-1",
        "ENENE weight=x1*x2*x3 sign=+1",
        "NEEEN weight=x2^3 sign=-1",
        "NNEEE weight=x3^3 sign=-1",
        "count=4",
        "weight_sum=-x1^3 - x2^3 - x3^3 + x1*x2*x3",
    ]


def test_paths_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--model", "H", "--n", "3", "--k", "3", "--s", "2",
        "--format", "csv", "--deterministic",
    )
    assert code == 0
    assert out.startswith("steps,weight,sign\r\n")
    assert 'EEENN,"3,0,0",-1' in out


def test_tilings_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "tilings", "--model", "H", "--n", "3", "--k", "3", "--s", "2",
        "--format", "json", "--deterministic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["objects"] == "tilings"
    assert payload["count"] == 4
    assert [item["steps"] for item in payload["items"]] == [
        "ggrrr", "grrrg", "rgrgr", "rrrgg",
    ]


def test_paths_svg_output(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--model", "E", "--n", "2", "--k", "2", "--s", "2",
        "--format", "svg", "--deterministic",
    )
    assert code == 0
    assert out.startswith("<svg")


def test_bisnomial_value_and_table(capsys):
    code, out, _ = run_cli(
        capsys, "bisnomial", "--n", "3", "--k", "3", "--s", "2", "--deterministic"
    )
    assert (code, out) == (0, "7\n")
    code, out, _ = run_cli(
        capsys, "bisnomial", "--n", "2", "--s", "2", "--table", "--deterministic"
    )
    assert code == 0
    assert out == "1\n1 1 1\n1 2 3 2 1\n"


def test_bisnomial_q_flavor(capsys):
    code, out, _ = run_cli(
        capsys, "bisnomial", "--n", "3", "--k", "3", "--s", "2",
        "--flavor", "q", "--deterministic",
    )
    assert (code, out) == (0, "q + 2*q^2 + q^3 + 2*q^4 + q^5\n")


def test_bisnomial_csv_table(capsys):
    code, out, _ = run_cli(
        capsys, "bisnomial", "--n", "2", "--s", "2", "--table",
        "--format", "csv", "--deterministic",
    )
    assert code == 0
    assert out.startswith("n,k,value\r\n0,0,1\r\n")


def test_schur_reports_both_bases(capsys):
    code, out, _ = run_cli(
        capsys, "schur", "--lambda", "2,1", "--s", "2", "--n", "2", "--deterministic"
    )
    assert code == 0
    assert out == (
        "H-basis: x1^3 + x2^3 + x1^2*x2 + x1*x2^2\n"
        "E-basis: x1^3 + x2^3 + x1^2*x2 + x1*x2^2\n"
        "equal: true\n"
    )


def test_schur_json(capsys):
    code, out, _ = run_cli(
        capsys, "schur", "--lambda", "2,1", "--s", "2", "--n", "2",
        "--format", "json", "--deterministic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["lam"] == [2, 1]


def test_out_writes_to_a_file(capsys, tmp_path):
    target = tmp_path / "h.txt"
    code, out, _ = run_cli(
        capsys, "expand", "--kind", "H", "--k", "3", "--s", "2", "--n", "3",
        "--out", str(target), "--deterministic",
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "-x1^3 - x2^3 - x3^3 + x1*x2*x3\n"


def test_an_unwritable_out_is_a_one_line_error(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "x"
    code, out, err = run_cli(
        capsys, "expand", "--kind", "E", "--k", "2", "--s", "1", "--n", "2",
        "--out", str(target), "--deterministic",
    )
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


@pytest.mark.parametrize("argv, reason", [
    (("--id", "conversions", "--s", "1..1", "--format", "text"), "conversion:plain: s must be >= 2"),
    (("--id", "conversion:pq", "--n", "0..0"), "conversion:pq: n must be >= 1"),
], ids=["conversions-s1", "pq-n0"])
def test_a_sweep_with_no_valid_point_is_a_one_line_error(capsys, argv, reason):
    code, out, err = run_cli(capsys, "verify", *argv, "--deterministic")
    assert (code, out, err) == (2, "", f"error: no valid point for {reason}\n")


def test_a_sweep_runs_the_ids_that_have_a_valid_point(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--id", "all", "--n", "1", "--k", "1", "--s", "1..1",
        "--format", "text", "--deterministic",
    )
    assert code == 0
    assert "PASS ortho k=1 n=1 s=1\n" in out and "conv_H" not in out


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "expand", "--kind", "Z", "--k", "1", "--n", "1")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "expand", "--kind", "E", "--k", "1", "--n", "1")[0] == 2  # missing --s
    assert run_cli(capsys, "verify", "--id", "ortho", "--k", "0..x")[0] == 2


def test_deterministic_runs_are_byte_identical(capsys):
    args = ("verify", "--id", "rec_E", "--n", "1..2", "--k", "0..3", "--s", "1..2",
            "--deterministic")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_partition_parser():
    assert cli.parse_partition("3,1,1") == (3, 1, 1)
    assert cli.parse_partition("1^2 3^1") == (3, 1, 1)
    assert cli.parse_partition("") == ()
    with pytest.raises(ValueError):
        cli.parse_partition("0")
    with pytest.raises(ValueError):
        cli.parse_partition("banana")


def test_range_parser():
    assert cli.parse_range("3") == [3]
    assert cli.parse_range("0..4") == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        cli.parse_range("5..1")
    with pytest.raises(ValueError):
        cli.parse_range("a..b")


# The five large expansions of the benchmark's expand_large workload; their
# output digests were recorded in bench/golden.json and must not change.
GOLDEN_EXPANSIONS = (
    "expand --kind H --k 12 --s 3 --n 8",
    "expand --kind E --k 1 --s 4 --n 8",
    "expand --kind E --k 12 --s 3 --n 8",
    "schur --lambda 2,1 --s 2 --n 7",
    "schur --lambda 3,2,1 --s 2 --n 6",
)


def test_large_expansions_match_the_recorded_digests(capsys):
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    for line in GOLDEN_EXPANSIONS:
        argv = line.split() + ["--format", "json", "--deterministic"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, line
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == golden["cli " + " ".join(argv)], line


def _load_bench_workloads():
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every verify command of the benchmark's verify_sweep workload: each
# identity on its default grid, then the conversion families; their output
# digests were recorded in bench/golden.json.
GOLDEN_VERIFICATIONS = (*_load_bench_workloads().IDENTITIES, "conversions")


def test_kernel_heavy_verifications_match_the_recorded_digests(capsys):
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    for name in GOLDEN_VERIFICATIONS:
        argv = ["verify", "--id", name, "--format", "json", "--deterministic"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, name
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == golden["cli " + " ".join(argv)], name


def test_the_parser_is_built_once_and_serves_every_verb(capsys, monkeypatch):
    def refuse():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    verify = ["verify", "--id", "roots_H", "--format", "json", "--deterministic"]
    for argv in (verify, list(_load_bench_workloads().COUNT_CLI[0]), verify):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == golden["cli " + " ".join(argv)], argv


def test_counting_commands_match_the_recorded_digests(capsys):
    # the paths, tilings and bisnomial-table commands of the benchmark's count_enumerate workload
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    for argv in _load_bench_workloads().COUNT_CLI:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == golden["cli " + " ".join(argv)], argv


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--n", "1200", "--k", "1", "--s", "1", "--format", "text"], 1200),  # 1199 North steps
        (["--n", "2", "--k", "3000", "--s", "3000"], 3001),  # 3000 East steps
    ],
)
def test_long_paths_need_no_deep_recursion(capsys, argv, count):
    code, out, err = run_cli(capsys, "paths", "--model", "E", *argv, "--deterministic")
    assert (code, err) == (0, "")
    assert f"\ncount={count}\n" in out


def test_running_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_expand", exhausted)
    code, out, err = run_cli(capsys, "expand", "--kind", "e", "--k", "3", "--n", "2000")
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("kind", ["e", "h"])
def test_classical_in_many_variables_needs_no_deep_recursion(capsys, kind):
    try:
        code, out, err = run_cli(
            capsys, "expand", "--kind", kind, "--k", "1", "--n", "1500", "--deterministic"
        )
    finally:
        truncsym.clear_caches()
    assert (code, err) == (0, "")
    assert out == " + ".join(f"x{i}" for i in range(1, 1501)) + "\n"


def test_bisnomial_in_many_slots_needs_no_deep_recursion(capsys):
    try:
        code, out, err = run_cli(
            capsys, "bisnomial", "--n", "3000", "--k", "2", "--s", "2", "--deterministic"
        )
    finally:
        truncsym.clear_caches()
    assert (code, out, err) == (0, "4501500\n", "")


def test_a_bisnomial_table_computes_each_cell_once(capsys):
    # each cell is one call that reads at most s + 1 cells of the row below;
    # refilling the lower rows for every cell of a table would make many more calls
    n, s = 150, 3
    truncsym.clear_caches()
    try:
        code, out, _ = run_cli(capsys, "bisnomial", "--table", "--n", str(n), "--s", str(s), "--format", "csv")
        info = truncsym.bisnomial.cache_info()
    finally:
        truncsym.clear_caches()
    cells = sum(s * m + 1 for m in range(n + 1))
    assert code == 0 and out.count("\n") == cells + 1
    assert info.hits + info.misses <= (s + 2) * cells


@pytest.mark.parametrize("argv", [
    ["bisnomial", "--table", "--n", "3", "--s", "0", "--format", "json"],
    ["verify", "--id", "conversions", "--s", "1..1"],
    ["expand", "--kind", "m", "--n", "2"],
    ["schur", "--lambda", "0", "--s", "2", "--n", "2"],
], ids=["table-s0", "empty-sweep", "m-without-lambda", "bad-partition"])
def test_an_error_before_the_first_chunk_writes_nothing(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--deterministic")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(target), "--deterministic") == (2, "", err)
    assert not target.exists()


def test_an_error_after_the_first_chunk_keeps_what_was_written(capsys, monkeypatch):
    def first_row_then_exhausted(args):
        yield "1\n"
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_bisnomial", first_row_then_exhausted)
    code, out, err = run_cli(capsys, "bisnomial", "--table", "--n", "3", "--s", "2")
    assert (code, out, err) == (2, "1\n", "error: out of memory\n")


@pytest.mark.parametrize("argv", [
    ["bisnomial", "--table", "--flavor", "pq", "--n", "3", "--s", "2"],
    ["bisnomial", "--table", "--n", "-1", "--s", "2"],
    ["paths", "--model", "H", "--n", "4", "--k", "6", "--s", "2"],
    ["tilings", "--model", "E", "--n", "7", "--k", "14", "--s", "1"],  # no admissible tiling
], ids=["pq-table", "empty-table", "paths", "no-items"])
def test_a_streamed_json_payload_is_the_one_line_dump(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--deterministic")
    assert code == 0
    assert out == json.dumps(json.loads(out), separators=(", ", ": ")) + "\n"


class _Chunks:
    def __init__(self):
        self.written = []

    def write(self, text):
        self.written.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, chunks", [
    # 2128 paths: 9 blocks of at most 256 lines, the count and weight_sum lines, the last newline
    (["paths", "--model", "E", "--n", "7", "--k", "10", "--s", "3"], 11),
    (["tilings", "--model", "E", "--n", "7", "--k", "10", "--s", "3", "--format", "json"], 11),
    # the header or the head, then one chunk per row m = 0..20 (a json table adds its tail)
    (["bisnomial", "--table", "--flavor", "q", "--n", "20", "--s", "4", "--format", "csv"], 22),
    (["bisnomial", "--table", "--flavor", "plain", "--n", "20", "--s", "4", "--format", "json"], 23),
], ids=["paths-text", "tilings-json", "q-table-csv", "plain-table-json"])
def test_listings_and_tables_go_out_a_block_or_a_row_at_a_time(argv, chunks):
    sink = _Chunks()
    with contextlib.redirect_stdout(sink):
        assert cli.run([*argv, "--deterministic"]) == 0
    assert len(sink.written) == chunks


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


# tracemalloc peaks with warm caches while the payload went to a discarding
# sink, when each handler built its whole payload first: 18.2 MiB for the
# q table and 6.9 MiB for the plain one (Python 3.11, x86_64)
@pytest.mark.parametrize("argv, built_mib", [
    (["--flavor", "q", "--n", "20", "--s", "4"], 18.2),
    (["--flavor", "plain", "--n", "60", "--s", "6"], 6.9),
], ids=["q", "plain"])
def test_a_json_table_streams_in_a_fraction_of_the_built_payload(argv, built_mib):
    argv = ["bisnomial", "--table", *argv, "--format", "json", "--deterministic"]
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert cli.run(argv) == 0  # fills the caches
            tracemalloc.start()
            try:
                assert cli.run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        truncsym.clear_caches()
    assert peak <= built_mib / 2 * 2**20


def _cli_process(argv, unbuffered, stdout):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(truncsym.__file__).parents[1]), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "truncsym.cli", *argv, "--deterministic"], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_leaves_early_gets_a_one_line_error(unbuffered):
    # the reader takes 20 bytes of the 1.7 MB q table and closes the pipe
    argv = ["bisnomial", "--table", "--flavor", "q", "--n", "20", "--s", "4", "--format", "json"]
    with _cli_process(argv, unbuffered, subprocess.PIPE) as proc:
        assert proc.stdout.read(20) == b'{"flavor": "q", "s":'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_gone_before_a_short_payload_gets_a_one_line_error(unbuffered):
    # a payload this short waits in the stdout buffer, so buffered the write that fails is the last flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _cli_process(["expand", "--kind", "e", "--k", "2", "--n", "3"], unbuffered, write_end) as proc:
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    finally:
        os.close(write_end)
    assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")
