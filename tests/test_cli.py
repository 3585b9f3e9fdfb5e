"""End-to-end tests for the command line interface."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import truncsym
from truncsym import cli, multipoly
from truncsym.bisnomial import bisnomial, pq_bisnomial, q_bisnomial
from truncsym.combinatorics import enum_objects, weight_sum
from truncsym.exactalg import UniPoly
from truncsym.identities import IdentitySpec, REGISTRY
from truncsym.symfun import E, H, P, classical, m_lambda, schur_det


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
        check=lambda k, s: (0, 1),
    )
    monkeypatch.setitem(REGISTRY, "always_false", spec)
    code, out, err = run_cli(
        capsys, "verify", "--id", "always_false", "--k", "0..0", "--s", "1..1",
        "--deterministic",
    )
    assert code == 1
    assert json.loads(out)["holds"] is False
    assert err == "1 checks, 1 failed\n"


def test_a_negative_weight_drops_no_valid_point(capsys):
    # k = -1 is invalid for every id, and has no partition: the sweep is the k = 0..3 one
    for ids in (["--id", "all", "--n", "1", "--s", "2"], ["--id", "mroots_closed_k"]):
        expected = run_cli(capsys, "verify", *ids, "--k=0..3", "--format", "text", "--deterministic")
        assert run_cli(capsys, "verify", *ids, "--k=-1..3", "--format", "text", "--deterministic") == expected
        assert expected[0] == 0
    assert "PASS mroots_closed_k1 lam=[1]\n" in run_cli(capsys, "verify", "--id", "all", "--k=-1..1", "--n", "1",
                                                       "--s", "2", "--format", "text", "--deterministic")[1]


def test_a_point_the_package_cannot_build_is_a_one_line_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "ortho", "--k", "2147483648", "--n", "1", "--s", "1",
                             "--deterministic")
    assert (code, out, err) == (2, "", "error: exponent tuples need 1 entries in 0..2**31-1\n")


@pytest.mark.parametrize("argv", [
    ["expand", "--kind", "m", "--lambda", "1"],
    ["expand", "--kind", "p", "--k", "2"],
    ["schur", "--lambda", "1", "--s", "1"],
    ["verify", "--id", "ortho", "--k", "0", "--s", "1", "--format", "text"],
])
def test_a_variable_count_past_the_key_layout_is_a_one_line_error(capsys, argv):
    # struct refuses a layout of 10**20 fields before it allocates anything
    n = str(10**20)
    assert run_cli(capsys, *argv, "--n", n, "--deterministic") == (2, "", f"error: variable count {n} is too large\n")


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


@pytest.mark.parametrize("verb, model, n, k, s", [
    ("paths", "E", 3, 3, 2),
    ("paths", "H", 7, 10, 3),  # 9 blocks of panels
    ("tilings", "E", 3, 4, 2),
    ("tilings", "H", 5, 8, 3),
    ("paths", "E", 2, 5, 2),  # nothing admissible
    ("tilings", "H", 1, 4, 3),  # n = 1: one tiling, no green cell
    ("paths", "E", 1, 0, 1),  # n = 1, k = 0: the empty path
])
def test_an_svg_listing_labels_the_objects_of_the_json_listing_in_order(capsys, verb, model, n, k, s):
    argv = [verb, "--model", model, "--n", str(n), "--k", str(k), "--s", str(s), "--deterministic"]
    code, svg, _ = run_cli(capsys, *argv, "--format", "svg")
    assert code == 0
    labels = [text.text or "" for text in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    code, listing, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert labels == [item["steps"] for item in json.loads(listing)["items"]]


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


def test_a_negative_multiplicity_exits_two(capsys):
    code, out, err = run_cli(capsys, "expand", "--kind", "m", "--lambda", "2^-1", "--n", "2")
    assert (code, out, err) == (2, "", "error: negative multiplicity in '2^-1'\n")
    assert run_cli(capsys, "expand", "--kind", "m", "--lambda", "2^0", "--n", "2")[:2] == (0, "1\n")


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


def test_partition_parser_takes_zero_copies_but_not_fewer():
    assert cli.parse_partition("2^0 1^2") == (1, 1)
    with pytest.raises(ValueError, match="negative multiplicity in '2\\^-1'"):
        cli.parse_partition("3^1 2^-1")


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


# sha256 of the stdout of one small argv per shape (verb, format, flavor or model, table or value), each
# recorded at commit efef2d3: the whole registry as text, the q and pq tables as text, and a few verify ids as
# text and as JSON, one with values past 40 terms; the whole registry as JSON was recorded at commit 5355c37.
# ``expand --kind H --k 4 --s 2 --n 3`` has terms of one degree with different exponent multisets, so its text
# pins the term order of ``MPoly.__str__``.
PINNED_TEXT = {
    "verify --id all --deterministic --format text": "e2ffca4b7fede4bfe7f2d66c065df591fb308972b01bc1ee3ff0ff39999e0a7b",
    "verify --id all --deterministic --format json": "ee97bd4a6e208283ed63b8335e22007a57a3857986012e6f55122459e9affb7c",
    "bisnomial --table --flavor q --n 6 --s 2 --format text": "d0bea8443d606e4fa1b46b540735bc694fb58851f2531b5f5f59bd6e81ab9b54",
    "bisnomial --table --flavor pq --n 6 --s 2 --format text": "b8748ac4a2d9f68e7477ff611676f22e004a024989b3f282e6f9bccef4cc51e7",
    "expand --kind m --lambda 2,1 --n 3 --format text":
        "59f183747f621406831c15056de4dafe21e5f4cbab68b7345650a8cc39ed2d13",
    "expand --kind m --lambda 2,1 --n 3 --format json":
        "14aa4554bb17041e578807bf498e324be7573ee2ea99ea602338ca437a0d75a6",
    "expand --kind e --k 2 --n 4 --format text": "cf26a5a8732cf19fb8dc856a32d61be6fff945a847258fe13c5c000a55217ad1",
    "expand --kind e --k 2 --n 4 --format json": "fe6bb6406960237046d4692dca864b7f48cfd28f34f91769697a1cfb06afd964",
    "expand --kind h --k 3 --n 2 --format text": "aba307768ad29eb88893f267874e29081cefdb0c175cdabd1afd30dac92b5a90",
    "expand --kind h --k 3 --n 2 --format json": "227ae35ea94b9f804a9d50e900d53d79b6b6d75b079c83f6340fdec89ea44bc6",
    "expand --kind p --k 3 --n 3 --format text": "0e06bfe55190ae6ef344f4dcb7318db982ac3b5d78311a0148ae3bc72ec6d00a",
    "expand --kind p --k 3 --n 3 --format json": "0242968f81aadc3294f0ac726bf7bf902baa7e03a20e62c9415ba9bb8ec7f714",
    "expand --kind E --k 4 --s 2 --n 3 --format text":
        "d932f6f76aa3c5b3d14d43a4e18a1758dd127f405b4e81aa701185a98e9dee5e",
    "expand --kind E --k 4 --s 2 --n 3 --format json":
        "46ecb128b301d42548e80c68eff73be234b15926b9d7c4eda866f5b524195981",
    "expand --kind H --k 4 --s 2 --n 3 --format text":
        "fdaf3960b69f6fb146bd4d7ff3aa1d3d73434297f6e21c7480584ccf4f0cfe40",
    "expand --kind H --k 4 --s 2 --n 3 --format json":
        "b17ea870a405d32e4d42b7c2c35a5c929085ab60870a7fc8e6e4ff2ab31e2ae4",
    "expand --kind P --k 3 --s 2 --n 2 --format text":
        "f3086a4778874f6956da1a044b8318df87278facd373ecce1273de6af262af4c",
    "expand --kind P --k 3 --s 2 --n 2 --format json":
        "abfa28e0c714f5db4df5ceb53d19bb8fd2a5127885136403e3e053a4738c4b5d",
    "verify --id ortho --format json --deterministic":
        "1b868e3629a4557c3e95ac3c6275fee5b7ca4fa79fb56fad2dfc3dbacefb5343",
    "verify --id ortho --format text --deterministic":
        "3af0b5cc1faba41cb27ff2ab1996f0258c83aa20d511e0e9bab5ff5ba5986d25",
    "verify --id scalar_c --format json --deterministic":
        "e2d0d16c171028cb0fa5a5f1ae2a73d483d596bd7775b15a0dcbba5111bddf92",
    "verify --id scalar_c --format text --deterministic":
        "499d0b71536e824b7740ea146965e4a4e328cb2984f662fbbb29305b4d5bd48e",
    "verify --id mroots_closed_k --k 2..4 --format json --deterministic":
        "211e8ddc36966cd9b0ce8a276c7ba5849a100db366b2835ce3f10531e3ce07b4",
    "verify --id mroots_closed_k --k 2..4 --format text --deterministic":
        "3ab2a12d5fa57a309465c397151d45b0505cb1559baf93fb41923a4a2a21cf37",
    "verify --id pk_from_E --n 2..3 --k 1..4 --s 2..3 --format json --deterministic":
        "d64fcbd3e2c2159ceb07258ed578f39be4e026dc1f3f58eff7c7f31361f8df15",
    "verify --id inv_H --n 4 --k 4..6 --s 1 --format json --deterministic":
        "4a2abde262bf5a0ad8c578e7093341cc19faeda1ef87ae4150ffe8695d493232",
    "verify --id conversion:pq --n 1..3 --k 0..3 --format json --deterministic":
        "4a67132e500513ccb689627d68a91819f90b691cfb2ece6e2c79999bd868053b",
    "verify --id conversions --n 1..2 --k 0..2 --s 2..3 --format text --deterministic":
        "d7e58dc4e9c0e2439c0fb31bda25737786a7f4dfdbcc30241f37a3745e693213",
    "paths --model E --n 3 --k 4 --s 2 --format text":
        "a8149f6efe35bda42bbdb0a41e1b979209dd80031f0e87b2fa9c4ba7f77a8599",
    "paths --model E --n 3 --k 4 --s 2 --format json":
        "f866cfc308f8636151fad4bbd34093630580b2c02244aa3bbb8444a788a9418d",
    "paths --model E --n 3 --k 4 --s 2 --format svg":
        "af5398056c6000defcceca41abd8303a061fcbf097c1e936f7e4d81a3a401990",
    "paths --model E --n 3 --k 4 --s 2 --format csv":
        "363f4b8cf7e86d46fb480c8d471684c3bc1baeec8bccd6b9aac1cd79a4b8b150",
    "paths --model H --n 3 --k 4 --s 2 --format text":
        "4cd16a020959f4574362616b1fd7cfbd4c795816e939f4fed43748546faa263b",
    "paths --model H --n 3 --k 4 --s 2 --format json":
        "30ed1be6c22db1c85bfa0f29228ffa1cea4d4ea96eba8954599ae20da7731efa",
    "paths --model H --n 3 --k 4 --s 2 --format svg":
        "7441c4b38f3b249f485d9a5145d61978e72cac77885c5c0f1a4b5fcf53f16552",
    "paths --model H --n 3 --k 4 --s 2 --format csv":
        "44081d3a39a869736d87040bbc44bb2769e07ed1aa79d180edba5acb5fa77116",
    "tilings --model E --n 3 --k 4 --s 2 --format text":
        "fd5c034d7f0b43c175b10506617212a6490f4c26b1bdfc82414bcdf378a4b418",
    "tilings --model E --n 3 --k 4 --s 2 --format json":
        "890731113af9101c4a3ac426092f72d8edcee767f40210f02bd18b7cc4a74360",
    "tilings --model E --n 3 --k 4 --s 2 --format svg":
        "d70eb0bf36d83eba0b1f10f2b996e403c937f34509c09edb935d3c4949000a1f",
    "tilings --model E --n 3 --k 4 --s 2 --format csv":
        "5d0dec069853a5c9e56fc97c01447b425046c694a5e2d9a5293e94a3ce2f58e3",
    "tilings --model H --n 3 --k 4 --s 2 --format text":
        "3828fa6af97549c07c14d15aece82c6a439cc2dfb83a6ea4a395010de39f7482",
    "tilings --model H --n 3 --k 4 --s 2 --format json":
        "bf2fd1c08e452ae68ed58ff26b4589eca305006b0429686029aa3446a6d079c2",
    "tilings --model H --n 3 --k 4 --s 2 --format svg":
        "26548bb1f69e8bd565d0ea437531f6301ac699c08e147cf40191a3b6d7010f0d",
    "tilings --model H --n 3 --k 4 --s 2 --format csv":
        "855c83cb606c5bb71dd766597ac393fd0e9c10e9a9f6fd62a9cf40cc8af4aaec",
    "paths --model E --n 2 --k 5 --s 1 --format json":
        "15a03268757bef055622a64f03450ad1e04e72a1ecdf5659fa3498467537323b",
    "bisnomial --n 4 --k 3 --s 2 --format text": "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
    "bisnomial --n 4 --k 3 --s 2 --format json": "31fed14a6fb99cb39f8a2ec07e17da417c676df8e000b9f19bdb40ea7cf7add0",
    "bisnomial --flavor q --n 4 --k 3 --s 2 --format text":
        "81a9139aeaed3b9d85abf66d1f5ebfbb9aa294d9ce50b0f818701083c6f38e26",
    "bisnomial --flavor q --n 4 --k 3 --s 2 --format json":
        "c4f8b4a445faf5c05116815b98553d40fbe03f72b83df011b73c4955a451ebb4",
    "bisnomial --flavor pq --n 4 --k 3 --s 2 --format text":
        "f523be93df1f6582fcd835aaeeec80ca0ec516c07bfd2ca70d38a3d90cf04ae7",
    "bisnomial --flavor pq --n 4 --k 3 --s 2 --format json":
        "8fd9d30d5b50662a09e309ef8c67776eedcbccd98b1992f40d5c136dc3aefc19",
    "bisnomial --table --n 4 --s 2 --format text": "49e5fbb99dda6459ff3cad1166f0a09fe12e4a48da8fb4531f79b7cfaba576d7",
    "bisnomial --table --n 4 --s 2 --format json": "d85afac438173fa56373a467843e9efb067032f1cbe691e3e6423723ac3bedd2",
    "bisnomial --table --n 4 --s 2 --format csv": "b61907951e624305078707615e65dbcd495a5e6dad20e1125ee7d13a8e3e86d3",
    "bisnomial --table --flavor q --n 3 --s 2 --format json":
        "b192c598e948552aa47b4ad2375a1a2db415aa33e92e803cce32cb307599d40a",
    "bisnomial --table --flavor q --n 3 --s 2 --format csv":
        "288f311c9b8c311b3b6d6beb6da689f97b52afc206e6e436a81c7689a78b7990",
    "bisnomial --table --flavor pq --n 3 --s 2 --format json":
        "18cbd8b59b8815d1a5b2c7e2db14739dbb9845d4873e28b44954483346a6cd0d",
    "bisnomial --table --flavor pq --n 3 --s 2 --format csv":
        "dc463b2864813e5fe1c7e0385aaba0a25c96a0ba58663cce99029f9cc96f2303",
    "schur --lambda 2,1 --s 2 --n 3 --format text": "6a1c7ffd5997d443de2fd4c08bddc51d3eeb3a4c50a6b53f647e17d7b8599ba4",
    "schur --lambda 2,1 --s 2 --n 3 --format json": "4b42db62d1ba427dd050bfc2aa8b6bae96d4a56d28f4cbb6dfd44964243d65e2",
    "schur --lambda 3,1 --s 1 --n 2 --format text": "17cd58802aee65cc847545f5288f88e803d562dae26ffc19474a3a205cae5768",
    "schur --lambda 3,1 --s 1 --n 2 --format json": "987d91ff32bd1ade9b1693ad37b3d509ce76397126d4c8ef8f46ac5092944eb2",
}


@pytest.mark.parametrize("line", PINNED_TEXT)
def test_text_outputs_match_their_pinned_digests(capsys, line):
    code, out, _ = run_cli(capsys, *line.split())
    assert code == 0, line
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TEXT[line], line


def test_partition_and_roots_ops_match_the_recorded_digests():
    # the 3 enum_partitions and 66 m_lambda_at_roots ops of the count_enumerate workload, run in-process
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    workloads = _load_bench_workloads()
    ops = [op for op in workloads.make_ops("count_enumerate", 1) if op[0] != "cli"]
    assert sorted(op[0] for op in ops) == ["mroots"] * 66 + ["partitions"] * 3
    for op in ops:
        assert workloads.digest(workloads.execute(op)) == golden[workloads.op_key(op)], op


def test_fuzz_ops_and_point_digests_match_the_recorded_digests():
    # the 522 structural fuzz ops of the fuzz_warm workload, then the full E and H digests at its 99 points
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    workloads = _load_bench_workloads()
    ops = workloads.all_fuzz_ops()
    assert len(ops) == 522
    for op in ops:
        assert workloads.digest(workloads.execute(op)) == golden[workloads.op_key(op)], op
    assert workloads.check_points(ops, golden) == (99, [])


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


def test_a_bisnomial_table_computes_each_cell_once(capsys, monkeypatch):
    # row m is filled from the row below up to its middle, k = s*m // 2, and the
    # rest is its mirror image: a cell computed twice, or a row filled past its
    # middle, would change the count
    n, s = 150, 3
    triangles, filled = sys.modules["truncsym.bisnomial"], []  # the package name is the function
    step = triangles._count_step
    monkeypatch.setattr(triangles, "_count_step",
                        lambda below, row, m, stop, s: filled.append(stop - len(row)) or step(below, row, m, stop, s))
    code, out, _ = run_cli(capsys, "bisnomial", "--table", "--n", str(n), "--s", str(s), "--format", "csv")
    assert code == 0 and out.count("\n") == sum(s * m + 1 for m in range(n + 1)) + 1
    assert filled == [s * m // 2 + 1 for m in range(1, n + 1)]


@pytest.mark.parametrize("argv", [
    ["bisnomial", "--table", "--n", "3", "--s", "0", "--format", "json"],
    ["bisnomial", "--table", "--n", "-1", "--s", "2", "--format", "json"],
    ["verify", "--id", "conversions", "--s", "1..1"],
    ["expand", "--kind", "m", "--n", "2"],
    ["schur", "--lambda", "0", "--s", "2", "--n", "2"],
    ["schur", "--lambda", "3,3", "--s", "-5", "--n", "-2", "--format", "json"],
], ids=["table-s0", "table-negative-n", "empty-sweep", "m-without-lambda", "bad-partition", "schur-bad-s-n"])
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


# the JSON payloads of tables, listings and single values, each written by direct encoders
JSON_CASES = {
    "pq-table": ["bisnomial", "--table", "--flavor", "pq", "--n", "3", "--s", "2"],
    "q-table": ["bisnomial", "--table", "--flavor", "q", "--n", "4", "--s", "3"],
    "plain-table": ["bisnomial", "--table", "--flavor", "plain", "--n", "5", "--s", "2"],
    "paths": ["paths", "--model", "H", "--n", "4", "--k", "6", "--s", "2"],
    "E-paths": ["paths", "--model", "E", "--n", "3", "--k", "4", "--s", "2"],
    "E-tilings": ["tilings", "--model", "E", "--n", "4", "--k", "3", "--s", "1"],
    "H-tilings": ["tilings", "--model", "H", "--n", "3", "--k", "5", "--s", "2"],
    "no-items": ["tilings", "--model", "E", "--n", "7", "--k", "14", "--s", "1"],  # no admissible tiling
    "plain-value": ["bisnomial", "--flavor", "plain", "--n", "6", "--k", "7", "--s", "3"],
    "q-value": ["bisnomial", "--flavor", "q", "--n", "4", "--k", "3", "--s", "2"],
    "pq-value": ["bisnomial", "--flavor", "pq", "--n", "4", "--k", "3", "--s", "2"],
    "zero-plain-value": ["bisnomial", "--flavor", "plain", "--n", "2", "--k", "5", "--s", "2"],
    "zero-q-value": ["bisnomial", "--flavor", "q", "--n", "2", "--k", "5", "--s", "2"],
    "zero-pq-value": ["bisnomial", "--flavor", "pq", "--n", "2", "--k", "-1", "--s", "2"],
    "E-expand": ["expand", "--kind", "E", "--k", "6", "--s", "2", "--n", "5"],  # 45 terms
    "H-expand": ["expand", "--kind", "H", "--k", "6", "--s", "2", "--n", "5"],  # 65 terms, both signs
    "P-expand": ["expand", "--kind", "P", "--k", "6", "--s", "2", "--n", "3"],  # 2 * p_6, as 3 divides 6
    "no-variables": ["expand", "--kind", "m", "--lambda", "", "--n", "0"],  # the term 1, "exps": []
    "zero-expand": ["expand", "--kind", "e", "--k", "5", "--n", "2"],  # "terms": []
    "schur-both": ["schur", "--lambda", "2,1", "--s", "2", "--n", "4"],  # 20 terms in each basis
    "schur-null": ["schur", "--lambda", "1,1,1", "--s", "2", "--n", "2"],  # three parts: no H basis in n = 2
}


@pytest.mark.parametrize("argv", list(JSON_CASES.values()), ids=list(JSON_CASES))
def test_a_streamed_json_payload_is_the_one_line_dump(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--deterministic")
    assert code == 0
    assert out == json.dumps(json.loads(out), separators=(", ", ": ")) + "\n"


TRIANGLE = {"plain": bisnomial, "q": q_bisnomial, "pq": pq_bisnomial}


def _numbers(argv: list[str]) -> tuple:
    """The --n, --k and --s of a command as ints; k is None when the command has none."""
    opts = {key: int(value) for key, value in zip(argv, argv[1:]) if key in ("--n", "--k", "--s")}
    return opts["--n"], opts.get("--k"), opts["--s"]


def _table_cells(n: int, s: int) -> list[tuple[int, int]]:
    return [(m, kk) for m in range(n + 1) for kk in range(s * m + 1)]


def _value_payload(value):
    """A triangle value as the payload holds it: digits, q coefficients or [i, j, c] terms, all as strings."""
    if isinstance(value, UniPoly):
        return [str(c) for c in value.coeffs]
    return str(value) if isinstance(value, int) else value.to_json()


def _defined(basis: str, lam: tuple, s: int, n: int):
    """schur_det in this basis, or None where it refuses lam."""
    try:
        return schur_det(lam, s, n, basis)
    except ValueError:
        return None


def _poly_payload(verb: str, opts: dict) -> dict:
    """The payload of an expand or schur command, each polynomial as MPoly.to_json() gives it."""
    n, lam = int(opts["--n"]), tuple(int(part) for part in opts.get("--lambda", "").split(",") if part)
    if verb == "schur":
        s = int(opts["--s"])
        h, e = (_defined(basis, lam, s, n) for basis in ("h", "e"))
        bases = {f"{basis}_basis": None if p is None else p.to_json() for basis, p in (("h", h), ("e", e))}
        return {"lam": list(lam), "s": s, "n": n, **bases, "equal": None if None in (h, e) else h == e}
    kind = opts["--kind"]
    if kind == "m":
        head, poly = {"lam": list(lam), "n": n}, m_lambda(lam, n)
    elif kind in ("e", "h", "p"):
        k = int(opts["--k"])
        head, poly = {"k": k, "n": n}, classical(kind, k, n)
    else:
        k, s = int(opts["--k"]), int(opts["--s"])
        head, poly = {"k": k, "s": s, "n": n}, {"E": E, "H": H, "P": P}[kind](k, s, n)
    return {"kind": kind, **head, "poly": poly.to_json()}


def _whole_payload(argv: list[str]) -> dict:
    """The payload of a table, listing, value, expand or schur command, built whole from the library."""
    if argv[0] in ("expand", "schur"):
        return _poly_payload(argv[0], dict(zip(argv[1::2], argv[2::2])))
    (n, k, s), verb = _numbers(argv), argv[0]
    if verb != "bisnomial":
        model = argv[argv.index("--model") + 1]
        rows = enum_objects(n, k, s, model, verb)
        keys = ("steps", "weight", "sign") if model == "H" else ("steps", "weight")
        return {
            "objects": verb, "n": n, "k": k, "s": s, "model": model, "count": len(rows),
            "items": [dict(zip(keys, (obj, list(weight), sign))) for obj, weight, sign in rows],
            "weight_sum": weight_sum(n, k, s, model).to_json(),
        }
    flavor = argv[argv.index("--flavor") + 1]
    triangle = TRIANGLE[flavor]
    if "--table" not in argv:
        return {"flavor": flavor, "n": n, "k": k, "s": s, "value": _value_payload(triangle(n, k, s))}
    rows = [{"n": m, "k": kk, "value": _value_payload(triangle(m, kk, s))} for m, kk in _table_cells(n, s)]
    return {"flavor": flavor, "s": s, "rows": rows}


@pytest.mark.parametrize("argv", list(JSON_CASES.values()), ids=list(JSON_CASES))
def test_a_json_payload_is_the_dump_of_the_payload_built_whole(capsys, argv):
    # the payload as a dict of lists and dicts, passed to json.dumps once
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--deterministic")
    assert code == 0
    assert out == json.dumps(_whole_payload(argv), separators=(", ", ": ")) + "\n"


def _csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# text drawn from every character but NUL, which csv.writer refuses before Python 3.11, with the
# ones csv quotes for drawn often
CSV_CHARACTERS = st.one_of(st.sampled_from(',"\r\n \''), st.characters().filter(lambda c: c != "\x00"))
CSV_FIELDS = st.one_of(st.text(CSV_CHARACTERS), st.integers())


@given(
    st.lists(CSV_FIELDS, min_size=2, max_size=4),
    st.lists(st.lists(st.lists(CSV_FIELDS, min_size=2, max_size=4), max_size=4), max_size=3),
)
def test_csv_rows_are_written_as_csv_writer_writes_them(header, blocks):
    chunks = list(cli._csv_stream(header, blocks))
    assert len(chunks) == len(blocks) + 1  # the header, then one chunk per block
    assert "".join(chunks) == _csv_writer_text([header, *(row for block in blocks for row in block)])


@pytest.mark.parametrize("argv", [
    ["bisnomial", "--table", "--flavor", "plain", "--n", "6", "--s", "3"],
    ["bisnomial", "--table", "--flavor", "q", "--n", "4", "--s", "2"],
    ["bisnomial", "--table", "--flavor", "pq", "--n", "3", "--s", "3"],
    ["paths", "--model", "H", "--n", "4", "--k", "6", "--s", "2"],
    ["tilings", "--model", "E", "--n", "3", "--k", "4", "--s", "2"],
    ["tilings", "--model", "H", "--n", "1", "--k", "4", "--s", "3"],  # one-field weights, not quoted
], ids=["plain-table", "q-table", "pq-table", "H-paths", "E-tilings", "one-slot-tilings"])
def test_table_and_listing_csv_is_what_csv_writer_writes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv", "--deterministic")
    n, k, s = _numbers(argv)
    if argv[0] == "bisnomial":
        triangle = TRIANGLE[argv[argv.index("--flavor") + 1]]
        rows = [("n", "k", "value")] + [(m, kk, triangle(m, kk, s)) for m, kk in _table_cells(n, s)]
    else:
        listed = enum_objects(n, k, s, argv[argv.index("--model") + 1], argv[0])
        rows = [("steps", "weight", "sign")] + [(obj, ",".join(map(str, w)), sign) for obj, w, sign in listed]
    assert (code, out) == (0, _csv_writer_text(rows))


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
    # the head, the 9 blocks of items, the weight_sum head, its 2128 terms in 9 blocks of at most 256, the close
    (["tilings", "--model", "E", "--n", "7", "--k", "10", "--s", "3", "--format", "json"], 21),
    # the svg head, the same 9 blocks as panels, the close
    (["paths", "--model", "E", "--n", "7", "--k", "10", "--s", "3", "--format", "svg"], 11),
    # the header or the head, then one chunk per row m = 0..20 (a json table adds its tail)
    (["bisnomial", "--table", "--flavor", "q", "--n", "20", "--s", "4", "--format", "csv"], 22),
    (["bisnomial", "--table", "--flavor", "plain", "--n", "20", "--s", "4", "--format", "json"], 23),
], ids=["paths-text", "tilings-json", "paths-svg", "q-table-csv", "plain-table-json"])
def test_listings_and_tables_go_out_a_block_or_a_row_at_a_time(argv, chunks):
    sink = _Chunks()
    with contextlib.redirect_stdout(sink):
        assert cli.run([*argv, "--deterministic"]) == 0
    assert len(sink.written) == chunks


@pytest.mark.parametrize("argv, lines, chunks", [
    # 144 report lines in one block; as text, then the total line
    (["verify", "--id", "ortho", "--format", "json"], 144, 1),
    (["verify", "--id", "ortho", "--format", "text"], 145, 2),
    # 280 report lines in 2 blocks of at most 256, then the total line
    (["verify", "--id", "scalar_c", "--k", "1..140", "--s", "1..2", "--format", "text"], 281, 3),
    # 84 report lines in each of the 5 conversion families, a block each
    (["verify", "--id", "conversions", "--format", "json"], 420, 5),
], ids=["ortho-json", "ortho-text", "two-blocks", "five-ids"])
def test_report_lines_go_out_a_block_at_a_time(argv, lines, chunks):
    sink = _Chunks()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run([*argv, "--deterministic"]) == 0
    assert (len(sink.written), "".join(sink.written).count("\n")) == (chunks, lines)


@pytest.mark.parametrize("argv, chunks", [
    # e_3 in 14 variables has 364 terms: the head, 2 blocks of at most 256 terms, the close
    (["expand", "--kind", "e", "--k", "3", "--n", "14"], 4),
    # 441 terms in each basis: the head, then per basis its head, 2 blocks and its close, then the tail
    (["schur", "--lambda", "3,2,1", "--s", "2", "--n", "6"], 11),
], ids=["expand", "schur"])
def test_a_large_value_goes_out_a_block_of_terms_at_a_time(capsys, argv, chunks):
    sink = _Chunks()
    with contextlib.redirect_stdout(sink):
        assert cli.run([*argv, "--format", "json", "--deterministic"]) == 0
    assert len(sink.written) == chunks
    assert "".join(sink.written) == json.dumps(_whole_payload(argv), separators=(", ", ": ")) + "\n"


@pytest.mark.parametrize("argv, sorts", [
    (["expand", "--kind", "e", "--k", "3", "--n", "14"], 1),
    (["schur", "--lambda", "3,2,1", "--s", "2", "--n", "6"], 2),  # the e basis is sorted before the h basis goes out
    (["paths", "--model", "H", "--n", "4", "--k", "6", "--s", "2"], 1),  # the weight_sum, before the items go out
], ids=["expand", "schur", "listing"])
def test_a_sort_that_runs_out_of_memory_writes_nothing(capsys, monkeypatch, argv, sorts):
    graded_rows, calls = multipoly._graded_rows, []

    def exhausted_at_the_last_sort(p):
        calls.append(p)
        if len(calls) == sorts:
            raise MemoryError
        return graded_rows(p)

    monkeypatch.setattr(multipoly, "_graded_rows", exhausted_at_the_last_sort)
    assert run_cli(capsys, *argv, "--format", "json", "--deterministic") == (2, "", "error: out of memory\n")
    assert len(calls) == sorts


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
