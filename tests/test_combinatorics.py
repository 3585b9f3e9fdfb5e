"""Unit tests for the lattice-path and tiling enumerators."""

import xml.etree.ElementTree as ET
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arrangement_oracle as oracle
from truncsym.bisnomial import bisnomial
from truncsym.combinatorics import (
    _svg_chunks,
    describe_line,
    enum_objects,
    enum_paths,
    enum_tilings,
    path_sign,
    path_to_tiling,
    path_weight,
    tiling_sign,
    tiling_to_path,
    tiling_weight,
    weight_sum,
)
from truncsym.multipoly import MPoly
from truncsym.symfun import E, H


def test_bounded_run_paths_golden():
    # 3 East steps, 2 North steps, East runs capped at 2
    paths = enum_paths(3, 3, 2, model="E")
    assert len(paths) == 7
    all_words = {"".join(w) for w in _words(3, 2)}
    assert set(paths) == all_words - {"EEENN", "NEEEN", "NNEEE"}
    assert paths == sorted(paths)


def _words(easts, norths):
    import itertools

    for pos in itertools.combinations(range(easts + norths), norths):
        word = ["E"] * (easts + norths)
        for p in pos:
            word[p] = "N"
        yield word


def test_residue_run_paths_and_signs_golden():
    paths = enum_paths(3, 3, 2, model="H")
    assert paths == ["EEENN", "ENENE", "NEEEN", "NNEEE"]
    assert [path_sign(p, 2) for p in paths] == [-1, 1, -1, -1]


def test_path_weight_counts_easts_per_level():
    assert path_weight("NEEEN", 3) == (0, 3, 0)
    assert path_weight("EENEN", 3) == (2, 1, 0)
    with pytest.raises(ValueError):
        path_weight("EENEN", 4)  # wrong number of North steps
    with pytest.raises(ValueError):
        path_weight("EEXEN", 3)


def test_odd_truncation_makes_every_sign_positive():
    for s in (1, 3):
        for path in enum_paths(3, min(6, 3 * s), s, model="H"):
            assert path_sign(path, s) == 1


def test_tilings_golden():
    tilings = enum_tilings(3, 3, 2, model="H")
    assert tilings == ["ggrrr", "grrrg", "rgrgr", "rrrgg"]
    assert tiling_weight("rrgrg", 3) == (2, 1, 0)
    assert tiling_sign("rrrgg", 2) == -1


def test_paths_and_tilings_are_in_positional_bijection():
    for model in ("E", "H"):
        paths = enum_paths(3, 4, 2, model=model)
        tilings = enum_tilings(3, 4, 2, model=model)
        assert sorted(path_to_tiling(p) for p in paths) == tilings
        assert sorted(tiling_to_path(t) for t in tilings) == paths


@given(
    word=st.lists(st.sampled_from("EN"), min_size=0, max_size=8).map("".join),
    s=st.integers(1, 3),
)
def test_bijection_roundtrip_preserves_structure(word, s):
    """path -> tiling -> path is the identity and preserves weight and sign."""
    n = word.count("N") + 1
    tiling = path_to_tiling(word)
    assert tiling_to_path(tiling) == word
    assert tiling_weight(tiling, n) == path_weight(word, n)
    assert tiling_sign(tiling, s) == path_sign(word, s)


def test_weight_sums_reproduce_the_symmetric_families():
    for n in range(1, 4):
        for s in range(1, 4):
            for k in range(0, 2 * s + 2):
                assert weight_sum(n, k, s, model="E") == E(k, s, n)
                assert weight_sum(n, k, s, model="H") == H(k, s, n)


def test_enumeration_matches_the_brute_force_oracle():
    for model in ("E", "H"):
        for n in range(1, 6):
            for k in range(11):
                for s in range(1, 4):
                    paths = oracle.paths(n, k, s, model)
                    tilings = oracle.tilings(n, k, s, model)
                    assert enum_paths(n, k, s, model) == paths
                    assert enum_tilings(n, k, s, model) == tilings
                    assert weight_sum(n, k, s, model) == oracle.weight_sum(n, k, s, model)
                    for objects, items in (("paths", paths), ("tilings", tilings)):
                        rows = [(obj, oracle.weight(obj, n), oracle.sign(obj, s, model)) for obj in items]
                        assert enum_objects(n, k, s, model, objects) == rows


def test_listings_past_the_oracle_are_descending_admissible_and_complete():
    """n <= 7, k <= 12, s <= 3: distinct admissible run vectors, as many as the closed counts."""
    for n in range(1, 8):
        for s in range(1, 4):
            step = s + 1
            for k in range(13):
                h_count = sum(comb(n, c) * comb((k - c) // step + n - 1, n - 1)
                              for c in range(min(n, k) + 1) if (k - c) % step == 0)
                for model, count in (("E", bisnomial(n, k, s)), ("H", h_count)):
                    weights = [weight for _, weight, _ in enum_objects(n, k, s, model)]
                    assert all(a > b for a, b in zip(weights, weights[1:]))
                    assert len(weights) == count
                    for runs in weights:
                        assert sum(runs) == k
                        assert max(runs) <= s if model == "E" else all(r % step < 2 for r in runs)


def test_weight_sum_of_an_empty_family_is_zero():
    assert weight_sum(2, 5, 2, model="E") == MPoly.zero(2)
    assert enum_paths(2, 5, 2, model="E") == []


def test_model_and_input_validation():
    with pytest.raises(ValueError):
        enum_paths(2, 2, 2, model="X")
    with pytest.raises(ValueError):
        enum_tilings(0, 2, 2, model="E")
    with pytest.raises(ValueError):
        tiling_weight("rxg", 2)
    with pytest.raises(ValueError):
        enum_objects(2, 2, 2, model="E", objects="widgets")
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        enum_paths(2, -1, 2, model="H")
    with pytest.raises(ValueError, match="^s must be >= 1, got 0$"):
        enum_tilings(2, 2, 0, model="E")
    with pytest.raises(ValueError, match="^s must be >= 1, got 0$"):
        path_sign("NEN", 0)


def test_describe_lines():
    def line(path, model):
        return describe_line(path, path_weight(path, 3), path_sign(path, 2), model)

    assert line("EEENN", model="H") == "EEENN weight=x1^3 sign=-1"
    assert line("NEEEN", model="E") == "NEEEN weight=x2^3"
    assert describe_line("NN", (0, 0, 0), 1, "E") == "NN weight=1"
    tiling = describe_line("ggrrr", tiling_weight("ggrrr", 3), tiling_sign("ggrrr", 2), "H")
    assert tiling == "ggrrr weight=x3^3 sign=-1"


def _svg(n, k, s, model, kind="paths"):
    return "".join(_svg_chunks((enum_paths if kind == "paths" else enum_tilings)(n, k, s, model), n, k, kind))


def test_svg_output_is_well_formed():
    svg = _svg(3, 3, 2, model="H")
    assert svg.startswith("<svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    text = ET.tostring(root, encoding="unicode")
    for path in enum_paths(3, 3, 2, model="H"):
        assert path in text
    tsvg = _svg(3, 3, 2, model="H", kind="tilings")
    ET.fromstring(tsvg)
    assert "ggrrr" in tsvg


def test_svg_is_deterministic():
    assert _svg(2, 2, 2, model="E") == _svg(2, 2, 2, model="E")
