"""Unit tests for the truncated symmetric function constructors."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import eval_oracle
import laplace_oracle
import roots_oracle
import sum_oracle
from series_oracle import e_series, h_series
from truncsym import clear_caches, symfun
from truncsym.multipoly import MPoly, is_symmetric
from truncsym.partitions import distinct_orbit, enum_partitions
from truncsym.symfun import (
    E,
    H,
    P,
    classical,
    m_lambda,
    m_lambda_at_roots,
    product_over_partition,
    schur_det,
)


def test_m_lambda_is_the_orbit_sum():
    m = m_lambda((2, 1, 1), 4)
    assert len(m.terms) == 12
    assert set(m.terms.values()) == {1}
    assert (2, 1, 1, 0) in m.terms and (0, 1, 2, 1) in m.terms
    assert m_lambda((1, 1), 1) == MPoly.zero(1)
    assert m_lambda((), 3) == MPoly.one(3)
    with pytest.raises(ValueError):
        m_lambda((1, 2), 3)


def test_an_orbit_sum_peaks_at_about_the_memory_its_value_holds():
    # the orbit is walked into the packed dict: no list of its 9880 n-tuples is held (3.0x the value when it was)
    MPoly.zero(40)  # the key layout of 40 variables, made once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = symfun._orbit_sum(40, [((1, 1, 1), 1)])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(value.terms) == 9880
    assert peak - before < 1.5 * (held - before)


def test_classical_goldens():
    x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    assert classical("e", 2, 3) == m_lambda((1, 1), 3)
    assert classical("h", 2, 2) == x1**2 + x1 * x2 + x2**2
    assert classical("p", 3, 2) == x1**3 + x2**3
    assert classical("e", 4, 3) == MPoly.zero(3)
    assert classical("e", 0, 2) == MPoly.one(2)
    with pytest.raises(ValueError):
        classical("p", 0, 2)
    with pytest.raises(ValueError):
        classical("q", 1, 2)


def test_truncated_elementary_matches_the_bounded_monomial_expansion():
    # the generating product's t^k coefficient is the sum of m_lambda over
    # partitions of k with parts <= s
    for n in range(5):
        for s in range(1, 4):
            series = e_series(s, n)
            for k in range(s * n + 1):
                want = MPoly.zero(n)
                for lam in enum_partitions(k, max_part=s, max_length=n):
                    want = want + m_lambda(lam, n)
                assert series[k] == want, (k, s, n)


def test_families_match_the_series_oracle():
    for n in range(5):
        for s in range(1, 5):
            series = e_series(s, n)
            for k in range(s * n + 1):
                assert E(k, s, n) == series[k], ("E", k, s, n)
            series = h_series(s, n, 10)
            for k in range(11):
                assert H(k, s, n) == series[k], ("H", k, s, n)


def test_complete_family_at_high_degree_needs_no_deep_recursion():
    clear_caches()
    try:
        assert H(1500, 1, 1) == MPoly.monomial(1, (1500,))
    finally:
        clear_caches()


def test_families_equal_their_generating_products_at_a_random_point():
    # past the sizes the series oracle can expand, each value is compared with its
    # generating product at one random point mod 2^61 - 1, from a cold cache
    truncated = [("E", 12, 3, 8), ("H", 12, 3, 8), ("E", 16, 4, 8), ("H", 16, 4, 8), ("E", 3, 1, 60),
                 ("E", 59, 1, 60), ("E", 119, 2, 60)]
    plain = [(kind, k, n) for n in (*range(9), 15, 16, 17, 31, 60) for k in range(9 if n <= 8 else 4)
             for kind in "eh"] + [("e", 58, 60), ("e", 59, 60)]
    oracle = {"E": eval_oracle.E_at, "H": eval_oracle.H_at, "e": eval_oracle.E_at, "h": eval_oracle.H_at}
    clear_caches()
    try:
        for family, k, s, n in truncated:
            point = eval_oracle.random_point(n, seed=n)
            got = eval_oracle.evaluate({"E": E, "H": H}[family](k, s, n), point)
            assert got == oracle[family](k, s, point), (family, k, s, n)
        for kind, k, n in plain:  # e and h are the products at s = 1
            point = eval_oracle.random_point(n, seed=n)
            assert eval_oracle.evaluate(classical(kind, k, n), point) == oracle[kind](k, 1, point), (kind, k, n)
    finally:
        clear_caches()


def _spy_on_split(monkeypatch) -> list:
    """The (n, value) of every E, H, e or h value built from now on: each one is built by symfun._split."""
    built, split = [], symfun._split
    monkeypatch.setattr(symfun, "_split", lambda *args: built.append((args[-1], split(*args))) or built[-1][1])
    return built


def _cached_values() -> int:
    return sum(f.cache_info().currsize for f in (E, H, classical))


@pytest.mark.parametrize("build", [lambda: E(3, 1, 16), lambda: H(6, 2, 16), lambda: classical("e", 3, 16)],
                         ids=["E", "H", "e"])
def test_values_are_cached_only_at_the_variable_counts_of_the_halving_tree(build, monkeypatch):
    # a ladder that peels one variable at a time kept every n <= 16
    clear_caches()
    try:
        built = _spy_on_split(monkeypatch)
        build()
        assert len(built) == _cached_values()  # so the spy saw every cached value
        assert {n for n, _ in built} <= {16, 8, 4, 2, 1}
    finally:
        clear_caches()


def test_a_top_degree_value_builds_only_one_term_halves(monkeypatch):
    # the split takes only the j where both halves can be nonzero; j over 0..k built
    # every half up to the middle degree, E(5, 1, 10) on the way to E(20, 1, 20) and
    # E(15, 1, 30) (155,117,520 terms) on the way to E(60, 1, 60)
    built = _spy_on_split(monkeypatch)
    for n in (20, 60):  # n = 20 fails fast, before an n = 60 build could run out of memory
        clear_caches()
        built.clear()
        try:
            top = MPoly.monomial(n, (1,) * n)
            assert E(n, 1, n) == top and classical("e", n, n) == top
            assert len(built) == _cached_values(), n
            assert all(len(value.terms) <= 1 for _, value in built), n
        finally:
            clear_caches()


def test_a_one_variable_value_is_cached_alone():
    # a ladder kept H(k, 1, 1) for every k <= 100000
    clear_caches()
    try:
        H(100000, 1, 1)
        assert H.cache_info().currsize == 1
    finally:
        clear_caches()


def test_truncated_elementary_goldens():
    e533 = E(5, 3, 3)
    assert len(e533.terms) == 12
    assert e533 == m_lambda((3, 2), 3) + m_lambda((3, 1, 1), 3) + m_lambda((2, 2, 1), 3)
    e323 = E(3, 2, 3)
    assert len(e323.terms) == 7
    assert e323 == m_lambda((2, 1), 3) + m_lambda((1, 1, 1), 3)
    assert E(0, 2, 3) == MPoly.one(3)
    assert E(7, 2, 3) == MPoly.zero(3)
    assert E(-1, 2, 3) == MPoly.zero(3)


def test_truncated_complete_goldens():
    h323 = H(3, 2, 3)
    assert h323.terms == {
        (3, 0, 0): -1,
        (0, 3, 0): -1,
        (0, 0, 3): -1,
        (1, 1, 1): 1,
    }
    assert H(2, 2, 2) == m_lambda((1, 1), 2)
    assert H(4, 2, 2).terms == {
        (4, 0): -1,
        (0, 4): -1,
        (3, 1): -1,
        (1, 3): -1,
    }
    assert H(0, 3, 2) == MPoly.one(2)
    assert H(-2, 3, 2) == MPoly.zero(2)


def test_degree_one_truncation_recovers_the_classical_families():
    for n in range(4):
        for k in range(6):
            assert E(k, 1, n) == classical("e", k, n)
            assert H(k, 1, n) == classical("h", k, n)


def test_truncation_at_the_degree_recovers_the_complete_family():
    for n in range(4):
        for k in range(1, 5):
            assert E(k, k, n) == classical("h", k, n)


@given(
    k=st.integers(0, 6),
    s=st.integers(1, 3),
    n=st.integers(0, 3),
)
def test_families_are_symmetric_homogeneous_with_unit_e_coefficients(k, s, n):
    """E and H are symmetric and homogeneous of degree k; E has all-ones coefficients."""
    Ek, Hk = E(k, s, n), H(k, s, n)
    assert is_symmetric(Ek) and is_symmetric(Hk)
    assert Ek.is_homogeneous(k) and Hk.is_homogeneous(k)
    assert set(Ek.terms.values()) <= {1}


def test_signed_power_sum_prefactor():
    assert P(2, 1, 2) == classical("p", 2, 2)  # 2 divisible by s+1 = 2, even k: c = s
    assert P(6, 2, 2) == 2 * classical("p", 6, 2)
    assert P(3, 2, 2) == -2 * classical("p", 3, 2)  # 3 divisible by 3, odd k
    assert P(1, 1, 2) == classical("p", 1, 2)  # not divisible, odd k
    assert P(4, 2, 2) == -1 * classical("p", 4, 2)  # not divisible, even k
    with pytest.raises(ValueError):
        P(0, 2, 2)


def test_products_over_partitions():
    assert product_over_partition("h", (2, 1), None, 2) == classical("h", 2, 2) * classical("h", 1, 2)
    assert product_over_partition("E", (2, 1), 2, 2) == E(2, 2, 2) * E(1, 2, 2)
    assert product_over_partition("p", (), None, 3) == MPoly.one(3)
    with pytest.raises(ValueError):
        product_over_partition("E", (2, 1), None, 2)
    with pytest.raises(ValueError):
        product_over_partition("x", (2, 1), 2, 2)
    for lam in ((1, 2), (2, 0), (2, -1)):  # the public entry checks lam; the sums over enum_partitions do not
        with pytest.raises(ValueError, match="not a partition"):
            product_over_partition("h", lam, None, 2)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_memoized_classical_products_match_the_plain_product(order):
    # every lam |- k <= 6 for n = 1..3 in one cache, so that a product kept under
    # the wrong key (another kind, n or prefix) is read back somewhere
    lams = [lam for k in range(7) for lam in enum_partitions(k)]
    if order == "descending":
        lams.reverse()
    clear_caches()
    try:
        for _ in range(2):  # cold, then from the cache
            for n in range(4):
                for kind in ("e", "h", "p"):
                    for lam in lams:
                        got = product_over_partition(kind, lam, None, n)
                        assert got == sum_oracle.plain_product(kind, lam, None, n), (kind, lam, n)
                        assert got.n == n
    finally:
        clear_caches()


def test_a_classical_product_of_many_parts_needs_no_deep_recursion():
    clear_caches()
    try:
        assert product_over_partition("e", (1,) * 3000, None, 1) == MPoly.monomial(1, (3000,))
    finally:
        clear_caches()


def test_a_classical_product_memo_grows_with_the_parts_not_their_square():
    # keyed by whole prefix tuples, the 3000 prefixes of (1,) * 3000 held 35.6 MiB of keys
    clear_caches()
    tracemalloc.start()
    try:
        product_over_partition("e", (1,) * 3000, None, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert held < 4 * 2**20


def test_every_kind_of_product_sits_in_one_trie_per_kind_s_and_n():
    clear_caches()
    try:
        for kind in ("E", "H", "P", "e", "h", "p"):
            for s in (2, 3):
                product_over_partition(kind, (2, 1), s, 2)  # s does not split a classical trie
                product_over_partition(kind, (2,), s, 2)
        product_over_partition("E", (2, 1), 2, 3)
        tries = {(kind, s, 2) for kind in "EHP" for s in (2, 3)} | {("E", 2, 3)} | {(kind, None, 2) for kind in "ehp"}
        assert set(symfun._PRODUCT_CACHE) == tries
        for (kind, s, n), trie in symfun._PRODUCT_CACHE.items():
            assert list(trie) == [2] and list(trie[2][1]) == [1] and trie[2][1][1][1] == {}  # (2,), then (2, 1)
            assert trie[2][1][1][0] == sum_oracle.plain_product(kind, (2, 1), s, n), (kind, s, n)
        clear_caches()
        assert symfun._PRODUCT_CACHE == {}
        tracemalloc.start()
        product_over_partition("E", (1,) * 3000, 1, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert held < 4 * 2**20  # one node per part, as for the classical trie


def test_monomials_at_roots_of_unity_goldens():
    assert m_lambda_at_roots((1,), 1) == -1
    assert m_lambda_at_roots((2,), 2) == -1
    assert m_lambda_at_roots((1, 1, 1), 3) == -1
    assert m_lambda_at_roots((2, 1), 3) == 2
    assert m_lambda_at_roots((3,), 3) == -1
    assert m_lambda_at_roots((1, 1), 1) == 0  # more parts than slots
    assert m_lambda_at_roots((3,), 2) == 2  # cube of each primitive cube root is 1


def test_monomials_at_roots_of_unity_sum_one_root_per_orbit_element():
    # the oracle's root powers per arrangement, unreduced, divided by Phi_(s+1): composite orders 4 to 12 included
    for s in range(1, 13):
        for k in range(11):
            for lam in enum_partitions(k):
                assert m_lambda_at_roots(lam, s) == roots_oracle.at_roots(lam, s), (lam, s)


def test_the_slot_count_matches_a_brute_force_over_the_arrangements():
    # every distinct permutation of lam padded with zeros to s slots, one at a time, per raw root power
    for s in range(1, 9):
        for k in range(11):
            for lam in enum_partitions(k, max_length=s):
                raw = [0] * (s * k + 1)
                for exps in set(itertools.permutations(lam + (0,) * (s - len(lam)))):
                    raw[sum(j * e for j, e in enumerate(exps, 1))] += 1
                assert tuple(raw) == roots_oracle.histogram(lam, s), (lam, s)
                assert symfun._per_power(lam, s) == [sum(raw[r::s + 1]) for r in range(s + 1)], (lam, s)
                assert m_lambda_at_roots(lam, s) == roots_oracle.constant(s + 1, raw), (lam, s)


def test_monomials_at_roots_of_unity_are_rational_integers():
    # the value is an int for every order, composite orders included
    for s in range(1, 6):
        for k in range(7):
            for lam in enum_partitions(k):
                assert type(m_lambda_at_roots(lam, s)) is int, (lam, s)


def test_determinant_forms_agree_with_the_classical_schur_cases():
    # at s = 1 the two dual determinants give the classical bases
    assert schur_det((1, 1), 1, 2, basis="h") == classical("e", 2, 2)
    assert schur_det((1, 1), 1, 2, basis="e") == classical("e", 2, 2)
    assert schur_det((2,), 1, 2, basis="h") == classical("h", 2, 2)
    assert schur_det((2,), 1, 2, basis="e") == classical("h", 2, 2)


def test_determinant_forms_golden_and_symmetry():
    x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    d = schur_det((2, 1), 2, 2, basis="h")
    assert d == x1**3 + x2**3 + x1**2 * x2 + x1 * x2**2
    assert schur_det((2, 1), 2, 2, basis="e") == d
    for lam in [(2,), (1, 1), (2, 2), (3, 1)]:
        for s in (1, 2, 3):
            if len(lam) <= 2:
                assert is_symmetric(schur_det(lam, s, 2, basis="h"))
            if lam[0] <= 2:
                assert is_symmetric(schur_det(lam, s, 2, basis="e"))


def test_block_determinant_matches_the_full_laplace_expansion():
    for k in range(5):
        for lam in enum_partitions(k):
            for s in range(1, 4):
                for n in range(1, 6):
                    for basis, rows in (("h", len(lam)), ("e", lam[0] if lam else 0)):
                        if rows <= n:
                            want = laplace_oracle.schur_det(lam, s, n, basis)
                            assert schur_det(lam, s, n, basis) == want, (lam, s, n, basis)


def test_determinant_forms_validate_shape():
    with pytest.raises(ValueError):
        schur_det((1, 1, 1), 2, 2, basis="h")  # more rows than variables
    with pytest.raises(ValueError):
        schur_det((3,), 2, 2, basis="e")  # conjugate has more rows than variables
    with pytest.raises(ValueError):
        schur_det((2, 1), 2, 2, basis="x")
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        schur_det((), 2, 0)  # a determinant needs a variable, though the family E(k, s, 0) exists


def _corrupt_x1(monkeypatch, family: str):
    """Rebind symfun's E or H, which the split reads when it runs, so that its value at (1, 1, 1) is 2*x1."""
    ctor = getattr(symfun, family)
    corrupted = 2 * MPoly.variable(1, 1)
    monkeypatch.setattr(symfun, family, lambda k, s, n: corrupted if (k, s, n) == (1, 1, 1) else ctor(k, s, n))
    return ctor


def test_elementary_guard_detects_a_corrupted_lower_value(monkeypatch):
    clear_caches()
    try:
        ctor = _corrupt_x1(monkeypatch, "E")
        with pytest.raises(ArithmeticError):
            ctor(1, 1, 2)
    finally:
        clear_caches()


def test_complete_guard_detects_a_corrupted_lower_value(monkeypatch):
    clear_caches()
    try:
        ctor = _corrupt_x1(monkeypatch, "H")
        with pytest.raises(ArithmeticError):
            ctor(1, 1, 2)
    finally:
        clear_caches()


@pytest.mark.parametrize("family, message", [
    ("E", "E(k=1, s=1, n=2) fails the alphabet-split check at x2: "
          "1 in the orbit sum, 2 in sum_j E(j, s, 1) E(k-j, s, 1)"),
    ("H", "H(k=1, s=1, n=2) fails the alphabet-split check at x2: "
          "1 in the orbit sum, 2 in sum_j H(j, s, 1) H(k-j, s, 1)"),
])
def test_a_guard_error_names_the_family_the_point_and_the_first_differing_monomial(family, message, monkeypatch):
    clear_caches()
    try:
        ctor = _corrupt_x1(monkeypatch, family)
        with pytest.raises(ArithmeticError) as info:
            ctor(1, 1, 2)
        assert str(info.value) == message, family
    finally:
        clear_caches()


def test_validation_of_s_and_n():
    with pytest.raises(ValueError):
        E(1, 0, 2)
    with pytest.raises(ValueError):
        H(1, 2, -1)
    # the cache is read before the validation, and holds only validated keys
    E(2, 1, 3), H(1, 1, 2)
    with pytest.raises(ValueError):
        E(2, 0, 3)
    with pytest.raises(ValueError):
        H(1, 0, 2)


def test_an_h_degree_far_below_its_modulus_is_zero_at_once():
    # every part must be 1 mod 10**13, so only ones could sum to 10**12, and two slots hold two;
    # stepping the part down one at a time, or scanning for the top factor degree, takes hours here
    code = (
        "from truncsym.partitions import enum_partitions\n"
        "from truncsym.symfun import H\n"
        "assert enum_partitions(10**12, max_length=2, mod01=10**13) == []\n"
        "assert H(10**12, 10**13, 1) == 0\n"
        "assert H(10**12, 10**13, 2) == 0\n"
    )
    src = str(Path(symfun.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, timeout=10, check=True)
