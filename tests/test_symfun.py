"""Unit tests for the truncated symmetric function constructors."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import laplace_oracle
import sum_oracle
from series_oracle import e_series, h_series
from truncsym import clear_caches, symfun
from truncsym.exactalg import CycInt
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


def test_truncated_products_are_not_memoized():
    clear_caches()
    try:
        product_over_partition("E", (2, 1), 2, 2)
        product_over_partition("h", (2, 1), None, 2)
        assert list(symfun._PRODUCT_CACHE) == [("h", 2)]  # one trie, holding (2,) and (2, 1)
        assert list(symfun._PRODUCT_CACHE[("h", 2)][2][1]) == [1]
    finally:
        clear_caches()


def test_monomials_at_roots_of_unity_goldens():
    assert m_lambda_at_roots((1,), 1) == -1
    assert m_lambda_at_roots((2,), 2) == -1
    assert m_lambda_at_roots((1, 1, 1), 3) == -1
    assert m_lambda_at_roots((2, 1), 3) == 2
    assert m_lambda_at_roots((3,), 3) == -1
    assert m_lambda_at_roots((1, 1), 1) == CycInt(2, 0)  # more parts than slots
    assert m_lambda_at_roots((3,), 2) == 2  # cube of each primitive cube root is 1


def test_monomials_at_roots_of_unity_sum_one_root_per_orbit_element():
    # the direct sum of a root power per arrangement, against the histogram
    for s in range(1, 6):
        for k in range(9):
            for lam in enum_partitions(k):
                direct = CycInt(s + 1, 0)
                for exps in distinct_orbit(lam, s):
                    direct = direct + CycInt.root(s + 1, sum(j * e for j, e in enumerate(exps, 1)))
                assert m_lambda_at_roots(lam, s) == direct, (lam, s)


def test_monomials_at_roots_of_unity_are_rational_integers():
    # Galois-fixed values collapse to honest integers even for composite s+1
    for s in range(1, 6):
        for k in range(7):
            for lam in enum_partitions(k):
                v = m_lambda_at_roots(lam, s)
                assert v.as_integer() is not None, (lam, s)


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


def test_elementary_guard_detects_a_corrupted_lower_value():
    clear_caches()
    try:
        E(1, 1, 1)
        symfun._E_CACHE[(1, 1, 1)] = 2 * MPoly.variable(1, 1)
        with pytest.raises(ArithmeticError):
            E(1, 1, 2)
    finally:
        clear_caches()


def test_complete_guard_detects_a_corrupted_lower_value():
    clear_caches()
    try:
        H(1, 1, 1)
        symfun._H_CACHE[(1, 1, 1)] = 2 * MPoly.variable(1, 1)
        with pytest.raises(ArithmeticError):
            H(1, 1, 2)
    finally:
        clear_caches()


@pytest.mark.parametrize("family, ctor, cache, message", [
    ("E", E, symfun._E_CACHE,
     "E(k=1, s=1, n=2) fails the variable-peeling check at x1: "
     "1 in the orbit sum, 2 in sum_j x_n^j E(k-j, s, n-1)"),
    ("H", H, symfun._H_CACHE,
     "H(k=1, s=1, n=2) fails the variable-peeling check at x1: "
     "1 in sum_j (-x_n)^j H(k-j, s, n), 2 in H(k, s, n-1)"),
])
def test_a_guard_error_names_the_family_the_point_and_the_first_differing_monomial(
    family, ctor, cache, message
):
    clear_caches()
    try:
        ctor(1, 1, 1)
        cache[(1, 1, 1)] = 2 * MPoly.variable(1, 1)
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
