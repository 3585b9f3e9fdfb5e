"""Unit tests for the exact scalar rings, and for m_lambda at the roots of unity against the cyclotomic oracle."""

import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from truncsym import exactalg
from truncsym.exactalg import BiPoly, UniPoly
from truncsym.identities import verify
from truncsym.multipoly import MPoly, specialize
from truncsym.partitions import enum_partitions
from truncsym.symfun import m_lambda_at_roots

import roots_oracle
from render_oracle import bipoly_json, bipoly_text, dense_text

# ascending coefficients, standard table
CYCLOTOMIC_KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_coeffs_match_the_standard_table():
    for m, coeffs in CYCLOTOMIC_KNOWN.items():
        assert roots_oracle.cyclotomic(m) == coeffs


def test_cyclotomic_rejects_nonpositive_order():
    for order in (0, -2):
        with pytest.raises(ValueError, match=f"order must be positive, got {order}"):
            roots_oracle.cyclotomic(order)


orders = st.integers(min_value=1, max_value=12)
unipolys = st.builds(UniPoly, st.lists(st.integers(-9, 9), max_size=6))
dense_pairs = st.tuples(unipolys, unipolys)
dense_triples = st.tuples(unipolys, unipolys, unipolys)


class TestCycIntRing:
    """The ring laws of UniPoly, the one dense ring."""

    @given(t=dense_triples)
    def test_add_associative(self, t):
        """(a + b) + c = a + (b + c)."""
        a, b, c = t
        assert (a + b) + c == a + (b + c)

    @given(p=dense_pairs)
    def test_add_commutative(self, p):
        """a + b = b + a."""
        a, b = p
        assert a + b == b + a

    @given(t=dense_triples)
    def test_mul_associative(self, t):
        """(a * b) * c = a * (b * c)."""
        a, b, c = t
        assert (a * b) * c == a * (b * c)

    @given(p=dense_pairs)
    def test_mul_commutative(self, p):
        """a * b = b * a."""
        a, b = p
        assert a * b == b * a

    @given(t=dense_triples)
    def test_distributive(self, t):
        """a * (b + c) = a*b + a*c."""
        a, b, c = t
        assert a * (b + c) == a * b + a * c

    @given(a=unipolys)
    def test_identities_and_negation(self, a):
        """a + 0 = a, a * 1 = a, a - a = 0."""
        assert a + 0 == a
        assert a * 1 == a
        assert a - a == UniPoly(0)

    @given(a=unipolys, e=st.integers(0, 6))
    def test_pow_matches_repeated_product(self, a, e):
        """a**e equals the e-fold product."""
        expected = UniPoly(1)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    @given(a=unipolys)
    def test_int_coercion_matches_constant(self, a):
        """Mixed int arithmetic agrees with explicit constants."""
        assert a + 3 == a + UniPoly(3) == 3 + a
        assert 3 * a == UniPoly(3) * a
        assert a * -2 == a * UniPoly(-2) and 0 * a == UniPoly(0)
        assert 5 - a == UniPoly(5) - a == -(a - 5)


def test_unipoly_and_bipoly_are_immutable():
    for v, attr in ((UniPoly([1, 2]), "coeffs"), (BiPoly(2), "degree")):
        with pytest.raises(AttributeError):
            setattr(v, attr, 0)


def test_the_dense_rings_refuse_each_other():
    """A UniPoly and a BiPoly have no mixed arithmetic, and values of the two types are never equal."""
    with pytest.raises(TypeError):
        BiPoly(2) + UniPoly([1, 2])
    with pytest.raises(TypeError):
        UniPoly([1, 2]) * BiPoly.term(1, 1, 0)
    with pytest.raises(TypeError):
        UniPoly([1, 2]) - BiPoly(2)
    assert (BiPoly(1) == UniPoly([1])) is False


# -- m_lambda at the roots of unity ----------------------------------------------


def _root_powers(order: int, exponents) -> list[int]:
    """The sum of w^e over the exponents, w a primitive root of the order, reduced by the oracle."""
    coords = [0] * (max(exponents, default=0) + 1)
    for e in exponents:
        coords[e] += 1
    return roots_oracle.remainder(order, coords)


def test_root_power_small_orders():
    assert _root_powers(2, [1]) == [-1]
    assert _root_powers(3, [3]) == [1, 0]
    assert _root_powers(3, [2]) == [-1, -1]
    assert _root_powers(4, [2]) == [-1, 0]


def test_full_period_of_any_root_sums_to_zero():
    # geometric sum over e = 0..s vanishes for every j, composite orders included
    for s in range(1, 7):
        for j in range(1, s + 1):
            assert not any(_root_powers(s + 1, [j * e for e in range(s + 1)])), (s, j)


def test_power_sum_closed_form():
    # m_(k) is p_k: the k-th powers of the s roots of order s + 1 other than 1, summed
    for s in range(1, 13):
        for k in range(1, 13):
            expected = s if k % (s + 1) == 0 else -1
            assert m_lambda_at_roots((k,), s) == roots_oracle.at_roots((k,), s) == expected, (s, k)


def test_power_sum_examples():
    assert m_lambda_at_roots((4,), 3) == 3
    assert m_lambda_at_roots((5,), 3) == -1
    assert m_lambda_at_roots((7,), 1) == -1
    # 5 divides 10, so every fifth root's tenth power is 1 and the sum is s = 4; order 6 is composite
    assert m_lambda_at_roots((10,), 4) == 4
    assert m_lambda_at_roots((6,), 5) == 5 and m_lambda_at_roots((4,), 5) == -1


@given(num=st.lists(st.integers(-9, 9), max_size=10), order=orders)
def test_division_by_a_cyclotomic_polynomial_leaves_quotient_and_remainder(num, order):
    den = roots_oracle.cyclotomic(order)
    quo, rem = roots_oracle.divmod_monic(num, den)
    assert len(rem) <= len(den) - 1
    assert UniPoly(quo) * UniPoly(den) + UniPoly(rem) == UniPoly(num)


def test_a_roots_value_renders_in_a_report_as_its_integer():
    payload = json.loads(verify("mroots_closed_k", lam=[2, 1]).to_json())
    assert m_lambda_at_roots((2, 1), 2) == -1
    assert payload["lhs"] == payload["rhs"] == "-1"


# -- UniPoly -------------------------------------------------------------------


class TestUniPoly:
    @given(a=unipolys, b=unipolys, x=st.integers(-5, 5))
    def test_evaluation_is_a_ring_homomorphism(self, a, b, x):
        """(a+b)(x) = a(x)+b(x) and (a*b)(x) = a(x)*b(x)."""
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    @given(a=unipolys, s=st.integers(1, 4), x=st.integers(-3, 3))
    def test_scale_exponents_substitutes_a_power(self, a, s, x):
        """a.scale_exponents(s)(x) = a(x**s)."""
        assert a.scale_exponents(s)(x) == a(x**s)

    @given(a=unipolys, e=st.integers(0, 4))
    def test_pow(self, a, e):
        """a**e equals the e-fold product."""
        expected = UniPoly(1)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected


def test_unipoly_normalizes_trailing_zeros():
    assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
    assert UniPoly([0, 0]).degree == -1
    assert not UniPoly()
    assert UniPoly([3]) == 3


def test_unipoly_trims_a_long_zero_top_in_one_pass():
    """60,000 zeros above the constant go in one cut: the trim is linear, not quadratic."""
    start = time.perf_counter()
    u = UniPoly([1] + [0] * 60_000)
    assert time.perf_counter() - start < 1.0
    assert u.coeffs == (1,) and u == 1


def test_unipoly_term_and_str():
    p = UniPoly.term(2, 3) + UniPoly([0, 1]) - 1
    assert str(p) == "-1 + q + 2*q^3"
    assert p.coeffs == (-1, 1, 0, 2)


# -- BiPoly --------------------------------------------------------------------

@st.composite
def bipolys(draw, degree=None):
    """Homogeneous values: every term of one total degree, drawn unless given."""
    d = draw(st.integers(0, 4)) if degree is None else degree
    coeffs = draw(st.lists(st.integers(-9, 9), max_size=d + 1))
    return BiPoly({(d - j, j): c for j, c in enumerate(coeffs)})


@st.composite
def bipoly_pairs(draw):
    """Two values of one shared degree, so that their sum is homogeneous too."""
    d = draw(st.integers(0, 4))
    return draw(bipolys(d)), draw(bipolys(d))


class TestBiPoly:
    @given(ab=bipoly_pairs(), c=bipolys(), p=st.integers(-3, 3), q=st.integers(-3, 3))
    def test_evaluation_is_a_ring_homomorphism(self, ab, c, p, q):
        """(a+b)(p,q) = a(p,q)+b(p,q) and (a*c)(p,q) = a(p,q)*c(p,q)."""
        a, b = ab
        assert (a + b)(p, q) == a(p, q) + b(p, q)
        assert (a * c)(p, q) == a(p, q) * c(p, q)

    @given(a=bipolys(), s=st.integers(1, 3), p=st.integers(-2, 2), q=st.integers(-2, 2))
    def test_scale_exponents(self, a, s, p, q):
        """scale_exponents substitutes p -> p^s and q -> q^s."""
        assert a.scale_exponents(s)(p, q) == a(p**s, q**s)


def test_bipoly_str_orders_by_total_degree():
    v = BiPoly({(2, 0): 1, (0, 2): -3, (1, 1): 1})
    assert str(v) == "-3*q^2 + p*q + p^2"


def test_bipoly_text_builds_only_the_powers_of_p_present():
    """A one-term value of a high degree renders without a text for every lower power of p."""
    assert str(BiPoly.term(1, 10**6, 0)) == "p^1000000"
    assert all(key[0] != "p" for key in exactalg._POWER_TEXTS)


def test_bipoly_json_rows_sorted():
    v = BiPoly({(2, 0): 2, (0, 2): -1})
    assert v.to_json() == [[0, 2, "-1"], [2, 0, "2"]]


def test_bipoly_refuses_a_non_homogeneous_value():
    with pytest.raises(ValueError):
        BiPoly({(1, 0): 2, (0, 2): -1})
    for n, terms in [(2, {(1, 0): 1, (0, 2): 1}), (1, {(1,): 1, (2,): 1})]:
        with pytest.raises(ValueError):
            specialize(MPoly(n, terms), "pq-grid")
    with pytest.raises(ValueError):
        BiPoly.term(1, 1, 0) + BiPoly.term(1, 0, 2)
    assert BiPoly({(1, 0): 2, (0, 1): 0, (0, 2): 0}) == BiPoly.term(2, 1, 0)
    assert not BiPoly.homogenize(UniPoly(), -3)  # the zero value at a negative degree


# -- rendering -----------------------------------------------------------------

# zeros and units are the coefficients the rendering rule treats apart
ring_coeffs = st.lists(st.sampled_from([0, 1, -1]) | st.integers(-12, 12), max_size=14)


def _assert_renders_as_the_term_rule(coeffs, degree):
    u = UniPoly(coeffs)
    assert str(u) == dense_text(u.coeffs, "q")
    b = BiPoly.homogenize(u, max(degree, u.degree))
    assert str(b) == bipoly_text(b.terms)
    assert b.to_json() == bipoly_json(b.terms)


@given(coeffs=ring_coeffs, degree=st.integers(0, 16))
def test_rendering_matches_the_term_by_term_rule(coeffs, degree):
    _assert_renders_as_the_term_rule(coeffs, degree)


@pytest.mark.parametrize("coeffs", [
    [], [0, 0], [7], [-7], [1], [-1], [0, 1], [0, -1], [-1, 1], [-3, 0, 0, 1],
    [0, 0, -2, -1], [1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 12],
], ids=lambda coeffs: ",".join(map(str, coeffs)) or "zero")
def test_rendering_edge_cases_match_the_term_by_term_rule(coeffs):
    for degree in (0, 3, 11):
        _assert_renders_as_the_term_rule(coeffs, degree)
