"""Unit tests for multivariate polynomials and the truncated-series oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from truncsym.exactalg import BiPoly, CycInt, UniPoly, _render_terms
from truncsym.multipoly import (
    MPoly,
    accumulate_product,
    collect,
    is_symmetric,
    specialize,
    substitute_power,
)

from series_oracle import series_inverse, series_product


@st.composite
def mpolys(draw, n=None, coeff=st.integers(-5, 5)):
    nv = n if n is not None else draw(st.integers(1, 3))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nv), coeff, max_size=4
        )
    )
    return MPoly(nv, terms)


@st.composite
def mpoly_pairs(draw):
    nv = draw(st.integers(1, 3))
    return draw(mpolys(n=nv)), draw(mpolys(n=nv))


@st.composite
def mpoly_triples(draw):
    nv = draw(st.integers(1, 3))
    return tuple(draw(mpolys(n=nv)) for _ in range(3))


class TestRingLaws:
    @given(t=mpoly_triples())
    def test_add_associative(self, t):
        """(a + b) + c = a + (b + c)."""
        a, b, c = t
        assert (a + b) + c == a + (b + c)

    @given(p=mpoly_pairs())
    def test_mul_commutative(self, p):
        """a * b = b * a."""
        a, b = p
        assert a * b == b * a

    @given(t=mpoly_triples())
    def test_mul_associative(self, t):
        """(a * b) * c = a * (b * c)."""
        a, b, c = t
        assert (a * b) * c == a * (b * c)

    @given(t=mpoly_triples())
    def test_distributive(self, t):
        """a * (b + c) = a*b + a*c."""
        a, b, c = t
        assert a * (b + c) == a * b + a * c

    @given(p=mpoly_pairs())
    def test_identity_elements(self, p):
        """Zero and one behave as expected."""
        a, _ = p
        assert a + MPoly.zero(a.n) == a
        assert a * MPoly.one(a.n) == a
        assert a - a == MPoly.zero(a.n)

    @given(a=mpolys(), e=st.integers(0, 3))
    def test_pow_matches_repeated_product(self, a, e):
        """a**e equals the e-fold product."""
        expected = MPoly.one(a.n)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    @given(p=mpoly_pairs())
    def test_all_ones_specialization_is_a_homomorphism(self, p):
        """Setting every variable to 1 commutes with + and *."""
        a, b = p
        assert specialize(a + b, "all-ones") == specialize(a, "all-ones") + specialize(b, "all-ones")
        assert specialize(a * b, "all-ones") == specialize(a, "all-ones") * specialize(b, "all-ones")

    @given(p=mpoly_pairs(), s=st.integers(1, 3))
    def test_substitute_power_is_a_homomorphism(self, p, s):
        """x_i -> x_i^s commutes with + and *."""
        a, b = p
        assert substitute_power(a * b, s) == substitute_power(a, s) * substitute_power(b, s)
        assert substitute_power(a + b, s) == substitute_power(a, s) + substitute_power(b, s)

    @given(a=mpolys(), s=st.integers(1, 3))
    def test_substitute_power_matches_q_exponent_scaling(self, a, s):
        """On the geometric specialization, x_i -> x_i^s scales q-exponents by s."""
        lhs = specialize(substitute_power(a, s), "geometric-q")
        assert lhs == specialize(a, "geometric-q").scale_exponents(s)


def test_construction_normalizes_and_validates():
    assert MPoly(2, {(0, 0): 0, (1, 0): 2}) == 2 * MPoly.variable(2, 1)
    assert MPoly.constant(3, 0) == MPoly.zero(3)
    with pytest.raises(ValueError):
        MPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MPoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        MPoly.variable(2, 3)


def test_arity_mismatch_is_an_error():
    with pytest.raises(ValueError):
        MPoly.one(2) + MPoly.one(3)


def test_mpoly_is_not_hashable():
    with pytest.raises(TypeError):
        hash(MPoly.one(1))


def test_scalar_coefficient_types():
    x = MPoly.variable(1, 1)
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    q = UniPoly([0, 1])
    assert (q * x).coeff((1,)) == q
    w = CycInt(3, [0, 1])
    assert (w * x) + (w * x) == (2 * w) * x
    b = BiPoly({(1, 1): 1})
    assert (b * x).coeff((1,)) == b


def test_degree_and_homogeneity():
    p = MPoly(2, {(2, 1): 1, (0, 3): -1})
    assert p.degree() == 3
    assert p.is_homogeneous()
    assert p.is_homogeneous(3)
    assert not p.is_homogeneous(2)
    assert not (p + MPoly.one(2)).is_homogeneous()
    assert MPoly.zero(2).is_homogeneous(5)


def test_pad_appends_silent_variables():
    p = MPoly(2, {(1, 1): 3})
    assert p.pad(4) == MPoly(4, {(1, 1, 0, 0): 3})
    assert p.pad(2) is p
    with pytest.raises(ValueError):
        p.pad(1)


def test_canonical_terms_are_graded_lex_ascending():
    p = MPoly(2, {(0, 2): 1, (1, 0): 2, (2, 0): 3, (0, 0): 4})
    assert [e for e, _ in p.canonical_terms()] == [(0, 0), (1, 0), (0, 2), (2, 0)]


def test_display_order_golden():
    p = MPoly(3, {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 1})
    assert str(p) == "-x1^3 - x2^3 - x3^3 + x1*x2*x3"
    assert str(MPoly.zero(2)) == "0"
    assert str(MPoly.constant(2, Fraction(3, 2))) == "3/2"


def _old_display_key(item):
    # the rendering order before the display memo: one sort key built per term per call
    negated = tuple(-e for e in item[0])
    return (-sum(negated), tuple(sorted(negated)), negated)


def _old_monomial_text(exps):
    return "*".join([f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e])


@given(p=mpolys(n=None, coeff=st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4))),
       wide=mpolys(n=9))
def test_rendering_keeps_the_per_term_display_order(p, wide):
    for poly in (p, wide, p * p):
        terms = sorted(poly.terms.items(), key=_old_display_key)
        old = _render_terms([(c, _old_monomial_text(exps)) for exps, c in terms], MPoly._render_coeff)
        assert str(poly) == old


def test_specialize_goldens():
    p = MPoly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    assert specialize(p, "all-ones") == 2
    assert specialize(p, "geometric-q") == UniPoly([0, 1, 0, 0, 1])
    assert specialize(p, "pq-grid") == BiPoly({(3, 1): 1, (0, 4): 1})
    with pytest.raises(ValueError):
        specialize(p, "no-such-grid")
    with pytest.raises(TypeError):
        specialize(Fraction(1, 2) * MPoly.one(1), "all-ones")


def test_is_symmetric():
    sym = MPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert is_symmetric(sym)
    assert not is_symmetric(sym + MPoly.variable(3, 1))
    assert is_symmetric(MPoly.one(1))


def test_json_roundtrip_for_every_coefficient_payload():
    polys = [
        MPoly(2, {(1, 0): 3, (0, 2): -1}),
        MPoly(1, {(1,): Fraction(2, 3)}),
        MPoly(1, {(2,): CycInt(3, [1, -1])}),
        MPoly(1, {(0,): UniPoly([1, 1])}),
        MPoly(1, {(1,): BiPoly({(1, 0): 1, (0, 1): 1})}),
    ]
    for p in polys:
        blob = p.to_json()
        assert MPoly.from_json(blob) == p
    assert polys[0].to_json()["terms"] == [
        {"exps": [1, 0], "coeff": "3"},
        {"exps": [0, 2], "coeff": "-1"},
    ]


def test_accumulate_product_fuses_multiply_add():
    a = MPoly(2, {(1, 0): 1, (0, 1): 1})
    b = MPoly(2, {(1, 0): 1, (0, 1): -1})
    acc = {}
    accumulate_product(acc, a, b)
    accumulate_product(acc, a, a, scalar=2)
    want = a * b + 2 * (a * a)
    assert collect(2, acc) == want
    assert a * b == MPoly(2, {(2, 0): 1, (0, 2): -1})


def test_series_inverse_of_one_minus_x1t_is_geometric():
    x1 = MPoly.variable(1, 1)
    v = series_inverse([MPoly.one(1), -1 * x1] + [MPoly.zero(1)] * 4)
    for m in range(6):
        assert v[m] == x1**m


@given(coeffs=st.lists(mpolys(n=2), min_size=0, max_size=3))
def test_series_inverse_is_a_two_sided_inverse(coeffs):
    """u * inverse(u) = inverse(u) * u = 1 whenever the constant coefficient is 1."""
    u = ([MPoly.one(2)] + coeffs + [MPoly.zero(2)] * 4)[:5]
    one = [MPoly.one(2)] + [MPoly.zero(2)] * 4
    assert series_product(u, series_inverse(u)) == one
    assert series_product(series_inverse(u), u) == one


def test_series_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_inverse([MPoly.variable(1, 1)] + [MPoly.zero(1)] * 3)


def test_series_truncated_product():
    x1 = MPoly.variable(1, 1)
    u = [MPoly.one(1), x1, x1]
    w = series_product(u, u)
    assert w[0] == MPoly.one(1)
    assert w[1] == 2 * x1
    assert w[2] == x1**2 + 2 * x1
    assert series_product(u, u[:2]) == w[:2]
