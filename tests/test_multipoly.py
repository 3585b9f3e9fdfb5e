"""Unit tests for multivariate polynomials and the truncated-series oracle."""

import ast
import json
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import truncsym
from truncsym import cli, multipoly
from truncsym.exactalg import BiPoly, UniPoly
from truncsym.multipoly import (
    _BLOCK,
    MPoly,
    _json_chunks,
    _product,
    _report_text,
    _trusted,
    is_symmetric,
    specialize,
    substitute_power,
    sum_of_products,
)
from truncsym.symfun import E, m_lambda

from json_oracle import mpoly_from_json
from render_oracle import render_terms
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


@pytest.mark.parametrize("name", ["n", "_packed", "_report", "other"])
def test_mpoly_is_immutable(name):
    p = MPoly.variable(2, 1)
    with pytest.raises(AttributeError, match="MPoly is immutable"):
        setattr(p, name, 0)
    assert _report_text(p) == "x1"  # fills the report slot, which stays closed to assignment
    with pytest.raises(AttributeError, match="MPoly is immutable"):
        setattr(p, name, 0)
    assert (p.n, p._report) == (2, "x1")


def test_mpoly_is_not_hashable():
    with pytest.raises(TypeError):
        hash(MPoly.one(1))


def test_scalar_coefficient_types():
    x = MPoly.variable(1, 1)
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    assert (Fraction(1, 2) * x).coeff((1,)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "c", [1.5, 0.0, "1", complex(0, 1), UniPoly([0, 1]), BiPoly({(1, 1): 1})],
    ids=["float", "float-zero", "str", "complex", "unipoly", "bipoly"],
)
def test_a_coefficient_other_than_int_or_fraction_is_refused(c):
    with pytest.raises(TypeError, match="int or Fraction"):
        MPoly(1, {(1,): c})
    with pytest.raises(TypeError, match="int or Fraction"):
        MPoly.constant(2, c)
    with pytest.raises(TypeError, match="int or Fraction"):
        MPoly.monomial(2, (1, 0), c)
    with pytest.raises(TypeError):
        MPoly.variable(1, 1) * c


@pytest.mark.parametrize("c", [True, False])
def test_a_bool_coefficient_is_refused(c):
    # a bool is an int, but True rendered as True and went to JSON as "True"
    with pytest.raises(TypeError, match="int or Fraction, got bool"):
        MPoly(1, {(1,): c})
    with pytest.raises(TypeError, match="int or Fraction, got bool"):
        MPoly.constant(2, c)


def test_a_term_view_reprs_as_the_dict_of_its_terms():
    p = MPoly(2, {(1, 0): 2, (0, 3): -1})
    assert ast.literal_eval(repr(p.terms)) == {(1, 0): 2, (0, 3): -1}
    assert repr(MPoly.zero(2).terms) == "{}"


@pytest.mark.parametrize("other", ["x", 1.5, UniPoly([0, 1])], ids=["str", "float", "unipoly"])
def test_sums_and_differences_with_another_type_are_refused(other):
    p = MPoly.variable(2, 1)
    for pair in ((p, other), (other, p)):
        with pytest.raises(TypeError):
            operator.add(*pair)
        with pytest.raises(TypeError):
            operator.sub(*pair)


def test_a_scalar_minus_a_polynomial():
    x1 = MPoly.variable(2, 1)
    assert 3 - x1 == MPoly(2, {(0, 0): 3, (1, 0): -1})
    assert Fraction(1, 2) - x1 == -(x1 - Fraction(1, 2))


def test_a_power_substitution_needs_a_positive_power():
    with pytest.raises(ValueError, match="^power must be >= 1, got 0$"):
        substitute_power(MPoly.variable(2, 1), 0)


@pytest.mark.parametrize("power, name", [(2.0, "float"), (True, "bool"), (False, "bool"), (Fraction(2), "Fraction"),
                                         ("2", "str")])
def test_a_power_substitution_refuses_a_power_that_is_not_an_int(power, name):
    # 2.0 gave float keys, whose JSON and text raised, and True was taken as the power 1
    with pytest.raises(TypeError, match=f"^power must be an int, got {name}$"):
        substitute_power(MPoly.variable(2, 1) + MPoly.variable(2, 2), power)


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
        old = render_terms([(c, _old_monomial_text(exps)) for exps, c in terms])
        assert str(poly) == old


def _mixed_terms(n, count, top):
    """count distinct exponent tuples of mixed degrees, one with a field of top, and int and Fraction coefficients."""
    rng = random.Random(n * count)
    exps = {tuple(rng.choices(range(4), k=n)) for _ in range(count)} | {(top,) + (1,) * (n - 1)}
    return {e: (-1) ** i * (Fraction(i, 3) if i % 2 else i + 1) for i, e in enumerate(sorted(exps))}


_ORDER_CASES = {
    "n0": MPoly(0, {(): Fraction(-3, 7)}),
    "n1": MPoly(1, {(e,): e - 2 for e in (0, 1, 3, 255)}),
    "n1-256": MPoly(1, {(e,): Fraction(1, e + 1) for e in (0, 1, 3, 256)}),
    "n2": MPoly(2, _mixed_terms(2, 12, 255)),
    "n2-256": MPoly(2, _mixed_terms(2, 12, 256)),
    "n2-2**31-1": MPoly(2, {**_mixed_terms(2, 12, 2**31 - 1), (1, 2**31 - 1): 5, (2**31 - 1, 2**31 - 1): -1}),
    "n40": MPoly(40, _mixed_terms(40, 60, 255)),
    "n40-256": MPoly(40, _mixed_terms(40, 60, 256)),
    "n40-2**31-1": MPoly(40, _mixed_terms(40, 60, 2**31 - 1)),
}


@pytest.mark.parametrize("p", _ORDER_CASES.values(), ids=_ORDER_CASES)
def test_the_key_sorts_give_the_orders_of_the_row_sorts(p):
    # the graded-lex rows and the 4-tuple text key, one per term, that the sorts of packed keys replace
    graded = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    shown = sorted([(-sum(e), sorted(filter(None, e), reverse=True), e, c) for e, c in p.terms.items()], reverse=True)
    assert p.canonical_terms() == graded
    assert p.to_json() == {"n": p.n, "terms": [{"exps": list(e), "coeff": str(c)} for e, c in graded]}
    assert json.loads(p.to_json_text()) == p.to_json()
    assert str(p) == render_terms([(c, _old_monomial_text(e)) for _, _, e, c in shown])


def test_writing_a_large_value_holds_a_compact_key_per_term():
    # E(3, 1, 40) has 9,880 terms in 40 variables.  With a (degree, exponent tuple, c) row per term the JSON
    # write peaked at 4.20 MiB under tracemalloc, and str with a 4-tuple key per term at 6.20 MiB (Python 3.11)
    p = E(3, 1, 40)
    for write, bound_mib in ((lambda: sum(map(len, _json_chunks(p))), 1.5), (lambda: len(str(p)), 2.5)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


def _term_by_term(p: MPoly, kind: str):
    """The grid image as a sum of one ring value per term of p: x_i = q^(i-1), or p^(n-i) q^(i-1)."""
    q_degrees = [(sum((i - 1) * e for i, e in enumerate(exps, 1)), sum(exps), c) for exps, c in p.terms.items()]
    if kind == "geometric-q":
        return sum((UniPoly.term(c, d) for d, _, c in q_degrees), UniPoly())
    return sum((BiPoly.term(c, (p.n - 1) * total - d, d) for d, total, c in q_degrees), BiPoly())


@st.composite
def homogeneous_mpolys(draw):
    """Integer polynomials in 1..4 variables whose terms share one degree 0..6."""
    n, degree = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    cuts = st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1).map(sorted)
    exps = cuts.map(lambda c: tuple(b - a for a, b in zip([0, *c], [*c, degree])))
    return MPoly(n, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=8)))


@given(a=mpolys(coeff=st.integers(-5, 5)), b=homogeneous_mpolys())
def test_the_grid_specializations_are_the_term_by_term_sums(a, b):
    assert specialize(a, "geometric-q") == _term_by_term(a, "geometric-q")
    assert specialize(b, "geometric-q") == _term_by_term(b, "geometric-q")
    assert specialize(b, "pq-grid") == _term_by_term(b, "pq-grid")


def test_the_grid_specializations_of_zero_and_of_no_variables():
    assert specialize(MPoly.zero(3), "geometric-q") == UniPoly()
    assert specialize(MPoly.zero(3), "pq-grid") == BiPoly()
    assert specialize(7 * MPoly.one(0), "geometric-q") == UniPoly(7)
    assert specialize(MPoly(1, {(5,): 2}), "pq-grid") == BiPoly(2)  # one variable: x1 = p^0 q^0
    assert specialize(MPoly(2, {(5, 0): 2}), "pq-grid") == BiPoly({(5, 0): 2})


def test_a_sparse_grid_image_is_as_long_as_its_top_q_degree():
    # x1^4000 has q-degree 0: one coefficient, not a list as long as (n - 1) * 4000
    p = MPoly(3, {(4000, 0, 0): 5})
    tracemalloc.start()
    try:
        assert specialize(p, "geometric-q") == UniPoly(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14


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
        MPoly(2, {(0, 0): Fraction(-1, 2), (1, 1): 4}),
    ]
    for p in polys:
        blob = p.to_json()
        assert mpoly_from_json(blob) == p
    assert polys[0].to_json()["terms"] == [
        {"exps": [1, 0], "coeff": "3"},
        {"exps": [0, 2], "coeff": "-1"},
    ]


# n = 0..4 variables, exponents small or near the 2**31 limit, int and Fraction coefficients of
# either sign; terms of different degrees mix, and an empty draw or zero coefficients give zero
JSON_POLYS = st.integers(0, 4).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**31 - 1))] * n),
    st.one_of(st.integers(), st.fractions(), st.just(0)),
    max_size=6,
).map(lambda terms: MPoly(n, terms)))


@given(JSON_POLYS)
@example(MPoly.zero(0))
@example(MPoly.zero(4))
@example(MPoly(0, {(): Fraction(-3, 7)}))
def test_the_json_writer_gives_the_dump_of_to_json(p):
    assert p.to_json_text() == json.dumps(p.to_json(), separators=(", ", ": "))


@pytest.mark.parametrize("n, count", [
    (0, 0), (0, 1), (2, 0), (2, 1), (2, _BLOCK - 1), (2, _BLOCK), (2, _BLOCK + 1), (3, 2 * _BLOCK + 1),
])
def test_the_json_chunks_join_to_the_dump_of_to_json(n, count):
    # int and Fraction coefficients of both signs, on distinct monomials of mixed degrees
    coeffs = [Fraction(-3, 7), -5, 2**70, Fraction(1, 2), -1]
    p = MPoly(n, {(i % 17, i // 17, i % 3)[:n]: coeffs[i % 5] for i in range(count)})
    assert len(p.terms) == count
    want = json.dumps(p.to_json(), separators=(", ", ": "))
    chunks = list(_json_chunks(p, "<head>", "<tail>"))
    assert chunks[0] == f'<head>{{"n": {n}, "terms": ['
    assert len(chunks) == 2 + -(-count // _BLOCK)  # the head, a chunk per block of terms, the close
    assert "".join(chunks) == f"<head>{want}<tail>"
    assert p.to_json_text() == want


def test_an_orbit_sum_past_the_exponent_limit_is_refused_with_one_message(capsys):
    # the orbit elements are packed without the constructor, which holds the same check
    for build, n in [
        (lambda: m_lambda((2**31,), 1), 1),  # packs, but sets the top bit of its field
        (lambda: E(2**31, 2**31, 1), 1),
        (lambda: m_lambda((2**32 + 5,), 2), 2),  # does not fit a 32-bit field at all
    ]:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"exponent tuples need {n} entries in 0..2**31-1"
    assert cli.run(["expand", "--kind", "m", "--lambda", "2147483648", "--n", "1", "--deterministic"]) == 2
    assert capsys.readouterr() == ("", "error: exponent tuples need 1 entries in 0..2**31-1\n")


def test_sum_of_products_fuses_multiply_add():
    a = MPoly(2, {(1, 0): 1, (0, 1): 1})
    b = MPoly(2, {(1, 0): 1, (0, 1): -1})
    want = a * b + 2 * (a * a)
    assert sum_of_products(2, [(1, a, b), (2, a, a)]) == want
    assert sum_of_products(2, iter([(1, a, b), (0, a, a), (2, a, a), (5, a, MPoly.zero(2))])) == want
    assert sum_of_products(2, []) == MPoly.zero(2) and sum_of_products(0, []) == MPoly.zero(0)
    assert a * b == MPoly(2, {(2, 0): 1, (0, 2): -1})


def _pair_loop(acc: dict, a: dict, b: dict, scalar) -> dict:
    """acc += scalar * a * b by the general pair loop, one key added per pair: the oracle of the constant path."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = e1 + e2
            acc[key] = acc[key] + c1 * scalar * c2 if key in acc else c1 * scalar * c2
    return acc


@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("c", [-2, 1, Fraction(1, 2)])
def test_a_constant_operand_adds_under_the_other_operands_keys_as_the_pair_loop_does(c, filled):
    b = MPoly(3, {(2, 0, 0): 3, (1, 1, 0): -1, (0, 0, 4): Fraction(2, 3)})._packed
    # empty with c = 1 is the copy of b; filled has one term that b's term cancels to zero, one that b does not touch
    start = MPoly(3, {(1, 1, 0): c, (5, 0, 0): 7})._packed if filled else {}
    top = multipoly._layout(3)[2]
    for a, scalar in (({0: 1}, c), ({0: c}, 1)):
        acc, want = dict(start), _pair_loop(dict(start), a, b, scalar)
        assert _product(acc, a, b, scalar, top) is acc
        assert list(acc.items()) == list(want.items())  # keys, order and values
        assert [type(v) for v in acc.values()] == [type(v) for v in want.values()]
    assert (0 in acc.values()) == filled  # the sum filters it, not the loop
    assert sum_of_products(3, [(c, MPoly.one(3), _trusted(3, b))]) == c * _trusted(3, b)


def test_a_report_text_is_read_by_value_from_one_render(monkeypatch):
    multipoly._text_of.cache_clear()
    renders, render = [], multipoly._render
    monkeypatch.setattr(multipoly, "_render", lambda p: renders.append(p) or render(p))
    for value in (E(2, 1, 3), E(6, 2, 5)):  # str, and the digest of a value of 41 to 256 terms
        reversed_twin = _trusted(value.n, dict(reversed(value._packed.items())))
        fraction_twin = _trusted(value.n, {key: Fraction(c) for key, c in value._packed.items()})
        # the premise of the memo: neither insertion order nor an int's equal Fraction shows in the text
        assert render(reversed_twin) == render(fraction_twin) == render(value)
        twins = (MPoly(value.n, dict(value.terms)), reversed_twin, fraction_twin)  # fresh objects, empty slots
        assert [_report_text(twin) for twin in twins] == [render(value)] * 3
        assert all(twin._report == render(value) for twin in twins)  # and each keeps it in its slot
    assert [len(p._packed) for p in renders] == [3, 45]  # one render a distinct value
    assert multipoly._text_of.cache_info()[:2] == (4, 2)  # hits, misses


def test_a_value_past_a_block_of_terms_renders_directly_and_is_not_kept(monkeypatch):
    value = E(8, 2, 7)
    twin = MPoly(value.n, dict(value.terms))
    assert len(twin._packed) > _BLOCK
    before = multipoly._text_of.cache_info()
    monkeypatch.setattr(multipoly, "_text_of", lambda n, items: pytest.fail("a large value reached the memo"))
    assert _report_text(twin) == multipoly._render(value) == twin._report
    monkeypatch.undo()
    assert multipoly._text_of.cache_info() == before


def test_the_text_memo_keeps_1024_texts_and_clear_caches_empties_it():
    multipoly._text_of.cache_clear()
    for i in range(1, 1031):
        assert _report_text(MPoly.constant(1, i)) == str(i)
    info = multipoly._text_of.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (0, 1030, 1024, 1024)
    _report_text(MPoly.constant(1, 1030))  # recent: read from the memo
    _report_text(MPoly.constant(1, 1))  # the least recently used: evicted, so rendered again
    assert multipoly._text_of.cache_info()[:2] == (1, 1031)
    truncsym.clear_caches()
    assert multipoly._text_of.cache_info().currsize == 0


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
