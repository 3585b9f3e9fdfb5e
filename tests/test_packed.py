"""The packed-exponent MPoly against a naive tuple-keyed reference.

The reference keeps terms in a plain dict keyed by exponent tuple and adds
exponents entry by entry; every MPoly operation must give the same dict.
"""

import itertools
import json
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncsym
from truncsym.identities import _linear_passes
from truncsym.multipoly import (
    MPoly,
    _layout,
    _product,
    is_symmetric,
    substitute_power,
    sum_of_products,
)

from json_oracle import mpoly_from_json

LIMIT = 2**31

COEFFS = {
    "int": st.integers(-4, 4),
    "fraction": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
}


def ref_clean(terms):
    return {exps: c for exps, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out[exps] + c if exps in out else c
    return ref_clean(out)


def ref_is_symmetric(terms, n):
    for i in range(n - 1):
        swapped = {e[:i] + (e[i + 1], e[i]) + e[i + 2:]: c for e, c in terms.items()}
        if swapped != terms:
            return False
    return True


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(add, e1, e2))
            out[exps] = out[exps] + c1 * c2 if exps in out else c1 * c2
    return ref_clean(out)


@st.composite
def operands(draw, count=2, ring=None):
    """count term dicts over one variable count and one coefficient ring."""
    n = draw(st.integers(0, 6))
    coeff = COEFFS[ring or draw(st.sampled_from(sorted(COEFFS)))]
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return n, [ref_clean(draw(st.dictionaries(exps, coeff, max_size=5))) for _ in range(count)]


@settings(max_examples=150)
@given(operands())
def test_ring_operations_match_the_reference(case):
    n, (a, b) = case
    pa, pb = MPoly(n, a), MPoly(n, b)
    assert pa.terms == a and dict(pa.terms.items()) == a
    assert (pa + pb).terms == ref_add(a, b)
    assert (pa - pb).terms == ref_add(a, {e: -c for e, c in b.items()})
    assert (pa * pb).terms == ref_mul(a, b)
    assert (pa == pb) == (a == b)
    assert sum_of_products(n, [(3, pa, pb), (-3, pb, pa)]) == MPoly.zero(n)


@settings(max_examples=60)
@given(operands(count=1), st.integers(0, 3))
def test_powers_match_repeated_products(case, k):
    n, (a,) = case
    expected = {(0,) * n: 1}
    for _ in range(k):
        expected = ref_mul(expected, a)
    assert (MPoly(n, a) ** k).terms == expected


@given(operands(count=1), st.integers(0, 3), st.integers(1, 4))
def test_pad_and_substitute_power_match_the_reference(case, extra, s):
    n, (a,) = case
    p = MPoly(n, a)
    padded = p.pad(n + extra)
    assert padded.terms == {exps + (0,) * extra: c for exps, c in a.items()}
    assert padded.n == n + extra and (padded == p) == (extra == 0)
    assert substitute_power(p, s).terms == {tuple(e * s for e in exps): c for exps, c in a.items()}


@given(operands(count=1))
def test_json_round_trip(case):
    n, (a,) = case
    p = MPoly(n, a)
    payload = json.loads(json.dumps(p.to_json()))
    assert [tuple(t["exps"]) for t in payload["terms"]] == sorted(a, key=lambda e: (sum(e), e))
    assert mpoly_from_json(payload) == p


def test_the_largest_exponent_is_accepted():
    top = LIMIT - 1
    p = MPoly(3, {(top, 0, top): 2})
    assert p.terms == {(top, 0, top): 2}
    assert p.coeff((top, 0, top)) == 2
    assert str(p) == f"2*x1^{top}*x3^{top}"
    assert mpoly_from_json(p.to_json()) == p
    # an exponent at the limit in one field leaves its neighbours alone
    assert (p * MPoly.monomial(3, (0, 5, 0))).terms == {(top, 5, top): 2}


@pytest.mark.parametrize("bad", [LIMIT, 2**32, 2**40])
def test_an_exponent_of_2_to_the_31_or_more_is_refused(bad):
    with pytest.raises(ValueError):
        MPoly(2, {(0, bad): 1})
    assert MPoly.variable(2, 1).coeff((0, bad)) == 0


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError):
        MPoly(3, {(0, -1, 0): 1})
    with pytest.raises(ValueError):
        MPoly.monomial(1, (-(2**32),))


def test_a_product_reaching_the_limit_raises_instead_of_wrapping():
    half = MPoly.monomial(2, (LIMIT // 2, 1))
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        MPoly.monomial(2, (LIMIT - 1, 0)) * MPoly.variable(2, 1)
    with pytest.raises(OverflowError):
        sum_of_products(1, [(1, MPoly.monomial(1, (LIMIT - 1,)), MPoly.monomial(1, (1,)))])
    with pytest.raises(OverflowError):
        MPoly.monomial(1, (2**16,)) ** (2**15)
    with pytest.raises(OverflowError):
        substitute_power(MPoly.monomial(2, (1, 2**30)), 2)
    assert issubclass(OverflowError, ArithmeticError)  # the CLI's exit 2


@settings(max_examples=100)
@given(operands(count=1), st.data())
def test_a_shift_is_the_product_by_a_monomial(case, data):
    n, (a,) = case
    if n == 0:
        return
    i, j = data.draw(st.integers(1, n)), data.draw(st.integers(0, 3))
    scalar = data.draw(st.sampled_from([1, -1, 3]))
    monomial = tuple(j if col == i - 1 else 0 for col in range(n))
    shifted = sum_of_products(n, [(scalar, MPoly.monomial(n, monomial), MPoly(n, a))])  # one linear pass
    assert shifted.terms == ref_mul(a, {monomial: scalar})


def test_a_shift_reaching_the_limit_raises_instead_of_wrapping():
    top = MPoly.monomial(2, (LIMIT - 1, 0))
    with pytest.raises(OverflowError):
        sum_of_products(2, [(1, MPoly.variable(2, 1), top)])
    with pytest.raises(OverflowError):  # past a first term that fits
        sum_of_products(2, [(1, MPoly.one(2), top), (-1, MPoly.variable(2, 1), top)])
    # the neighbouring field reaches its own limit only
    near = sum_of_products(2, [(1, MPoly.monomial(2, (0, LIMIT - 1)), top)])
    assert near.terms == {(LIMIT - 1, LIMIT - 1): 1}
    # every pass of a linear factor shifts by x_i, so the series' top exponent may reach the limit
    for divide in (True, False):
        with pytest.raises(OverflowError):
            list(_linear_passes(1, [MPoly.monomial(1, (LIMIT - 1,)), MPoly.zero(1)], divide))


# exponents near the limit and near the halves whose ORs add past it while no pair does
NEAR_LIMIT = st.one_of(st.sampled_from([0, 1, 2**29, 2**30 - 1, 2**30, LIMIT - 1]), st.integers(0, LIMIT - 1))


@settings(max_examples=300)
@given(st.integers(1, 3), st.data())
def test_a_product_raises_exactly_when_some_pair_reaches_the_limit(n, data):
    a, b = (data.draw(st.dictionaries(st.tuples(*[NEAR_LIMIT] * n), st.integers(-3, 3).filter(bool),
                                      min_size=1, max_size=3)) for _ in range(2))
    acc = {(0,) * n: 5}
    packed = dict(MPoly(n, acc)._packed)
    over = any(x + y >= LIMIT for e1 in a for e2 in b for x, y in zip(e1, e2))
    terms = [(1, MPoly.one(n), MPoly(n, acc)), (2, MPoly(n, a), MPoly(n, b))]
    if over:
        with pytest.raises(OverflowError):
            _product(packed, MPoly(n, a)._packed, MPoly(n, b)._packed, 2, _layout(n)[2])
        assert packed == MPoly(n, acc)._packed  # refused before any term was added
        with pytest.raises(OverflowError):
            sum_of_products(n, terms)
    else:
        assert sum_of_products(n, terms).terms == ref_add(acc, ref_mul(ref_mul(a, b), {(0,) * n: 2}))


@pytest.mark.parametrize("a, b, over", [
    ([2**30, 2**29], [2**30 - 1], False),  # the ORs add to 2**31 + 2**29 - 1, the largest pair to 2**31 - 1
    ([2**30 - 1], [2**30, 2**29], False),
    ([LIMIT - 1], [0, 1], True),  # a one-term operand on either side
    ([0, 1], [LIMIT - 1], True),
    ([LIMIT - 1], [0], False),
])
def test_the_or_bound_is_only_a_filter(a, b, over):
    pa, pb = (MPoly(1, {(e,): 1 for e in exps}) for exps in (a, b))
    acc: dict = {}
    if over:
        with pytest.raises(OverflowError):
            _product(acc, pa._packed, pb._packed, 1, _layout(1)[2])
        assert acc == {}
        with pytest.raises(OverflowError):
            sum_of_products(1, [(1, pa, pb)])
    else:
        assert sum_of_products(1, [(1, pa, pb)]) == pa * pb


@settings(max_examples=150)
@given(st.sampled_from(sorted(COEFFS)), st.booleans(), st.booleans(), st.data())
def test_sum_of_products_matches_the_reference(ring, one_term_first, cancel, data):
    n, factors = data.draw(operands(count=3, ring=ring))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    factors += [{}, {data.draw(exps): data.draw(COEFFS[ring].filter(bool))}]  # a zero and a one-term operand
    index = st.integers(0, len(factors) - 1)
    picks = data.draw(st.lists(st.tuples(COEFFS[ring], index, index), max_size=5))  # zero scalars included
    if one_term_first:  # 1 times a one-term operand first: the product loop copies the other operand's terms
        picks.insert(0, (1, len(factors) - 1, data.draw(index)))
    if cancel:  # every term again with the opposite scalar and its operands swapped
        picks += [(-c, j, i) for c, i, j in picks]
    values = [MPoly(n, f) for f in factors]
    total = sum_of_products(n, ((c, values[i], values[j]) for c, i, j in picks))
    expected: dict = {}
    for c, i, j in picks:
        expected = ref_add(expected, ref_mul(ref_mul(factors[i], factors[j]), {(0,) * n: c}))
    assert total.terms == expected and all(total._packed.values())
    assert not cancel or total == MPoly.zero(n)
    assert [v.terms for v in values] == factors  # no operand is changed


@pytest.mark.parametrize("n, a, b", [
    (1, MPoly.variable(1, 1), MPoly.variable(2, 2)),
    (2, MPoly.variable(1, 1), MPoly.variable(2, 2)),
    (2, MPoly.variable(2, 1), MPoly.zero(3)),  # a zero operand is checked too
    (2, MPoly.zero(3), MPoly.variable(2, 1)),
    (2, MPoly.zero(1), MPoly.zero(1)),  # operands that agree with each other, not with n
    (0, MPoly.one(1), MPoly.one(1)),
])
def test_sum_of_products_refuses_an_operand_in_another_variable_count(n, a, b):
    for scalar in (1, 0):  # a zero scalar does not hide it
        with pytest.raises(ValueError):
            sum_of_products(n, [(scalar, a, b)])
        with pytest.raises(ValueError):  # nor a valid term before it
            sum_of_products(n, [(1, MPoly.one(n), MPoly.one(n)), (scalar, a, b)])


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (0, 1)])
def test_a_zero_operand_in_another_variable_count_is_refused(n, m):
    p = MPoly.one(n) + MPoly.variable(n, n) if n else MPoly.one(0)
    assert p + MPoly.zero(n) is p and MPoly.zero(n) + p is p  # values are immutable, so shared
    for left, right in [(p, MPoly.zero(m)), (MPoly.zero(m), p), (MPoly.zero(n), MPoly.zero(m))]:
        with pytest.raises(ValueError):
            left + right


# -- degree and symmetry on packed keys ------------------------------------------


def assert_structure_matches_the_reference(n, terms):
    p, degrees = MPoly(n, terms), {sum(exps) for exps in terms}
    assert is_symmetric(p) == ref_is_symmetric(terms, n)
    assert p.degree() == max(degrees, default=-1)
    assert p.is_homogeneous() == (len(degrees) <= 1)
    for k in {0, 1, *degrees}:
        assert p.is_homogeneous(k) == (degrees <= {k})


# a field near the limit makes the fields of a key sum past 2**32 - 1, the degree fold's bound
EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, LIMIT - 1), st.integers(LIMIT - 4, LIMIT - 1))


@st.composite
def symmetrized(draw):
    """A symmetric term dict (every permutation of a few exponent tuples), maybe with one
    coefficient perturbed."""
    n = draw(st.integers(0, 5))
    seeds = draw(st.lists(st.tuples(*[EXPONENTS] * n), max_size=3))
    terms = {}
    for exps in seeds:
        c = draw(st.integers(1, 4))
        terms.update(dict.fromkeys(itertools.permutations(exps), c))
    if terms and draw(st.booleans()):
        exps = draw(st.sampled_from(sorted(terms)))
        terms[exps] += draw(st.sampled_from([-1, 1]))
    return n, ref_clean(terms)


@settings(max_examples=300)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.tuples(*[EXPONENTS] * n), st.integers(-2, 2), max_size=6))))
def test_degree_and_symmetry_match_the_tuple_reference(case):
    n, terms = case
    assert_structure_matches_the_reference(n, ref_clean(terms))


@settings(max_examples=300)
@given(symmetrized())
def test_symmetrized_inputs_and_one_perturbed_coefficient(case):
    assert_structure_matches_the_reference(*case)


@pytest.mark.parametrize(
    "n, terms",
    [
        (0, {}),
        (0, {(): 7}),
        (1, {(LIMIT - 1,): 1, (2,): -1}),
        (1, {(LIMIT - 1,): 3}),
        # every field at the limit: the fields sum to 3 * (2**31 - 1), past 2**32 - 1
        (3, {(LIMIT - 1,) * 3: 1}),
        (3, {(LIMIT - 1, LIMIT - 2, LIMIT - 1): 1, (LIMIT - 2, LIMIT - 1, LIMIT - 1): 1}),
        (3, {(LIMIT - 1, LIMIT - 1, 0): 1, (0, LIMIT - 1, LIMIT - 1): 1, (LIMIT - 1, 0, LIMIT - 1): 1}),
        (3, {(2**30, 2**30, 2**30): 1, (0, 0, 1): 1}),
        (5, {exps: 2 for exps in itertools.permutations((4, 3, 0, 0, 1))}),
        (5, {**{exps: 2 for exps in itertools.permutations((4, 3, 0, 0, 1))}, (0, 0, 1, 3, 4): 1}),
        (5, {(2**29 - 1,) * 5: 1, (0, 1, 0, 0, 0): 1}),
        (5, {(2**29,) * 5: 1, (LIMIT - 1, 5 * 2**29 - LIMIT + 1, 0, 0, 0): -1}),
        # x1^2*x2 + x2^2*x3 + ... + xn^2*x1 is fixed by the n-cycle, not by (1 2);
        # x1*x2 + x3 is fixed by (1 2), not by the n-cycle
        *[(n, {tuple(2 if j == i else int(j == (i + 1) % n) for j in range(n)): 1 for i in range(n)})
          for n in (3, 4, 5)],
        *[(n, {(1, 1) + (0,) * (n - 2): 1, (0, 0, 1) + (0,) * (n - 3): 1}) for n in (3, 4, 5)],
        (0, {(): -2}),
        (1, {(0,): 1, (5,): 2}),
        (2, {(2, 1): 1}),
        (2, {(2, 1): 3, (1, 2): 3, (0, 0): 1}),
    ],
)
def test_degree_and_symmetry_at_fixed_points(n, terms):
    assert_structure_matches_the_reference(n, terms)


# -- one-term products and the constructors -------------------------------------


@settings(max_examples=150)
@given(st.sampled_from(sorted(COEFFS)), st.data())
def test_a_one_term_product_matches_the_product_loop(ring, data):
    n, (a, b) = data.draw(operands(count=2, ring=ring))
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * n))
    c = data.draw(COEFFS[ring].filter(bool))
    one, p = MPoly(n, {exps: c}), MPoly(n, a)
    expected = sum_of_products(n, [(1, one, p)])  # the product loop
    assert one * p == expected and p * one == expected
    assert expected.terms == ref_mul({exps: c}, a)
    assert all((one * p)._packed.values()) and all((p * one)._packed.values())
    for scalar in (c, 0, 1):
        scaled = ref_clean({e: v * scalar for e, v in b.items()})
        for product in (scalar * MPoly(n, b), MPoly(n, b) * scalar):
            assert product.terms == scaled and all(product._packed.values())


def test_a_one_term_product_reaching_the_limit_raises_in_either_order():
    top, x1 = MPoly.monomial(1, (LIMIT - 1,)), MPoly.variable(1, 1)
    with pytest.raises(OverflowError):
        top * x1
    with pytest.raises(OverflowError):
        x1 * top
    wide = MPoly(2, {(LIMIT - 1, 0): 1, (0, 1): 2})
    with pytest.raises(OverflowError):
        wide * MPoly.variable(2, 1)
    with pytest.raises(OverflowError):
        MPoly.variable(2, 1) * wide


def test_only_the_int_one_returns_the_operand_itself():
    p = MPoly.variable(2, 1) + 3
    assert 1 * p is p and p * 1 is p and p * MPoly.one(2) is p and MPoly.one(2) * p is p
    one = Fraction(1)  # equal to 1, but of another type
    for product in (one * p, p * one, MPoly.constant(2, one) * p, p * MPoly.constant(2, one)):
        assert product == p and {type(c) for c in product.terms.values()} == {Fraction}


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_the_constructors_match_their_tuple_forms(n):
    origin = (0,) * n
    assert MPoly.zero(n) == MPoly(n, {}) and MPoly.zero(n).terms == {}
    assert MPoly.one(n) == MPoly(n, {origin: 1})
    for c in (3, Fraction(-1, 2)):
        assert MPoly.constant(n, c) == MPoly(n, {origin: c})
    for c in (0, Fraction(0)):
        assert MPoly.constant(n, c) == MPoly.zero(n) and len(MPoly.constant(n, c).terms) == 0
    for i in range(1, n + 1):
        assert MPoly.variable(n, i) == MPoly(n, {tuple(int(j == i - 1) for j in range(n)): 1})


def test_the_constructors_refuse_a_bad_count_or_index():
    for build in (lambda: MPoly.zero(-1), lambda: MPoly.one(-1), lambda: MPoly.constant(-1, 2),
                  lambda: MPoly(-1), lambda: MPoly.variable(2, 3), lambda: MPoly.variable(2, 0),
                  lambda: MPoly.variable(-1, 1)):
        with pytest.raises(ValueError):
            build()


@settings(max_examples=150)
@given(operands(count=1), st.data())
def test_a_sum_of_disjoint_key_sets_matches_the_reference(case, data):
    # the terms split in two, so no key is in both operands and nothing cancels
    n, (terms,) = case
    left = set(data.draw(st.lists(st.sampled_from(sorted(terms)), unique=True))) if terms else set()
    a, b = ({e: c for e, c in terms.items() if (e in left) == side} for side in (True, False))
    pa, pb = MPoly(n, a), MPoly(n, b)
    for total in (pa + pb, pb + pa, pa - (-pb)):
        assert total.terms == ref_add(a, b) == terms and total == MPoly(n, terms) and all(total._packed.values())
        if a and b:  # a new dict; with an empty operand the sum is the other operand, shared
            assert total._packed is not pa._packed and total._packed is not pb._packed
    assert (pa.terms, pb.terms) == (a, b)  # the operands are not changed


@pytest.mark.parametrize("bad, name", [(True, "bool"), (False, "bool"), (1.0, "float"), (3.0, "float"), ("1", "str"),
                                       (Fraction(1), "Fraction")])
def test_a_variable_index_exponent_or_pad_count_that_is_not_an_int_is_refused_by_its_type(bad, name):
    # each was checked by value alone: variable(2, True) was x1, and pad(3.0) gave a value with a float n
    with pytest.raises(TypeError, match=f"^variable index must be an int, got {name}$"):
        MPoly.variable(2, bad)
    for build in (lambda: MPoly(2, {(bad, 0): 1}), lambda: MPoly(2, {(0, 0): 1, (1, bad): 2}),
                  lambda: MPoly.monomial(2, (1, bad)), lambda: MPoly.monomial(2, (bad, 1), 3)):
        with pytest.raises(TypeError, match=f"^exponents must be int, got {name}$"):
            build()
    for p in (MPoly.one(2), MPoly.zero(3), MPoly.variable(3, 1)):
        with pytest.raises(TypeError, match=f"^variable count must be an int, got {name}$"):
            p.pad(bad)


def test_the_exponent_types_are_named_once_each():
    with pytest.raises(TypeError, match="^exponents must be int, got bool, float$"):
        MPoly(3, {(1.0, True, 0): 1, (2.0, 0, False): 1, (0, 1, 2): 1})


def test_valid_values_keep_their_json():
    assert MPoly.monomial(2, (1, 1)).to_json_text() == '{"n": 2, "terms": [{"exps": [1, 1], "coeff": "1"}]}'
    assert MPoly.variable(3, 2).to_json_text() == '{"n": 3, "terms": [{"exps": [0, 1, 0], "coeff": "1"}]}'
    padded = MPoly(2, {(0, 0): 1, (2, 1): Fraction(-1, 2)}).pad(3)
    assert padded.to_json_text() == ('{"n": 3, "terms": [{"exps": [0, 0, 0], "coeff": "1"}, '
                                     '{"exps": [2, 1, 0], "coeff": "-1/2"}]}')
    assert json.loads(padded.to_json_text()) == padded.to_json() and type(padded.n) is int


@pytest.mark.parametrize("n, name", [(True, "bool"), (False, "bool"), (1.0, "float"), (2.5, "float"), ("2", "str")])
def test_a_variable_count_that_is_not_an_int_is_refused_by_its_type(n, name):
    assert MPoly.zero(1) == MPoly.zero(1) and MPoly.one(0) == MPoly.one(0)  # the layouts of 1 and 0 are cached
    for build in (lambda: MPoly.zero(n), lambda: MPoly.one(n), lambda: MPoly.constant(n, -1),
                  lambda: MPoly.constant(n, 5), lambda: MPoly(n), lambda: MPoly(n, {(0,): 1}),
                  lambda: MPoly.variable(n, 1), lambda: _layout(n)):
        with pytest.raises(TypeError, match=f"^variable count must be an int, got {name}$"):
            build()
    truncsym.clear_caches()
