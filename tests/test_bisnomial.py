"""Unit tests for the generalized binomial tables and their q/pq refinements."""

import sys
import tracemalloc
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import eval_oracle
import truncsym
from pq_oracle import agrees_at_p1, pq_bisnomial_rows, pq_gaussian_rows
from truncsym.bisnomial import (
    _table_rows,
    bisnomial,
    gaussian,
    pq_bisnomial,
    pq_gaussian,
    q_bisnomial,
)
from truncsym.exactalg import BiPoly, UniPoly
from truncsym.identities import verify
from truncsym.multipoly import specialize
from truncsym.symfun import E

TRIANGLES = sys.modules["truncsym.bisnomial"]  # the package name is the function


def test_counting_goldens():
    assert bisnomial(3, 3, 2) == 7
    assert list(_table_rows("plain", 2, 2))[-1] == [1, 2, 3, 2, 1]
    assert bisnomial(2, -1, 3) == 0
    assert bisnomial(2, 7, 3) == 0
    assert bisnomial(0, 0, 2) == 1


def test_rows_sum_to_a_power_and_are_palindromic():
    for s in range(1, 5):
        for n, row in enumerate(_table_rows("plain", 5, s)):
            assert len(row) == s * n + 1
            assert sum(row) == (s + 1) ** n
            assert row == row[::-1]


def test_counts_match_the_all_ones_specialization():
    for n in range(5):
        for s in range(1, 4):
            for k in range(s * n + 1):
                assert bisnomial(n, k, s) == specialize(E(k, s, n), "all-ones")


def test_binomial_case():
    for n in range(6):
        for k in range(n + 1):
            assert bisnomial(n, k, 1) == comb(n, k)


def test_q_refinement_matches_the_geometric_specialization():
    for n in range(5):
        for s in range(1, 4):
            for k in range(s * n + 1):
                assert q_bisnomial(n, k, s) == specialize(E(k, s, n), "geometric-q")


def test_q_refinement_golden():
    assert str(q_bisnomial(3, 3, 2)) == "q + 2*q^2 + q^3 + 2*q^4 + q^5"


def test_q_refinement_evaluates_to_the_count():
    for n in range(5):
        for s in range(1, 4):
            for k in range(s * n + 1):
                assert q_bisnomial(n, k, s)(1) == bisnomial(n, k, s)


def test_q_refinement_at_degree_one_is_a_shifted_gaussian():
    for n in range(6):
        for k in range(n + 1):
            lhs = q_bisnomial(n, k, 1)
            rhs = UniPoly.term(1, comb(k, 2)) * gaussian(n, k)
            assert lhs == rhs, (n, k)


def test_gaussian_goldens():
    assert gaussian(4, 2) == UniPoly([1, 1, 2, 1, 1])
    assert gaussian(4, 0) == 1
    assert not gaussian(4, 5)
    assert not gaussian(4, -1)


def test_gaussian_symmetry_and_count():
    for n in range(7):
        for k in range(n + 1):
            g = gaussian(n, k)
            assert g == gaussian(n, n - k)
            assert g(1) == comb(n, k)


def _at(poly: UniPoly, x: int) -> int:
    """poly(x) mod 2^61 - 1, by Horner's rule."""
    value = 0
    for c in reversed(poly.coeffs):
        value = (value * x + c) % eval_oracle.P
    return value


def test_triangles_equal_their_generating_products_at_a_random_point():
    # counts, q-values and Gaussians are E(k, s, n) at x_i = 1 and x_i = q^(i-1), so each
    # value is compared with its generating product at one random q mod 2^61 - 1, from a
    # cold cache: deep values, values past the middle of a row, and every cell of small rows
    (q0,) = eval_oracle.random_point(1, seed=18)
    grid = [pow(q0, i, eval_oracle.P) for i in range(400)]  # x_i = q0^(i-1)
    small = [(n, k, s) for s in (1, 2, 3) for n in range(9) for k in range(s * n + 1)]
    truncsym.clear_caches()
    try:
        for n, k, s in small + [(100, 75, 2), (60, 100, 2), (200, 399, 2), (40, 90, 3), (150, 3, 4)]:
            assert _at(q_bisnomial(n, k, s), q0) == eval_oracle.E_at(k, s, grid[:n]), (n, k, s)
        for n, k, s in small + [(2000, 5, 2), (2000, 40, 1), (250, 490, 2), (300, 450, 3)]:
            assert bisnomial(n, k, s) % eval_oracle.P == eval_oracle.E_at(k, s, [1] * n), (n, k, s)
        for n, k in [(n, k) for n in range(14) for k in range(n + 1)] + [(60, 25), (60, 45), (100, 70)]:
            lhs = pow(q0, k * (k - 1) // 2, eval_oracle.P) * _at(gaussian(n, k), q0) % eval_oracle.P
            assert lhs == eval_oracle.E_at(k, 1, grid[:n]), (n, k)
    finally:
        truncsym.clear_caches()


def test_pq_gaussian_goldens():
    assert pq_gaussian(4, 2) == BiPoly(
        {(0, 4): 1, (1, 3): 1, (2, 2): 2, (3, 1): 1, (4, 0): 1}
    )
    assert pq_gaussian(3, 0) == 1


def test_pq_gaussian_is_homogeneous_and_projects_to_gaussian():
    for n in range(6):
        for k in range(n + 1):
            g = pq_gaussian(n, k)
            assert agrees_at_p1(g, gaussian(n, k))
            assert all(i + j == k * (n - k) for (i, j) in g.terms)


def test_pq_gaussian_matches_the_two_term_recurrence():
    for n, row in enumerate(pq_gaussian_rows(12)):
        for k, value in enumerate(row):
            assert pq_gaussian(n, k) == value, (n, k)
        assert not pq_gaussian(n, -1) and not pq_gaussian(n, n + 1)


def test_pq_refinement_matches_the_peeling_recurrence():
    for s in range(1, 4):
        for n, row in enumerate(pq_bisnomial_rows(8, s)):
            for k, value in enumerate(row):
                assert pq_bisnomial(n, k, s) == value, (n, k, s)


def test_pq_refinement_matches_the_grid_specialization():
    for n in range(4):
        for s in range(1, 4):
            for k in range(s * n + 1):
                assert pq_bisnomial(n, k, s) == specialize(E(k, s, n), "pq-grid")


@pytest.mark.parametrize("n, s", [(8, 2), (6, 3), (10, 1)])
def test_the_grid_images_of_larger_families_are_the_triangles(n, s):
    # up to 1,000-odd terms a value: the q-degrees gathered in one list, not a UniPoly per term
    for k in range(s * n + 1):
        family = E(k, s, n)
        assert specialize(family, "geometric-q") == q_bisnomial(n, k, s)
        assert specialize(family, "pq-grid") == pq_bisnomial(n, k, s)


def test_pq_refinement_projects_to_the_q_refinement():
    for n in range(4):
        for s in range(1, 4):
            for k in range(s * n + 1):
                assert agrees_at_p1(pq_bisnomial(n, k, s), q_bisnomial(n, k, s))
                assert pq_bisnomial(n, k, s)(1, 1) == bisnomial(n, k, s)


def test_every_conversion_holds_on_a_small_grid():
    for kind in ("plain", "q", "pq", "binom_recovery", "qs_recovery"):
        for n in range(1, 5):
            for s in (2, 3):
                for k in range(7):
                    r = verify(f"conversion:{kind}", n=n, k=k, s=s)
                    assert r.holds, (kind, n, k, s, r.lhs, r.rhs)


def test_conversion_reports_carry_a_namespaced_id():
    r = verify("conversion:plain", n=3, k=2, s=2)
    assert r.identity_id == "conversion:plain"
    assert r.params == {"n": 3, "k": 2, "s": 2}
    assert r.holds and r.lhs == "3"


def test_conversion_validation():
    with pytest.raises(ValueError):
        verify("conversion:plain", n=3, k=2, s=1)  # the conversions need s >= 2
    with pytest.raises(ValueError):
        verify("conversion:nope", n=3, k=2, s=2)
    with pytest.raises(ValueError):
        verify("conversion:plain", n=0, k=2, s=2)
    with pytest.raises(ValueError):
        verify("conversion:plain", n=3, k=-1, s=2)


# -- rows rolled from the row below --------------------------------------------


def closed_count(n: int, k: int, s: int) -> int:
    """Inclusion-exclusion over the slots used more than s times."""
    if n == 0:
        return int(k == 0)
    return sum(
        (-1) ** j * comb(n, j) * comb(k - j * (s + 1) + n - 1, n - 1)
        for j in range(n + 1)
        if k - j * (s + 1) >= 0
    )


@lru_cache(maxsize=None)
def _pq_rows(flavor: str, s: int) -> list:
    return pq_gaussian_rows(8) if flavor == "gaussian" else pq_bisnomial_rows(8, s)


def _oracle(flavor: str, n: int, k: int, s: int):
    """The closed form for counts, the (p,q) recurrences of pq_oracle for the rest."""
    if flavor == "plain":
        return closed_count(n, k, s)
    row = _pq_rows(flavor, s)[n]
    value = row[k] if 0 <= k < len(row) else BiPoly()
    if flavor == "pq":
        return value
    return sum((UniPoly.term(c, j) for (_, j), c in value.terms.items()), UniPoly())  # p = 1, term by term


_UNDER_TEST = {
    "plain": bisnomial,
    "gaussian": lambda n, k, s: gaussian(n, k),
    "q": q_bisnomial,
    "pq": pq_bisnomial,
}


@st.composite
def query_runs(draw):
    """Queries on cold triangles, in drawn order, deepest first or widest first."""
    queries = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(_UNDER_TEST)),
            st.integers(1, 4),
            st.integers(0, 8),
            st.integers(-1, 33),
            st.booleans(),  # ask for the mirror image s*n - k of the drawn k
        ),
        min_size=1, max_size=25,
    ))
    order = draw(st.sampled_from(["drawn", "deep", "wide"]))
    if order == "deep":
        queries.sort(key=lambda q: -q[2])
    elif order == "wide":
        queries.sort(key=lambda q: -q[3])
    return queries


@given(query_runs())
def test_the_store_answers_any_query_order(queries):
    truncsym.clear_caches()
    try:
        for flavor, s, n, k, mirrored in queries:
            top = n if flavor == "gaussian" else s * n
            k = min(k, top + 1)  # at most one past the row's last cell
            if mirrored:
                k = top - k
            assert _UNDER_TEST[flavor](n, k, s) == _oracle(flavor, n, k, s), (flavor, n, k, s)
    finally:
        truncsym.clear_caches()


@given(
    st.lists(st.tuples(st.integers(0, 14), st.integers(-1, 60)), max_size=8),
    st.integers(0, 14),
    st.integers(1, 4),
)
def test_a_row_read_whole_is_its_cells_after_any_earlier_queries(queries, n, s):
    # the earlier queries leave answers in the cache, and a table reads none of them
    truncsym.clear_caches()
    try:
        for m, k in queries:
            bisnomial(m, k, s)
        *_, row = _table_rows("plain", n, s)
        assert row == [closed_count(n, k, s) for k in range(s * n + 1)]
        assert row == [bisnomial(n, k, s) for k in range(s * n + 1)]
    finally:
        truncsym.clear_caches()


def _filled(monkeypatch, step: str, run):
    """run()'s result from a cold cache, and the cells step fills for it, one entry a row."""
    filled, inner = [], getattr(TRIANGLES, step)

    def counted(below, row, m, stop, s):
        filled.append(stop - len(row))
        inner(below, row, m, stop, s)

    monkeypatch.setattr(TRIANGLES, step, counted)
    truncsym.clear_caches()
    try:
        return run(), filled
    finally:
        truncsym.clear_caches()


def test_a_deep_narrow_value_stores_a_narrow_band(monkeypatch):
    # k = 3 of row 20000: four cells a row, not a triangle of 4e8
    value, filled = _filled(monkeypatch, "_count_step", lambda: bisnomial(20000, 3, 2))
    assert value == closed_count(20000, 3, 2)
    assert filled == [min(m, 3) + 1 for m in range(1, 20001)]


def test_a_value_near_the_end_of_a_row_is_read_at_its_mirror(monkeypatch):
    # k = 3990 of s*n = 4000 reads k = 10: eleven cells a row
    value, filled = _filled(monkeypatch, "_count_step", lambda: bisnomial(2000, 3990, 2))
    assert value == closed_count(2000, 3990, 2)
    assert filled == [min(m, 10) + 1 for m in range(1, 2001)]


def test_a_value_and_its_mirror_share_one_memoized_answer(monkeypatch):
    # only answers are kept: the mirror image and a repeat roll no rows
    values, filled = _filled(monkeypatch, "_count_step", lambda: [bisnomial(30, k, 2) for k in (50, 10, 50)])
    assert values == [closed_count(30, 10, 2)] * 3
    assert filled == [min(m, 10) + 1 for m in range(1, 31)]


def test_a_deep_value_holds_two_rows_not_its_triangle():
    # two rows of at most 301 cells take well under 1 MiB; the 158,251 cells of rows 0..600 take about 12 MiB
    truncsym.clear_caches()
    tracemalloc.start()
    try:
        assert bisnomial(600, 300, 2) == closed_count(600, 300, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        truncsym.clear_caches()
    assert peak < 2**20


def test_a_q_value_near_the_end_of_a_row_is_read_at_its_reflection(monkeypatch):
    # Q(200, 399) = q^39800 Q(200, 1)(1/q): two cells a row, not s*n^2/2 polynomials
    top = 2 * 200 * 199 // 2
    value, filled = _filled(monkeypatch, "_q_step", lambda: q_bisnomial(200, 399, 2))
    assert value == UniPoly([0] * (top - 199) + [1] * 200)
    assert filled == [2] * 200
    # either side of the middle of row 8 (s*n = 16) fills the rows to the lower k
    middle = [min(m, 7) + 1 for m in range(1, 9)]
    assert _filled(monkeypatch, "_q_step", lambda: q_bisnomial(8, 7, 2))[1] == middle
    assert _filled(monkeypatch, "_q_step", lambda: q_bisnomial(8, 9, 2))[1] == middle


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_q_table_fills_each_row_to_its_middle(monkeypatch, s):
    # the cells past the middle of a q-row are the reflections of the cells before it
    rows, filled = _filled(monkeypatch, "_q_step", lambda: list(_table_rows("q", 8, s)))
    assert filled == [s * m // 2 + 1 for m in range(1, 9)]
    assert [len(row) for row in rows] == [s * m + 1 for m in range(9)]
    for m, row in enumerate(rows):
        for k, value in enumerate(row):
            assert value == _oracle("q", m, k, s), (m, k, s)
