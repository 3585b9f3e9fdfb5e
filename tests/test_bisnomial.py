"""Unit tests for the generalized binomial tables and their q/pq refinements."""

from math import comb

import pytest

from pq_oracle import pq_bisnomial_rows, pq_gaussian_rows
from truncsym.bisnomial import (
    bisnomial,
    bisnomial_row,
    gaussian,
    pq_bisnomial,
    pq_gaussian,
    q_bisnomial,
)
from truncsym.exactalg import BiPoly, UniPoly
from truncsym.identities import verify
from truncsym.multipoly import specialize
from truncsym.symfun import E


def test_counting_goldens():
    assert bisnomial(3, 3, 2) == 7
    assert bisnomial_row(2, 2) == [1, 2, 3, 2, 1]
    assert bisnomial(2, -1, 3) == 0
    assert bisnomial(2, 7, 3) == 0
    assert bisnomial(0, 0, 2) == 1


def test_rows_sum_to_a_power_and_are_palindromic():
    for n in range(6):
        for s in range(1, 5):
            row = bisnomial_row(n, s)
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


def test_pq_gaussian_goldens():
    assert pq_gaussian(4, 2) == BiPoly(
        {(0, 4): 1, (1, 3): 1, (2, 2): 2, (3, 1): 1, (4, 0): 1}
    )
    assert pq_gaussian(3, 0) == 1


def test_pq_gaussian_is_homogeneous_and_projects_to_gaussian():
    for n in range(6):
        for k in range(n + 1):
            g = pq_gaussian(n, k)
            assert g.at_p1() == gaussian(n, k)
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


def test_pq_refinement_projects_to_the_q_refinement():
    for n in range(4):
        for s in range(1, 4):
            for k in range(s * n + 1):
                assert pq_bisnomial(n, k, s).at_p1() == q_bisnomial(n, k, s)
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
