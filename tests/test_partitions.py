"""Unit tests for integer partition utilities."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from truncsym.partitions import (
    _orbit,
    conjugate,
    distinct_orbit,
    enum_partitions,
    is_partition,
    multinomial,
    multiplicities,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_unrestricted_counts_match_the_partition_numbers():
    for k, want in enumerate(PARTITION_COUNTS):
        assert len(enum_partitions(k)) == want


def test_zero_has_the_empty_partition():
    assert enum_partitions(0) == [()]
    assert is_partition(())


def test_reverse_lex_order_with_bounds():
    assert enum_partitions(5, max_part=3, max_length=3) == [(3, 2), (3, 1, 1), (2, 2, 1)]
    assert enum_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_residue_restriction_keeps_parts_in_classes_zero_and_one():
    assert enum_partitions(4, mod01=3) == [(4,), (3, 1), (1, 1, 1, 1)]
    assert enum_partitions(2, mod01=3) == [(1, 1)]
    for lam in enum_partitions(9, mod01=4):
        assert all(part % 4 in (0, 1) for part in lam)


def test_many_parts_need_no_deep_recursion():
    assert enum_partitions(3000, max_part=1) == [(1,) * 3000]


def test_is_partition():
    assert is_partition((3, 1, 1))
    assert not is_partition((1, 3))
    assert not is_partition((3, 0))
    assert not is_partition((-1,))
    assert not is_partition((True,)) and not is_partition((2, 1.0))  # a bool is not a part


partitions = st.integers(0, 10).map(lambda k: enum_partitions(k)).flatmap(st.sampled_from)


class TestConjugate:
    @given(lam=partitions)
    def test_involution(self, lam):
        """Conjugating twice returns the original partition."""
        assert conjugate(conjugate(lam)) == lam

    @given(lam=partitions)
    def test_swaps_length_and_largest_part(self, lam):
        """The conjugate's largest part is the original length."""
        mu = conjugate(lam)
        if lam:
            assert mu[0] == len(lam)
            assert len(mu) == lam[0]
        else:
            assert mu == ()

    @given(lam=partitions)
    def test_preserves_weight(self, lam):
        """Conjugation preserves the sum of parts."""
        assert sum(conjugate(lam)) == sum(lam)


def test_conjugate_golden():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((2, 1, 1)) == (3, 1)


def test_multiplicities_and_multinomial():
    assert multiplicities((3, 1, 1)) == {3: 1, 1: 2}
    assert multinomial([2, 1]) == 3
    assert multinomial([]) == 1
    assert multinomial([1, 1, 1]) == 6


@given(lam=partitions, extra=st.integers(0, 2))
def test_orbit_size_counts_distinct_rearrangements(lam, extra):
    """The orbit size is the multinomial coefficient of the padded multiplicity vector."""
    n = len(lam) + extra
    orbit = distinct_orbit(lam, n)
    counts = list(multiplicities(lam).values())
    if n > len(lam):
        counts.append(n - len(lam))
    want = math.factorial(n)
    for c in counts:
        want //= math.factorial(c)
    assert len(orbit) == want
    assert len(set(orbit)) == len(orbit)
    assert all(sum(v) == sum(lam) for v in orbit)


def test_orbit_golden():
    assert distinct_orbit((2, 1, 1), 4)[0] == (2, 1, 1, 0)
    assert len(distinct_orbit((2, 1, 1), 4)) == 12
    assert distinct_orbit((1, 1), 1) == []
    assert distinct_orbit((), 2) == [(0, 0)]


def test_an_orbit_of_a_negative_length_is_refused():
    with pytest.raises(ValueError, match="length must be >= 0"):
        distinct_orbit((1,), -1)
    with pytest.raises(ValueError, match="length must be >= 0"):
        distinct_orbit((), -1)


def test_the_orbit_walk_is_lazy():
    # (1, 1, 1) has C(4000, 3), about 1.1e10, arrangements in 4000 slots: only the ones taken are made
    first = list(itertools.islice(_orbit((1, 1, 1), 4000), 3))
    assert [tuple(i for i, e in enumerate(a) if e) for a in first] == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert list(_orbit((2, 1), 3)) == distinct_orbit((2, 1), 3)
    assert list(_orbit((1, 1), 1)) == []


def test_orbit_is_sorted_descending_lex():
    orbit = distinct_orbit((2, 1), 3)
    assert orbit == sorted(orbit, reverse=True)
    assert orbit[0] == (2, 1, 0)


def _all_partitions(k_max):
    """Partitions of 0..k_max by insertion into smaller ones, reverse lexicographic."""
    found = [{()}]
    for k in range(1, k_max + 1):
        found.append({
            tuple(sorted(lam + (part,), reverse=True))
            for part in range(1, k + 1)
            for lam in found[k - part]
        })
    return [sorted(lams, reverse=True) for lams in found]


def test_enumeration_and_orbits_match_a_brute_force_filter():
    for k, lams in enumerate(_all_partitions(20)):
        for max_part, max_length, mod01 in itertools.product(
            (None, 1, 2, 3), (None, 0, 2, 3), (None, 2, 3)
        ):
            want = [
                lam for lam in lams
                if (max_part is None or all(p <= max_part for p in lam))
                and (max_length is None or len(lam) <= max_length)
                and (mod01 is None or all(p % mod01 in (0, 1) for p in lam))
            ]
            got = enum_partitions(k, max_part=max_part, max_length=max_length, mod01=mod01)
            assert got == want, (k, max_part, max_length, mod01)
        for lam in lams:
            for n in range(len(lam), 6):
                padded = lam + (0,) * (n - len(lam))
                want = sorted(set(itertools.permutations(padded)), reverse=True)
                assert distinct_orbit(lam, n) == want, (lam, n)


def test_enum_rejects_negative_weight():
    with pytest.raises(ValueError):
        enum_partitions(-1)


@pytest.mark.parametrize("bound, message", [
    ({"max_part": -1}, "max_part must be >= 0, got -1"),
    ({"max_length": -1}, "max_length must be >= 0, got -1"),
    ({"mod01": 0}, "mod01 must be >= 1, got 0"),
])
def test_enum_rejects_a_bound_out_of_range(bound, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        enum_partitions(3, **bound)


@pytest.mark.parametrize("args, bound, message", [
    ((True,), {}, "partition weight must be an int, got bool"),
    ((2.0,), {}, "partition weight must be an int, got float"),
    ((None,), {}, "partition weight must be an int, got NoneType"),
    ((3,), {"max_part": 2.0}, "max_part must be an int, got float"),
    ((3,), {"max_length": True}, "max_length must be an int, got bool"),
    ((3,), {"mod01": True}, "mod01 must be an int, got bool"),
])
def test_enum_refuses_a_weight_or_bound_that_is_not_an_int(args, bound, message):
    # True passed as a weight of 1 (a bool part), mod01=True as 1, and a float failed in list arithmetic
    with pytest.raises(ValueError, match=f"^{message}$"):
        enum_partitions(*args, **bound)


def test_a_multinomial_of_a_negative_count_is_refused():
    with pytest.raises(ValueError, match="^counts must be >= 0$"):
        multinomial([2, -1])
