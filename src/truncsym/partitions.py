"""Integer partitions: constrained enumeration, conjugates, orbit expansion.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ``()``.  Enumeration is reverse lexicographic (largest
first part first), which keeps every downstream report byte-stable.  It
keeps one level per part on an explicit stack instead of recursing, so a
partition may have any number of parts.  An orbit is walked lazily, one
arrangement at a time: ``distinct_orbit`` lists the walk, and the orbit sums
of ``symfun`` pack each arrangement as it comes, holding no list of them.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, Iterator, Optional

Partition = tuple[int, ...]


def is_partition(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    if any(not isinstance(p, int) or p < 1 for p in lam):
        return False
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def enum_partitions(
    k: int,
    *,
    max_part: Optional[int] = None,
    max_length: Optional[int] = None,
    mod01: Optional[int] = None,
) -> list[Partition]:
    """All partitions of k, reverse lexicographic, under optional constraints.

    * ``max_part``: every part <= max_part,
    * ``max_length``: at most that many parts,
    * ``mod01``: every part congruent to 0 or 1 modulo mod01.

    ``enum_partitions(0)`` is ``[()]``.  A level stops trying smaller
    parts once they cannot hold the rest in the parts still allowed, and a
    tail of ones is emitted at once.
    """
    if k < 0:
        raise ValueError(f"partition weight must be >= 0, got {k}")
    if max_part is not None and max_part < 0:
        raise ValueError("max_part must be >= 0")
    if max_length is not None and max_length < 0:
        raise ValueError("max_length must be >= 0")
    if mod01 is not None and mod01 < 1:
        raise ValueError("mod01 must be >= 1")

    if k == 0:
        return [()]
    slots = k if max_length is None else max_length
    out: list[Partition] = []
    prefix: list[int] = []  # the parts chosen above the current level
    levels = [(k, k if max_part is None else min(max_part, k))]  # (rest, next part to try)
    while levels:
        rest, part = levels[-1]
        if mod01 and part % mod01 > 1:
            part -= part % mod01 - 1  # down to the next part = 1 mod mod01
        if not part or part * (slots - len(prefix)) < rest:
            levels.pop()  # parts only shrink from here: the rest cannot fit
            if prefix:
                prefix.pop()
            continue
        levels[-1] = (rest, part - 1)
        if part == rest:
            out.append((*prefix, part))
        elif part == 1:
            out.append((*prefix, *[1] * rest))
        else:
            prefix.append(part)
            levels.append((rest - part, min(part, rest - part)))
    return out


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part value -> number of occurrences."""
    return dict(Counter(lam))


def multinomial(counts: Iterable[int]) -> int:
    """(sum counts)! / prod(count!)."""
    counts = list(counts)
    if any(c < 0 for c in counts):
        raise ValueError("counts must be >= 0")
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def distinct_orbit(lam: Partition, n: int) -> list[tuple[int, ...]]:
    """Distinct rearrangements of lam padded with zeros to length n.

    Empty when lam has more than n parts.  Ordered descending
    lexicographically, starting from the padded partition itself.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return list(_orbit(tuple(lam), n))


def _orbit(lam: Partition, n: int) -> Iterator[tuple[int, ...]]:
    """distinct_orbit(lam, n), walked lazily in one list rearranged in place (Knuth's Algorithm L,
    TAOCP 4A, 7.2.1.2); nothing when lam has more than n parts."""
    if len(lam) > n:
        return
    a = sorted(lam + (0,) * (n - len(lam)), reverse=True)
    last = n - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        lo, hi = i + 1, last  # the suffix is ascending: reverse it to descending
        while lo < hi:
            a[lo], a[hi] = a[hi], a[lo]
            lo += 1
            hi -= 1
