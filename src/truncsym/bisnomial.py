"""Bisnomial triangles: counting and their q- and (p,q)-specializations.

``bisnomial(n, k, s)`` counts multisets drawn from n slots with each slot
used at most s times, i.e. the coefficient of t^k in (1 + t + ... + t^s)^n.
The q- and (p,q)-variants evaluate the truncated elementary family on the
geometric grids q^(i-1) and p^(n-i) q^(i-1).  The count, the q-variant and
the Gaussian binomial run one-row recurrences, which are the production
path here (the polynomial constructors stay the reference oracle in the
test suite).  Before a recurrence runs, the rows below that it reads are
filled bottom-up from the highest row already cached, so no call recurses
more than one row deep.  Each (p,q)-variant is homogeneous: it is its
q-version homogenized to its degree.

The conversion identities that tie these triangles to ordinary and
Gaussian binomials are checked by ``identities`` as ``conversion:<kind>``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .exactalg import BiPoly, UniPoly


_BANDS: dict = {}  # (fn, args) -> {row: (lo, hi)}: fn(row, kk, *args) is cached for lo <= kk <= hi


def _record(bands: dict, m: int, lo: int, hi: int) -> None:
    old = bands.get(m)
    if old is not None and old[0] <= hi + 1 and lo <= old[1] + 1:  # overlapping or adjacent: merge
        lo, hi = (lo if lo < old[0] else old[0]), (hi if hi > old[1] else old[1])
    bands[m] = (lo, hi)


def _rows_below(fn, n: int, k: int, s: int, args: tuple) -> None:
    """Cache bottom-up what the one-row recurrence at (n, k) reads, then record (n, k).

    Row m < n is read at kk = max(0, k - s*(n-m)) .. min(k, s*m). Filling starts
    above the highest row whose band is recorded, so a table filled row by row
    fills nothing, and each fn call made here recurses one row deep.
    """
    bands = _BANDS.get((fn, args))
    if bands is None:
        bands = _BANDS[fn, args] = {}
    have = bands.get(n - 1)
    if have is None or have[0] > max(0, k - s) or have[1] < min(k, s * (n - 1)):
        m = n - 2
        while m > 0:
            have = bands.get(m)
            if have is not None and have[0] <= max(0, k - s * (n - m)) and min(k, s * m) <= have[1]:
                break
            m -= 1
        for m in range(m + 1, n):
            lo, hi = max(0, k - s * (n - m)), min(k, s * m)
            for kk in range(lo, hi + 1):
                fn(m, kk, *args)
            _record(bands, m, lo, hi)
    have = bands.get(n)
    if have is not None and have[1] == k - 1:  # the next cell of a row filled left to right
        bands[n] = (have[0], k)
    else:
        _record(bands, n, k, k)


def _shift_add(parts: list[tuple[int, tuple[int, ...]]]) -> list[int]:
    """Coefficients of sum q^shift * poly over (shift, coeffs) pairs, in one pass."""
    out = [0] * max([shift + len(coeffs) for shift, coeffs in parts], default=0)
    for shift, coeffs in parts:
        end = shift + len(coeffs)
        out[shift:end] = map(add, out[shift:end], coeffs)
    return out


def _validate(n: int, k: int, s: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


@lru_cache(maxsize=None)
def bisnomial(n: int, k: int, s: int) -> int:
    """Coefficient of t^k in (1 + t + ... + t^s)^n."""
    _validate(n, k, s)
    if k < 0 or k > s * n:
        return 0
    if n == 0:
        return 1
    _rows_below(bisnomial, n, k, s, (s,))
    return sum([bisnomial(n - 1, k - j, s) for j in range(min(s, k) + 1)])


def bisnomial_row(n: int, s: int) -> list[int]:
    """Row n of the triangle: k = 0 .. s*n."""
    _validate(n, 0, s)
    return [bisnomial(n, k, s) for k in range(s * n + 1)]


@lru_cache(maxsize=None)
def gaussian(n: int, k: int) -> UniPoly:
    """Gaussian binomial coefficient as a polynomial in q."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return UniPoly()
    if k == 0 or k == n:
        return UniPoly(1)
    _rows_below(gaussian, n, k, 1, ())
    return UniPoly(_shift_add([(0, gaussian(n - 1, k - 1).coeffs), (k, gaussian(n - 1, k).coeffs)]))


@lru_cache(maxsize=None)
def q_bisnomial(n: int, k: int, s: int) -> UniPoly:
    """The truncated elementary family evaluated at x_i = q^(i-1).

    Satisfies Q(n, k) = sum_j q^(j*(n-1)) Q(n-1, k-j) over j = 0..s.  At
    s = 1 it equals q^binom(k,2) times the Gaussian binomial.
    """
    _validate(n, k, s)
    if k < 0 or k > s * n:
        return UniPoly()
    if n == 0:
        return UniPoly(1)
    _rows_below(q_bisnomial, n, k, s, (s,))
    return UniPoly(_shift_add(
        [(j * (n - 1), q_bisnomial(n - 1, k - j, s).coeffs) for j in range(min(s, k) + 1)]
    ))


def pq_gaussian(n: int, k: int) -> BiPoly:
    """Homogeneous two-parameter Gaussian binomial in p and q, of degree k(n-k)."""
    return BiPoly.homogenize(gaussian(n, k), k * (n - k))


def pq_bisnomial(n: int, k: int, s: int) -> BiPoly:
    """The truncated elementary family evaluated at x_i = p^(n-i) q^(i-1).

    Each monomial of degree k picks up p^(k(n-1)) (q/p)^(its q-degree), so
    PQ(n, k) is the q-refinement homogenized to degree k(n-1).
    """
    return BiPoly.homogenize(q_bisnomial(n, k, s), k * (n - 1))
