"""Bisnomial triangles: counting and their q- and (p,q)-specializations.

``bisnomial(n, k, s)`` counts multisets drawn from n slots with each slot
used at most s times, i.e. the coefficient of t^k in (1 + t + ... + t^s)^n.
The q- and (p,q)-variants evaluate the truncated elementary family on the
geometric grids q^(i-1) and p^(n-i) q^(i-1).  Each (p,q)-variant is
homogeneous: it is its q-version homogenized to its degree.  The polynomial
constructors stay the reference oracle in the test suite.

Row n of a triangle is generated by prod_i (1 - (x_i t)^(s+1)) / (1 - x_i t)
over n slots; multiplying it by (1 - x_n t) gives three-term row recurrences:

    B(n, k) = B(n, k-1) + B(n-1, k) - B(n-1, k-s-1)
    Q(n, k) = Q(n-1, k) + q^(n-1) Q(n, k-1) - q^((s+1)(n-1)) Q(n-1, k-s-1)

and the Gaussian binomials follow G(n, k) = G(n-1, k-1) + q^k G(n-1, k).
``_rows`` rolls a triangle up from row 0, two rows alive at a time.  Each row
is filled by its step up to its middle; the cells past it come from the
symmetry of the row.  Counts and Gaussian binomials are palindromic in k, and
a q cell is the reflection Q(n, k)(q) = q^(s*n(n-1)/2) Q(n, s*n-k)(1/q).  A
single value reads min(k, s*n - k), or the reflection when 2k > s*n, in rows
cut at that k: a deep value fills O(n*k) cells and holds two rows.  Only the
answers are memoized.  A table streams whole rows from the same generator.

The conversion identities that tie these triangles to ordinary and
Gaussian binomials are checked by ``identities`` as ``conversion:<kind>``.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, count, islice
from operator import add, sub
from typing import Iterator

from .exactalg import BiPoly, UniPoly
from .symfun import _validate_sn


def _reflect(value: UniPoly, n: int, s: int) -> UniPoly:
    """Q(n, s*n - k) from value = Q(n, k): q^(s*n(n-1)/2) Q(n, k)(1/q)."""
    return UniPoly((0,) * (s * n * (n - 1) // 2 + 1 - len(value.coeffs)) + value.coeffs[::-1])


def _rows(step, s: int, one, width: int) -> Iterator[list]:
    """Rows 0, 1, ... of step's triangle cut at k < width, each filled to its middle and mirrored."""
    row = [one]
    for m in count(1):
        yield row
        top, below, row = s * m, row, []
        step(below, row, m, min(top // 2, width - 1) + 1, s)
        row += [_reflect(row[top - k], m, s) if step is _q_step else row[top - k]
                for k in range(len(row), min(top, width - 1) + 1)]


@cache
def _cell(step, n: int, k: int, s: int, one):
    """The (n, k) cell of step's triangle, 0 <= k <= s*n/2, rolled up in rows cut at k."""
    return next(islice(_rows(step, s, one, k + 1), n, None))[k]


def _count_step(below: list, row: list, m: int, stop: int, s: int) -> None:
    """Fill the empty count row m to length stop: B(m, k) sums B(m-1, j) - B(m-1, j-s-1) over j <= k."""
    steps = ((below[k] if k < len(below) else 0) - (below[k - s - 1] if k > s else 0) for k in range(stop))
    row.extend(accumulate(steps))


def _shifted(out: list, shift: int, coeffs: tuple, op) -> None:
    """out op= q^shift * coeffs, in place, for op add or sub."""
    end = shift + len(coeffs)
    out.extend([0] * (end - len(out)))
    out[shift:end] = map(op, out[shift:end], coeffs)


def _q_step(below: list, row: list, m: int, stop: int, s: int) -> None:
    """Fill the empty q-row m to length stop by the three-term recurrence of the module docstring."""
    for k in range(stop):
        out = list(below[k].coeffs) if k < len(below) else []
        if k:
            _shifted(out, m - 1, row[k - 1].coeffs, add)
        if k > s:
            _shifted(out, (s + 1) * (m - 1), below[k - s - 1].coeffs, sub)
        row.append(UniPoly(out))


def _gaussian_step(below: list, row: list, m: int, stop: int, s: int) -> None:
    """Fill the empty Gaussian row m to length stop: G(m, k) = G(m-1, k-1) + q^k G(m-1, k)."""
    for k in range(stop):
        out = list(below[k - 1].coeffs) if k else []
        if k < len(below):
            _shifted(out, k, below[k].coeffs, add)
        row.append(UniPoly(out))


def bisnomial(n: int, k: int, s: int) -> int:
    """Coefficient of t^k in (1 + t + ... + t^s)^n."""
    _validate_sn(s, n)
    if k < 0 or k > s * n:
        return 0
    return _cell(_count_step, n, min(k, s * n - k), s, 1)


def gaussian(n: int, k: int) -> UniPoly:
    """Gaussian binomial coefficient as a polynomial in q."""
    _validate_sn(1, n)
    if k < 0 or k > n:
        return UniPoly()
    return _cell(_gaussian_step, n, min(k, n - k), 1, UniPoly(1))


def q_bisnomial(n: int, k: int, s: int) -> UniPoly:
    """The truncated elementary family evaluated at x_i = q^(i-1).

    Satisfies Q(n, k) = sum_j q^(j*(n-1)) Q(n-1, k-j) over j = 0..s.  At
    s = 1 it equals q^binom(k,2) times the Gaussian binomial.
    """
    _validate_sn(s, n)
    if k < 0 or k > s * n:
        return UniPoly()
    if 2 * k > s * n:
        return _reflect(_cell(_q_step, n, s * n - k, s, UniPoly(1)), n, s)
    return _cell(_q_step, n, k, s, UniPoly(1))


def pq_gaussian(n: int, k: int) -> BiPoly:
    """Homogeneous two-parameter Gaussian binomial in p and q, of degree k(n-k)."""
    return BiPoly.homogenize(gaussian(n, k), k * (n - k))


def pq_bisnomial(n: int, k: int, s: int) -> BiPoly:
    """The truncated elementary family evaluated at x_i = p^(n-i) q^(i-1).

    Each monomial of degree k picks up p^(k(n-1)) (q/p)^(its q-degree), so
    PQ(n, k) is the q-refinement homogenized to degree k(n-1).
    """
    return BiPoly.homogenize(q_bisnomial(n, k, s), k * (n - 1))


def _table_rows(flavor: str, n: int, s: int) -> Iterator[list]:
    """Rows 0..n of the plain, q or pq table, k = 0 .. s*m each; a bad n or s is refused at once."""
    _validate_sn(s, n)
    step, one = (_count_step, 1) if flavor == "plain" else (_q_step, UniPoly(1))
    rows = islice(_rows(step, s, one, s * n + 1), n + 1)
    pq = ([BiPoly.homogenize(value, k * (m - 1)) for k, value in enumerate(row)] for m, row in enumerate(rows))
    return pq if flavor == "pq" else rows
