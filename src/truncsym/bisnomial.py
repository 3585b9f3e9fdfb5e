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
Each triangle is one store of rows, ``_TRIANGLES[step, s]``: row m holds
k = 0 .. min(s*m, its cap), no cap above the one below it.  A query (n, k)
appends missing rows and widens rows 0..n to k in place, each cell computed
once from its left neighbour and the row below.  Counts and Gaussian
binomials are palindromic in k, so queries read min(k, s*n - k): a deep
single value fills O(n*k) cells.  A q query past the middle of its row
reads Q(n, k)(q) = q^(s*n(n-1)/2) Q(n, s*n-k)(1/q) when rows below n would
widen (a single value) and widens when only row n does (a table walk).

The conversion identities that tie these triangles to ordinary and
Gaussian binomials are checked by ``identities`` as ``conversion:<kind>``.
"""

from __future__ import annotations

from operator import add, sub

from .exactalg import BiPoly, UniPoly


_TRIANGLES: dict = {}  # (step, s) -> rows; row m holds k = 0 .. min(s*m, its cap)


def _cell(step, n: int, k: int, s: int, one, reflect: bool = False):
    """The (n, k) cell of step's triangle, 0 <= k <= s*n, growing rows 0..n to reach it."""
    rows = _TRIANGLES.get((step, s)) or _TRIANGLES.setdefault((step, s), [[one]])
    if n < len(rows) and k < len(rows[n]):
        return rows[n][k]
    rows.extend([] for _ in range(len(rows), n + 1))
    # the top row that reaches k; no cap exceeds the one below, so every row under it does too
    m = next(m for m in range(n, -1, -1) if len(rows[m]) > min(s * m, k))
    if reflect and m < n - 1 and 2 * k > s * n:  # a single q value past the middle of its row
        value = _cell(step, n, s * n - k, s, one).coeffs
        return UniPoly((0,) * (s * n * (n - 1) // 2 + 1 - len(value)) + value[::-1])
    for m in range(m + 1, n + 1):
        step(rows[m - 1], rows[m], m, min(s * m, k) + 1, s)
    return rows[n][k]


def _count_step(below: list, row: list, m: int, stop: int, s: int) -> None:
    """Extend count row m to length stop: B(m, k) = B(m, k-1) + B(m-1, k) - B(m-1, k-s-1)."""
    value = row[-1] if row else 0
    for k in range(len(row), stop):
        value += (below[k] if k < len(below) else 0) - (below[k - s - 1] if k > s else 0)
        row.append(value)


def _shifted(out: list, shift: int, coeffs: tuple, op) -> None:
    """out op= q^shift * coeffs, in place, for op add or sub."""
    end = shift + len(coeffs)
    out.extend([0] * (end - len(out)))
    out[shift:end] = map(op, out[shift:end], coeffs)


def _q_step(below: list, row: list, m: int, stop: int, s: int) -> None:
    """Extend q-row m to length stop by the three-term recurrence of the module docstring."""
    for k in range(len(row), stop):
        out = list(below[k].coeffs) if k < len(below) else []
        if k:
            _shifted(out, m - 1, row[k - 1].coeffs, add)
        if k > s:
            _shifted(out, (s + 1) * (m - 1), below[k - s - 1].coeffs, sub)
        row.append(UniPoly(out))


def _gaussian_step(below: list, row: list, m: int, stop: int, s: int) -> None:
    """Extend Gaussian row m to length stop: G(m, k) = G(m-1, k-1) + q^k G(m-1, k)."""
    for k in range(len(row), stop):
        out = list(below[k - 1].coeffs) if k else []
        if k < len(below):
            _shifted(out, k, below[k].coeffs, add)
        row.append(UniPoly(out))


def _validate(n: int, k: int, s: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def bisnomial(n: int, k: int, s: int) -> int:
    """Coefficient of t^k in (1 + t + ... + t^s)^n."""
    _validate(n, k, s)
    if k < 0 or k > s * n:
        return 0
    return _cell(_count_step, n, min(k, s * n - k), s, 1)


def bisnomial_row(n: int, s: int) -> list[int]:
    """Row n of the triangle: k = 0 .. s*n, its stored half up to the middle and that half mirrored."""
    half = s * n // 2
    bisnomial(n, half, s)  # refuses a bad n or s, and grows row n to its middle
    row = _TRIANGLES[_count_step, s][n]
    return row[:half + 1] + row[:s * n - half][::-1]


def gaussian(n: int, k: int) -> UniPoly:
    """Gaussian binomial coefficient as a polynomial in q."""
    _validate(n, k, 1)
    if k < 0 or k > n:
        return UniPoly()
    return _cell(_gaussian_step, n, min(k, n - k), 1, UniPoly(1))


def q_bisnomial(n: int, k: int, s: int) -> UniPoly:
    """The truncated elementary family evaluated at x_i = q^(i-1).

    Satisfies Q(n, k) = sum_j q^(j*(n-1)) Q(n-1, k-j) over j = 0..s.  At
    s = 1 it equals q^binom(k,2) times the Gaussian binomial.
    """
    _validate(n, k, s)
    if k < 0 or k > s * n:
        return UniPoly()
    return _cell(_q_step, n, k, s, UniPoly(1), True)


def pq_gaussian(n: int, k: int) -> BiPoly:
    """Homogeneous two-parameter Gaussian binomial in p and q, of degree k(n-k)."""
    return BiPoly.homogenize(gaussian(n, k), k * (n - k))


def pq_bisnomial(n: int, k: int, s: int) -> BiPoly:
    """The truncated elementary family evaluated at x_i = p^(n-i) q^(i-1).

    Each monomial of degree k picks up p^(k(n-1)) (q/p)^(its q-degree), so
    PQ(n, k) is the q-refinement homogenized to degree k(n-1).
    """
    return BiPoly.homogenize(q_bisnomial(n, k, s), k * (n - 1))
