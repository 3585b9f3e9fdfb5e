"""Symmetric function constructors over exact coefficient rings.

The two families at the center of the package generalize the elementary
and complete homogeneous symmetric functions by truncating each factor of
their generating products at degree s:

* ``E(k, s, n)``: coefficient of t^k in prod_i (1 + x_i t + ... + (x_i t)^s),
* ``H(k, s, n)``: coefficient of t^k in prod_i (1 - x_i t + ... + (-x_i t)^s)^(-1).

At s = 1 they reduce to e_k and h_k; at s >= k, E reduces to the full
monomial sum h_k restricted to exponents <= s (equal to h_k when s = k).

Both are built as sums over partition orbits, so the work grows with the
output, not with the degree s*n of the generating product: E(k, s, n) sums
m_lam over lam |- k with parts <= s, and H(k, s, n) sums (-1)^(k + r) m_lam
over lam |- k with parts congruent to 0 or 1 mod s+1, r of them to 1.

Before it is cached, each value is checked by peeling the last variable
off the generating product, against cached values (j = 0..s), by shift-adds
of x_n^j (``accumulate_shift``):

* E(k, s, n) = sum_j x_n^j E(k-j, s, n-1),
* sum_j (-x_n)^j H(k-j, s, n) = H(k, s, n-1).

These recurrences fix both families from n = 0, so by induction every
cached value is the product's coefficient.  A disagreement raises
``ArithmeticError`` naming the first monomial where the two sides differ.
Lower values are filled bottom-up, not recursively.

Also memoized: m_lam at the roots by (lam, s) and the classical e/h/p_lam,
in a trie of lam's prefixes per (kind, n), which the roots sums reread for
every s; not the E/H/P products, many and large, whose factors are cached.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Optional, Sequence

from .exactalg import CycInt
from .multipoly import MPoly, accumulate_product, accumulate_shift, collect
from .partitions import (
    Partition,
    conjugate,
    distinct_orbit,
    enum_partitions,
    is_partition,
)

_M_CACHE: dict = {}
_CLASSICAL_CACHE: dict = {}
_E_CACHE: dict = {}
_H_CACHE: dict = {}
_PRODUCT_CACHE: dict = {}
_ROOTS_CACHE: dict = {}


def _validate_sn(s: int, n: int) -> None:
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def _validate_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


def m_lambda(lam: Sequence[int], n: int) -> MPoly:
    """Monomial symmetric polynomial: sum of the distinct permutations of lam.

    Zero when lam has more than n parts; 1 for the empty partition.
    """
    lam = _validate_partition(lam)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    key = (lam, n)
    cached = _M_CACHE.get(key)
    if cached is None:
        cached = _orbit_sum(n, [(lam, 1)])
        _M_CACHE[key] = cached
    return cached


def classical(kind: str, k: int, n: int) -> MPoly:
    """e_k, h_k or p_k in n variables (kind 'e', 'h' or 'p').

    k < 0 gives zero; p requires k >= 1.
    """
    if kind not in ("e", "h", "p"):
        raise ValueError(f"kind must be 'e', 'h' or 'p', got {kind!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if kind == "p" and k < 1:
        raise ValueError("power sums are defined for k >= 1 only")
    if k < 0:
        return MPoly.zero(n)
    key = (kind, k, n)
    cached = _CLASSICAL_CACHE.get(key)
    if cached is not None:
        return cached
    if kind == "p":
        _CLASSICAL_CACHE[key] = MPoly(n, {(0,) * i + (k,) + (0,) * (n - 1 - i): 1 for i in range(n)})
    else:
        # bottom-up: e_k(m) = e_k(m-1) + x_m e_(k-1)(m-1), h_k(m) = h_k(m-1) + x_m h_(k-1)(m)
        for m in range(n + 1):
            for kk in range(max(0, k - (n - m)) if kind == "e" else 0, k + 1):
                if (kind, kk, m) not in _CLASSICAL_CACHE:
                    _CLASSICAL_CACHE[(kind, kk, m)] = _classical_step(kind, kk, m)
    return _CLASSICAL_CACHE[key]


def _classical_step(kind: str, k: int, n: int) -> MPoly:
    """e_k or h_k in n variables from the cached values it peels onto."""
    if k == 0:
        return MPoly.one(n)
    if n == 0 or (kind == "e" and k > n):
        return MPoly.zero(n)
    lower = _CLASSICAL_CACHE[(kind, k - 1, n - 1 if kind == "e" else n)]
    return _CLASSICAL_CACHE[(kind, k, n - 1)].pad(n) + MPoly.variable(n, n) * lower.pad(n)


def _orbit_sum(n: int, signed: Iterable[tuple[Partition, int]]) -> MPoly:
    """sum of c * m_lam over (lam, c); distinct lam have disjoint orbits."""
    terms: dict = {}
    for lam, c in signed:
        terms.update(dict.fromkeys(distinct_orbit(lam, n), c))
    return MPoly(n, terms)


def _peel_check(family: str, k: int, s: int, n: int, left: MPoly, right: MPoly) -> None:
    """Raise ArithmeticError at the first monomial where the two sides differ."""
    if left != right:
        exps = (left - right).canonical_terms()[0][0]
        left_label, right_label = (
            ("the orbit sum", "sum_j x_n^j E(k-j, s, n-1)") if family == "E"
            else ("sum_j (-x_n)^j H(k-j, s, n)", "H(k, s, n-1)")
        )
        raise ArithmeticError(
            f"{family}(k={k}, s={s}, n={n}) fails the variable-peeling check at "
            f"{MPoly.monomial(n, exps)}: {left.coeff(exps)} in {left_label}, "
            f"{right.coeff(exps)} in {right_label}"
        )


def _checked_E(k: int, s: int, n: int) -> MPoly:
    if n == 0:
        return MPoly.one(0)
    val = _orbit_sum(n, ((lam, 1) for lam in enum_partitions(k, max_part=s, max_length=n)))
    acc: dict = {}
    for j in range(min(s, k) + 1):
        accumulate_shift(acc, E(k - j, s, n - 1).pad(n), n, j)
    _peel_check("E", k, s, n, val, collect(n, acc))
    return val


def _checked_H(k: int, s: int, n: int) -> MPoly:
    m = s + 1
    lams = enum_partitions(k, max_length=n, mod01=m)
    val = _orbit_sum(n, ((lam, (-1) ** (k + sum(p % m for p in lam))) for lam in lams))
    acc: dict = {}
    for j in range(min(s, k) + 1):
        accumulate_shift(acc, H(k - j, s, n) if j else val, n, j, -1 if j % 2 else 1)
    _peel_check("H", k, s, n, collect(n, acc), H(k, s, n - 1).pad(n))
    return val


def E(k: int, s: int, n: int) -> MPoly:
    """Degree-s truncated elementary family; zero outside 0 <= k <= s*n."""
    _validate_sn(s, n)
    if k < 0 or k > s * n:
        return MPoly.zero(n)
    key = (k, s, n)
    cached = _E_CACHE.get(key)
    if cached is None:
        # each value peels onto the n-1 values with index k-s..k
        for m in range(n + 1):
            for kk in range(max(0, k - s * (n - m)), min(k, s * m) + 1):
                if (kk, s, m) not in _E_CACHE:
                    _E_CACHE[(kk, s, m)] = _checked_E(kk, s, m)
        cached = _E_CACHE[key]
    return cached


def H(k: int, s: int, n: int) -> MPoly:
    """Degree-s truncated complete family; zero for k < 0."""
    _validate_sn(s, n)
    if k < 0:
        return MPoly.zero(n)
    if n == 0:
        return MPoly.one(0) if k == 0 else MPoly.zero(0)
    key = (k, s, n)
    cached = _H_CACHE.get(key)
    if cached is None:
        # each value peels onto the lower k at n and onto the same k at n-1
        for m in range(1, n + 1):
            for kk in range(k + 1):
                if (kk, s, m) not in _H_CACHE:
                    _H_CACHE[(kk, s, m)] = _checked_H(kk, s, m)
        cached = _H_CACHE[key]
    return cached


def P(k: int, s: int, n: int) -> MPoly:
    """Signed power-sum companion of E and H.

    Equals c * p_k with c = s*(-1)^k when (s+1) | k and (-1)^(k-1)
    otherwise; undefined at k = 0.
    """
    _validate_sn(s, n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % (s + 1) == 0:
        c = s if k % 2 == 0 else -s
    else:
        c = -1 if k % 2 == 0 else 1
    return c * classical("p", k, n)


def product_over_partition(
    kind: str, lam: Sequence[int], s: Optional[int], n: int
) -> MPoly:
    """Product over the parts of lam: e/h/p_lam or their truncated E/H/P forms.

    ``s`` is ignored for the classical kinds and required for 'E', 'H', 'P'.
    """
    lam = _validate_partition(lam)
    if kind in ("E", "H", "P"):
        if s is None:
            raise ValueError(f"kind {kind!r} needs s")
        return prod([{"E": E, "H": H, "P": P}[kind](part, s, n) for part in lam], start=MPoly.one(n))
    if kind not in ("e", "h", "p"):
        raise ValueError(f"unknown kind: {kind!r}")
    out, node = MPoly.one(n), _PRODUCT_CACHE.setdefault((kind, n), {})  # part -> (prefix product, children)
    for part in lam:
        if part not in node:
            node[part] = (out * classical(kind, part, n), {})
        out, node = node[part]
    return out


def m_lambda_at_roots(lam: Sequence[int], s: int) -> CycInt:
    """m_lambda evaluated at the s nontrivial (s+1)-th roots of unity.

    The orbit runs over distinct arrangements of lam in s slots; empty
    (value 0) when lam has more than s parts.  The result is always fixed
    by the Galois action, hence a rational integer in disguise.
    """
    lam = _validate_partition(lam)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    cached = _ROOTS_CACHE.get((lam, s))
    if cached is None:
        counts = [0] * (s + 1)  # orbit elements per power of the root, reduced once
        for exps in distinct_orbit(lam, s):
            counts[sum(j * e for j, e in enumerate(exps, 1)) % (s + 1)] += 1
        cached = _ROOTS_CACHE[(lam, s)] = CycInt(s + 1, counts)
    return cached


def _det(mat: list[list[MPoly]], n: int) -> MPoly:
    """Division-free determinant of a square matrix over n-variable polynomials.

    Row by row, ``minors[cols]`` holds the minor on the rows so far and the
    columns in the bit set ``cols``; each grows by expanding along its new
    last row.  That is m * 2^(m-1) products for an m x m matrix, not the
    m! of a Laplace expansion, and no recursion.
    """
    minors = {0: MPoly.one(n)}
    for row in mat:
        grown: dict = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if entry and not cols >> j & 1:
                    sign = -1 if (cols >> j).bit_count() % 2 else 1  # columns of cols right of j
                    accumulate_product(grown.setdefault(cols | 1 << j, {}), entry, minor, sign)
        minors = {cols: minor for cols, acc in grown.items() if (minor := collect(n, acc))}
    return minors.get((1 << len(mat)) - 1, MPoly.zero(n))


def schur_det(lam: Sequence[int], s: int, n: int, basis: str = "h") -> MPoly:
    """n x n determinant det(F_(mu_i - i + j)) with mu = lam zero-padded.

    ``basis='h'`` uses F = H and mu = lam (needs len(lam) <= n);
    ``basis='e'`` uses F = E and mu = the conjugate of lam (needs
    lam_1 <= n).  Negative indices contribute zero entries.  The rows of
    the zero padding are zero left of the diagonal and F_0 = 1 on it, so
    only the top-left len(mu) x len(mu) block is expanded.
    """
    _validate_sn(s, n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = _validate_partition(lam)
    if basis == "h":
        mu = lam
        if len(mu) > n:
            raise ValueError(f"partition has {len(mu)} parts, more than n={n}")
        ctor = H
    elif basis == "e":
        mu = conjugate(lam)
        if len(mu) > n:
            raise ValueError(f"conjugate has {len(mu)} parts, more than n={n}")
        ctor = E
    else:
        raise ValueError(f"basis must be 'h' or 'e', got {basis!r}")
    size = len(mu)
    return _det([[ctor(mu[i] - i + j, s, n) for j in range(size)] for i in range(size)], n)


def clear_caches() -> None:
    """Drop all memoized values (mainly for isolating benchmarks)."""
    for table in (_M_CACHE, _CLASSICAL_CACHE, _E_CACHE, _H_CACHE, _PRODUCT_CACHE, _ROOTS_CACHE):
        table.clear()
