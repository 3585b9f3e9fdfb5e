"""Symmetric function constructors over exact coefficient rings.

The two families at the center of the package generalize the elementary
and complete homogeneous symmetric functions by truncating each factor of
their generating products at degree s:

* ``E(k, s, n)``: coefficient of t^k in prod_i (1 + x_i t + ... + (x_i t)^s),
* ``H(k, s, n)``: coefficient of t^k in prod_i (1 - x_i t + ... + (-x_i t)^s)^(-1).

At s = 1 they reduce to e_k and h_k; at s >= k, E reduces to the full
monomial sum h_k restricted to exponents <= s (equal to h_k when s = k).

Both are built as sums over partition orbits, each walked lazily into the
value's dict, so the work and the peak memory grow with the output, not
with the degree s*n of the generating product: E(k, s, n) sums
m_lam over lam |- k with parts <= s, and H(k, s, n) sums (-1)^(k + r) m_lam
over lam |- k with parts congruent to 0 or 1 mod s+1, r of them to 1.

Before it is cached, each value is checked against its generating product
split into two alphabets, x_1..x_a | x_(a+1)..x_n with a = n // 2
(Macdonald, Symmetric Functions and Hall Polynomials, I.5):

* E(k, s, n) = sum_j E(j, s, a) E(k-j, s, n-a)^a, and the same for H,

where ^a moves a value onto the variables after x_a.  The halves are cached
values, and one variable is the closed coefficient of its factor:
E(k, s, 1) = x1^k for k <= s, and H(k, s, 1) = (-1)^(q(s+1)) x1^k with
q = k // (s+1) when k mod s+1 is 0 or 1; both are zero otherwise.  So by
induction every cached value is the product's coefficient, and only the
variable counts of the halving tree are cached, at recursion depth
O(log n).  A disagreement raises ``ArithmeticError`` naming the first
monomial where the two sides differ.

The classical e_k and h_k are built by the same split from their own
halves, down to e_k(x1) = x1^k for k <= 1 and h_k(x1) = x1^k.  No orbit sum
is involved, so they stay independent of E and H.

m_lambda at the s nontrivial (s+1)-th roots of unity is an ``int``: the
arrangements of lam in s slots are counted per root power r mod s+1, slot by
slot over the part multiplicities left (no orbit is listed), a count that
depends on gcd(r, s+1) alone, and the powers of one gcd d sum to the
Moebius value mu((s+1)/d).  A count off that invariant raises
``ArithmeticError``.

Every argument-keyed memo is a ``functools.cache`` (E, H, classical, and the
bodies of m_lambda and m_lambda_at_roots past validation): it stores no error
and reports ``cache_info()``.  The products e/h/p_lam and E/H/P_lam sit in a trie
per (kind, s, n), s None for the classical kinds, one product per new node.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import factorial, gcd
from typing import Callable, Iterable, Optional, Sequence

from .multipoly import MPoly, _pack_terms, _shift_variables, _trusted, sum_of_products
from .partitions import (
    Partition,
    _orbit,
    conjugate,
    enum_partitions,
    is_partition,
)

# (kind, s, n) -> {part: (prefix product, children)}: a trie, as a cache keyed by prefix holds O(L^2) keys for L parts
_PRODUCT_CACHE: dict = {}


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
    _validate_sn(1, n)
    return _m_lambda(lam, n)


@cache
def _m_lambda(lam: Partition, n: int) -> MPoly:
    return _orbit_sum(n, [(lam, 1)])


@cache
def classical(kind: str, k: int, n: int) -> MPoly:
    """e_k, h_k or p_k in n variables (kind 'e', 'h' or 'p').

    k < 0 gives zero; p requires k >= 1.
    """
    if kind not in ("e", "h", "p"):
        raise ValueError(f"kind must be 'e', 'h' or 'p', got {kind!r}")
    _validate_sn(1, n)
    if kind == "p" and k < 1:
        raise ValueError("power sums are defined for k >= 1 only")
    if k < 0 or kind == "e" and k > n:
        return MPoly.zero(n)
    if kind == "p":  # p_k is the orbit sum m_(k)
        return m_lambda((k,), n)
    d = k if kind == "h" else min(k, 1)  # the largest power of one variable in h_k or e_k
    return _split(lambda j, _, m: classical(kind, j, m), lambda j: int(kind == "h" or j <= 1), d, k, 1, n)


def _split(F: Callable[[int, int, int], MPoly], one: Callable[[int], int], d: int, k: int, s: int, n: int) -> MPoly:
    """[t^k] of prod_i sum_j one(j) (x_i t)^j over n variables; F(j, s, m) is [t^j] over m.

    One variable gives one(k) x1^k, and none gives 1 at k = 0.  Otherwise
    the alphabet is split at a = n // 2: sum_j F(j, s, a) F(k-j, s, n-a)
    with the right half moved onto x_(a+1)..x_n, over the j where neither
    half exceeds d per variable, d the top j <= k with one(j) nonzero
    (the caller's closed form, 0 when there is none).
    """
    if n < 2:  # a zero is built without its monomial, whose exponent may not fit
        c = one(k) if n else int(k == 0)
        return MPoly.monomial(n, (k,) * n, c) if c else MPoly.zero(n)
    a = n // 2
    return sum_of_products(n, ((1, left.pad(n), _shift_variables(right, a, n))
                               for j in range(max(0, k - d * (n - a)), min(k, d * a) + 1)
                               if (left := F(j, s, a)) and (right := F(k - j, s, n - a))))


def _orbit_sum(n: int, signed: Iterable[tuple[Partition, int]]) -> MPoly:
    """sum of c * m_lam over (lam, c), c = +-1: each orbit walked lazily, its elements packed into the value's dict."""
    return _trusted(n, _pack_terms(n, ((_orbit(lam, n), repeat(c)) for lam, c in signed)))


def _guard(family: str, k: int, s: int, n: int, val: MPoly, split: MPoly) -> MPoly:
    """val, the orbit sum; ArithmeticError at the first monomial where it and the split differ."""
    if val != split:
        exps = (val - split).canonical_terms()[0][0]
        a = n // 2
        label = "the one-variable factor" if n < 2 else f"sum_j {family}(j, s, {a}) {family}(k-j, s, {n - a})"
        raise ArithmeticError(
            f"{family}(k={k}, s={s}, n={n}) fails the alphabet-split check at "
            f"{MPoly.monomial(n, exps)}: {val.coeff(exps)} in the orbit sum, "
            f"{split.coeff(exps)} in {label}"
        )
    return val


@cache
def E(k: int, s: int, n: int) -> MPoly:
    """Degree-s truncated elementary family; zero outside 0 <= k <= s*n."""
    _validate_sn(s, n)
    if k < 0 or k > s * n:
        return MPoly.zero(n)
    val = _orbit_sum(n, ((lam, 1) for lam in enum_partitions(k, max_part=s, max_length=n)))
    return _guard("E", k, s, n, val, _split(E, lambda j: int(j <= s), min(k, s), k, s, n))


@cache
def H(k: int, s: int, n: int) -> MPoly:
    """Degree-s truncated complete family; zero for k < 0."""
    _validate_sn(s, n)
    if k < 0:
        return MPoly.zero(n)
    m = s + 1
    lams = enum_partitions(k, max_length=n, mod01=m)
    val = _orbit_sum(n, ((lam, (-1) ** (k + sum(p % m for p in lam))) for lam in lams))
    split = _split(H, lambda j: (-1) ** (j // m * m) if j % m < 2 else 0, k - max(k % m - 1, 0), k, s, n)
    return _guard("H", k, s, n, val, split)


def P(k: int, s: int, n: int) -> MPoly:
    """Signed power-sum companion of E and H.

    Equals c * p_k with c = s*(-1)^k when (s+1) | k and (-1)^(k-1)
    otherwise; undefined at k = 0.
    """
    _validate_sn(s, n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = s * (-1) ** k if k % (s + 1) == 0 else (-1) ** (k - 1)
    return c * classical("p", k, n)


def product_over_partition(
    kind: str, lam: Sequence[int], s: Optional[int], n: int
) -> MPoly:
    """Product over the parts of lam: e/h/p_lam or their truncated E/H/P forms.

    ``s`` is ignored for the classical kinds and required for 'E', 'H', 'P'.
    """
    return _product_over_partition(kind, _validate_partition(lam), s, n)


def _product_over_partition(kind: str, lam: Partition, s: Optional[int], n: int) -> MPoly:
    """product_over_partition past the check of lam: the sums over ``enum_partitions`` call it."""
    if kind in ("E", "H", "P"):
        if s is None:
            raise ValueError(f"kind {kind!r} needs s")
        factor = {"E": E, "H": H, "P": P}[kind]
    elif kind in ("e", "h", "p"):
        s, factor = None, lambda part, _, n: classical(kind, part, n)
    else:
        raise ValueError(f"unknown kind: {kind!r}")
    out, node = MPoly.one(n), _PRODUCT_CACHE.setdefault((kind, s, n), {})
    for part in lam:  # a new node costs one product: its cached prefix times one factor
        if part not in node:
            node[part] = (out * factor(part, s, n), {})
        out, node = node[part]
    return out


def m_lambda_at_roots(lam: Sequence[int], s: int) -> int:
    """m_lambda evaluated at the s nontrivial (s+1)-th roots of unity, a rational integer.

    The sum runs over the distinct arrangements of lam in s slots, counted
    per root power, not listed; it is empty (value 0) when lam has more than s parts.
    """
    lam = _validate_partition(lam)
    _validate_sn(s, 0)
    return _at_roots(lam, s) if len(lam) <= s else 0  # no arrangement fits


def _mobius(m: int) -> int:
    """The Moebius function: mu(1) = 1, and mu(p * r) = 0 if p divides r, else -mu(r), for p the least prime of m."""
    p = next(p for p in range(2, m + 1) if m % p == 0) if m > 1 else 1  # one level per distinct prime, log2(m) at most
    return 1 if m == 1 else 0 if m // p % p == 0 else -_mobius(m // p)


def _per_power(lam: Partition, s: int) -> list[int]:
    """The arrangements of lam in s slots per root power sum_j j * e_j mod s+1, counted slot by slot: a state is
    the multiplicities left, of each part and of the zeros, with its counts per raw power in b-bit fields of one int."""
    m, values, b = s + 1, sorted(set(lam)) + [0], factorial(s).bit_length()  # no count exceeds s! arrangements
    layer = {tuple(map(lam.count, values[:-1])) + (max(s - len(lam), 0),): 1}
    for j in range(1, m):  # slot j takes one of the values left, which adds j * value to the power
        grown: dict = {}
        for left, fields in layer.items():
            for i in filter(left.__getitem__, range(len(left))):
                key = left[:i] + (left[i] - 1,) + left[i + 1:]
                grown[key] = grown.get(key, 0) + (fields << j * values[i] * b)
        layer = grown
    fields, low = layer.get((0,) * len(values), 0), (1 << m * b) - 1  # no such state when lam has more than s parts
    while fields > low:  # powers m apart are one root power; a field sums counts, so it stays below s! < 2^b
        fields = (fields & low) + (fields >> m * b)
    return [fields >> r * b & (1 << b) - 1 for r in range(m)]


@cache
def _at_roots(lam: Partition, s: int) -> int:
    """sum over the arrangements of lam in s slots of w^r, r = sum_j j * e_j mod m = s+1, w = exp(2 pi i / m).

    Multiplying the slots by a unit mod m permutes the arrangements, so the
    count at r depends only on d = gcd(r, m), and the r with gcd(r, m) = d sum
    w^r to mu(m/d), the sum of the primitive (m/d)-th roots of unity
    (Ramanujan's sum c_(m/d)(1); Ramanujan, Trans. Cambridge Philos. Soc. 22, 1918).
    """
    m, counts = s + 1, _per_power(lam, s)
    if any(counts[r] != counts[gcd(r, m)] for r in range(1, m)):
        raise ArithmeticError(f"m_lambda_at_roots({lam}, s={s}): the arrangements per root power mod {m}, "
                              f"{counts}, do not depend on gcd(power, {m}) alone")
    return sum(_mobius(m // d) * counts[d % m] for d in range(1, m + 1) if m % d == 0)


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
                    grown.setdefault(cols | 1 << j, []).append((sign, entry, minor))
        minors = {cols: minor for cols, terms in grown.items() if (minor := sum_of_products(n, terms))}
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
    if basis not in ("h", "e"):
        raise ValueError(f"basis must be 'h' or 'e', got {basis!r}")
    mu, ctor = (lam, H) if basis == "h" else (conjugate(lam), E)
    if len(mu) > n:
        raise ValueError(f"{'partition' if basis == 'h' else 'conjugate'} has {len(mu)} parts, more than n={n}")
    size = len(mu)
    return _det([[ctor(mu[i] - i + j, s, n) for j in range(size)] for i in range(size)], n)
