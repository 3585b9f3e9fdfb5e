"""Mechanical verifier for the algebraic identity catalog.

Every entry in ``REGISTRY`` checks one identity on concrete parameters.  Each
side is built by its own route, and a side that several identities share is
built once and memoized, as E and H are.  Checks never assume each other's
conclusions: no sum is routed through an already-verified equivalent form, so
each identity remains an independent probe of the constructors.  The
``conversion:<kind>`` entries check the closed forms that tie the bisnomial
triangles to ordinary and Gaussian binomials.

The identities restate a few relations between the generating products E(t)
and H(t) as sums of products, so the checks are built from two shared shapes,
each a call of ``multipoly.sum_of_products`` (c * F and x_i * F are products
by the one-term 1 and x_i):

* one ``sum_of_products`` over the (c, A, B) terms: E(t) H(-t) = 1, the
  Newton-type sums, the sums over x^s-substituted classical factors
  (``_conv_sum``, memoized), the sums over lam |- k of coef(lam) * F_lam over a
  common denominator (``_partition_sum``, from a table of integer numerators made
  once per (rule, k), ``_coef_table``; its scalar twin ``_scalar_sum`` is memoized), the sums over lam of
  the integer m_lam at the roots of unity times a basis (``_roots_sum``, memoized) and the signed sums
  of m_lam (``_mono_sum``, conj_bridge), these three as c * 1 * F;
* ``_linear_passes``: a graded series times prod_i (1 + x_i t)^(-1) or
  prod_i (1 - x_i t), one pass per variable, the passes side by side a degree
  at a time, each step one two-term ``sum_of_products``: the power substitutions and the sums that vanish,
  every k of one (kind, n, s) read from one run that ``_series`` keeps.  The rows that
  convolve E with H or E with E at one s (ortho, newton_*, cubic_*, mono_H)
  stay one sum of products: passes with the family's own truncated factor would test
  one value against its generating product, as the constructors' split guard
  does, not two constructed values against each other.  So does ``_conv_sum``
  (conv_*): as passes it would test H against its own generating product, the
  tests' oracle.

An E/H twin is one check body: its registry row binds the family by name, and
the body looks the constructor up when it runs.  A check returns the two sides
of its identity, ``(lhs, rhs)``, and decides nothing: ``verify`` and
``verify_grid`` share one runner that compares the sides once, renders them and
times the point, into an ``IdentityReport``; ``verify`` says which exceptions
propagate and which fold into a failed report.  A polynomial's report text is
made at its first report and kept on the value, so a cached side that comes
back in many points and identities is rendered once.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cache, partial
from itertools import count, islice, product as _cartesian
from json.encoder import encode_basestring_ascii as _quote
from math import comb, factorial, gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .bisnomial import bisnomial, gaussian, pq_bisnomial, pq_gaussian, q_bisnomial
from .exactalg import BiPoly, UniPoly
from .multipoly import MPoly, _report_text, substitute_power, sum_of_products
from .partitions import (
    Partition,
    enum_partitions,
    is_partition,
    multinomial,
    multiplicities,
)
from .symfun import E, H, P, _at_roots, _m_lambda, _product_over_partition, classical, m_lambda_at_roots


def _sign(m: int) -> int:
    return -1 if m % 2 else 1


def _describe(value: object) -> str:
    return _report_text(value) if isinstance(value, MPoly) else str(value)


class IdentityReport(NamedTuple):
    """Outcome of checking one identity at one parameter point."""

    identity_id: str
    params: dict
    holds: bool
    lhs: str
    rhs: str
    elapsed: float

    def to_json(self, *, include_elapsed: bool = True) -> str:
        """The fields as json.dumps(..., separators=(", ", ": ")) writes them, params (ints, int lists) sorted."""
        params = ", ".join([f"{_quote(key)}: {value}" for key, value in sorted(self.params.items())])
        tail = f', "elapsed": {round(self.elapsed, 6)!r}' if include_elapsed else ""
        name, holds, lhs, rhs = _quote(self.identity_id), str(self.holds).lower(), _quote(self.lhs), _quote(self.rhs)
        return f'{{"identity_id": {name}, "params": {{{params}}}, "holds": {holds}, "lhs": {lhs}, "rhs": {rhs}{tail}}}'


class IdentitySpec(NamedTuple):
    """One registry entry: a check, its parameter names and its valid points.

    A point (n, k, s) is valid when n >= 1, s >= s_min, k >= k_min and,
    with ``avoid_k_mult_of_s``, s does not divide k; a partition is valid
    when its weight is at least k_min and its length at most the weight
    less k_min - 1.
    """

    name: str
    check: Callable[..., tuple[object, object]]  # the two sides, (lhs, rhs)
    arity: tuple[str, ...] = ("n", "k", "s")
    k_default_max: int = 8
    k_min: int = 0
    s_min: int = 1
    avoid_k_mult_of_s: bool = False

    def why_invalid(
        self, n: int = 1, k: int = 0, s: int = 1, lam: Optional[Sequence[int]] = None
    ) -> Optional[str]:
        if lam is not None:
            lam, margin = tuple(lam), self.k_min - 1
            if not is_partition(lam):
                return f"not a partition: {lam}"
            if sum(lam) < self.k_min:
                return f"weight must be >= {self.k_min}"
            if margin and len(lam) > sum(lam) - margin:
                return f"length must be <= weight - {margin}"
            return None
        if n < 1:
            return "n must be >= 1"
        if s < self.s_min:
            return f"s must be >= {self.s_min}"
        if k < self.k_min:
            return f"k must be >= {self.k_min}"
        if self.avoid_k_mult_of_s and k % s == 0:
            return "k must not be a multiple of s"
        return None


# -- shared shapes -----------------------------------------------------------


def _family(kind: str) -> Callable[[int, int, int], MPoly]:
    """E or H by name, looked up when a check runs."""
    return E if kind == "E" else H


@cache
def _pair_conv(kind: str, m: int, s: int, n: int) -> MPoly:
    """sum over a+b=m of F_a F_b with F = E or H, cached."""
    F = _family(kind)
    return sum_of_products(n, ((1, Fa, F(m - a, s, n)) for a in range(m + 1) if (Fa := F(a, s, n))))


@cache
def _conv_sum(f: str, n: int, k: int, s: int) -> MPoly:
    """sum_j (-1)^(s*j) h_j(x^s) e_(k-s*j)(x) for f = 'h', sum_j (-1)^j e_j(x^s) h_(k-s*j)(x) for f = 'e'.

    The memoized classical factors are looked up for every j; the power
    substitution and the product are made only where both are nonzero.
    """
    g, step = ("e", s) if f == "h" else ("h", 1)
    pairs = ((j, classical(f, j, n), classical(g, k - s * j, n)) for j in range(k // s + 1))
    return sum_of_products(n, ((_sign(step * j), substitute_power(a, s), b) for j, a, b in pairs if a and b))


def _linear_passes(n: int, series: Iterable[MPoly], divide: bool) -> Iterator[MPoly]:
    """[t^m] of F_0 + F_1 t + ... times prod_i (1 + x_i t)^(-1), or times prod_i (1 - x_i t), for m = 0, 1, ...

    One pass per variable, the n of them side by side a degree at a time, each keeping
    only its last term: dividing by 1 + x_i t is G_d = F_d - x_i G_(d-1), multiplying by
    1 - x_i t is G_d = F_d - x_i F_(d-1), and G_0 = F_0.
    """
    one, xs, last = MPoly.one(n), [MPoly.variable(n, i) for i in range(1, n + 1)], None
    for term in series:
        if last is None:
            last = [term] * n
        else:
            for i, xi in enumerate(xs):
                out = sum_of_products(n, [(1, one, term), (-1, xi, last[i])])
                last[i], term = out if divide else term, out
        yield term


def _rebuilt_H(n: int, s: int) -> Iterator[MPoly]:
    """H_0, H_1, ... rebuilt from E by H_m = sum_j (-1)^(j+1) E_j H_(m-j): H itself is built as mono_H's orbit sum."""
    rebuilt = [MPoly.one(n)]
    for top in count(1):
        yield rebuilt[-1]
        rebuilt.append(sum_of_products(n, ((_sign(j + 1), E(j, s, n), rebuilt[top - j])
                                           for j in range(1, min(top, s * n) + 1))))


def _alt_sums(kind: str, n: int, s: int) -> Iterator[MPoly]:
    """sum_j (-1)^j f_j F(m-j, s-1) for m = 0, 1, ..., (f, F) = (e, E) or (h, H): [t^m] of F(t) sum_j f_j (-t)^j."""
    return _linear_passes(n, (_family(kind)(d, s - 1, n) for d in count()), kind == "H")


@cache
def _series(make: Callable[..., Iterator[MPoly]], *args) -> tuple[list[MPoly], Iterator[MPoly]]:
    """The memo of one lazily extended series make(*args): the terms made so far and the generator of the rest."""
    return [], make(*args)


def _term(m: int, make: Callable[..., Iterator[MPoly]], *args) -> MPoly:
    """[t^m] of the series make(*args), extended as far as m.  An exception while it grows empties
    the memo, so no finished generator or half-made frontier is read again: the next call starts afresh."""
    made, rest = _series(make, *args)
    try:
        made.extend(islice(rest, max(0, m + 1 - len(made))))
    except BaseException:
        _series.cache_clear()
        raise
    return made[m]


def _coef(rule: str, lam: Partition) -> Fraction:
    """The coefficient of F_lam in the partition sum ``rule`` (Macdonald I.2), l = len(lam), t_i the multiplicity
    of i: (-1)^l times the multinomial of the t_i for 'mult' (E from H, H from E), that over l for 'weight' (p_k
    and P from E or H), 1/z_lam for 'z' (H from P), (-1)^l/z_lam for 'signed_z' (E from P); z_lam = prod i^t_i t_i!."""
    sign, t = _sign(len(lam)), multiplicities(lam)
    if rule in ("mult", "weight"):
        return Fraction(sign * multinomial(t.values()), len(lam) if rule == "weight" else 1)
    return Fraction(sign if rule == "signed_z" else 1, prod(i**m * factorial(m) for i, m in t.items()))


@cache
def _coef_table(rule: str, k: int) -> tuple[int, tuple[tuple[Partition, int], ...]]:
    """(L, the pairs (lam, L * coefficient) in ``enum_partitions(k)`` order), L the lcm of the denominators."""
    coefs = [(lam, _coef(rule, lam)) for lam in enum_partitions(k)]
    scale = lcm(*[c.denominator for _, c in coefs])
    return scale, tuple((lam, c.numerator * scale // c.denominator) for lam, c in coefs)


def _partition_sum(kind: str, k: int, s: int, n: int, rule: str, c: int) -> MPoly:
    """c * sum over lam |- k of the rule's coefficient times F_lam, F = E, H or P, as one sum of products scaled once: no
    prime of L divides every numerator, so L / gcd(L, c) is the least common denominator, 1 for P_from_* (c = +-k)."""
    scale, rows = _coef_table(rule, k)
    g, one = gcd(scale, c), MPoly.one(n)
    total = sum_of_products(n, ((c // g * num, one, _product_over_partition(kind, lam, s, n)) for lam, num in rows))
    return total if scale == g else Fraction(g, scale) * total


@cache
def _scalar_sum(k: int, s: int) -> Fraction:
    """sum over lam |- k with parts <= s of the 'weight' coefficient: those partitions only, few for a large k."""
    return sum([_coef("weight", lam) for lam in enum_partitions(k, max_part=s)], Fraction(0))


@cache
def _roots_sum(k: int, s: int, basis: str, n: int) -> MPoly:
    """sum over lam |- k, len(lam) <= s of m_lam(roots) * basis_lam(x), in one ``sum_of_products``."""
    one = MPoly.one(n)  # no lam listed has more than s parts, so each is one ``_at_roots`` call
    return sum_of_products(n, ((c, one, _product_over_partition(basis, lam, None, n))
                               for lam in enum_partitions(k, max_length=s) if (c := _at_roots(lam, s))))


def _mono_sum(n: int, k: int, s: int, shift: int) -> MPoly:
    """sum of (-1)^(shift + r) m_lam over lam |- k with parts 0 or 1 mod s+1, r the residue sum."""
    m, one = s + 1, MPoly.one(n)
    lams = enum_partitions(k, mod01=m)
    return sum_of_products(n, ((_sign(shift + sum(part % m for part in lam)), one, _m_lambda(lam, n)) for lam in lams))


# -- checks ------------------------------------------------------------------
# Each returns the two sides of its identity, (lhs, rhs); the runner compares them.
# A body with a leading ``kind`` serves an E/H twin; the registry binds it.


def _chk_ortho(n: int, k: int, s: int):
    lhs = sum_of_products(n, ((_sign(j), Ej, H(k - j, s, n)) for j in range(k + 1) if (Ej := E(j, s, n))))
    return lhs, MPoly.one(n) if k == 0 else MPoly.zero(n)


def _chk_inv(kind: str, n: int, k: int, s: int):
    return _family(kind)(k, s, n), _partition_sum("E" if kind == "H" else "H", k, s, n, "mult", _sign(k))


def _chk_newton(kind: str, n: int, k: int, s: int):
    F, sign = _family(kind), (-1 if kind == "E" else 1)
    rhs = sum_of_products(n, ((sign ** (j - 1), P(j, s, n), Fj) for j in range(1, k + 1) if (Fj := F(k - j, s, n))))
    return k * F(k, s, n), rhs


def _chk_newton_P(n: int, k: int, s: int):
    rhs = sum_of_products(n, ((_sign(j - 1) * j, Ej, H(k - j, s, n)) for j in range(1, k + 1) if (Ej := E(j, s, n))))
    return P(k, s, n), rhs


def _chk_cubic_E(n: int, k: int, s: int):
    rhs = sum_of_products(n, ((_sign(k - m) * m, conv, H(k - m, s, n))
                              for m in range(1, k + 1) if (conv := _pair_conv("E", m, s, n))))
    return (2 * k) * E(k, s, n), rhs


def _chk_cubic_H(n: int, k: int, s: int):
    rhs = sum_of_products(n, ((_sign(k - m - 1) * (k - m), _pair_conv("H", m, s, n), Ek3)
                              for m in range(k) if (Ek3 := E(k - m, s, n))))
    return k * H(k, s, n), rhs


def _chk_pk_from(kind: str, n: int, k: int, s: int):
    num = _partition_sum(kind, k, s, n, "weight", 1 if kind == "E" else -1)
    den = _scalar_sum(k, s) * (1 if kind == "E" else _sign(k))  # +-s/k or +-1/k: scalar_c
    return classical("p", k, n), (1 / den) * num


def _chk_P_from(kind: str, n: int, k: int, s: int):
    return P(k, s, n), _partition_sum(kind, k, s, n, "weight", k * (_sign(k) if kind == "E" else -1))


def _chk_scalar_c(k: int, s: int):
    return k * _scalar_sum(k, s), Fraction(s) if k % (s + 1) == 0 else Fraction(-1)


def _chk_from_P(kind: str, n: int, k: int, s: int):
    rule, c = ("z", 1) if kind == "H" else ("signed_z", _sign(k))
    return _family(kind)(k, s, n), _partition_sum("P", k, s, n, rule, c)


def _chk_rec_H(n: int, k: int, s: int):
    xn = MPoly.variable(n, n)
    top = _sign(s + 1) * (xn ** (s + 1) * H(k - s - 1, s, n))
    return H(k, s, n), top + H(k, s, n - 1).pad(n) + xn * H(k - 1, s, n - 1).pad(n)


def _chk_rec_E(n: int, k: int, s: int):
    xn = MPoly.variable(n, n)
    return E(k, s, n), xn * E(k - 1, s, n) + E(k, s, n - 1).pad(n) - xn ** (s + 1) * E(k - s - 1, s, n - 1).pad(n)


def _chk_roots(kind: str, n: int, k: int, s: int):
    return _family(kind)(k, s, n), _sign(k) * _roots_sum(k, s, kind.lower(), n)


def _chk_conj_bridge(n: int, k: int, s: int):
    one = MPoly.one(n)
    lhs = sum_of_products(n, ((1, one, _m_lambda(lam, n)) for lam in enum_partitions(k, max_part=s)))
    return lhs, _sign(k) * _roots_sum(k, s, "e", n)


def _chk_conv(kind: str, n: int, k: int, s: int):
    return _family(kind)(k, s - 1, n), _conv_sum(kind.lower(), n, k, s)


def _chk_conv_roots(f: str, n: int, k: int, s: int):
    return _conv_sum(f, n, k, s), _sign(k) * _roots_sum(k, s - 1, f, n)


def _chk_mroots_closed(drop: int, lam: Partition):
    """m_lam at the s = k - drop roots against its closed form, k = |lam|, drop = 0, 1 or 2."""
    k, length, t1 = sum(lam), len(lam), multiplicities(lam).get(1, 0)
    if drop == 0:
        cut = 0
    elif drop == 1:
        cut = Fraction(k, length)
    else:
        cut = Fraction(t1 * (k - 1), length * length - length) if t1 else 0
    return m_lambda_at_roots(lam, k - drop), (1 - cut) * _coef("mult", lam)


def _chk_powsub(kind: str, n: int, k: int, s: int):
    lhs = substitute_power(classical(kind.lower(), k, n), s)
    return lhs, _sign(k * s if kind == "H" else k) * _term(k * s, _alt_sums, kind, n, s)


def _chk_vanish(kind: str, n: int, k: int, s: int):
    return _term(k, _alt_sums, kind, n, s), MPoly.zero(n)


def _chk_mono_H(n: int, k: int, s: int):
    return _term(k, _rebuilt_H, n, s), _mono_sum(n, k, s, k)


def _chk_mono_bridge(n: int, k: int, s: int):
    return _mono_sum(n, k, s, 0), _roots_sum(k, s, "h", n)


# Conversions between the triangles of ``bisnomial``: s is the step of the
# identity (s >= 2), and the truncated triangle involved has depth s-1.


def _chk_conversion_plain(n: int, k: int, s: int):
    rhs = sum((-1) ** j * comb(n, j) * comb(n + k - s * j - 1, k - s * j) for j in range(k // s + 1))
    return bisnomial(n, k, s - 1), rhs


def _chk_conversion_q(flavor: str, n: int, k: int, s: int):
    """The q or (p,q) triangle as an alternating sum of Gaussian products."""
    pq = flavor == "pq"
    gauss = pq_gaussian if pq else gaussian
    lhs = (pq_bisnomial if pq else q_bisnomial)(n, k, s - 1)
    rhs = BiPoly() if pq else UniPoly()
    for j in range(k // s + 1):
        e = s * comb(j, 2)
        unit = BiPoly.term((-1) ** j, e, e) if pq else UniPoly.term((-1) ** j, e)
        rhs = rhs + unit * gauss(n, j).scale_exponents(s) * gauss(n + k - s * j - 1, k - s * j)
    return lhs, rhs


def _chk_conversion_binom_recovery(n: int, k: int, s: int):
    return comb(n, k), sum((-1) ** (k + j) * comb(n, j) * bisnomial(n, k * s - j, s - 1) for j in range(k * s + 1))


def _chk_conversion_qs_recovery(n: int, k: int, s: int):
    # multiplied through to stay in Z[q]
    lhs = UniPoly.term(1, s * comb(k, 2)) * gaussian(n, k).scale_exponents(s)
    terms = (UniPoly.term((-1) ** (k + j), comb(j, 2)) * gaussian(n, j) * q_bisnomial(n, k * s - j, s - 1)
             for j in range(k * s + 1))
    return lhs, sum(terms, UniPoly())


# -- registry ------------------------------------------------------------------

_SNK = ("s", "n", "k")  # s outermost: the line order of verify --id conversions

REGISTRY: dict[str, IdentitySpec] = {
    spec.name: spec
    for spec in [
        IdentitySpec("ortho", _chk_ortho),
        IdentitySpec("inv_H", partial(_chk_inv, "H"), k_default_max=6),
        IdentitySpec("inv_E", partial(_chk_inv, "E"), k_default_max=6),
        IdentitySpec("newton_E", partial(_chk_newton, "E"), k_min=1),
        IdentitySpec("newton_H", partial(_chk_newton, "H"), k_min=1),
        IdentitySpec("newton_P", _chk_newton_P, k_min=1),
        IdentitySpec("cubic_E", _chk_cubic_E, k_min=1),
        IdentitySpec("cubic_H", _chk_cubic_H, k_min=1),
        IdentitySpec("pk_from_E", partial(_chk_pk_from, "E"), k_min=1, k_default_max=6),
        IdentitySpec("pk_from_H", partial(_chk_pk_from, "H"), k_min=1, k_default_max=6),
        IdentitySpec("P_from_E", partial(_chk_P_from, "E"), k_min=1, k_default_max=6),
        IdentitySpec("P_from_H", partial(_chk_P_from, "H"), k_min=1, k_default_max=6),
        IdentitySpec("scalar_c", _chk_scalar_c, ("k", "s"), k_min=1),
        IdentitySpec("H_from_P", partial(_chk_from_P, "H"), k_min=1, k_default_max=6),
        IdentitySpec("E_from_P", partial(_chk_from_P, "E"), k_min=1, k_default_max=6),
        IdentitySpec("rec_H", _chk_rec_H),
        IdentitySpec("rec_E", _chk_rec_E),
        IdentitySpec("roots_H", partial(_chk_roots, "H")),
        IdentitySpec("roots_E", partial(_chk_roots, "E")),
        IdentitySpec("conj_bridge", _chk_conj_bridge),
        IdentitySpec("conv_H", partial(_chk_conv, "H"), s_min=2),
        IdentitySpec("conv_E", partial(_chk_conv, "E"), s_min=2),
        IdentitySpec("conv_roots_h", partial(_chk_conv_roots, "h"), s_min=2),
        IdentitySpec("conv_roots_e", partial(_chk_conv_roots, "e"), s_min=2),
        IdentitySpec("mroots_closed_k1", partial(_chk_mroots_closed, 0), ("lam",), k_min=1),
        IdentitySpec("mroots_closed_k", partial(_chk_mroots_closed, 1), ("lam",), k_min=2),
        IdentitySpec("mroots_closed_km1", partial(_chk_mroots_closed, 2), ("lam",), k_min=3),
        IdentitySpec("powsub_h", partial(_chk_powsub, "H"), k_min=1, s_min=2),
        IdentitySpec("powsub_e", partial(_chk_powsub, "E"), k_min=1, s_min=2),
        IdentitySpec("vanish_h", partial(_chk_vanish, "H"), k_min=1, s_min=2, avoid_k_mult_of_s=True),
        IdentitySpec("vanish_e", partial(_chk_vanish, "E"), k_min=1, s_min=2, avoid_k_mult_of_s=True),
        IdentitySpec("mono_H", _chk_mono_H),
        IdentitySpec("mono_bridge", _chk_mono_bridge),
        IdentitySpec("conversion:plain", _chk_conversion_plain, _SNK, k_default_max=6, s_min=2),
        IdentitySpec("conversion:q", partial(_chk_conversion_q, "q"), _SNK, k_default_max=6, s_min=2),
        IdentitySpec("conversion:pq", partial(_chk_conversion_q, "pq"), _SNK, k_default_max=6, s_min=2),
        IdentitySpec("conversion:binom_recovery", _chk_conversion_binom_recovery, _SNK, k_default_max=6, s_min=2),
        IdentitySpec("conversion:qs_recovery", _chk_conversion_qs_recovery, _SNK, k_default_max=6, s_min=2),
    ]
}


def list_identities() -> list[str]:
    return list(REGISTRY)


class NoValidPoint(ValueError):
    """Raised by ``verify_grid`` for a grid with no valid point, before any check runs."""


def _spec(identity_id: str) -> IdentitySpec:
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise ValueError(f"unknown identity: {identity_id!r}")
    return spec


def _run(spec: IdentitySpec, params: dict) -> IdentityReport:
    """Check one valid point, its params in arity order: compare its two sides once, render them and time it all."""
    start = time.perf_counter()
    try:
        lhs, rhs = spec.check(**params)
        holds = lhs == rhs
        lhs_text = _describe(lhs)  # equal values of one type render (and hash) alike in every ring here
        rhs_text = lhs_text if holds and type(lhs) is type(rhs) else _describe(rhs)
    except (ValueError, OverflowError):
        raise  # a value the package cannot build, not a verdict on the identity
    except Exception as exc:  # fold per-point failures into the report
        holds, lhs_text, rhs_text = False, f"error: {type(exc).__name__}: {exc}", ""
    elapsed = time.perf_counter() - start
    if "lam" in params:
        params = dict(params, lam=list(params["lam"]))
    return IdentityReport(spec.name, params, bool(holds), lhs_text, rhs_text, elapsed)


def verify(identity_id: str, **params) -> IdentityReport:
    """Check one identity at one parameter point: it holds when its check's two sides compare equal.

    Unknown names and invalid parameters raise ValueError, and so do a
    ValueError or OverflowError raised in the check (a value the package
    cannot build).  Any other exception in the check, an ArithmeticError
    or ZeroDivisionError included, is folded into a failed report.
    """
    spec = _spec(identity_id)
    if set(params) != set(spec.arity):
        raise ValueError(f"{identity_id} takes parameters {list(spec.arity)}, got {sorted(params)}")
    params = {name: tuple(params[name]) if name == "lam" else params[name] for name in spec.arity}  # arity order
    reason = spec.why_invalid(**params)
    if reason is not None:
        raise ValueError(f"invalid parameters for {identity_id}: {reason}")
    return _run(spec, params)


def verify_grid(identity_id: str, grid: Mapping[str, Iterable[int]]) -> list[IdentityReport]:
    """Sweep an identity over parameter ranges, skipping invalid points.

    For partition-indexed identities the grid supplies ``k`` and every
    partition of each k is visited; a negative k has none.  Iteration order
    is the sorted grid order (partitions reverse lexicographic), so output
    is reproducible.  Each point is checked as ``verify`` checks it.  A grid
    with no valid point raises NoValidPoint (a ValueError) with the first
    point's reason, so that an empty sweep never reads as a passing one.
    """
    spec = _spec(identity_id)
    if spec.arity == ("lam",):
        if "k" not in grid:
            raise ValueError(f"{identity_id} needs a 'k' range of partition weights")
        points = ({"lam": lam} for k in grid["k"] if k >= 0 for lam in enum_partitions(k))
    else:
        missing = [axis for axis in spec.arity if axis not in grid]
        if missing:
            raise ValueError(f"{identity_id} needs ranges for {missing}")
        axes = [list(grid[axis]) for axis in spec.arity]
        points = (dict(zip(spec.arity, combo)) for combo in _cartesian(*axes))
    reports, first_reason = [], None
    for point in points:
        reason = spec.why_invalid(**point)
        if reason is None:
            reports.append(_run(spec, point))
        first_reason = first_reason or reason
    if not reports:
        raise NoValidPoint(f"no valid point for {identity_id}: {first_reason or 'the grid has no point'}")
    return reports


def default_grid(
    identity_id: str, *, n_max: int = 4, k_max: Optional[int] = None, s_max: int = 4
) -> dict[str, range]:
    """The standard verification ranges for one identity."""
    spec = _spec(identity_id)
    k_hi = spec.k_default_max if k_max is None else k_max
    weights = range(spec.k_min, k_hi + 1)  # k, or the partition weights of lam
    ranges = {"n": range(1, n_max + 1), "s": range(spec.s_min, s_max + 1), "k": weights, "lam": weights}
    return {axis.replace("lam", "k"): ranges[axis] for axis in spec.arity}
