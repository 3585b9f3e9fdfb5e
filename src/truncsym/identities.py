"""Mechanical verifier for the algebraic identity catalog.

Every entry in ``REGISTRY`` evaluates both sides of one identity from
scratch on concrete parameters and reports whether they match.  Checks
never assume each other's conclusions: convolution sums are recomputed
rather than routed through an already-verified equivalent form, so each
identity remains an independent probe of the constructors.  The
``conversion:<kind>`` entries check the closed forms that tie the
bisnomial triangles to ordinary and Gaussian binomials.

``verify`` runs a single point and returns an ``IdentityReport``;
``verify_grid`` sweeps parameter ranges in a deterministic order.  Checks
that divide by an aggregate first confirm the divisor is nonzero, and
checks whose coefficients live in a cyclotomic ring insist that every
aggregated coefficient reduces to a rational integer, raising
``ArithmeticError`` otherwise (surfaced as a failed report).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .bisnomial import bisnomial, gaussian, pq_bisnomial, pq_gaussian, q_bisnomial
from .exactalg import BiPoly, UniPoly
from .multipoly import MPoly, accumulate_product, collect, substitute_power
from .partitions import (
    Partition,
    enum_partitions,
    is_partition,
    multinomial,
    multiplicities,
)
from .symfun import E, H, P, classical, m_lambda, m_lambda_at_roots, product_over_partition


def _sign(m: int) -> int:
    return -1 if m % 2 else 1


def _describe(value: object) -> str:
    if isinstance(value, MPoly):
        if len(value.terms) <= 40:
            return str(value)
        blob = json.dumps(value.to_json(), sort_keys=True).encode()
        digest = hashlib.sha256(blob).hexdigest()[:12]
        return f"<{len(value.terms)} terms, degree {value.degree()}, sha256 {digest}>"
    return str(value)


@dataclass
class IdentityReport:
    """Outcome of checking one identity at one parameter point."""

    identity_id: str
    params: dict
    holds: bool
    lhs: str
    rhs: str
    elapsed: float

    def to_json(self, *, include_elapsed: bool = True) -> str:
        payload = {
            "identity_id": self.identity_id,
            "params": {key: self.params[key] for key in sorted(self.params)},
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if include_elapsed:
            payload["elapsed"] = round(self.elapsed, 6)
        return json.dumps(payload, separators=(", ", ": "))


@dataclass(frozen=True)
class IdentitySpec:
    name: str
    arity: tuple[str, ...]
    check: Callable[..., tuple[bool, object, object]]
    requires: Callable[..., Optional[str]]
    k_default_max: int = 8
    k_min: int = 0
    s_min: int = 1


# -- parameter validation ----------------------------------------------------


def _req_nks(k_min: int = 0, s_min: int = 1, avoid_k_mult_of_s: bool = False):
    def req(n: int, k: int, s: int) -> Optional[str]:
        if n < 1:
            return "n must be >= 1"
        if s < s_min:
            return f"s must be >= {s_min}"
        if k < k_min:
            return f"k must be >= {k_min}"
        if avoid_k_mult_of_s and k % s == 0:
            return "k must not be a multiple of s"
        return None

    return req


def _req_ks(k_min: int = 1, s_min: int = 1):
    def req(k: int, s: int) -> Optional[str]:
        if s < s_min:
            return f"s must be >= {s_min}"
        if k < k_min:
            return f"k must be >= {k_min}"
        return None

    return req


def _req_lam(weight_min: int, length_margin: int):
    def req(lam: Sequence[int]) -> Optional[str]:
        lam = tuple(lam)
        if not is_partition(lam):
            return f"not a partition: {lam}"
        k = sum(lam)
        if k < weight_min:
            return f"weight must be >= {weight_min}"
        if length_margin and len(lam) > k - length_margin:
            return f"length must be <= weight - {length_margin}"
        return None

    return req


# -- shared computations -----------------------------------------------------

_PAIR_CONV: dict = {}


def _pair_conv(kind: str, m: int, s: int, n: int) -> MPoly:
    """sum over a+b=m of F_a F_b with F = E or H, cached."""
    key = (kind, m, s, n)
    cached = _PAIR_CONV.get(key)
    if cached is not None:
        return cached
    F = E if kind == "E" else H
    acc: dict = {}
    for a in range(m + 1):
        Fa = F(a, s, n)
        if not Fa:
            continue
        Fb = F(m - a, s, n)
        if Fb:
            accumulate_product(acc, Fa, Fb)
    out = collect(n, acc)
    _PAIR_CONV[key] = out
    return out


def _roots_sum(k: int, s: int, basis: str, n: int) -> MPoly:
    """sum over lam |- k, len(lam) <= s of m_lam(roots) * basis_lam(x).

    The cyclotomic coefficients are aggregated per monomial and must each
    reduce to a rational integer.
    """
    acc: dict = {}
    for lam in enum_partitions(k, max_length=s):
        c = m_lambda_at_roots(lam, s)
        if c:
            base = product_over_partition(basis, lam, None, n)
            accumulate_product(acc, MPoly.constant(n, c), base)
    reduced: dict = {}
    for key, v in acc.items():
        iv = v.as_integer()
        if iv is None:
            raise ArithmeticError(f"aggregated coefficient {v} is not a rational integer")
        if iv:
            reduced[key] = iv
    return MPoly._trusted(n, reduced)


def _conv_sum_h(n: int, k: int, s: int) -> MPoly:
    """sum_j (-1)^(s*j) h_j(x^s) e_(k-s*j)(x)."""
    acc: dict = {}
    for j in range(k // s + 1):
        e_part = classical("e", k - s * j, n)
        if not e_part:
            continue
        h_sub = substitute_power(classical("h", j, n), s)
        accumulate_product(acc, h_sub, e_part, _sign(s * j))
    return collect(n, acc)


def _conv_sum_e(n: int, k: int, s: int) -> MPoly:
    """sum_j (-1)^j e_j(x^s) h_(k-s*j)(x)."""
    acc: dict = {}
    for j in range(k // s + 1):
        e_sub = classical("e", j, n)
        if not e_sub:
            break
        accumulate_product(acc, substitute_power(e_sub, s), classical("h", k - s * j, n), _sign(j))
    return collect(n, acc)


def _cycle_index_weight(t: Mapping[int, int]) -> int:
    """prod_i i^(t_i) * t_i!."""
    out = 1
    for i, ti in t.items():
        out *= i**ti * factorial(ti)
    return out


# -- checks ------------------------------------------------------------------


def _chk_ortho(n: int, k: int, s: int):
    acc: dict = {}
    for j in range(k + 1):
        Ej = E(j, s, n)
        if Ej:
            accumulate_product(acc, Ej, H(k - j, s, n), _sign(j))
    lhs = collect(n, acc)
    rhs = MPoly.one(n) if k == 0 else MPoly.zero(n)
    return lhs == rhs, lhs, rhs


def _chk_inv_H(n: int, k: int, s: int):
    total = MPoly.zero(n)
    for lam in enum_partitions(k):
        coef = _sign(k + len(lam)) * multinomial(multiplicities(lam).values())
        total = total + coef * product_over_partition("E", lam, s, n)
    lhs = H(k, s, n)
    return lhs == total, lhs, total


def _chk_inv_E(n: int, k: int, s: int):
    total = MPoly.zero(n)
    for lam in enum_partitions(k):
        coef = _sign(k + len(lam)) * multinomial(multiplicities(lam).values())
        total = total + coef * product_over_partition("H", lam, s, n)
    lhs = E(k, s, n)
    return lhs == total, lhs, total


def _chk_newton_E(n: int, k: int, s: int):
    lhs = k * E(k, s, n)
    acc: dict = {}
    for j in range(1, k + 1):
        Ej = E(k - j, s, n)
        if Ej:
            accumulate_product(acc, P(j, s, n), Ej, _sign(j - 1))
    rhs = collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_newton_H(n: int, k: int, s: int):
    lhs = k * H(k, s, n)
    acc: dict = {}
    for j in range(1, k + 1):
        accumulate_product(acc, P(j, s, n), H(k - j, s, n))
    rhs = collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_newton_P(n: int, k: int, s: int):
    lhs = P(k, s, n)
    acc: dict = {}
    for j in range(1, k + 1):
        Ej = E(j, s, n)
        if Ej:
            accumulate_product(acc, Ej, H(k - j, s, n), _sign(j - 1) * j)
    rhs = collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_cubic_E(n: int, k: int, s: int):
    lhs = (2 * k) * E(k, s, n)
    acc: dict = {}
    for m in range(1, k + 1):
        conv = _pair_conv("E", m, s, n)
        if not conv:
            continue
        Hk3 = H(k - m, s, n)
        accumulate_product(acc, conv, Hk3, _sign(k - m) * m)
    rhs = collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_cubic_H(n: int, k: int, s: int):
    lhs = k * H(k, s, n)
    acc: dict = {}
    for m in range(k):
        k3 = k - m
        Ek3 = E(k3, s, n)
        if not Ek3:
            continue
        accumulate_product(acc, _pair_conv("H", m, s, n), Ek3, _sign(k3 - 1) * k3)
    rhs = collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_pk_from_E(n: int, k: int, s: int):
    num = MPoly.zero(n)
    for lam in enum_partitions(k):
        length = len(lam)
        coef = Fraction(_sign(length), length) * multinomial(multiplicities(lam).values())
        num = num + coef * product_over_partition("E", lam, s, n)
    den = Fraction(0)
    for lam in enum_partitions(k, max_part=s):
        length = len(lam)
        den += Fraction(_sign(length), length) * multinomial(multiplicities(lam).values())
    if den == 0:
        return False, "zero denominator", _describe(num)
    lhs = classical("p", k, n)
    rhs = (1 / den) * num
    return rhs == lhs, lhs, rhs


def _chk_pk_from_H(n: int, k: int, s: int):
    num = MPoly.zero(n)
    for lam in enum_partitions(k):
        length = len(lam)
        coef = Fraction(_sign(1 + length), length) * multinomial(multiplicities(lam).values())
        num = num + coef * product_over_partition("H", lam, s, n)
    den = Fraction(0)
    for lam in enum_partitions(k, max_part=s):
        length = len(lam)
        den += Fraction(_sign(k + length), length) * multinomial(multiplicities(lam).values())
    if den == 0:
        return False, "zero denominator", _describe(num)
    lhs = classical("p", k, n)
    rhs = (1 / den) * num
    return rhs == lhs, lhs, rhs


def _chk_P_from_E(n: int, k: int, s: int):
    lhs = P(k, s, n)
    rhs = MPoly.zero(n)
    for lam in enum_partitions(k):
        length = len(lam)
        coef = Fraction(_sign(k + length) * k, length) * multinomial(multiplicities(lam).values())
        rhs = rhs + coef * product_over_partition("E", lam, s, n)
    return rhs == lhs, lhs, rhs


def _chk_P_from_H(n: int, k: int, s: int):
    lhs = P(k, s, n)
    rhs = MPoly.zero(n)
    for lam in enum_partitions(k):
        length = len(lam)
        coef = Fraction(_sign(1 + length) * k, length) * multinomial(multiplicities(lam).values())
        rhs = rhs + coef * product_over_partition("H", lam, s, n)
    return rhs == lhs, lhs, rhs


def _chk_scalar_c(k: int, s: int):
    total = Fraction(0)
    for lam in enum_partitions(k, max_part=s):
        length = len(lam)
        total += Fraction(_sign(length) * k, length) * multinomial(multiplicities(lam).values())
    expected = Fraction(s) if k % (s + 1) == 0 else Fraction(-1)
    return total == expected, total, expected


def _chk_H_from_P(n: int, k: int, s: int):
    lhs = H(k, s, n)
    rhs = MPoly.zero(n)
    for lam in enum_partitions(k):
        t = multiplicities(lam)
        coef = Fraction(1, _cycle_index_weight(t))
        rhs = rhs + coef * product_over_partition("P", lam, s, n)
    return rhs == lhs, lhs, rhs


def _chk_E_from_P(n: int, k: int, s: int):
    lhs = E(k, s, n)
    rhs = MPoly.zero(n)
    for lam in enum_partitions(k):
        t = multiplicities(lam)
        coef = Fraction(_sign(k + len(lam)), _cycle_index_weight(t))
        rhs = rhs + coef * product_over_partition("P", lam, s, n)
    return rhs == lhs, lhs, rhs


def _chk_rec_H(n: int, k: int, s: int):
    lhs = H(k, s, n)
    xn = MPoly.variable(n, n)
    rhs = (
        _sign(s + 1) * (xn ** (s + 1) * H(k - s - 1, s, n))
        + H(k, s, n - 1).pad(n)
        + xn * H(k - 1, s, n - 1).pad(n)
    )
    return lhs == rhs, lhs, rhs


def _chk_rec_E(n: int, k: int, s: int):
    lhs = E(k, s, n)
    xn = MPoly.variable(n, n)
    rhs = (
        xn * E(k - 1, s, n)
        + E(k, s, n - 1).pad(n)
        - xn ** (s + 1) * E(k - s - 1, s, n - 1).pad(n)
    )
    return lhs == rhs, lhs, rhs


def _chk_roots_H(n: int, k: int, s: int):
    lhs = H(k, s, n)
    rhs = _sign(k) * _roots_sum(k, s, "h", n)
    return lhs == rhs, lhs, rhs


def _chk_roots_E(n: int, k: int, s: int):
    lhs = E(k, s, n)
    rhs = _sign(k) * _roots_sum(k, s, "e", n)
    return lhs == rhs, lhs, rhs


def _chk_conj_bridge(n: int, k: int, s: int):
    lhs = MPoly.zero(n)
    for lam in enum_partitions(k, max_part=s):
        lhs = lhs + m_lambda(lam, n)
    rhs = _sign(k) * _roots_sum(k, s, "e", n)
    return lhs == rhs, lhs, rhs


def _chk_conv_H(n: int, k: int, s: int):
    lhs = H(k, s - 1, n)
    rhs = _conv_sum_h(n, k, s)
    return lhs == rhs, lhs, rhs


def _chk_conv_E(n: int, k: int, s: int):
    lhs = E(k, s - 1, n)
    rhs = _conv_sum_e(n, k, s)
    return lhs == rhs, lhs, rhs


def _chk_conv_roots_h(n: int, k: int, s: int):
    lhs = _conv_sum_h(n, k, s)
    rhs = _sign(k) * _roots_sum(k, s - 1, "h", n)
    return lhs == rhs, lhs, rhs


def _chk_conv_roots_e(n: int, k: int, s: int):
    lhs = _conv_sum_e(n, k, s)
    rhs = _sign(k) * _roots_sum(k, s - 1, "e", n)
    return lhs == rhs, lhs, rhs


def _chk_mroots_closed_k1(lam: Partition):
    k = sum(lam)
    lhs = m_lambda_at_roots(lam, k)
    rhs = _sign(len(lam)) * multinomial(multiplicities(lam).values())
    return lhs == rhs, lhs, rhs


def _chk_mroots_closed_k(lam: Partition):
    k = sum(lam)
    length = len(lam)
    lhs = m_lambda_at_roots(lam, k - 1)
    rhs = _sign(length) * (1 - Fraction(k, length)) * multinomial(multiplicities(lam).values())
    iv = lhs.as_integer()
    holds = iv is not None and Fraction(iv) == rhs
    return holds, lhs, rhs


def _chk_mroots_closed_km1(lam: Partition):
    k = sum(lam)
    length = len(lam)
    t = multiplicities(lam)
    lhs = m_lambda_at_roots(lam, k - 2)
    base = multinomial(t.values())
    t1 = t.get(1, 0)
    if t1 == 0:
        rhs = Fraction(_sign(length) * base)
    else:
        rhs = _sign(length) * (1 - Fraction(t1 * (k - 1), length * length - length)) * base
    iv = lhs.as_integer()
    holds = iv is not None and Fraction(iv) == rhs
    return holds, lhs, rhs


def _chk_powsub_h(n: int, k: int, s: int):
    lhs = substitute_power(classical("h", k, n), s)
    ks = k * s
    acc: dict = {}
    for j in range(ks + 1):
        Hj = H(ks - j, s - 1, n)
        if Hj:
            accumulate_product(acc, classical("h", j, n), Hj, _sign(j))
    rhs = _sign(ks) * collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_powsub_e(n: int, k: int, s: int):
    lhs = substitute_power(classical("e", k, n), s)
    ks = k * s
    acc: dict = {}
    for j in range(min(n, ks) + 1):
        Ej = E(ks - j, s - 1, n)
        if Ej:
            accumulate_product(acc, classical("e", j, n), Ej, _sign(j))
    rhs = _sign(k) * collect(n, acc)
    return lhs == rhs, lhs, rhs


def _chk_vanish_h(n: int, k: int, s: int):
    acc: dict = {}
    for j in range(k + 1):
        Hj = H(k - j, s - 1, n)
        if Hj:
            accumulate_product(acc, classical("h", j, n), Hj, _sign(j))
    lhs = collect(n, acc)
    rhs = MPoly.zero(n)
    return lhs == rhs, lhs, rhs


def _chk_vanish_e(n: int, k: int, s: int):
    acc: dict = {}
    for j in range(min(n, k) + 1):
        Ej = E(k - j, s - 1, n)
        if Ej:
            accumulate_product(acc, classical("e", j, n), Ej, _sign(j))
    lhs = collect(n, acc)
    rhs = MPoly.zero(n)
    return lhs == rhs, lhs, rhs


def _chk_mono_H(n: int, k: int, s: int):
    # H is built as this orbit sum, so rebuild it from E: H_m = sum_j (-1)^(j+1) E_j H_(m-j)
    rebuilt = [MPoly.one(n)]
    for top in range(1, k + 1):
        acc: dict = {}
        for j in range(1, min(top, s * n) + 1):
            accumulate_product(acc, E(j, s, n), rebuilt[top - j], _sign(j + 1))
        rebuilt.append(collect(n, acc))
    lhs = rebuilt[k]
    m = s + 1
    rhs = MPoly.zero(n)
    for lam in enum_partitions(k, mod01=m):
        residue = sum(part % m for part in lam)
        rhs = rhs + _sign(k + residue) * m_lambda(lam, n)
    return lhs == rhs, lhs, rhs


def _chk_mono_bridge(n: int, k: int, s: int):
    m = s + 1
    lhs = MPoly.zero(n)
    for lam in enum_partitions(k, mod01=m):
        residue = sum(part % m for part in lam)
        lhs = lhs + _sign(residue) * m_lambda(lam, n)
    rhs = _roots_sum(k, s, "h", n)
    return lhs == rhs, lhs, rhs


# Conversions between the triangles of ``bisnomial``: s is the step of the
# identity (s >= 2), and the truncated triangle involved has depth s-1.


def _chk_conversion_plain(n: int, k: int, s: int):
    lhs = bisnomial(n, k, s - 1)
    rhs = sum(
        (-1) ** j * comb(n, j) * comb(n + k - s * j - 1, k - s * j)
        for j in range(k // s + 1)
    )
    return lhs == rhs, lhs, rhs


def _chk_conversion_q(n: int, k: int, s: int):
    lhs = q_bisnomial(n, k, s - 1)
    rhs = UniPoly()
    for j in range(k // s + 1):
        term = (
            UniPoly.term((-1) ** j, s * comb(j, 2))
            * gaussian(n, j).scale_exponents(s)
            * gaussian(n + k - s * j - 1, k - s * j)
        )
        rhs = rhs + term
    return lhs == rhs, lhs, rhs


def _chk_conversion_pq(n: int, k: int, s: int):
    lhs = pq_bisnomial(n, k, s - 1)
    rhs = BiPoly()
    for j in range(k // s + 1):
        e = s * comb(j, 2)
        term = (
            BiPoly.term((-1) ** j, e, e)
            * pq_gaussian(n, j).scale_exponents(s)
            * pq_gaussian(n + k - s * j - 1, k - s * j)
        )
        rhs = rhs + term
    return lhs == rhs, lhs, rhs


def _chk_conversion_binom_recovery(n: int, k: int, s: int):
    lhs = comb(n, k)
    rhs = sum(
        (-1) ** (k + j) * comb(n, j) * bisnomial(n, k * s - j, s - 1)
        for j in range(k * s + 1)
    )
    return lhs == rhs, lhs, rhs


def _chk_conversion_qs_recovery(n: int, k: int, s: int):
    # multiplied through to stay in Z[q]
    lhs = UniPoly.term(1, s * comb(k, 2)) * gaussian(n, k).scale_exponents(s)
    rhs = UniPoly()
    for j in range(k * s + 1):
        term = (
            UniPoly.term((-1) ** (k + j), comb(j, 2))
            * gaussian(n, j)
            * q_bisnomial(n, k * s - j, s - 1)
        )
        rhs = rhs + term
    return lhs == rhs, lhs, rhs


# -- registry ------------------------------------------------------------------

_NKS = ("n", "k", "s")
_SNK = ("s", "n", "k")  # s outermost: the line order of verify --id conversions


def _spec(
    name: str,
    check: Callable,
    *,
    arity: tuple[str, ...] = _NKS,
    requires: Optional[Callable] = None,
    k_default_max: int = 8,
    k_min: int = 0,
    s_min: int = 1,
    avoid_k_mult_of_s: bool = False,
) -> IdentitySpec:
    if requires is None:
        requires = _req_nks(k_min=k_min, s_min=s_min, avoid_k_mult_of_s=avoid_k_mult_of_s)
    return IdentitySpec(
        name=name,
        arity=arity,
        check=check,
        requires=requires,
        k_default_max=k_default_max,
        k_min=k_min,
        s_min=s_min,
    )


REGISTRY: dict[str, IdentitySpec] = {
    spec.name: spec
    for spec in [
        _spec("ortho", _chk_ortho),
        _spec("inv_H", _chk_inv_H, k_default_max=6),
        _spec("inv_E", _chk_inv_E, k_default_max=6),
        _spec("newton_E", _chk_newton_E, k_min=1),
        _spec("newton_H", _chk_newton_H, k_min=1),
        _spec("newton_P", _chk_newton_P, k_min=1),
        _spec("cubic_E", _chk_cubic_E, k_min=1),
        _spec("cubic_H", _chk_cubic_H, k_min=1),
        _spec("pk_from_E", _chk_pk_from_E, k_min=1, k_default_max=6),
        _spec("pk_from_H", _chk_pk_from_H, k_min=1, k_default_max=6),
        _spec("P_from_E", _chk_P_from_E, k_min=1, k_default_max=6),
        _spec("P_from_H", _chk_P_from_H, k_min=1, k_default_max=6),
        _spec("scalar_c", _chk_scalar_c, arity=("k", "s"), requires=_req_ks(), k_min=1),
        _spec("H_from_P", _chk_H_from_P, k_min=1, k_default_max=6),
        _spec("E_from_P", _chk_E_from_P, k_min=1, k_default_max=6),
        _spec("rec_H", _chk_rec_H),
        _spec("rec_E", _chk_rec_E),
        _spec("roots_H", _chk_roots_H),
        _spec("roots_E", _chk_roots_E),
        _spec("conj_bridge", _chk_conj_bridge),
        _spec("conv_H", _chk_conv_H, s_min=2),
        _spec("conv_E", _chk_conv_E, s_min=2),
        _spec("conv_roots_h", _chk_conv_roots_h, s_min=2),
        _spec("conv_roots_e", _chk_conv_roots_e, s_min=2),
        _spec("mroots_closed_k1", _chk_mroots_closed_k1, arity=("lam",), requires=_req_lam(1, 0), k_min=1),
        _spec("mroots_closed_k", _chk_mroots_closed_k, arity=("lam",), requires=_req_lam(2, 1), k_min=2),
        _spec("mroots_closed_km1", _chk_mroots_closed_km1, arity=("lam",), requires=_req_lam(3, 2), k_min=3),
        _spec("powsub_h", _chk_powsub_h, k_min=1, s_min=2),
        _spec("powsub_e", _chk_powsub_e, k_min=1, s_min=2),
        _spec("vanish_h", _chk_vanish_h, k_min=1, s_min=2, avoid_k_mult_of_s=True),
        _spec("vanish_e", _chk_vanish_e, k_min=1, s_min=2, avoid_k_mult_of_s=True),
        _spec("mono_H", _chk_mono_H),
        _spec("mono_bridge", _chk_mono_bridge),
        _spec("conversion:plain", _chk_conversion_plain, arity=_SNK, k_default_max=6, s_min=2),
        _spec("conversion:q", _chk_conversion_q, arity=_SNK, k_default_max=6, s_min=2),
        _spec("conversion:pq", _chk_conversion_pq, arity=_SNK, k_default_max=6, s_min=2),
        _spec("conversion:binom_recovery", _chk_conversion_binom_recovery, arity=_SNK, k_default_max=6, s_min=2),
        _spec("conversion:qs_recovery", _chk_conversion_qs_recovery, arity=_SNK, k_default_max=6, s_min=2),
    ]
}


def list_identities() -> list[str]:
    return list(REGISTRY)


def verify(identity_id: str, **params) -> IdentityReport:
    """Check one identity at one parameter point.

    Unknown names and invalid parameters raise ValueError; an exception
    inside the check itself is folded into a failed report.
    """
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise ValueError(f"unknown identity: {identity_id!r}")
    if set(params) != set(spec.arity):
        raise ValueError(
            f"{identity_id} takes parameters {list(spec.arity)}, got {sorted(params)}"
        )
    if "lam" in params:
        params = dict(params, lam=tuple(params["lam"]))
    reason = spec.requires(**params)
    if reason is not None:
        raise ValueError(f"invalid parameters for {identity_id}: {reason}")
    start = time.perf_counter()
    try:
        holds, lhs, rhs = spec.check(**params)
        lhs_text, rhs_text = _describe(lhs), _describe(rhs)
    except Exception as exc:  # fold per-point failures into the report
        holds, lhs_text, rhs_text = False, f"error: {type(exc).__name__}: {exc}", ""
    elapsed = time.perf_counter() - start
    out_params = {
        name: (list(params[name]) if name == "lam" else params[name]) for name in spec.arity
    }
    return IdentityReport(identity_id, out_params, bool(holds), lhs_text, rhs_text, elapsed)


def verify_grid(identity_id: str, grid: Mapping[str, Iterable[int]]) -> list[IdentityReport]:
    """Sweep an identity over parameter ranges, skipping invalid points.

    For partition-indexed identities the grid supplies ``k`` and every
    partition of each k is visited.  Iteration order is the sorted grid
    order (partitions reverse lexicographic), so output is reproducible.
    """
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise ValueError(f"unknown identity: {identity_id!r}")
    reports = []
    if spec.arity == ("lam",):
        if "k" not in grid:
            raise ValueError(f"{identity_id} needs a 'k' range of partition weights")
        for k in grid["k"]:
            for lam in enum_partitions(k):
                if spec.requires(lam=lam) is None:
                    reports.append(verify(identity_id, lam=lam))
        return reports
    missing = [axis for axis in spec.arity if axis not in grid]
    if missing:
        raise ValueError(f"{identity_id} needs ranges for {missing}")
    axes = [list(grid[axis]) for axis in spec.arity]
    for combo in _cartesian(*axes):
        point = dict(zip(spec.arity, combo))
        if spec.requires(**point) is None:
            reports.append(verify(identity_id, **point))
    return reports


def default_grid(
    identity_id: str, *, n_max: int = 4, k_max: Optional[int] = None, s_max: int = 4
) -> dict[str, range]:
    """The standard verification ranges for one identity."""
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise ValueError(f"unknown identity: {identity_id!r}")
    k_hi = spec.k_default_max if k_max is None else k_max
    grid: dict[str, range] = {}
    for axis in spec.arity:
        if axis == "n":
            grid["n"] = range(1, n_max + 1)
        elif axis == "k":
            grid["k"] = range(spec.k_min, k_hi + 1)
        elif axis == "s":
            grid["s"] = range(spec.s_min, s_max + 1)
        elif axis == "lam":
            grid["k"] = range(spec.k_min, k_hi + 1)
    return grid
