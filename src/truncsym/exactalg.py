"""Exact scalar arithmetic: cyclotomic integers and small polynomial rings.

Coefficient domains used throughout the package:

* plain Python ``int`` (arbitrary precision),
* ``fractions.Fraction`` for the few identities that divide,
* ``CycInt`` for values living in the ring of integers of a cyclotomic field,
* ``UniPoly`` for q-analogues and ``BiPoly``, a homogenized ``UniPoly``, for
  (p,q)-analogues.

``CycInt`` models Z[x]/Phi_m(x) where Phi_m is the m-th cyclotomic
polynomial, so x is a primitive m-th root of unity.  Working modulo Phi_m
(rather than modulo 1 + x + ... + x^(m-1)) guarantees that any value fixed
by the Galois action, e.g. a power sum over all m-th roots other than 1,
reduces to a literal integer for every order, composite orders included.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Optional, Sequence, Union


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials (ascending coeffs), remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, d in enumerate(den):
            num[i - dd + j] -= c * d
    if any(num):
        raise ArithmeticError("division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m(x), ascending degree.

    Phi_1 = x - 1 and Phi_m = (x^m - 1) / prod of Phi_d over proper divisors
    d of m; the division is exact over the integers.
    """
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _exact_div(num, cyclotomic_coeffs(d))
    return tuple(num)


def _reduce_mod_cyclotomic(order: int, coeffs: list[int]) -> tuple[int, ...]:
    phi = cyclotomic_coeffs(order)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = 0
        for j in range(deg):
            coeffs[i - deg + j] -= c * phi[j]
    coeffs = coeffs[:deg]
    coeffs.extend([0] * (deg - len(coeffs)))
    return tuple(coeffs)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending coefficients of a product of dense polynomials: CycInt's and UniPoly's multiply."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _power(x, n: int, one):
    """x**n by repeated squaring from the identity one; shared by every ring here."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


_POWER_TEXTS: dict = {}  # (var, tail) -> [var^e + tail for e = 0, 1, ...], '' for e = 0


def _powers(var: str, top: int, tail: str = "") -> list[str]:
    """Texts of var^e followed by tail for e = 0 .. top at least: '' for e = 0, var for e = 1."""
    texts = _POWER_TEXTS.setdefault((var, tail), ["", var + tail])
    texts.extend([f"{var}^{e}{tail}" for e in range(len(texts), top + 1)])
    return texts


def _render_terms(coeffs: Iterable, monos: Iterable[str], coeff_text: Callable = str) -> str:
    """'a + b - c' from coefficients and their monomial texts, in one pass; every ring renders through it.

    Zero coefficients are skipped, and a coefficient 1 or -1 before a monomial
    shows as its sign alone.  No ring's text holds '+ -', so a term whose text
    leads with '-' joins with ' - ' by one replace over the joined text.
    """
    terms = [
        (mono if c == 1 else "-" + mono if c == -1 else f"{coeff_text(c)}*{mono}") if mono else coeff_text(c)
        for c, mono in zip(coeffs, monos) if c
    ]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


class CycInt:
    """Element of Z[x]/Phi_order(x), stored on the basis 1, x, ..., x^(phi(order)-1).

    Mixed arithmetic with ``int`` is supported; two ``CycInt`` operands must
    share the same order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Union[int, list[int], tuple[int, ...]] = 0):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _reduce_mod_cyclotomic(order, list(coeffs)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycInt is immutable")

    @classmethod
    def root(cls, order: int, exponent: int = 1) -> "CycInt":
        """x^exponent as an element of the order-``order`` ring."""
        e = exponent % order
        return cls(order, [0] * e + [1])

    def _coerce(self, other: object) -> Optional["CycInt"]:
        if isinstance(other, CycInt):
            if other.order != self.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, int):
            return CycInt(self.order, other)
        return None

    def __add__(self, other: object) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, [-a for a in self.coeffs])

    def __sub__(self, other: object) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other: object) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.order, _convolve(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycInt":
        return _power(self, n, CycInt(self.order, 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycInt):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _reduce_mod_cyclotomic(self.order, [other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def as_integer(self) -> Optional[int]:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"CycInt(order={self.order}, coeffs={list(self.coeffs)})"

    def __str__(self) -> str:
        return _render_terms(self.coeffs, _powers("x", len(self.coeffs) - 1))

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def cyc_root_power(s: int, j: int, e: int) -> CycInt:
    """(j-th primitive-basis root of order s+1) raised to the e-th power.

    The root is x^j for the class of x in Z[x]/Phi_{s+1}, 1 <= j <= s.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 1 <= j <= s:
        raise ValueError(f"j must lie in 1..{s}, got {j}")
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return CycInt.root(s + 1, j * e)


def cyc_power_sum(s: int, k: int) -> CycInt:
    """Sum of k-th powers of all order-(s+1) roots of unity except 1.

    Always collapses to an integer: s when (s+1) | k, otherwise -1.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum((cyc_root_power(s, j, k) for j in range(1, s + 1)), CycInt(s + 1, 0))


class UniPoly:
    """Integer polynomial in one variable q, dense ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[int, list[int], tuple[int, ...]] = ()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def term(cls, coeff: int, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return cls([0] * exponent + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def _coerce(self, other: object) -> Optional["UniPoly"]:
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, int):
            return UniPoly(other)
        return None

    def __add__(self, other: object) -> "UniPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly([*map(add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: object) -> "UniPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "UniPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "UniPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UniPoly(_convolve(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UniPoly(1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == UniPoly(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def scale_exponents(self, s: int) -> "UniPoly":
        """Substitute q -> q^s."""
        if s < 1:
            raise ValueError("scale factor must be >= 1")
        out = [0] * (s * self.degree + 1)  # empty for the zero polynomial
        out[::s] = self.coeffs
        return UniPoly(out)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return _render_terms(self.coeffs, _powers("q", len(self.coeffs) - 1))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


class BiPoly:
    """Homogeneous integer polynomial in p and q: p^degree * u(q/p) for a UniPoly u.

    The coefficient of q^j in u is that of p^(degree-j) q^j.  Every value the
    package builds is homogeneous (a homogenized q-polynomial or a
    ``pq-grid`` image), so the ring operations are those of ``UniPoly``.
    The zero polynomial has degree 0.
    """

    __slots__ = ("degree", "_q")

    def __init__(self, terms: Union[int, dict] = 0):
        """From an int or a {(p_exp, q_exp): coeff} dict whose terms share one total degree."""
        if isinstance(terms, int):
            terms = {(0, 0): terms}
        out = BiPoly.homogenize(UniPoly(), 0)
        for (i, j), c in terms.items():
            out = out + BiPoly.term(c, i, j)
        object.__setattr__(self, "degree", out.degree)
        object.__setattr__(self, "_q", out._q)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def homogenize(cls, u: UniPoly, degree: int) -> "BiPoly":
        """p^degree * u(q/p): the coefficient of q^j moves to p^(degree-j) q^j.

        A zero u gives zero at any degree, a negative one included.
        """
        if u and u.degree > degree:
            raise ValueError(f"a q-polynomial of degree {u.degree} has no homogenization to {degree}")
        self = object.__new__(cls)
        object.__setattr__(self, "degree", degree if u else 0)
        object.__setattr__(self, "_q", u)
        return self

    @classmethod
    def term(cls, coeff: int, p_exp: int, q_exp: int) -> "BiPoly":
        return cls.homogenize(UniPoly.term(coeff, q_exp), p_exp + q_exp)

    @property
    def terms(self) -> dict:
        """{(p_exp, q_exp): coeff} for the nonzero coefficients."""
        return {(self.degree - j, j): c for j, c in enumerate(self._q.coeffs) if c}

    def __add__(self, other: object) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self and other and self.degree != other.degree:
            raise ValueError(f"a BiPoly is homogeneous: degrees {self.degree} and {other.degree} do not add")
        return BiPoly.homogenize(self._q + other._q, self.degree if self else other.degree)

    def __mul__(self, other: object) -> "BiPoly":
        if isinstance(other, int):
            return BiPoly.homogenize(self._q * other, self.degree)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return BiPoly.homogenize(self._q * other._q, self.degree + other.degree)

    __rmul__ = __mul__

    def __neg__(self) -> "BiPoly":
        return self * -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = BiPoly(other)
        if isinstance(other, BiPoly):
            return self.degree == other.degree and self._q == other._q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.degree, self._q))

    def __bool__(self) -> bool:
        return bool(self._q)

    def __call__(self, p: int, q: int) -> int:
        return UniPoly([c * p ** (self.degree - j) for j, c in enumerate(self._q.coeffs)])(q)

    def at_p1(self) -> UniPoly:
        """Substitute p = 1, leaving a polynomial in q."""
        return self._q

    def scale_exponents(self, s: int) -> "BiPoly":
        """Substitute p -> p^s and q -> q^s."""
        return BiPoly.homogenize(self._q.scale_exponents(s), s * self.degree)

    def __repr__(self) -> str:
        return f"BiPoly({dict(sorted(self.terms.items()))})"

    def __str__(self) -> str:
        d, coeffs = self.degree, self._q.coeffs  # ascending p-exponent: descending j
        stars, qs = _powers("p", d, "*"), _powers("q", len(coeffs) - 1)
        monos = [stars[d - j] + qs[j] for j in range(len(coeffs) - 1, 0, -1)]
        monos.append(_powers("p", d)[d])
        return _render_terms(coeffs[::-1], monos)

    def to_json(self) -> list[list]:
        d, coeffs = self.degree, self._q.coeffs
        return [[d - j, j, str(coeffs[j])] for j in range(len(coeffs) - 1, -1, -1) if coeffs[j]]
