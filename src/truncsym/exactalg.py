"""Exact scalar values: polynomials in q and in p, q.

* ``UniPoly``, a dense integer polynomial in q, carries the q-analogues,
  and ``BiPoly``, a homogenized ``UniPoly``, the (p,q)-analogues.

Multivariate coefficients are plain ``int`` or ``fractions.Fraction``
(see :mod:`truncsym.multipoly`), and m_lambda at the roots of unity is an
``int`` (see :mod:`truncsym.symfun`); nothing here is one.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Optional, Sequence, Union


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending coefficients of a product of dense polynomials: UniPoly's multiply."""
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


_POWER_TEXTS: dict = {}  # var -> [var^e for e = 0, 1, ...]; kept, it halves the render time of q and pq table cells


def _power_text(var: str, e: int) -> str:
    """var^e as a monomial's text: '' for e = 0, var for e = 1."""
    return f"{var}^{e}" if e > 1 else var if e else ""


def _powers(var: str, top: int) -> list[str]:
    """Texts of var^e for e = 0 .. top at least, kept for the next value in var."""
    texts = _POWER_TEXTS.setdefault(var, [])
    texts.extend([_power_text(var, e) for e in range(len(texts), top + 1)])
    return texts


def _render_terms(coeffs: Iterable, monos: Iterable[str]) -> str:
    """'a + b - c' from coefficients and their monomial texts, in one pass; every ring renders through it.

    Zero coefficients are skipped, and a coefficient 1 or -1 before a monomial
    shows as its sign alone.  No ring's text holds '+ -', so a term whose text
    leads with '-' joins with ' - ' by one replace over the joined text.
    """
    terms = [
        (mono if c == 1 else "-" + mono if c == -1 else f"{c}*{mono}") if mono else str(c)
        for c, mono in zip(coeffs, monos) if c
    ]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


class UniPoly:
    """Integer polynomial in one variable q, dense ascending coefficients.

    Mixed arithmetic with ``int`` is supported; an operand of another type is refused.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[int, list[int], tuple[int, ...]] = ()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(coeffs)
        top = len(coeffs)
        while top and not coeffs[top - 1]:  # trailing zeros, cut in one slice
            top -= 1
        object.__setattr__(self, "coeffs", coeffs[:top])

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

    @staticmethod
    def _coerce(other: object) -> Optional["UniPoly"]:
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
        if isinstance(other, (UniPoly, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "UniPoly":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "UniPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UniPoly(_convolve(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UniPoly(1))

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)  # the top coefficient is nonzero

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

    def scale_exponents(self, s: int) -> "BiPoly":
        """Substitute p -> p^s and q -> q^s."""
        return BiPoly.homogenize(self._q.scale_exponents(s), s * self.degree)

    def __repr__(self) -> str:
        return f"BiPoly({dict(sorted(self.terms.items()))})"

    def __str__(self) -> str:
        d, coeffs = self.degree, self._q.coeffs
        qs = _powers("q", len(coeffs) - 1)
        js = [j for j in range(len(coeffs) - 1, -1, -1) if coeffs[j]]  # the terms present, ascending p-exponent
        monos = [
            f"p^{d - j}*{qs[j]}" if 0 < j < d - 1  # both powers shown, p's exponent above 1
            else "*".join(filter(None, (_power_text("p", d - j), qs[j])))
            for j in js
        ]
        return _render_terms([coeffs[j] for j in js], monos)

    def to_json(self) -> list[list]:
        d, coeffs = self.degree, self._q.coeffs
        return [[d - j, j, str(coeffs[j])] for j in range(len(coeffs) - 1, -1, -1) if coeffs[j]]
