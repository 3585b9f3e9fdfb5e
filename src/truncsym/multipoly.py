"""Sparse multivariate polynomials, their specializations and a symmetry test.

``MPoly`` is a sparse polynomial in variables x1..xn over any of the exact
coefficient domains from :mod:`truncsym.exactalg` (or plain ``int`` /
``fractions.Fraction``).  A term is stored under a packed exponent: one int
holding the exponent of x_i in bits 32(i-1) .. 32i-1.  Every stored exponent
is below 2**31, so two keys add without a carry between fields: a product is
one int add per pair of terms (one per term with a one-term operand or the
x_i^j of ``accumulate_shift``), checked once for an exponent that reached
2**31 (``OverflowError``, never a wrapped monomial), and a pad to more
variables keeps every key.  As 2**32 = 1 mod 2**32 - 1, a key mod 2**32 - 1
is its degree while no field reaches 2**(32 - bit_length(n-1)) (else it is
unpacked and summed); ``is_symmetric`` swaps adjacent fields with masks.
Exponent tuples appear only at the API edge: ``terms`` is a tuple-keyed view
unpacked on demand, and the constructor refuses an exponent of 2**31 or more.

Canonical term order for serialization and iteration is graded
lexicographic: total degree first, then exponent tuple.  Rendering via
``str`` groups terms the way expansions are conventionally written (blocks
of monomials sharing an exponent multiset, largest block first), which is
cosmetic only.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Optional, Union

from .exactalg import BiPoly, CycInt, UniPoly, _power, _render_terms

Coeff = Union[int, Fraction, CycInt, UniPoly, BiPoly]
Monomial = tuple[int, ...]

_SCALAR_TYPES = (int, Fraction, CycInt, UniPoly, BiPoly)
_LIMIT = 2**31  # every stored exponent is below this
_FIELD = 2**32 - 1  # one field's bits; 2**32 = 1 modulo it, so a key folds to its field sum


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[Callable, Callable, int, int]:
    """pack (an exponent tuple to a key, unchecked), unpack, the top and the too-wide bits."""
    if n < 0:
        raise ValueError(f"variable count must be >= 0, got {n}")
    fields, size, low = struct.Struct(f"<{n}I"), 4 * n, 32 - (n - 1).bit_length()
    return (
        lambda exps: int.from_bytes(fields.pack(*exps), "little"),
        lambda key: fields.unpack(key.to_bytes(size, "little")),
        int.from_bytes(fields.pack(*[_LIMIT] * n), "little"),
        int.from_bytes(fields.pack(*[_FIELD >> low << low] * n), "little"),
    )


@lru_cache(maxsize=4096)
def _display(n: int, key: int) -> tuple[tuple, str]:
    """A packed monomial's place in rendering order (descending sort key) and its text."""
    exps = _layout(n)[1](key)
    text = "*".join([f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e])
    return (-sum(exps), tuple(sorted(exps, reverse=True)), exps), text


class _Terms(Mapping):
    """Read-only view of packed terms keyed by exponent tuple, unpacked on demand."""

    __slots__ = ("_packed", "_n")

    def __init__(self, packed: dict, n: int):
        self._packed, self._n = packed, n

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return map(_layout(self._n)[1], self._packed)

    def __getitem__(self, exps: Monomial) -> Coeff:
        try:  # a tuple the constructor would refuse packs to no stored key
            return self._packed[_layout(self._n)[0](exps)]
        except (struct.error, TypeError):
            raise KeyError(exps) from None

    def values(self):
        return self._packed.values()

    def items(self) -> list[tuple[Monomial, Coeff]]:
        return list(zip(self, self._packed.values()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _checked(terms: dict, top: int) -> dict:
    """terms; no field carries, as each was below 2**31, so a top bit set is past the limit."""
    if reduce(or_, terms, 0) & top:
        raise OverflowError("a product has an exponent of 2**31 or more")
    return terms


def _product(acc: dict, a: dict, b: dict, scalar: Coeff, top: int) -> dict:
    """acc += scalar * a * b on packed term dicts, returning acc: the one product loop."""
    b_items = list(b.items())
    get = acc.get
    for e1, c1 in a.items():
        c1s = c1 * scalar
        for e2, c2 in b_items:
            key = e1 + e2
            old = get(key)
            acc[key] = c1s * c2 if old is None else old + c1s * c2
    return _checked(acc, top)


def _degrees(p: "MPoly") -> Iterable[int]:
    """The degree of each term: its key mod 2**32 - 1, exact while its n fields sum below that."""
    if reduce(or_, p._packed, 0) & _layout(p.n)[3]:
        return map(sum, p.terms)
    return map(_FIELD.__rmod__, p._packed)


def _nonzero(terms: dict) -> dict:
    """terms, with its zero coefficients deleted in place."""
    if not all(terms.values()):
        for key in [key for key, c in terms.items() if not c]:
            del terms[key]
    return terms


class MPoly:
    """Sparse polynomial in x1..xn with exact coefficients."""

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, terms: Optional[dict] = None):
        pack, _, top, _ = _layout(n)
        try:
            packed = _checked({pack(exps): c for exps, c in terms.items()} if terms else {}, top)
        except (struct.error, OverflowError):
            raise ValueError(f"exponent tuples need {n} entries in 0..2**31-1") from None
        _set_n(self, n)
        _set_packed(self, _nonzero(packed))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MPoly is immutable")

    @classmethod
    def _trusted(cls, n: int, packed: dict) -> "MPoly":
        """Adopt a dict of valid packed keys and nonzero coefficients as is."""
        self = object.__new__(cls)
        _set_n(self, n)
        _set_packed(self, packed)
        return self

    @property
    def terms(self) -> Mapping:
        """The terms keyed by exponent tuple: a read-only view, unpacked on demand."""
        return _Terms(self._packed, self.n)

    @classmethod
    def zero(cls, n: int) -> "MPoly":
        return cls.constant(n, 0)

    @classmethod
    def one(cls, n: int) -> "MPoly":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c: Coeff) -> "MPoly":
        _layout(n)  # refuses n < 0
        return cls._trusted(n, {0: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "MPoly":
        """x_i, with i in 1..n."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return cls._trusted(n, {1 << 32 * (i - 1): 1})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], c: Coeff = 1) -> "MPoly":
        return cls(n, {tuple(exps): c})

    # -- arithmetic --------------------------------------------------------

    def _check_same_vars(self, other: "MPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: object) -> "MPoly":
        if isinstance(other, MPoly):
            self._check_same_vars(other)
            out = dict(self._packed)
            for key, c in other._packed.items():
                out[key] = out[key] + c if key in out else c
            return MPoly._trusted(self.n, _nonzero(out))
        if isinstance(other, _SCALAR_TYPES):
            return self + MPoly.constant(self.n, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.n, {key: -c for key, c in self._packed.items()})

    def __sub__(self, other: object) -> "MPoly":
        if isinstance(other, (MPoly, *_SCALAR_TYPES)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "MPoly":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "MPoly":
        if isinstance(other, MPoly):
            self._check_same_vars(other)
            a, b, top = self._packed, other._packed, _layout(self.n)[2]
            if len(b) == 1:  # every coefficient ring commutes
                a, b = b, a
            if len(a) == 1:  # one add per term of the other operand
                ((ka, ca),) = a.items()
                out = _checked({ka + kb: ca * cb for kb, cb in b.items()}, top)
            else:
                out = _product({}, a, b, 1, top)
            return MPoly._trusted(self.n, _nonzero(out))
        if isinstance(other, _SCALAR_TYPES):
            scaled = {key: c * other for key, c in self._packed.items()}
            return MPoly._trusted(self.n, _nonzero(scaled))
        return NotImplemented

    __rmul__ = __mul__  # a scalar on the left

    def __pow__(self, k: int) -> "MPoly":
        return _power(self, k, MPoly.one(self.n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self.n == other.n and self._packed == other._packed
        if isinstance(other, _SCALAR_TYPES):
            return self._packed == ({0: other} if other else {})
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._packed)

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(_degrees(self), default=-1)

    def is_homogeneous(self, k: Optional[int] = None) -> bool:
        degrees = set(_degrees(self))
        return len(degrees) <= 1 and (k is None or degrees <= {k})

    def pad(self, n: int) -> "MPoly":
        """Reinterpret in n >= self.n variables, new variables unused."""
        if n < self.n:
            raise ValueError(f"cannot shrink from {self.n} to {n} variables")
        return self if n == self.n else MPoly._trusted(n, self._packed)

    def coeff(self, exps: Iterable[int]) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def canonical_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms sorted graded-lexicographically (ascending)."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _render_coeff(c: Coeff) -> str:
        if isinstance(c, (int, Fraction)):
            return str(c)
        return f"({c})"

    def __str__(self) -> str:
        # distinct keys have distinct sort keys, so no coefficient is ever compared
        shown = sorted([(_display(self.n, key), c) for key, c in self._packed.items()], reverse=True)
        return _render_terms([(c, text) for (_, text), c in shown], self._render_coeff)

    def __repr__(self) -> str:
        return f"MPoly(n={self.n}, terms={dict(self.canonical_terms())})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exps": list(exps), "coeff": _coeff_to_json(c)}
                for exps, c in self.canonical_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MPoly":
        terms = {
            tuple(t["exps"]): _coeff_from_json(t["coeff"]) for t in obj["terms"]
        }
        return cls(obj["n"], terms)


_set_n, _set_packed = MPoly.n.__set__, MPoly._packed.__set__  # the slots, past __setattr__


def _coeff_to_json(c: Coeff) -> object:
    if isinstance(c, (int, Fraction)):
        return str(c)
    if isinstance(c, CycInt):
        return c.to_json()
    if isinstance(c, UniPoly):
        return {"q": c.to_json()}
    if isinstance(c, BiPoly):
        return {"pq": c.to_json()}
    raise TypeError(f"cannot serialize coefficient of type {type(c).__name__}")


def _coeff_from_json(obj: object) -> Coeff:
    if isinstance(obj, str):
        if "/" in obj:
            return Fraction(obj)
        return int(obj)
    if isinstance(obj, dict):
        if "order" in obj:
            return CycInt(obj["order"], [int(c) for c in obj["coeffs"]])
        if "q" in obj:
            return UniPoly([int(c) for c in obj["q"]])
        if "pq" in obj:
            return BiPoly({(i, j): int(c) for i, j, c in obj["pq"]})
    raise ValueError(f"unrecognized coefficient payload: {obj!r}")


def accumulate_product(acc: dict, a: MPoly, b: MPoly, scalar: Coeff = 1) -> None:
    """acc += scalar * a * b, in place; a and b have the same variable count.

    Shared by the identity checks that sum many pairwise products; avoids
    building every intermediate polynomial.  acc is opaque (packed keys):
    start it empty, read it only through ``collect``, and drop it after an
    OverflowError.
    """
    a._check_same_vars(b)
    if scalar:
        _product(acc, a._packed, b._packed, scalar, _layout(a.n)[2])


def accumulate_shift(acc: dict, p: MPoly, i: int, j: int, scalar: Coeff = 1) -> None:
    """acc += scalar * x_i^j * p, in place, in one linear pass; acc as for accumulate_product.

    Only the keys written are checked for an exponent of 2**31 or more.
    """
    if not 1 <= i <= p.n or not 0 <= j < _LIMIT:
        raise ValueError(f"x{i}^{j} is not a monomial in {p.n} variables")
    offset, get, written = j << 32 * (i - 1), acc.get, 0
    for key, c in p._packed.items():
        key += offset
        written |= key
        old = get(key)
        acc[key] = scalar * c if old is None else old + scalar * c
    if written & _layout(p.n)[2]:
        raise OverflowError("a shifted term has an exponent of 2**31 or more")


def collect(n: int, acc: dict) -> MPoly:
    """Finish an accumulate_product run, dropping zero entries."""
    return MPoly._trusted(n, _nonzero(acc))


def substitute_power(p: MPoly, s: int) -> MPoly:
    """p(x1^s, ..., xn^s): every exponent multiplied by s."""
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    # the fields scale without a carry while every product stays below 2**31
    if max((max(exps, default=0) for exps in p.terms), default=0) * s >= _LIMIT:
        raise OverflowError("a substituted power has an exponent of 2**31 or more")
    return MPoly._trusted(p.n, {key * s: c for key, c in p._packed.items()})


def specialize(p: MPoly, kind: str) -> Union[int, UniPoly, BiPoly]:
    """Evaluate at a standard point: counts, q-analogues or (p,q)-analogues.

    * ``all-ones``: x_i = 1, giving an integer.
    * ``geometric-q``: x_i = q^(i-1), giving a UniPoly.
    * ``pq-grid``: x_i = p^(n-i) q^(i-1), giving a BiPoly; p must be
      homogeneous, as a BiPoly is (``ValueError`` otherwise).

    Coefficients must be plain integers.
    """
    if not all(isinstance(c, int) for c in p._packed.values()):
        raise TypeError("specialize requires integer coefficients")
    if kind == "all-ones":
        return sum(p._packed.values())
    if kind not in ("geometric-q", "pq-grid"):
        raise ValueError(f"unknown specialization kind: {kind!r}")
    degrees = ((sum((i - 1) * e for i, e in enumerate(exps, 1)), c) for exps, c in p.terms.items())
    image = sum((UniPoly.term(c, d) for d, c in degrees), UniPoly())
    if kind == "geometric-q":
        return image
    if not p.is_homogeneous():
        raise ValueError("the pq-grid image of a polynomial that is not homogeneous is no BiPoly")
    return BiPoly.homogenize(image, (p.n - 1) * p.degree())


def is_symmetric(p: MPoly) -> bool:
    """True when p is invariant under every permutation of its variables.

    Invariance under the adjacent transpositions (i, i+1) generates the
    full symmetric group, so only n-1 swaps are checked.  A swap is one to
    one on keys, so it fixes p when each swapped key holds the same coefficient.
    """
    get = p._packed.get
    for i in range(p.n - 1):
        mask = _FIELD << 32 * i  # the field of x_(i+1)
        for key, c in p._packed.items():
            moved = (key ^ key >> 32) & mask  # fields i+1 and i+2 differ in these bits
            if get(key ^ moved ^ moved << 32) != c:
                return False
    return True

