"""Sparse multivariate polynomials, their specializations and a symmetry test.

``MPoly`` is a sparse polynomial in x1..xn with ``int`` or ``Fraction`` coefficients; the
constructor and ``constant`` refuse any other type, and ``bool`` (``TypeError``), as the
constructor, ``variable`` and ``pad`` refuse an exponent, index or variable count that is not an
``int``.  A term is stored under a packed exponent: one int holding the exponent of x_i in bits
32(i-1) .. 32i-1.  Every stored exponent is below 2**31, so two keys add without a carry between
fields: a product is one int add per pair of terms, one per term with a one-term operand and none
with a constant, whose product keeps the other operand's keys.  It is refused with
``OverflowError`` (never a wrapped monomial) when an exponent reaches 2**31, and a pad to more
variables keeps every key.  ``sum_of_products`` sums c * a * b over many terms through the same
loop, into one private accumulator.  As 2**32 = 1 mod 2**32 - 1, a key mod 2**32 - 1 is its
degree while no field reaches 2**(32 - bit_length(n-1)) (else it is unpacked and summed);
``is_symmetric`` checks (1 2) and the n-cycle, which generate S_n.  The rationals have no zero
divisors, so a product is filtered for zeros only when it has many-term operands, whose pairs may
cancel.  Exponent tuples appear only at the API edge: ``terms`` is a tuple-keyed view unpacked on
demand, and one packing step, shared by the constructor and the orbit sums, packs many tuples (an
orbit walked lazily) and refuses an exponent of 2**31 or more.

Canonical order is graded lexicographic (total degree, then exponent tuple); ``str`` groups terms
sharing an exponent multiset (cosmetic only).  Both sort the keys themselves on one compact key per
term (a byte per field while every field is below 2**8), then stably by degree, and unpack a key as
its term is written.  ``_json_chunks`` sorts at its call, then yields the JSON payload a block of
_BLOCK terms at a time, so no text as large as the value is held.  The memos are the per-n key layout
and the report text (``str`` up to 40 terms, else a one-line digest), kept in a slot from a value's
first report and, up to _BLOCK terms, read by value from ``_text_of`` (at most 1,024 texts): the
identity checks meet one polynomial by many routes, as many objects.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import chain, islice, product as _pairs, repeat, starmap
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Union

from .exactalg import BiPoly, UniPoly, _power, _render_terms

Coeff = Union[int, Fraction]
Monomial = tuple[int, ...]

_SCALAR_TYPES = (int, Fraction)
_LIMIT = 2**31  # every stored exponent is below this
_FIELD = 2**32 - 1  # one field's bits; 2**32 = 1 modulo it, so a key folds to its field sum
_BLOCK = 256  # terms or listed objects a chunk, in every streamed payload


@cache
def _layout(n: int) -> tuple[Callable, Callable, int, int]:
    """pack (exponent tuples to their keys, unchecked), unpack (a key), the top and the too-wide bits."""
    if type(n) is not int:  # a lone int is its own cache key, so an equal bool or float misses and lands here
        raise TypeError(f"variable count must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"variable count must be >= 0, got {n}")
    try:  # struct refuses a count past its size limit before it allocates
        fields, size, low = struct.Struct(f"<{n}I"), 4 * n, 32 - (n - 1).bit_length()
    except struct.error:
        raise ValueError(f"variable count {n} is too large") from None
    return (
        lambda many: map(int.from_bytes, starmap(fields.pack, many), repeat("little")),
        lambda key: fields.unpack(key.to_bytes(size, "little")),
        int.from_bytes(fields.pack(*[_LIMIT] * n), "little"),
        int.from_bytes(fields.pack(*[_FIELD >> low << low] * n), "little"),
    )


def _monomial_text(exps: Monomial) -> str:
    """x1^2*x3 for (2, 0, 1); '' for the monomial 1."""
    return "*".join([f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e])


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
            return self._packed[next(_layout(self._n)[0]([exps]))]
        except (struct.error, TypeError):
            raise KeyError(exps) from None

    def values(self):
        return self._packed.values()

    def items(self) -> list[tuple[Monomial, Coeff]]:
        return list(zip(self, self._packed.values()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _check_coeff_types(coeffs: Iterable) -> None:
    """Refuse a coefficient that is a bool or not an int or a Fraction; one check per distinct type."""
    for t in set(map(type, coeffs)):
        if t is bool or not issubclass(t, _SCALAR_TYPES):
            raise TypeError(f"coefficients must be int or Fraction, got {t.__name__}")


def _product(acc: dict, a: dict, b: dict, scalar: Coeff, top: int) -> dict:
    """acc += scalar * a * b on packed term dicts, returning acc: the one product loop.

    A field of the OR of a's keys bounds that field of each key, so no pair reaches 2**31
    while the two ORs add below it; past that bound the pairs are scanned, before acc changes.
    """
    if (reduce(or_, a, 0) + reduce(or_, b, 0)) & top and reduce(or_, map(sum, _pairs(a, b)), 0) & top:
        raise OverflowError("a product has an exponent of 2**31 or more")
    if len(a) == 1 and 0 in a:  # a constant: b's terms under b's own keys, no key made per pair
        c, get = a[0] * scalar, acc.get
        if not acc and type(c) is int and c == 1:
            acc.update(b)  # 1 * b into an empty accumulator: b's terms in b's order
            return acc
        for key, cb in b.items():
            old = get(key)
            acc[key] = c * cb if old is None else old + c * cb
        return acc
    get, b_items = acc.get, b.items() if len(a) == 1 else list(b.items())
    for e1, c1 in a.items():
        c1s = c1 * scalar
        for e2, c2 in b_items:
            key = e1 + e2
            old = get(key)
            acc[key] = c1s * c2 if old is None else old + c1s * c2
    return acc


def _degree(p: "MPoly") -> Callable[[int], int]:
    """A key's degree: the key mod 2**32 - 1, exact while its n fields sum below that; else its fields summed."""
    if reduce(or_, p._packed, 0) & _layout(p.n)[3]:
        unpack = _layout(p.n)[1]
        return lambda key: sum(unpack(key))
    return _FIELD.__rmod__


def _pack_terms(n: int, groups: Iterable[tuple[Iterable[Monomial], Iterable[Coeff]]]) -> dict:
    """The packed terms of (exponent tuples, coefficients) groups; ValueError for a tuple not in [0, 2**31)^n."""
    pack, _, top, _ = _layout(n)
    packed: dict = {}
    try:
        for exps, coeffs in groups:
            packed.update(zip(pack(exps), coeffs))
        if not reduce(or_, packed, 0) & top:  # a field is packed exactly, so its top bit is set from 2**31 on
            return packed
    except struct.error:
        pass
    raise ValueError(f"exponent tuples need {n} entries in 0..2**31-1")


def _sorted_terms(p: "MPoly", text: bool = False) -> tuple[Iterator[Monomial], Iterator[Coeff]]:
    """p's exponent tuples and coefficients by degree, then by tuple (graded-lex) or, for text, by nonzero parts, then
    tuple, both reversed.  The keys are sorted at the call on one compact key each, a byte a field (x1 first) while all
    are below 2**8, else the tuple, then stably by degree; at one degree two multisets differ in their nonzero parts.
    """
    unpack, size = _layout(p.n)[1], 4 * p.n
    narrow = max(unpack(reduce(or_, p._packed, 0)), default=0) < 2**8
    exps, parts = ((lambda key: key.to_bytes(size, "little")[::4]), bytes) if narrow else (unpack, tuple)
    order = (lambda key: parts(sorted(filter(None, e := exps(key)), reverse=True)) + e) if text else exps
    keys = sorted(p._packed, key=order, reverse=text)
    keys.sort(key=_degree(p))
    return map(unpack, keys), map(p._packed.__getitem__, keys)


def _nonzero(terms: dict) -> dict:
    """terms, with its zero coefficients deleted in place."""
    if not all(terms.values()):
        for key in [key for key, c in terms.items() if not c]:
            del terms[key]
    return terms


class MPoly:
    """Sparse polynomial in x1..xn with exact coefficients."""

    __slots__ = ("n", "_packed", "_report")

    def __init__(self, n: int, terms: Optional[dict] = None):
        terms = terms or {}
        _check_coeff_types(terms.values())
        if bad := set(map(type, chain.from_iterable(terms))) - {int}:  # one check per distinct exponent type
            raise TypeError(f"exponents must be int, got {', '.join(sorted(t.__name__ for t in bad))}")
        _set_n(self, n)
        _set_packed(self, _nonzero(_pack_terms(n, [(terms, terms.values())])))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MPoly is immutable")

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
        _layout(n)  # refuses an n that is not an int >= 0
        if type(c) not in _SCALAR_TYPES:  # exact types pass at once; a subclass, bool too, is checked
            _check_coeff_types((c,))
        return _trusted(n, {0: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "MPoly":
        """x_i, with i in 1..n."""
        _layout(n)  # refuses an n that is not an int >= 0
        if type(i) is not int:
            raise TypeError(f"variable index must be an int, got {type(i).__name__}")
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return _trusted(n, {1 << 32 * (i - 1): 1})

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
            if not (self._packed and other._packed):  # values are immutable: share the nonzero one
                return self or other
            out = dict(self._packed)
            get = out.get
            for key, c in other._packed.items():
                old = get(key)
                out[key] = c if old is None else old + c
            return _trusted(self.n, _nonzero(out))
        if isinstance(other, _SCALAR_TYPES):
            return self + MPoly.constant(self.n, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _trusted(self.n, {key: -c for key, c in self._packed.items()})

    def __sub__(self, other: object) -> "MPoly":
        if isinstance(other, (MPoly, *_SCALAR_TYPES)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "MPoly":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "MPoly":
        if isinstance(other, MPoly):
            self._check_same_vars(other)
            if len(other._packed) == 1:  # int and Fraction commute
                self, other = other, self
            a, b, top = self._packed, other._packed, _layout(self.n)[2]
            if len(a) != 1:  # pairs may cancel, so only this sum is filtered
                return _trusted(self.n, _nonzero(_product({}, a, b, 1, top)))
            ((ka, ca),) = a.items()  # one add per term of the other operand, no two alike
            if ka:  # no field carries, as each was below 2**31, so a top bit set is past the limit
                terms = {ka + kb: ca * cb for kb, cb in b.items()}
                if reduce(or_, terms, 0) & top:
                    raise OverflowError("a product has an exponent of 2**31 or more")
                return _trusted(self.n, terms)
            self, other = other, ca  # a constant operand is a scalar
        elif not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        if not other:  # no zero divisors, so only a zero scalar gives zeros
            return _trusted(self.n, {})
        if type(other) is int and other == 1:  # a Fraction one would change the coefficient types
            return self
        return _trusted(self.n, {key: c * other for key, c in self._packed.items()})

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
        return max(map(_degree(self), self._packed), default=-1)

    def is_homogeneous(self, k: Optional[int] = None) -> bool:
        degrees = set(map(_degree(self), self._packed))
        return len(degrees) <= 1 and (k is None or degrees <= {k})

    def pad(self, n: int) -> "MPoly":
        """Reinterpret in n >= self.n variables, new variables unused."""
        if type(n) is not int:
            raise TypeError(f"variable count must be an int, got {type(n).__name__}")
        if n < self.n:
            raise ValueError(f"cannot shrink from {self.n} to {n} variables")
        return self if n == self.n else _trusted(n, self._packed)

    def coeff(self, exps: Iterable[int]) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def canonical_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms sorted graded-lexicographically (ascending)."""
        return list(zip(*_sorted_terms(self)))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        exps, coeffs = _sorted_terms(self, text=True)
        return _render_terms(coeffs, map(_monomial_text, exps))

    def __repr__(self) -> str:
        return f"MPoly(n={self.n}, terms={dict(self.canonical_terms())})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "terms": [{"exps": list(exps), "coeff": str(c)} for exps, c in zip(*_sorted_terms(self))]}

    def to_json_text(self) -> str:
        """json.dumps(self.to_json(), separators=(", ", ": ")), written with no dict per term."""
        return "".join(_json_chunks(self))


def _json_chunks(p: MPoly, head: str = "", tail: str = "") -> Iterator[str]:
    """head + p.to_json_text() + tail: the head, then _BLOCK terms a chunk; all sorted at the call, before any chunk."""
    terms, term = zip(*_sorted_terms(p)), '{"exps": [' + ", ".join(["%d"] * p.n) + '], "coeff": "%s"}'
    blocks = ((", " if i else "") + ", ".join([term % (*exps, c) for exps, c in islice(terms, _BLOCK)])
              for i in range(0, len(p._packed), _BLOCK))
    return chain([f'{head}{{"n": {p.n}, "terms": ['], blocks, [f"]}}{tail}"])


_set_n, _set_packed, _set_report = MPoly.n.__set__, MPoly._packed.__set__, MPoly._report.__set__  # past __setattr__


def _report_text(p: object) -> str:
    """str(p), except that an MPoly's text is kept on it from its first report, read by value up to _BLOCK terms."""
    if not isinstance(p, MPoly):
        return str(p)
    if (text := getattr(p, "_report", None)) is None:
        text = _text_of(p.n, frozenset(p._packed.items())) if len(p._packed) <= _BLOCK else _render(p)
        _set_report(p, text)
    return text


@lru_cache(maxsize=1024)
def _text_of(n: int, items: frozenset) -> str:
    """_render of a twin with these packed terms: the text sorts every term, and an int renders as its equal Fraction."""
    return _render(_trusted(n, dict(items)))


def _render(p: MPoly) -> str:
    """str(p) up to 40 terms, else '<N terms, degree d, sha256 ...>'."""
    if len(p._packed) <= 40:
        return str(p)
    import hashlib  # only a value past 40 terms needs it, so a CLI start does not load it
    term = '{"coeff": "%s", "exps": [' + ", ".join(["%d"] * p.n) + "]}"  # the sort_keys dump of to_json()
    blob = f'{{"n": {p.n}, "terms": [{", ".join([term % (c, *e) for e, c in zip(*_sorted_terms(p))])}]}}'
    return f"<{len(p._packed)} terms, degree {p.degree()}, sha256 {hashlib.sha256(blob.encode()).hexdigest()[:12]}>"


def _trusted(n: int, packed: dict) -> MPoly:
    """Adopt a dict of valid packed keys and nonzero coefficients as is."""
    self = object.__new__(MPoly)
    _set_n(self, n)
    _set_packed(self, packed)
    return self


def sum_of_products(n: int, terms: Iterable[tuple[Coeff, MPoly, MPoly]]) -> MPoly:
    """sum of c * a * b over the (c, a, b) terms, in n variables: one private packed accumulator, no value per term.

    The identity checks and the constructors' split and determinant sum their
    products here.  A one-term a (1, or x_i for a linear factor) makes a term
    one linear pass over b, and a term with a zero factor adds nothing.  An
    operand not in n variables, zero or not, raises ValueError, and an
    exponent that reaches 2**31 OverflowError.
    """
    acc, top = {}, _layout(n)[2]
    for c, a, b in terms:
        if a.n != n or b.n != n:
            raise ValueError(f"variable count mismatch: {n} vs {b.n if a.n == n else a.n}")
        if c and a._packed and b._packed:
            _product(acc, a._packed, b._packed, c, top)
    return _trusted(n, _nonzero(acc))


def _shift_variables(p: MPoly, a: int, n: int) -> MPoly:
    """p in n >= p.n + a variables with each x_i renamed x_(i+a): one shift of 32a bits per key."""
    return _trusted(n, {key << 32 * a: c for key, c in p._packed.items()})


def substitute_power(p: MPoly, s: int) -> MPoly:
    """p(x1^s, ..., xn^s): every exponent multiplied by s."""
    if type(s) is not int:  # a float power would make float keys, and a bool one is taken as its value
        raise TypeError(f"power must be an int, got {type(s).__name__}")
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    # the fields scale without a carry while every product stays below 2**31
    if max((max(exps, default=0) for exps in p.terms), default=0) * s >= _LIMIT:
        raise OverflowError("a substituted power has an exponent of 2**31 or more")
    return _trusted(p.n, {key * s: c for key, c in p._packed.items()})


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
    degrees = [(sum((i - 1) * e for i, e in enumerate(exps, 1)), c) for exps, c in p.terms.items()]
    coeffs = [0] * (max((d for d, _ in degrees), default=-1) + 1)  # by q-degree, up to the largest one
    for d, c in degrees:
        coeffs[d] += c
    image = UniPoly(coeffs)
    if kind == "geometric-q":
        return image
    if not p.is_homogeneous():
        raise ValueError("the pq-grid image of a polynomial that is not homogeneous is no BiPoly")
    return BiPoly.homogenize(image, (p.n - 1) * p.degree())


def is_symmetric(p: MPoly) -> bool:
    """True when p is invariant under every permutation of its variables.

    The transposition (1 2) and the n-cycle (1 2 ... n) generate the full
    symmetric group, so only these two are checked.  Each is one to one on
    keys, so it fixes p when each moved key holds the same coefficient.
    """
    if p.n < 2:
        return True
    get, top = p._packed.get, 32 * (p.n - 1)
    for key, c in p._packed.items():
        moved = (key ^ key >> 32) & _FIELD  # the bits where the fields of x1 and x2 differ
        if get(key ^ moved ^ moved << 32) != c or get(key >> 32 | (key & _FIELD) << top) != c:
            return False
    return True
