"""Exact coefficient arithmetic for the prover.

The ring is Z[p, a, b, c, d][q, q^-1]: multivariate polynomials with
arbitrary-precision integer coefficients over six fixed scalar symbols,
Laurent in q.  q is the only symbol allowed a negative exponent because it
is the only quantity the theory ever divides by (extending a recurrence to
negative indices divides by its trailing coefficient, a power of q).
Coefficients are ints, never floats: every identity check is exact.

Representation: a polynomial is a dict from packed exponent vectors to
nonzero integer coefficients; the zero polynomial is the empty dict.  An
exponent vector (p, a, b, c, d, q) packs into one int of six 32-bit fields,
p lowest and q highest (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Each
field stores a value in [0, 2^31): the exponent itself for p, a, b, c and
d, and e + 2^30 for q.  So 0 <= e < 2^31 for p..d and -2^30 <= e < 2^30
for q; every exponent of magnitude below 2^30 packs.

A monomial product is one integer add of the two keys (q's doubled bias is
taken off once per outer term).  Two stored values below 2^31 sum below
2^32, so no carry crosses into the next field, and a sum is out of range
exactly when its field's top bit, the guard bit, is set; a q sum below
-2^30 borrows, which sets that bit too.  Every pack and every term-pair
product tests the guard bits, and an exponent out of range raises
ExponentOverflowError: it never wraps.  Exponent tuples appear only at the
API edges: construction, terms(), evaluation, substitution and rendering.

Values are canonical and immutable after construction, so they are safe
to share and to use as dict keys.  Rendering writes the identity language
(a negative q power is q^(-k)) in a fixed graded-lexicographic term order,
so every printed form is deterministic and parses back to its value.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

SYMBOLS = ("p", "a", "b", "c", "d", "q")
_NSYM = len(SYMBOLS)
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_Q = _SYMBOL_INDEX["q"]

# packed exponent layout: see the module docstring
_WIDTH = 32
_TOP = 1 << (_WIDTH - 1)  # stored field values lie in [0, _TOP)
_BIAS = 1 << (_WIDTH - 2)  # q's field stores e + _BIAS
_SHIFTS = tuple(_WIDTH * i for i in range(_NSYM))
_OFFSETS = tuple(_BIAS if i == _Q else 0 for i in range(_NSYM))
_GUARD = sum(_TOP << s for s in _SHIFTS)
_UNIT = _BIAS << _SHIFTS[_Q]  # the packed zero vector, key of the constants
_FIELDS = struct.Struct("<6I")  # a key's six 32-bit fields, p first, as stored
RENDER_CACHE_SIZE = 1024  # distinct exponent vectors (or atoms, in lang) whose text is kept

Exponents = tuple
Rational = Union[int, Fraction]


class ZeroQError(ValueError):
    """An operation required q to be invertible but q was assigned 0."""


class NotAUnitError(ValueError):
    """Inversion was asked of a ring element that is not +-(a power of q)."""


class ExponentOverflowError(OverflowError):
    """An exponent left the packed range: 0 <= e < 2^31, or -2^30 <= e < 2^30 for q."""


class Record:
    """Base of the package's immutable records.

    A record's fields are its __slots__, in order, but for __dict__ and
    __weakref__.  The first _compared of them (all when None) decide
    equality, which also needs the same class, and the hash.  A field named
    in _defaults may be left out when building one.  repr is
    Name(field=value, ...) over every field.  Copying and unpickling
    rebuild a record through its constructor, from its fields.
    """

    __slots__ = ()
    _compared = None
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if n not in ("__dict__", "__weakref__"))
        # a slot's own setter costs less to call than object.__setattr__
        cls._setters = tuple(cls.__dict__[n].__set__ for n in cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            names = self._fields
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(given) < len(args) or given.keys() & kwargs or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}{names} cannot take {args!r}, {kwargs!r}")
            args = [values[name] for name in names]
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields[: self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _pack(exps: Iterable[int]) -> int:
    """The packed key of an exponent vector; raises if a field is out of range."""
    key = 0
    for i, e in enumerate(exps):
        v = e + _OFFSETS[i]
        if not 0 <= v < _TOP:
            lo = -_OFFSETS[i]
            raise ExponentOverflowError(
                f"exponent {e} of {SYMBOLS[i]} is outside the ring's range "
                f"{lo} <= e < {lo + _TOP}"
            )
        key |= v << _SHIFTS[i]
    return key


def _unpack(key: int) -> Exponents:
    p, a, b, c, d, q = _FIELDS.unpack(key.to_bytes(_FIELDS.size, "little"))
    return p, a, b, c, d, q - _BIAS


def _product_overflow(k1: int, k2: int):
    """Raise the range error of a product whose packed sum set a guard bit."""
    _pack([x + y for x, y in zip(_unpack(k1), _unpack(k2))])
    raise AssertionError("a guard bit was set by in-range exponents")


def _canonical(terms: Mapping[Exponents, int]) -> dict:
    out = {}
    for exps, coeff in terms.items():
        if coeff == 0:
            continue
        exps = tuple(exps)
        if len(exps) != _NSYM:
            raise ValueError(f"exponent vector must have {_NSYM} entries: {exps!r}")
        for i, e in enumerate(exps):
            if e < 0 and i != _Q:
                raise ValueError(f"negative exponent on {SYMBOLS[i]} is not allowed")
        key = _pack(exps)
        s = out.get(key, 0) + coeff
        if s:
            out[key] = s
        else:
            del out[key]
    return out


class LaurentPoly:
    """Immutable element of Z[p, a, b, c, d][q, q^-1]."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        """terms maps exponent tuples, ordered as SYMBOLS, to coefficients."""
        object.__setattr__(self, "_terms", _canonical(terms or {}))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # copies and unpickled values are rebuilt through the constructor
        return LaurentPoly, (self.terms(),)

    # -- constructors ------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # terms must already be canonical (packed keys, no zero coefficients)
        self = cls.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def pq_series(cls, p_top: int, q_low: int, coeffs: Iterable[int]) -> "LaurentPoly":
        """sum_j coeffs[j]*p^(p_top-2j)*q^(q_low+j), j <= p_top // 2, coeffs nonzero;
        both ends are range-checked before any coefficient is drawn."""
        for p_end, q_end in ((p_top, q_low), (p_top % 2, q_low + p_top // 2)):
            if not (0 <= p_end < _TOP and -_BIAS <= q_end < _BIAS):
                _pack((p_end, 0, 0, 0, 0, q_end))  # raises
        key, step, terms = _UNIT + p_top + (q_low << _SHIFTS[_Q]), (1 << _SHIFTS[_Q]) - 2, {}
        for _j, coeff in zip(range(p_top // 2 + 1), coeffs):
            terms[key], key = coeff, key + step
        return cls._raw(terms)

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> dict:
        """Exponent tuple -> coefficient."""
        return {_unpack(key): coeff for key, coeff in self._terms.items()}

    def min_exponent(self, name: str) -> int:
        """Smallest exponent of `name` across terms (0 for the zero poly)."""
        i = _SYMBOL_INDEX[name]
        if not self._terms:
            return 0
        return min(_unpack(key)[i] for key in self._terms)

    def max_exponent(self, name: str) -> int:
        i = _SYMBOL_INDEX[name]
        if not self._terms:
            return 0
        return max(_unpack(key)[i] for key in self._terms)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other is _ZERO:
            return self
        if self is _ZERO:
            return other
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                del out[key]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        out: dict = {}
        get = out.get
        right = other._terms.items()
        for k1, c1 in self._terms.items():
            k1 -= _UNIT  # each sum k1 + k2 then carries q's bias once
            for k2, c2 in right:
                key = k1 + k2
                if key & _GUARD:
                    _product_overflow(k1 + _UNIT, k2)
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers are only defined for units; use unit_inverse")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- units -------------------------------------------------------

    def is_unit(self) -> bool:
        """True iff the element is +-q^k, the full unit group of the ring."""
        if len(self._terms) != 1:
            return False
        (key, coeff), = self._terms.items()
        return abs(coeff) == 1 and all(e == 0 for i, e in enumerate(_unpack(key)) if i != _Q)

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotAUnitError(f"not a unit of the coefficient ring: {self}")
        (key, coeff), = self._terms.items()
        return LaurentPoly._raw({_pack(-e for e in _unpack(key)): coeff})

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, assignment: Mapping[str, Rational]) -> Fraction:
        """Exact rational value under a symbol assignment.

        Requires assignment["q"] != 0 whenever q is assigned (the theory
        assumes q invertible throughout).
        """
        if "q" in assignment and assignment["q"] == 0:
            raise ZeroQError("q must be nonzero")
        values = {}
        total = Fraction(0)
        for key, coeff in self._terms.items():
            term = Fraction(coeff)
            for i, e in enumerate(_unpack(key)):
                if e == 0:
                    continue
                name = SYMBOLS[i]
                if name not in values:
                    if name not in assignment:
                        raise KeyError(f"no value assigned to symbol {name!r}")
                    values[name] = Fraction(assignment[name])
                term *= values[name] ** e
            total += term
        return total

    def pin_substitute(self, pins: Mapping[str, Rational]) -> "LaurentPoly":
        """Substitute nonzero rationals for symbols, up to a nonzero scale.

        The result equals the true specialization multiplied by a nonzero
        rational constant (a power of each pinned denominator and of the
        pinned q value), chosen so that coefficients stay integers.  Zero
        is preserved exactly in both directions, which is all the leaf
        checks need.  When every pin is an integer with |value| = 1, or no
        pinned symbol occurs at a negative exponent with |value| != 1, the
        scaling on q is still by q^k only where q had negative exponents.
        """
        work = self
        if "q" in pins:
            if Fraction(pins["q"]) == 0:
                raise ZeroQError("q must be pinned to a nonzero value")
            m = work.min_exponent("q")
            if m < 0:
                work = work * q_power(-m)
        for name, value in pins.items():
            i = _SYMBOL_INDEX.get(name)
            if i is None:
                raise ValueError(f"unknown symbol {name!r}")
            value = Fraction(value)
            num, den = value.numerator, value.denominator
            top = work.max_exponent(name)
            out: dict = {}
            for key, coeff in work._terms.items():
                e = _unpack(key)[i]
                c = coeff * num ** e * den ** (top - e)
                key -= e << _SHIFTS[i]  # the symbol's exponent becomes 0
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            work = LaurentPoly._raw(out)
        return work

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text in the identity language, e.g. 'p*a*q^(-1) - b*q^(-1)'."""
        items = sorted(
            ((_render_key(key), coeff) for key, coeff in self._terms.items()), reverse=True
        )
        return render_sum(
            (-1 if coeff < 0 else 1, _render_monomial(body, abs(coeff)))
            for (_order, body), coeff in items
        )

    def render_factor(self) -> tuple:
        """(sign, text) of this element as one factor of a product.

        A single monomial renders inline with its sign split off ('1' for
        +-1); anything else is parenthesized with sign +1.
        """
        if len(self._terms) != 1:
            return 1, f"({self.render()})"
        ((key, coeff),) = self._terms.items()
        return -1 if coeff < 0 else 1, _render_monomial(_render_key(key)[1], abs(coeff))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return from_int(value)
    return NotImplemented


@lru_cache(maxsize=RENDER_CACHE_SIZE)
def _render_key(key: int) -> tuple:
    """(term order, text) of a packed exponent vector, each rendered once.

    The order is graded-lexicographic, (degree, exponents); the text is the
    symbol factors ('' for the constants), a negative q exponent as q^(-k).
    """
    exps = _unpack(key)
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(SYMBOLS[i])
        elif e > 1:
            factors.append(f"{SYMBOLS[i]}^{e}")
        elif e < 0:
            factors.append(f"{SYMBOLS[i]}^({e})")
    return (sum(exps), exps), "*".join(factors)


def _render_monomial(body: str, coeff: int) -> str:
    """A monomial of positive coefficient from its symbol factors' text."""
    if not body:
        return str(coeff)
    return body if coeff == 1 else f"{coeff}*{body}"


def render_sum(terms: Iterable[tuple]) -> str:
    """Join (sign, body) pairs as 'a - b + c'; a negative sign subtracts.

    The empty sum is '0'.
    """
    parts = []
    for sign, body in terms:
        if parts:
            parts.append(" - " if sign < 0 else " + ")
        elif sign < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


_ZERO = LaurentPoly._raw({})
_ONE = LaurentPoly._raw({_UNIT: 1})


def zero() -> LaurentPoly:
    return _ZERO


def one() -> LaurentPoly:
    return _ONE


def from_int(n: int) -> LaurentPoly:
    # the shared zero and one, so that __add__'s `is _ZERO` and __mul__'s
    # `is _ONE` tests see a built or coerced 0 or 1
    if n == 0:
        return _ZERO
    if n == 1:
        return _ONE
    return LaurentPoly._raw({_UNIT: n})


def symbol(name: str) -> LaurentPoly:
    i = _SYMBOL_INDEX.get(name)
    if i is None:
        raise ValueError(f"unknown symbol {name!r}; expected one of {SYMBOLS}")
    return LaurentPoly._raw({_UNIT + (1 << _SHIFTS[i]): 1})


def q_power(k: int) -> LaurentPoly:
    return LaurentPoly._raw({_pack(k if j == _Q else 0 for j in range(_NSYM)): 1})
