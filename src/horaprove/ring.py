"""Exact coefficient arithmetic for the prover.

The ring is Z[p, a, b, c, d][q, q^-1]: multivariate polynomials with
arbitrary-precision integer coefficients over six fixed scalar symbols,
Laurent in q.  q is the only symbol allowed a negative exponent because it
is the only quantity the theory ever divides by (extending a recurrence to
negative indices divides by its trailing coefficient, a power of q).
Coefficients are ints, never floats: every identity check is exact.

Representation: a polynomial is a mapping from exponent vectors to nonzero
integer coefficients.  An exponent vector is a tuple of six ints ordered as
SYMBOLS (q last); the zero polynomial is the empty mapping.  Values are
canonical and immutable after construction, so they are safe to share and
to use as dict keys.  Rendering writes the identity language
(a negative q power is q^(-k)) in a fixed graded-lexicographic term order,
so every printed form is deterministic and parses back to its value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

SYMBOLS = ("p", "a", "b", "c", "d", "q")
_NSYM = len(SYMBOLS)
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_Q = _SYMBOL_INDEX["q"]
_UNIT_EXPS = (0,) * _NSYM

Exponents = tuple
Rational = Union[int, Fraction]


class ZeroQError(ValueError):
    """An operation required q to be invertible but q was assigned 0."""


class NotAUnitError(ValueError):
    """Inversion was asked of a ring element that is not +-(a power of q)."""


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
        out[exps] = out.get(exps, 0) + coeff
        if out[exps] == 0:
            del out[exps]
    return out


class LaurentPoly:
    """Immutable element of Z[p, a, b, c, d][q, q^-1]."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        object.__setattr__(self, "_terms", _canonical(terms or {}))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # terms must already be canonical (no zeros, valid exponents)
        self = cls.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        if n == 0:
            return _ZERO
        return cls._raw({_UNIT_EXPS: n})

    @classmethod
    def symbol(cls, name: str) -> "LaurentPoly":
        i = _SYMBOL_INDEX.get(name)
        if i is None:
            raise ValueError(f"unknown symbol {name!r}; expected one of {SYMBOLS}")
        exps = tuple(1 if j == i else 0 for j in range(_NSYM))
        return cls._raw({exps: 1})

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        exps = tuple(k if j == _Q else 0 for j in range(_NSYM))
        return cls._raw({exps: 1})

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def monomials(self) -> Iterator[tuple[Exponents, int]]:
        """Terms in the canonical (graded-lex, descending) order."""
        return iter(sorted(self._terms.items(), key=_term_order, reverse=True))

    def terms(self) -> dict:
        return dict(self._terms)

    def min_exponent(self, name: str) -> int:
        """Smallest exponent of `name` across terms (0 for the zero poly)."""
        i = _SYMBOL_INDEX[name]
        if not self._terms:
            return 0
        return min(exps[i] for exps in self._terms)

    def max_exponent(self, name: str) -> int:
        i = _SYMBOL_INDEX[name]
        if not self._terms:
            return 0
        return max(exps[i] for exps in self._terms)

    def as_int(self) -> int:
        """The value of a constant polynomial; ValueError if non-constant."""
        if not self._terms:
            return 0
        if list(self._terms) == [_UNIT_EXPS]:
            return self._terms[_UNIT_EXPS]
        raise ValueError(f"not a constant polynomial: {self}")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            s = out.get(exps, 0) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({exps: -coeff for exps, coeff in self._terms.items()})

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(exps, 0) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    del out[exps]
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
        (exps, coeff), = self._terms.items()
        return abs(coeff) == 1 and all(e == 0 for i, e in enumerate(exps) if i != _Q)

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotAUnitError(f"not a unit of the coefficient ring: {self}")
        (exps, coeff), = self._terms.items()
        inv = tuple(-e for e in exps)
        return LaurentPoly._raw({inv: coeff})

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
        for exps, coeff in self._terms.items():
            term = Fraction(coeff)
            for i, e in enumerate(exps):
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

    def substitute(self, values: Mapping[str, int]) -> "LaurentPoly":
        """Exact substitution of integers for symbols.

        A substituted symbol must either appear only with non-negative
        exponents or be replaced by +-1 (otherwise the result would leave
        the integer-coefficient ring).
        """
        idx = {}
        for name, v in values.items():
            i = _SYMBOL_INDEX.get(name)
            if i is None:
                raise ValueError(f"unknown symbol {name!r}")
            idx[i] = v
        out: dict = {}
        for exps, coeff in self._terms.items():
            c = coeff
            new = list(exps)
            for i, v in idx.items():
                e = exps[i]
                if e < 0:
                    if v == 0:
                        raise ZeroQError("q must be nonzero")
                    if abs(v) != 1:
                        raise ValueError(
                            f"cannot substitute {v} for {SYMBOLS[i]} at negative exponent"
                        )
                    c *= v ** (-e)
                else:
                    c *= v ** e
                new[i] = 0
            key = tuple(new)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly._raw(out)

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
                work = work * LaurentPoly.q_power(-m)
        for name, value in pins.items():
            i = _SYMBOL_INDEX.get(name)
            if i is None:
                raise ValueError(f"unknown symbol {name!r}")
            value = Fraction(value)
            num, den = value.numerator, value.denominator
            top = work.max_exponent(name)
            out: dict = {}
            for exps, coeff in work._terms.items():
                e = exps[i]
                c = coeff * num ** e * den ** (top - e)
                key = tuple(0 if j == i else x for j, x in enumerate(exps))
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
        return render_sum(
            (-1 if coeff < 0 else 1, _render_monomial(exps, abs(coeff)))
            for exps, coeff in self.monomials()
        )

    def render_factor(self) -> tuple:
        """(sign, text) of this element as one factor of a product.

        A single monomial renders inline with its sign split off ('1' for
        +-1); anything else is parenthesized with sign +1.
        """
        if len(self._terms) != 1:
            return 1, f"({self.render()})"
        ((exps, coeff),) = self._terms.items()
        return -1 if coeff < 0 else 1, _render_monomial(exps, abs(coeff))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"

    def sort_key(self):
        """A deterministic total-order key (used to sort sets of polys)."""
        return tuple(sorted(self._terms.items()))


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.from_int(value)
    return NotImplemented


def _term_order(item):
    exps, _coeff = item
    return (sum(exps), exps)


def _render_monomial(exps: Exponents, coeff: int) -> str:
    """A monomial of positive coefficient; a negative q exponent is q^(-k)."""
    factors = []
    if coeff != 1 or all(e == 0 for e in exps):
        factors.append(str(coeff))
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(SYMBOLS[i])
        elif e > 1:
            factors.append(f"{SYMBOLS[i]}^{e}")
        elif e < 0:
            factors.append(f"{SYMBOLS[i]}^({e})")
    return "*".join(factors)


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
_ONE = LaurentPoly._raw({_UNIT_EXPS: 1})


def zero() -> LaurentPoly:
    return _ZERO


def one() -> LaurentPoly:
    return _ONE


def from_int(n: int) -> LaurentPoly:
    return LaurentPoly.from_int(n)


def symbol(name: str) -> LaurentPoly:
    return LaurentPoly.symbol(name)


def q_power(k: int) -> LaurentPoly:
    return LaurentPoly.q_power(k)
