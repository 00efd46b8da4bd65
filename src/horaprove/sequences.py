"""The recurrence families the prover reasons about, and their terms.

Four families of atoms appear in identities.  W, V and u run one
recurrence, X(n+2) = p*X(n+1) - q*X(n) (cfinite.ORDER_TWO_BASE), and
differ only in their seeds X(0), X(1), which SEEDS writes once per
family; u is the fundamental one.  q^n runs X(n+1) = q*X(n)
(cfinite.GEOQ_BASE).

A family's surface name in the identity language is its SequenceKind
value.  Terms extend to every integer index.  symbolic_term gives the exact
ring element for a fixed index, in closed form; a TermWindow the exact
values of every family under one assignment, by the recurrence alone (an
independent route): forward as written, and backward, since q != 0, as
X(n-1) = (p*X(n) - X(n+1)) / q, each value kept as an integer pair (N, e)
meaning N / B^e over one base B (numeric_term is one fresh window's
lookup); and slope_annihilator the recurrence along indices n -> m*n + c,
the characteristic polynomial of the |m|-th power of the companion matrix
of the family's recurrence, run forward when m > 0 and backward when m < 0.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Mapping

from .cfinite import (
    GEOQ_BACK,
    GEOQ_BASE,
    ORDER_TWO_BACK,
    ORDER_TWO_BASE,
    X_MINUS_ONE,
    Annihilator,
    fundamental,
)
from .ring import LaurentPoly, Rational, ZeroQError, from_int, q_power, symbol


class SequenceKind(Enum):
    W = "W"
    V = "V"
    U = "u"
    GEOQ = "q^n"

    # Members are singletons and equality is identity, so the identity hash
    # is consistent with it; it skips Enum.__hash__, a Python-level call on
    # every dict lookup keyed by a kind.
    __hash__ = object.__hash__


GEOQ = SequenceKind.GEOQ  # reading a member off an Enum class is a slow lookup

# The seeds X(0), X(1) of each family that runs ORDER_TWO_BASE, each a
# scalar symbol's name or an integer.  Every property of the recurrence
# holds whatever the seeds (Horadam, Fibonacci Quarterly 3, 1965), so the
# seeds are all that tells these families apart.
SEEDS = {
    SequenceKind.W: ("a", "b"),
    SequenceKind.V: ("c", "d"),
    SequenceKind.U: (0, 1),
}

# Distinct terms (and slope annihilators) kept: a corpus file asks for ~30.
TERM_CACHE_SIZE = 128


def _seed(s) -> LaurentPoly:
    return symbol(s) if isinstance(s, str) else from_int(s)


# X(1) and -q*X(0) of each family: X(k) = X(1)*u(k) - q*X(0)*u(k-1)
_FACTORS = {kind: (_seed(x1), -symbol("q") * _seed(x0)) for kind, (x0, x1) in SEEDS.items()}


@lru_cache(maxsize=TERM_CACHE_SIZE)
def symbolic_term(kind: SequenceKind, k: int) -> LaurentPoly:
    """The exact ring element for the k-th term, any integer k, by the
    addition law (4.3) at m = 0 from u's closed form (cfinite.fundamental)."""
    if kind is GEOQ:
        return q_power(k)
    x1, x0q = _FACTORS[kind]
    term = x1 * fundamental(k)
    return term + x0q * fundamental(k - 1) if x0q else term


def numeric_term(
    kind: SequenceKind, k: int, assignment: Mapping[str, Rational]
) -> Fraction:
    """Exact rational value of the k-th term under an assignment (q != 0)."""
    window = TermWindow(assignment)
    n, e = window.term_pair(kind, k)
    return Fraction(n, window.base**e)


class TermWindow:
    """Exact term values of every family under one assignment (q != 0).

    Every value is kept as an integer pair (N, e) meaning N / B^e, over one
    base B per window: the lcm of the scalars' denominators times |num(q)|
    (|q| for integer scalars, so 1 under the pins p := 1, q := -1).
    A scalar s is (s, 0) when integral, else (s*B, 1); so is 1/q, except
    that when every scalar is integral it is (+-1, 1) over B = |q|, even
    for |q| = 1.  So every value in Z[1/q, scalars] is an integer over a
    power of B, and sums, products and powers of pairs need no division
    and no gcd.

    A family's seeds are read from the scalars at its first term; from them
    the window extends outward only as far as the indices asked for, so a
    term asked for again is a lookup.  Each family keeps two lists: forward
    X(0), X(1), ..., run by X(n+1) = p*X(n) - q*X(n-1), and backward
    X(0), X(-1), ..., run by the same recurrence solved for its lowest
    term, X(n-1) = (p*X(n) - X(n+1)) * (1/q), one pair product by 1/q a
    step, from X(1) and X(0) at the first negative index asked; q != 0
    makes every family two-sided (Horadam, Fibonacci Quarterly 3, 1965).
    Powers q^k and B^e are one pow each, kept nowhere.

    term_pair serves any family.  Code that knows a term's family before
    it asks (the oracle's compiled closures) calls the family's accessor
    directly: _q_power for q^k, _order_two for W, V and u.
    """

    __slots__ = ("scalars", "base", "inverse_q", "_families")

    def __init__(self, assignment: Mapping[str, Rational]):
        q = assignment["q"]
        if q == 0:
            raise ZeroQError("q must be nonzero")
        # An integral scalar is (s, 0) whatever B is, so it is paired on the
        # way to B; the oracle opens a window per trial, and its draws are
        # integral unless a pin is not.
        scalars = self.scalars = {}
        lcm = 1
        for name, v in assignment.items():
            if v.denominator == 1:
                scalars[name] = v.numerator, 0
            else:
                lcm = math.lcm(lcm, v.denominator)
        if lcm == 1:  # B = |q|, and 1/q is (+-1, 1)
            self.base = abs(q.numerator)
            self.inverse_q = (1 if q > 0 else -1), 1
        else:
            self.base = lcm * abs(q.numerator)
            for name, v in assignment.items():
                scalars[name] = self._pair(v.numerator, v.denominator)
            r = q.denominator if q > 0 else -q.denominator
            self.inverse_q = self._pair(r, abs(q.numerator))
        self._families = {}  # kind -> ([X(0), X(1), ...], [X(0), X(-1), ...])

    def _pair(self, numerator: int, denominator: int) -> tuple:
        """numerator/denominator, where denominator divides B, as a pair."""
        if denominator == 1:
            return numerator, 0
        return numerator * (self.base // denominator), 1

    def term_pair(self, kind: SequenceKind, k: int) -> tuple:
        """The k-th term, any integer k, as a pair (N, e)."""
        return self._q_power(k) if kind is GEOQ else self._order_two(kind, k)

    def _order_two(self, kind: SequenceKind, k: int) -> tuple:
        """term_pair for a family that runs ORDER_TWO_BASE (W, V or u)."""
        family = self._families.get(kind)
        if family is None:
            family = self._families[kind] = self._open(kind)
        forward, backward = family
        if k >= 0:
            if k >= len(forward):
                self._extend(forward, k)
            return forward[k]
        if -k >= len(backward):
            self._extend_backward(family, -k)
        return backward[-k]

    def _open(self, kind: SequenceKind) -> tuple:
        scalars = self.scalars
        s0, s1 = SEEDS[kind]
        x0 = scalars[s0] if isinstance(s0, str) else (s0, 0)
        x1 = scalars[s1] if isinstance(s1, str) else (s1, 0)
        return [x0, x1], [x0]

    def _extend(self, values: list, k: int):
        """Run X(n+1) = p*X(n) - q*X(n-1) until values[k] = X(k) exists."""
        (p, ep), (q, eq) = self.scalars["p"], self.scalars["q"]
        while len(values) <= k:
            (x1, e1), (x0, e0) = values[-1], values[-2]
            e1 += ep
            e0 += eq
            if e1 == e0:  # add's common case, inline
                values.append((p * x1 - q * x0, e1))
            else:
                values.append(self.add((p * x1, e1), (-q * x0, e0)))

    def _extend_backward(self, family: tuple, k: int):
        """Run X(n-1) = (p*X(n) - X(n+1)) * (1/q) until backward[k] = X(-k) exists."""
        forward, values = family
        (p, ep), (r, er) = self.scalars["p"], self.inverse_q
        base = self.base
        # X(n) and X(n+1); the first step, to X(-1), reads X(1) from forward
        (x0, e0), (x1, e1) = values[-1], values[-2] if len(values) > 1 else forward[1]
        while len(values) <= k:
            f = e0 + ep
            if f == e1 + 1:  # add's case when X(-n) sits over B^n (integral scalars), inline
                n, e = p * x0 - x1 * base, f
            else:
                n, e = self.add((p * x0, f), (-x1, e1))
            x1, e1 = x0, e0
            x0, e0 = n * r, e + er
            values.append((x0, e0))

    def add(self, x: tuple, y: tuple) -> tuple:
        """The pair x + y, over the larger of their two powers of B."""
        (n, e), (m, f) = x, y
        if e == f:
            return n + m, e
        if e > f:
            return n + m * self.base ** (e - f), e
        return n * self.base ** (f - e) + m, f

    def _q_power(self, k: int) -> tuple:
        """q^k as a pair: one pow of q's pair, or of 1/q's when k < 0.

        Nothing is kept, so a far power costs memory linear in |k|; lists
        and a table of powers cost the oracle more than the pows they saved.
        """
        step, f = self.scalars["q"] if k >= 0 else self.inverse_q
        j = abs(k)
        return step**j, f * j


@lru_cache(maxsize=TERM_CACHE_SIZE)
def slope_annihilator(kind: SequenceKind, m: int) -> Annihilator:
    """Annihilator of n -> term(m*n + c), any integer slope m, any offset c.

    The family's state advances by its companion matrix C, so sampling along
    slope m advances by C^|m|, |m| - 1 products with C, whose characteristic
    polynomial annihilates every such sequence; for m < 0, C is that of the
    backward recurrence (GEOQ_BACK or ORDER_TWO_BACK).  Slope 0 gives x - 1.
    Tests compare this matrix route with the root lattice (from_root_classes).
    """
    if m == 0:
        return X_MINUS_ONE
    from . import linalg  # only the closure algebra needs it
    if kind is GEOQ:
        recurrence = GEOQ_BASE if m > 0 else GEOQ_BACK
    else:
        recurrence = ORDER_TWO_BASE if m > 0 else ORDER_TWO_BACK
    mat = linalg.companion(recurrence.coeffs)
    return Annihilator(linalg.charpoly(reduce(linalg.mat_mul, [mat] * (abs(m) - 1), mat)))
