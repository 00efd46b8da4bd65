"""Closure algebra for linear recurrences with constant coefficients.

An Annihilator is the monic characteristic polynomial of a linear
recurrence over the coefficient ring: coeffs (c0, ..., c_{d-1}, 1),
ascending, encodes

    X(n+d) + c_{d-1} X(n+d-1) + ... + c0 X(n) = 0.

A sequence "satisfies" the annihilator when that window identity holds for
every n.  The constant term c0 is required to be a ring unit (+-q^k): that
makes the recurrence runnable backward as well as forward, so a sequence
satisfying it is pinned down on all of Z by d consecutive values.  This is
what lets the prover check finitely many initial cases and conclude for
every integer index, negative ones included.

The families' recurrences run forward are ORDER_TWO_BASE, x^2 - p*x + q,
and GEOQ_BASE, x - q.  Run backward, X(n) in terms of the terms after it,
they are the reversed polynomials made monic by 1/q: ORDER_TWO_BACK,
x^2 - p*q^(-1)*x + q^(-1), and GEOQ_BACK, x - q^(-1).

The prover builds its annihilators from roots.  Every family shares
x^2 - p*x + q, with roots alpha and beta (alpha*beta = q), so every term it
meets is a combination of the exponentials alpha^i beta^j along an index.
goal_classes maps a goal's frozenset of slope patterns to the conjugate
classes of its roots (see root_class), and from_root_classes maps a set of
classes to their exact product of factors.  Each has a bounded
per-process cache whose keys are ints and name no atom.

Closure operations, the independent cross-check route (the prover does
not call them):
  * product(f, g)        products of solutions; Kronecker of companions
  * sum_annihilators     sums of solutions; polynomial product (with dedupe)
Both are division-free and purely symbolic, so results are exact.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable

from .ring import (
    LaurentPoly,
    Record,
    from_int,
    one,
    q_power,
    render_sum,
    render_term,
    symbol,
    zero,
)


class OrderMismatchError(ValueError):
    """An annihilator must have order at least 1."""


class Annihilator(Record):
    """Monic characteristic polynomial of a constant-coefficient recurrence.

    coeffs are ascending: (c0, ..., c_{d-1}, 1).  Instances are validated on
    construction: monic, order >= 1, and unit constant term.
    """

    __slots__ = ("coeffs", "__dict__")  # __dict__ holds the cached text

    def __init__(self, coeffs: tuple):
        cs = tuple(c if isinstance(c, LaurentPoly) else from_int(c) for c in coeffs)
        _set_coeffs(self, cs)
        if len(cs) < 2:
            raise OrderMismatchError("annihilator order must be at least 1")
        if cs[-1] != 1:
            raise ValueError("annihilator must be monic")
        if not cs[0].is_unit():
            raise ValueError(
                f"constant term must be a unit (+-q^k), got {cs[0]}: "
                "the recurrence could not run backward"
            )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def render(self) -> str:
        """Deterministic text form, e.g. 'x^2 - p*x + q'.

        Each coefficient is written as a factor in the identity language.
        The text is built once per annihilator, which the prover reuses
        across eliminations (see from_root_classes).
        """
        return self._text

    @cached_property
    def _text(self) -> str:
        terms = []
        for k in range(self.order, -1, -1):
            if not self.coeffs[k].is_zero:
                power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
                terms.append(render_term(self.coeffs[k], power))
        return render_sum(terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Annihilator({self.render()})"


(_set_coeffs,) = Annihilator._setters


def product(f: Annihilator, g: Annihilator) -> Annihilator:
    """Annihilator of all term-wise products of solutions of f and of g.

    The state of a product sequence is the Kronecker product of the factor
    states, advanced by the Kronecker product of the companion matrices,
    so its characteristic polynomial annihilates every product sequence.
    Order multiplies; no minimality is attempted.
    """
    from . import linalg
    m = linalg.kron(linalg.companion(f.coeffs), linalg.companion(g.coeffs))
    return Annihilator(linalg.charpoly(m))


def sum_annihilators(f: Annihilator, g: Annihilator) -> Annihilator:
    """Annihilator of all term-wise sums; dedupes on exact equality only."""
    if f == g:
        return f
    return Annihilator(_poly_mul(f.coeffs, g.coeffs))


def root_class(i: int, j: int) -> tuple:
    """Conjugate class (k, e) of the root alpha^i beta^j.

    alpha^i beta^j and alpha^j beta^i are the two roots
    q^k alpha^e and q^k beta^e, with k = min(i, j) and e = |i - j|.
    """
    return min(i, j), abs(i - j)


def class_order(root_classes: Iterable[tuple]) -> int:
    """Order of from_root_classes(root_classes), without building it."""
    return sum(1 if e == 0 else 2 for _k, e in set(root_classes))


GOAL_CLASS_CACHE_SIZE = 256


@lru_cache(maxsize=GOAL_CLASS_CACHE_SIZE)
def goal_classes(patterns: frozenset) -> tuple:
    """(class_order, classes) of a goal whose monomials have these slope patterns.

    A pattern (t, slopes) is a monomial's q-atom slope and the sorted
    nonzero slopes of its other atoms.  Its roots are the Minkowski sum,
    from the lattice point (t, t) of q^(t*n), of the points (m, 0) and
    (0, m), alpha^m and beta^m, of each slope m; the goal's are their union.
    """
    classes = set()
    for t, slopes in patterns:
        roots = {(t, t)}
        for m in slopes:
            roots = {root for i, j in roots for root in ((i + m, j), (i, j + m))}
        classes.update(root_class(i, j) for i, j in roots)
    return class_order(classes), frozenset(classes)


ANNIHILATOR_CACHE_SIZE = 256


@lru_cache(maxsize=ANNIHILATOR_CACHE_SIZE)
def from_root_classes(root_classes: frozenset) -> Annihilator:
    """Annihilator whose roots are exactly the given conjugate classes.

    Class (k, 0) is the root q^k and contributes x - q^k; class (k, e) with
    e > 0 is the pair q^k alpha^e, q^k beta^e and contributes
    x^2 - q^k L(e) x + q^(2k+e), L the Lucas companion.  Every constant term
    is a unit, and factors multiply in sorted class order, so the result is
    deterministic.

    Equal class sets give the same Annihilator object while the set is among
    the ANNIHILATOR_CACHE_SIZE most recently used: the prover meets few
    distinct sets, each on many subgoals.
    """
    coeffs = (one(),)
    for k, e in sorted(root_classes):
        if e == 0:
            factor = (-q_power(k), one())
        else:
            factor = (q_power(2 * k + e), -(q_power(k) * lucas(e)), one())
        coeffs = _poly_mul(coeffs, factor)
    return Annihilator(coeffs)


def fundamental(k: int) -> LaurentPoly:
    """u(k) (u0 = 0, u1 = 1), any integer k, in Lucas's closed form
    u(n) = sum_j (-1)^j C(n-1-j, j) p^(n-1-2j) q^j, n >= 1 (Amer. J. Math. 1,
    1878), and u(-n) = -q^(-n) u(n).  The end powers are range-checked before
    any binomial is computed, so a far index raises ExponentOverflowError at once.
    """
    if k == 0:
        return zero()
    m = abs(k) - 1  # C(m-j-1, j+1) = C(m-j, j) * (m-2j)(m-2j-1) / ((j+1)(m-j)), exactly
    binomials = accumulate(range(m // 2), initial=1 if k > 0 else -1, func=lambda c, j:
                           -c * ((m - 2 * j) * (m - 2 * j - 1)) // ((j + 1) * (m - j)))
    return LaurentPoly.pq_series(m, min(k, 0), binomials)


def lucas(e: int) -> LaurentPoly:
    """L(e) = alpha^e + beta^e = u(e+1) - q u(e-1), any integer e: L0 = 2, L1 = p."""
    return fundamental(e + 1) - symbol("q") * fundamental(e - 1)


def _poly_mul(f: Iterable[LaurentPoly], g: Iterable[LaurentPoly]):
    f = list(f)
    g = list(g)
    out = [zero()] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi.is_zero:
            continue
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return tuple(out)


X_MINUS_ONE = Annihilator((from_int(-1), one()))
ORDER_TWO_BASE = Annihilator((symbol("q"), -symbol("p"), one()))
GEOQ_BASE = Annihilator((-symbol("q"), one()))
ORDER_TWO_BACK = Annihilator((q_power(-1), -symbol("p") * q_power(-1), one()))
GEOQ_BACK = Annihilator((-q_power(-1), one()))
