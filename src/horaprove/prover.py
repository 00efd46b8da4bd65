"""The decision procedure and its certificates, plus the numeric oracle.

An identity `forall n1..nk: lhs == rhs` is decided by eliminating one index
at a time from the normal form of lhs - rhs:

  1. Compute an annihilator of the goal along the chosen index.  Every
     family shares x^2 - p*x + q, with roots alpha and beta (alpha*beta =
     q), so an atom of slope m in that index is a combination of
     alpha^(m*n) and beta^(m*n), and q^(t*n) is (alpha*beta)^(t*n).  A
     monomial's roots alpha^i beta^j are the sums of its atoms' roots; the
     annihilator is the product of one exact factor per conjugate class of
     roots found anywhere in the goal (cfinite.from_root_classes, which
     builds it once per distinct set of classes).
  2. A sequence annihilated by an order-d recurrence whose constant term is
     a unit is determined on all of Z by d consecutive values, so the goal
     is zero everywhere iff it is zero at the index values 0..d-1.  Each of
     those instantiations is a smaller goal; recurse.
  3. With no indices left, every atom has a constant index: expand it to an
     exact ring element and check that the leaf polynomial is zero (after
     substituting any pinned scalars).

The certificate records the annihilator used at every elimination, every
instantiated subgoal, and every leaf polynomial; checking it needs nothing
beyond recurrence windows and polynomial arithmetic.

The fuzz oracle evaluates the original syntax tree lhs - rhs (not the
normal form: an independent route) at seeded random assignments (integer
draws, rational pins), exactly: one tree per trial, its terms read from
one TermWindow per trial, and every value an integer pair (N, e) meaning
N / B^e over the window's one base B, so that a trial builds no Fraction
until its one final value.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .cfinite import Annihilator, class_order, from_root_classes, root_class
from .lang import (
    Expr,
    Identity,
    IntLit,
    NameRef,
    NormalForm,
    Pow,
    Product,
    QPowTerm,
    ScalarRef,
    SeqTerm,
    Sum,
    identity_goal,
    let_values,
)
from .ring import SYMBOLS, ExponentOverflowError, LaurentPoly, zero
from .sequences import Rational, SequenceKind, TermWindow, symbolic_term

DEFAULT_MAX_ORDER = 64


class OrderCapExceededError(RuntimeError):
    """An elimination needed an annihilator order above the configured cap."""


class EliminationOrderError(ValueError):
    """The requested elimination order does not cover the identity's indices."""


@dataclass(frozen=True)
class ProverConfig:
    max_order: int = DEFAULT_MAX_ORDER


# ---------------------------------------------------------------------------
# annihilator synthesis


def annihilator_for(nf: NormalForm, index: str, max_order: int = DEFAULT_MAX_ORDER) -> Annihilator:
    """An annihilator of the goal viewed as a sequence in one index.

    Its roots are exactly the exponentials alpha^i beta^j of the goal's
    monomials, each once, so no smaller product of factors annihilates
    every monomial.

    An atom of slope m != 0 in the index has the roots alpha^m and beta^m,
    lattice points (m, 0) and (0, m); a slope-0 atom has (0, 0) and
    q^(t*n) has (t, t).  A monomial's roots are the Minkowski sum of its
    atoms' root sets ((0, 0) alone for a pure scalar), and the goal's roots
    are their union.  Each conjugate class of roots contributes one factor,
    so the order is known, and checked against the cap, before any
    polynomial is built.
    """
    classes = set()
    for atoms, _scalar in nf.monomials():
        classes.update(root_class(i, j) for i, j in _monomial_roots(atoms, index))
    if not classes:
        raise ValueError("the zero goal needs no annihilator")
    _check_order(class_order(classes), max_order, index)
    return from_root_classes(classes)


def _monomial_roots(atoms: tuple, index: str) -> set:
    roots = {(0, 0)}
    for atom in atoms:
        if isinstance(atom, SeqTerm):
            m = atom.index.coefficient(index)
            atom_roots = ((m, 0), (0, m)) if m else ((0, 0),)
        else:
            t = atom.exponent.coefficient(index)
            atom_roots = ((t, t),)
        roots = {(i + di, j + dj) for i, j in roots for di, dj in atom_roots}
    return roots


def _check_order(order: int, max_order: int, index: str):
    if order > max_order:
        raise OrderCapExceededError(
            f"annihilator order {order} for index {index!r} exceeds the cap {max_order}"
        )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class LeafRecord:
    at: tuple  # ((index, value), ...) along the elimination path
    poly: LaurentPoly
    zero: bool

    @cached_property
    def rendered(self) -> str:
        """The poly's text; a certificate writes it twice, so it is rendered once."""
        return self.poly.render()


@dataclass
class LeafNode:
    goal: NormalForm
    record: LeafRecord


@dataclass
class EliminationNode:
    index: str
    annihilator: Annihilator
    goal: NormalForm
    subgoals: list  # [(value, ProofNode), ...] for value in 0..order-1

    @property
    def order(self) -> int:
        return self.annihilator.order


ProofNode = Union[LeafNode, EliminationNode]

PROVED = "PROVED"
REFUTED = "REFUTED"
ABORTED = "ABORTED"


@dataclass
class Certificate:
    identity: Identity
    elimination: tuple
    root: ProofNode | None
    leaves: list
    verdict: str
    ms: int
    reason: str = ""

    @property
    def witness(self) -> LeafRecord | None:
        """First nonzero leaf when REFUTED, else None."""
        for leaf in self.leaves:
            if not leaf.zero:
                return leaf
        return None

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.identity.source,
            "elimination": list(self.elimination),
            "proof": _node_json(self.root) if self.root is not None else None,
            "leaves": [
                {
                    "at": {index: value for index, value in leaf.at},
                    "poly": leaf.rendered,
                    "zero": leaf.zero,
                }
                for leaf in self.leaves
            ],
            "verdict": self.verdict,
        }
        if self.verdict == ABORTED:
            out["reason"] = self.reason
        out["ms"] = self.ms
        return out


def _node_json(node: ProofNode) -> dict:
    if isinstance(node, LeafNode):
        return {"leaf": {"poly": node.record.rendered, "zero": node.record.zero}}
    return {
        "index": node.index,
        "order": node.order,
        "charpoly": node.annihilator.render(),
        "subgoals": [
            {"value": value, "goal": child.goal.render(), "proof": _node_json(child)}
            for value, child in node.subgoals
        ],
    }


# ---------------------------------------------------------------------------
# proving


def prove(
    identity: Identity,
    elimination_order: Sequence[str] | None = None,
    config: ProverConfig | None = None,
) -> Certificate:
    """Decide an identity; always returns a Certificate.

    Verdicts: PROVED when every leaf polynomial is zero (then the identity
    holds for all integer index values, negative included, because every
    annihilator's constant term is a unit); REFUTED when some leaf is a
    nonzero polynomial; ABORTED when an annihilator order exceeded the cap
    or an exponent of p, a, b, c, d or q left the ring's range.
    """
    config = config or ProverConfig()
    elim = _validated_order(identity, elimination_order)
    pins = identity.pin_map()
    start = time.perf_counter()
    leaves: list = []

    def recurse(nf: NormalForm, remaining: tuple, path: tuple) -> ProofNode:
        if not remaining or nf.is_zero:
            poly = _leaf_poly(nf, pins)
            record = LeafRecord(at=path, poly=poly, zero=poly.is_zero)
            leaves.append(record)
            return LeafNode(goal=nf, record=record)
        index, rest = remaining[0], remaining[1:]
        ann = annihilator_for(nf, index, config.max_order)
        subgoals = []
        for value in range(ann.order):
            child_nf = nf.substitute_index(index, value)
            child = recurse(child_nf, rest, path + ((index, value),))
            subgoals.append((value, child))
        return EliminationNode(index=index, annihilator=ann, goal=nf, subgoals=subgoals)

    try:
        root: ProofNode | None = recurse(identity_goal(identity), elim, ())
        verdict = PROVED if all(leaf.zero for leaf in leaves) else REFUTED
        reason = ""
    except (OrderCapExceededError, ExponentOverflowError) as exc:
        root = None
        leaves = []
        verdict = ABORTED
        reason = str(exc)
    ms = int((time.perf_counter() - start) * 1000)
    return Certificate(
        identity=identity,
        elimination=elim,
        root=root,
        leaves=leaves,
        verdict=verdict,
        ms=ms,
        reason=reason,
    )


def _validated_order(identity: Identity, elimination_order: Sequence[str] | None) -> tuple:
    declared = identity.index_vars
    if elimination_order is None:
        return tuple(declared)
    filtered = tuple(v for v in elimination_order if v in declared)
    missing = [v for v in declared if v not in filtered]
    if missing:
        raise EliminationOrderError(
            f"elimination order {','.join(elimination_order)} does not cover "
            f"index variable(s) {', '.join(missing)}"
        )
    return filtered


def _leaf_poly(nf: NormalForm, pins: Mapping[str, Fraction]) -> LaurentPoly:
    """Expand an index-free goal to a single exact ring element."""
    total = zero()
    for atoms, scalar in nf.monomials():
        term = scalar
        for atom in atoms:
            if isinstance(atom, QPowTerm):
                raise AssertionError(
                    "q-power atom survived to a leaf; indices were not eliminated"
                )
            if not atom.index.is_constant:
                raise AssertionError(
                    "sequence atom with live index reached a leaf"
                )
            term = term * symbolic_term(atom.kind, atom.index.const)
        total = total + term
    if pins:
        total = total.pin_substitute(pins)
    return total


# ---------------------------------------------------------------------------
# the numeric oracle


@dataclass(frozen=True)
class Counterexample:
    trial: int
    scalars: tuple  # ((symbol, Fraction), ...)
    indices: tuple  # ((index, int), ...)
    lhs: Fraction
    rhs: Fraction

    def describe(self) -> str:
        scalars = ", ".join(f"{s}={v}" for s, v in self.scalars)
        indices = ", ".join(f"{n}={v}" for n, v in self.indices)
        return f"trial {self.trial}: {scalars}; {indices}; lhs={self.lhs} rhs={self.rhs}"


@dataclass(frozen=True)
class FuzzResult:
    identity: Identity
    trials: int
    counterexample: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def fuzz(identity: Identity, trials: int, seed: int, value_range: int) -> FuzzResult:
    """Evaluate lhs - rhs exactly at seeded uniform integer assignments.

    One tree holds both sides, so each let is valued once per trial.
    Scalars are drawn from [-value_range, value_range] (q redrawn until
    nonzero, then overridden by pins), index variables from the same range;
    negative indices exercise the backward extensions.  Deterministic for a
    fixed (identity, trials, seed, value_range).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if value_range < 1:
        raise ValueError("range must be at least 1")
    rng = random.Random(seed)
    pins = identity.pin_map()
    bindings = identity.bindings()
    goal = Sum(((1, identity.lhs), (-1, identity.rhs)))
    for trial in range(1, trials + 1):
        scalars = {}
        for name in SYMBOLS:
            value = rng.randint(-value_range, value_range)
            if name == "q":
                while value == 0:
                    value = rng.randint(-value_range, value_range)
            scalars[name] = value
        scalars.update(pins)
        indices = {v: rng.randint(-value_range, value_range) for v in identity.index_vars}
        difference = evaluate_expr(goal, scalars, indices, bindings)
        if difference:
            lhs = evaluate_expr(identity.lhs, scalars, indices, bindings)
            return FuzzResult(
                identity,
                trial,
                Counterexample(
                    trial=trial,
                    scalars=tuple(sorted((s, Fraction(v)) for s, v in scalars.items())),
                    indices=tuple((v, indices[v]) for v in identity.index_vars),
                    lhs=lhs,
                    rhs=lhs - difference,
                ),
            )
    return FuzzResult(identity, trials, None)


def evaluate_expr(
    expr: Expr,
    scalars: Mapping[str, Rational],
    indices: Mapping[str, int],
    bindings: Mapping[str, Expr],
) -> Fraction:
    """Exact value of a syntax tree; the oracle route, bypassing normal forms.

    bindings maps let names to their bodies; each is valued once, before
    the tree.  Every term is read from one TermWindow for the assignment,
    and every value is an integer pair (N, e) meaning N / B^e over the
    window's base B, until the one Fraction of the result.
    """
    window = TermWindow(scalars)
    values = let_values(bindings, lambda body, values: _evaluate(body, window, indices, values))
    n, e = _evaluate(expr, window, indices, values)
    return Fraction(n, window.base_power(e))


def _evaluate(
    expr: Expr,
    window: TermWindow,
    indices: Mapping[str, int],
    values: Mapping[str, tuple],
) -> tuple:
    if isinstance(expr, IntLit):
        return expr.value, 0
    if isinstance(expr, ScalarRef):
        return window.scalars[expr.name]
    if isinstance(expr, NameRef):
        return values[expr.name]
    if isinstance(expr, SeqTerm):
        return window.term_pair(expr.kind, expr.index.value(indices))
    if isinstance(expr, QPowTerm):
        return window.term_pair(SequenceKind.GEOQ, expr.exponent.value(indices))
    if isinstance(expr, Sum):
        (sign, first), *rest = expr.terms
        n, e = _evaluate(first, window, indices, values)
        total = (n if sign > 0 else -n), e
        for sign, term in rest:
            n, f = _evaluate(term, window, indices, values)
            total = window.add(total, (n if sign > 0 else -n, f))
        return total
    if isinstance(expr, Product):
        first, *rest = expr.factors
        total, e = _evaluate(first, window, indices, values)
        for factor in rest:
            n, f = _evaluate(factor, window, indices, values)
            total *= n
            e += f
        return total, e
    if isinstance(expr, Pow):
        n, e = _evaluate(expr.base, window, indices, values)
        return n ** expr.exponent, e * expr.exponent
    raise TypeError(f"unexpected node {expr!r}")
