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
     those instantiations is a smaller goal; recurse.  Two paths can
     reach equal goals with the same indices left (a law symmetric in
     its indices does); such a goal is proved once, and every later path
     reuses its proof tree.
  3. With no indices left, every atom has a constant index: expand it to an
     exact ring element and check that the leaf polynomial is zero (after
     substituting any pinned scalars).  Leaves across a file repeat the
     same products of terms, so the product of a monomial's first two
     terms comes from a bounded per-process cache.

The certificate records the annihilator used at every elimination, every
instantiated subgoal, and every leaf polynomial, one per path even where
paths share a proof; checking it needs nothing beyond recurrence windows
and polynomial arithmetic.

The fuzz oracle evaluates the original syntax tree lhs - rhs (not the
normal form: an independent route) at seeded random assignments (integer
draws, rational pins), exactly.  The tree and each let body it reaches are
compiled once per fuzz call into a tree of closures, one per node, so a
trial dispatches on no node type; a trial calls the closures, which read
their terms from one TermWindow per trial.  Every value is an integer pair
(N, e) meaning N / B^e over the window's one base B, so a trial builds no
Fraction unless its difference is nonzero.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence, Union

from .cfinite import Annihilator, class_order, from_root_classes, root_class
from .lang import (
    Expr,
    Identity,
    IntLit,
    LinForm,
    NameRef,
    NormalForm,
    Pow,
    Product,
    ScalarRef,
    SeqTerm,
    Sum,
    identity_goal,
    let_values,
)
from .ring import SYMBOLS, ExponentOverflowError, LaurentPoly, Rational, Record, zero
from .sequences import SequenceKind, TermWindow, symbolic_term

DEFAULT_MAX_ORDER = 64


class OrderCapExceededError(RuntimeError):
    """An elimination needed an annihilator order above the configured cap."""


class EliminationOrderError(ValueError):
    """The requested elimination order does not cover the identity's indices."""


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

    A monomial's classes along an index come from a bounded per-process
    cache keyed by its atom tuple, so a monomial that many subgoals share
    is analysed once; the union needs no order, since from_root_classes
    sorts the classes.
    """
    classes = set()
    for atoms in nf.support():
        classes |= _monomial_classes(atoms, index)
    if not classes:
        raise ValueError("the zero goal needs no annihilator")
    _check_order(class_order(classes), max_order, index)
    return from_root_classes(classes)


# distinct (atom tuple, index) pairs whose root classes are kept
ROOT_CLASS_CACHE_SIZE = 1024


@lru_cache(maxsize=ROOT_CLASS_CACHE_SIZE)
def _monomial_classes(atoms: tuple, index: str) -> frozenset:
    """The conjugate root classes of one monomial along the index."""
    roots = {(0, 0)}
    for atom in atoms:
        m = atom.index.coefficient(index)
        if atom.kind is SequenceKind.GEOQ:
            atom_roots = ((m, m),)
        else:
            atom_roots = ((m, 0), (0, m)) if m else ((0, 0),)
        roots = {(i + di, j + dj) for i, j in roots for di, dj in atom_roots}
    return frozenset(root_class(i, j) for i, j in roots)


def _check_order(order: int, max_order: int, index: str):
    if order > max_order:
        raise OrderCapExceededError(
            f"annihilator order {order} for index {index!r} exceeds the cap {max_order}"
        )


# ---------------------------------------------------------------------------
# certificates


class LeafRecord(Record):
    # at is ((index, value), ...) along the elimination path; poly is the
    # LeafNode's, shared by every path that reaches it
    __slots__ = ("at", "poly", "zero")


class LeafNode(Record):
    __slots__ = ("goal", "poly", "zero")  # NormalForm, LaurentPoly, bool


class EliminationNode(Record):
    # subgoals is [(value, ProofNode), ...] for value in 0..order-1
    __slots__ = ("index", "annihilator", "goal", "subgoals")

    @property
    def order(self) -> int:
        return self.annihilator.order


ProofNode = Union[LeafNode, EliminationNode]

PROVED = "PROVED"
REFUTED = "REFUTED"
ABORTED = "ABORTED"


class Certificate(Record):
    __slots__ = ("identity", "elimination", "root", "leaves", "verdict", "ms", "reason")
    _defaults = {"reason": ""}

    @property
    def witness(self) -> LeafRecord | None:
        """First nonzero leaf when REFUTED, else None."""
        for leaf in self.leaves:
            if not leaf.zero:
                return leaf
        return None

    def to_json_dict(self) -> dict:
        """The certificate as JSON data.

        A node or leaf poly that several paths share is rendered once and
        its JSON written at each of them.
        """
        render = _JsonRenderer()
        out = {
            "identity": self.identity.source,
            "elimination": list(self.elimination),
            "proof": render.node(self.root) if self.root is not None else None,
            "leaves": [
                {
                    "at": {index: value for index, value in leaf.at},
                    "poly": render.poly(leaf.poly),
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


class _JsonRenderer:
    """Renders each distinct subgoal and leaf poly of one certificate once."""

    def __init__(self):
        self._subgoals: dict = {}  # id(node) -> {"goal": its text, "proof": its JSON}
        self._polys: dict = {}  # id(poly) -> its text

    def poly(self, poly: LaurentPoly) -> str:
        text = self._polys.get(id(poly))
        if text is None:
            text = self._polys[id(poly)] = poly.render()
        return text

    def node(self, node: ProofNode) -> dict:
        if isinstance(node, LeafNode):
            return {"leaf": {"poly": self.poly(node.poly), "zero": node.zero}}
        return {
            "index": node.index,
            "order": node.order,
            "charpoly": node.annihilator.render(),
            "subgoals": [{"value": value, **self._subgoal(child)} for value, child in node.subgoals],
        }

    def _subgoal(self, node: ProofNode) -> dict:
        doc = self._subgoals.get(id(node))
        if doc is None:
            doc = self._subgoals[id(node)] = {"goal": node.goal.render(), "proof": self.node(node)}
        return doc


# ---------------------------------------------------------------------------
# proving


def prove(
    identity: Identity,
    elimination_order: Sequence[str] | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> Certificate:
    """Decide an identity; always returns a Certificate.

    Verdicts: PROVED when every leaf polynomial is zero (then the identity
    holds for all integer index values, negative included, because every
    annihilator's constant term is a unit); REFUTED when some leaf is a
    nonzero polynomial; ABORTED when an annihilator order exceeded max_order
    or an exponent of p, a, b, c, d or q left the ring's range.
    """
    elim = _validated_order(identity, elimination_order)
    pins = identity.pin_map()
    start = time.perf_counter()
    # (support, remaining) -> the nodes proved for goals with that support.
    # Equal goals come from paths that differ in two or more eliminated
    # indices, as when a law symmetric in i and j swaps their values; one
    # goal's instances along a single index are seldom equal (never in the
    # shipped corpora), so only goals below two eliminations pay a lookup.
    proved: dict = {}

    def recurse(nf: NormalForm, remaining: tuple, depth: int) -> ProofNode:
        if depth < 2:
            return build(nf, remaining, depth)
        key = nf.support(), remaining
        nodes = proved.get(key)
        if nodes is None:
            nodes = proved[key] = []
        else:
            for node in nodes:
                if node.goal == nf:
                    return node
        node = build(nf, remaining, depth)
        nodes.append(node)
        return node

    def build(nf: NormalForm, remaining: tuple, depth: int) -> ProofNode:
        if not remaining or nf.is_zero:
            poly = _leaf_poly(nf, pins)
            return LeafNode(nf, poly, poly.is_zero)
        index, rest = remaining[0], remaining[1:]
        ann = annihilator_for(nf, index, max_order)
        subgoals = []
        for value in range(ann.order):
            child_nf = nf.substitute_index(index, value)
            child = recurse(child_nf, rest, depth + 1)
            subgoals.append((value, child))
        return EliminationNode(index, ann, nf, subgoals)

    try:
        root: ProofNode | None = recurse(identity_goal(identity), elim, 0)
        leaves = list(_leaf_records(root, ()))
        verdict = PROVED if all(leaf.zero for leaf in leaves) else REFUTED
        reason = ""
    except (OrderCapExceededError, ExponentOverflowError) as exc:
        root = None
        leaves = []
        verdict = ABORTED
        reason = str(exc)
    ms = int((time.perf_counter() - start) * 1000)
    return Certificate(identity, elim, root, leaves, verdict, ms, reason)


def _leaf_records(node: ProofNode, path: tuple) -> Iterator[LeafRecord]:
    """The leaf records below node, reached along path, in DFS order.

    A subtree shared by several paths is walked once per path, so each
    record's `at` is its own path; its poly is the LeafNode's.
    """
    if isinstance(node, LeafNode):
        yield LeafRecord(path, node.poly, node.zero)
        return
    for value, child in node.subgoals:
        yield from _leaf_records(child, path + ((node.index, value),))


def _validated_order(identity: Identity, elimination_order: Sequence[str] | None) -> tuple:
    declared = identity.index_vars
    if elimination_order is None:
        return tuple(declared)
    # names the identity does not declare are dropped, a repeated one keeps its first place
    filtered = tuple(dict.fromkeys(v for v in elimination_order if v in declared))
    missing = [v for v in declared if v not in filtered]
    if missing:
        raise EliminationOrderError(
            f"elimination order {','.join(elimination_order)} does not cover "
            f"index variable(s) {', '.join(missing)}"
        )
    return filtered


def _leaf_poly(nf: NormalForm, pins: Mapping[str, Fraction]) -> LaurentPoly:
    """Expand an index-free goal to a single exact ring element.

    The monomials are summed in the goal's term-dict order, with no sort:
    the sum is one canonical ring element, and render sorts its terms.
    Every atom's term is asked of symbolic_term.  The product of a
    monomial's first two terms comes from a bounded per-process cache
    keyed by the two terms, since the same products recur across the
    leaves of a file.  The scalar and then any further terms are
    multiplied in uncached, so no partial product larger than a pair is
    kept.
    """
    total = zero()
    for atoms, scalar in nf._terms.items():  # the goal's own dict: monomials() would sort it
        factors = []
        for atom in atoms:
            index = atom.index
            if index.coeffs:
                raise AssertionError("sequence atom with live index reached a leaf")
            factors.append(symbolic_term(atom.kind, index.const))
        term = scalar
        if factors:
            head = factors[0] if len(factors) == 1 else _term_product(factors[0], factors[1])
            term = scalar * head
            for factor in factors[2:]:
                term = term * factor
        total = total + term
    if pins:
        total = total.pin_substitute(pins)
    return total


# distinct pairs of leaf terms whose product is kept
TERM_PRODUCT_CACHE_SIZE = 256


@lru_cache(maxsize=TERM_PRODUCT_CACHE_SIZE)
def _term_product(left: LaurentPoly, right: LaurentPoly) -> LaurentPoly:
    return left * right


# ---------------------------------------------------------------------------
# the numeric oracle


class Counterexample(Record):
    # scalars is ((symbol, Fraction), ...), indices ((index, int), ...)
    __slots__ = ("trial", "scalars", "indices", "lhs", "rhs")

    def describe(self) -> str:
        scalars = ", ".join(f"{s}={v}" for s, v in self.scalars)
        indices = ", ".join(f"{n}={v}" for n, v in self.indices)
        return f"trial {self.trial}: {scalars}; {indices}; lhs={self.lhs} rhs={self.rhs}"


class FuzzResult(Record):
    __slots__ = ("identity", "trials", "counterexample")

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def fuzz(identity: Identity, trials: int, seed: int, value_range: int) -> FuzzResult:
    """Evaluate lhs - rhs exactly at seeded uniform integer assignments.

    The goal lhs - rhs and each reached let body are compiled once; a trial
    opens one TermWindow, values the lets in order and calls the goal.
    Scalars are drawn from [-value_range, value_range] (q redrawn until
    nonzero, then overridden by pins), index variables from the same range;
    negative indices exercise the backward extensions.  Deterministic for a
    fixed (identity, trials, seed, value_range).

    Each value is one rejection loop over getrandbits, the stream of
    random.randrange(-value_range, value_range + 1) without its argument
    checks: draw width.bit_length() bits, width = 2*value_range + 1, until
    the draw is below width (for q, also not value_range, q's 0), then
    subtract value_range.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if value_range < 1:
        raise ValueError("range must be at least 1")
    getrandbits = random.Random(seed).getrandbits
    width = 2 * value_range + 1
    bits = width.bit_length()
    # each scalar with the draw it must redraw: q's 0, none for the others
    scalar_draws = tuple((name, value_range if name == "q" else width) for name in SYMBOLS)
    index_vars = identity.index_vars
    pins = identity.pin_map()
    bindings = identity.bindings()
    goal = _compile(Sum(((1, identity.lhs), (-1, identity.rhs))))
    lets = _compile_lets(bindings)
    for trial in range(1, trials + 1):
        scalars = {}
        for name, redraw in scalar_draws:
            v = getrandbits(bits)
            while v >= width or v == redraw:
                v = getrandbits(bits)
            scalars[name] = v - value_range
        scalars.update(pins)
        indices = {}
        for name in index_vars:
            v = getrandbits(bits)
            while v >= width:
                v = getrandbits(bits)
            indices[name] = v - value_range
        window = TermWindow(scalars)
        n, e = _run(goal, lets, window, indices)
        if n:
            difference = Fraction(n, window.base_power(e))
            lhs = evaluate_expr(identity.lhs, scalars, indices, bindings)
            return FuzzResult(
                identity,
                trial,
                Counterexample(
                    trial=trial,
                    scalars=tuple(sorted((s, Fraction(v)) for s, v in scalars.items())),
                    indices=tuple((v, indices[v]) for v in index_vars),
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
    the tree.  The tree and the bodies are compiled as fuzz compiles them,
    then run once: every term is read from one TermWindow for the
    assignment, and every value is an integer pair (N, e) meaning N / B^e
    over the window's base B, until the one Fraction of the result.
    """
    window = TermWindow(scalars)
    n, e = _run(_compile(expr), _compile_lets(bindings), window, indices)
    return Fraction(n, window.base_power(e))


# A compiled node is a closure (window, indices, values) -> (N, e): it reads
# its terms from the window, its index variables from indices and its let
# names' pairs from values.
Compiled = Callable[[TermWindow, Mapping[str, int], Mapping[str, tuple]], tuple]


def _compile_lets(bindings: Mapping[str, Expr]) -> dict:
    return {name: _compile(body) for name, body in bindings.items()}


def _run(
    goal: Compiled, lets: Mapping[str, Compiled], window: TermWindow, indices: Mapping[str, int]
) -> tuple:
    """The goal's pair, after valuing the compiled lets once each, in order."""
    if not lets:
        return goal(window, indices, {})
    values = let_values(lets, lambda body, values: body(window, indices, values))
    return goal(window, indices, values)


def _compile(expr: Expr) -> Compiled:
    """One closure per node of the tree, built once.

    Every per-node decision is taken here: a call dispatches on no node
    type, and a term's closure holds its kind and its index form's constant
    and (variable, coefficient) pairs, so it never calls LinForm.value.
    """
    if isinstance(expr, IntLit):
        pair = expr.value, 0
        return lambda window, indices, values: pair
    if isinstance(expr, ScalarRef):
        name = expr.name
        return lambda window, indices, values: window.scalars[name]
    if isinstance(expr, NameRef):
        name = expr.name
        return lambda window, indices, values: values[name]
    if isinstance(expr, SeqTerm):
        return _compile_term(expr.kind, expr.index)
    if isinstance(expr, Sum):
        return _compile_sum(expr)
    if isinstance(expr, Product):
        return _compile_product(expr)
    if isinstance(expr, Pow):
        return _compile_pow(expr)
    raise TypeError(f"unexpected node {expr!r}")


def _compile_term(kind: SequenceKind, form: LinForm) -> Compiled:
    const, coeffs = form.const, form.coeffs
    if not coeffs:
        return lambda window, indices, values: window.term_pair(kind, const)
    if len(coeffs) == 1:
        ((var, c),) = coeffs
        return lambda window, indices, values: window.term_pair(kind, const + c * indices[var])

    def term(window, indices, values):
        k = const
        for var, c in coeffs:
            k += c * indices[var]
        return window.term_pair(kind, k)

    return term


def _compile_sum(expr: Sum) -> Compiled:
    (sign, first), *rest = expr.terms
    first = _compile(first)
    negate_first = sign < 0
    rest = tuple((sign < 0, _compile(term)) for sign, term in rest)

    def total(window, indices, values):
        n, e = first(window, indices, values)
        if negate_first:
            n = -n
        for negate, term in rest:
            m, f = term(window, indices, values)
            if negate:
                m = -m
            if e == f:  # window.add's common case, inline
                n += m
            else:
                n, e = window.add((n, e), (m, f))
        return n, e

    return total


def _compile_product(expr: Product) -> Compiled:
    first, *rest = map(_compile, expr.factors)
    rest = tuple(rest)

    def product(window, indices, values):
        n, e = first(window, indices, values)
        for factor in rest:
            m, f = factor(window, indices, values)
            n *= m
            e += f
        return n, e

    return product


def _compile_pow(expr: Pow) -> Compiled:
    base, k = _compile(expr.base), expr.exponent

    def power(window, indices, values):
        n, e = base(window, indices, values)
        return n**k, e * k

    return power
