"""The decision procedure and its certificates, plus the numeric oracle.

An identity `forall n1..nk: lhs == rhs` is decided by eliminating one index
at a time from the normal form of lhs - rhs:

  1. Compute an annihilator of the goal along the chosen index.  Every
     family shares x^2 - p*x + q, with roots alpha and beta (alpha*beta =
     q), so an atom of slope m in that index is a combination of
     alpha^(m*n) and beta^(m*n), and q^(t*n) is (alpha*beta)^(t*n).  A
     monomial's roots alpha^i beta^j are the sums of its atoms' roots; the
     annihilator is the product of one exact factor per conjugate class of
     roots found anywhere in the goal.  The classes depend only on the
     slopes in the index, so cfinite keeps two bounded caches: goal_classes
     maps a goal's set of slope patterns, which sibling subgoals share, to
     its order and classes, and from_root_classes maps a set of classes to
     its annihilator.
  2. A sequence annihilated by an order-d recurrence whose constant term is
     a unit is determined on all of Z by d consecutive values, so the goal
     is zero everywhere iff it is zero at the index values 0..d-1.  Each of
     those instantiations is a smaller goal; recurse, in that order.  Two
     paths can reach equal goals with the same indices left (a law
     symmetric in its indices does); such a goal is proved once, and every
     later path reuses its proof tree.
  3. With no indices left, every atom has a constant index: expand it to an
     exact ring element and check that the leaf polynomial is zero (after
     substituting any pinned scalars).  Leaves across a file repeat the
     same products of terms, so the product of a monomial's first two
     terms comes from a bounded per-process cache.

No goal holds u(0), which is zero since u0 = 0: instantiating an index
drops every monomial that it makes hold u(0) (lang.NormalForm's
invariant).  A subgoal whose every monomial holds u(0) is therefore zero
at once, a leaf with nothing below it, and a smaller subgoal can only
lower an annihilator's order.

Before step 1, the atoms that every monomial holds are cancelled, as the
paper takes the common W_{n+2} out of (3.5) before it applies Lemma 3.2.
Let F be the multiset intersection of the monomials' atoms and G the goal
with F taken out of each monomial, so the goal is F*G as a sequence.  G is
decided in place of the goal: a PROVED G proves it, and a REFUTED G
refutes it when F is nonzero at G's witness (the ring has no zero
divisors, pinned or not).  When F is zero there (a u atom is u(0), or a
pinned seed makes a term zero), or G is ABORTED, the goal itself is
decided as if it had no common atom.

The first nonzero leaf, in depth-first order, refutes the identity: lhs -
rhs is nonzero at that leaf's integer indices.  So the procedure stops
there, and no later subgoal of any elimination on its path is built.

The certificate records the annihilator used at every elimination, every
instantiated subgoal, and every leaf polynomial, one per path even where
paths share a proof.  A PROVED certificate holds every leaf.  A REFUTED
one holds the leaves up to and including its nonzero witness, the last;
an elimination on the witness's path lists subgoals 0..v, where v is the
path's value there, while its order names all d.  When the goal's tree is
its quotient's, the certificate records F as "factor", and its tree,
leaves and witness are G's.  Checking any of them needs nothing beyond
recurrence windows and polynomial arithmetic.

The fuzz oracle evaluates the original syntax tree lhs - rhs (not the
normal form: an independent route) at seeded random assignments (integer
draws, rational pins), exactly.  The tree and each let body it reaches are
compiled once per fuzz call into a tree of closures, one per node, so a
trial dispatches on no node type; a trial calls the closures, which read
their terms from one TermWindow per trial, each through the accessor of
its family, chosen when the tree is compiled.  Every value is an integer
pair (N, e) meaning N / B^e over the window's one base B, so a trial
builds no Fraction unless its difference is nonzero.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Sequence, Union

from .cfinite import Annihilator, from_root_classes, goal_classes
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
from .ring import SYMBOLS, ExponentOverflowError, LaurentPoly, Rational, Record, one, zero
from .sequences import GEOQ, SequenceKind, TermWindow, symbolic_term

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
    every monomial.  A monomial's roots depend only on its slope pattern:
    its q atom's slope and the sorted nonzero slopes of its other atoms in
    the index, not their constants, which are all that sibling subgoals
    change.  Two bounded caches, whose keys hold no atom, do the rest:
    cfinite.goal_classes maps the goal's frozenset of patterns to (order,
    classes), and the order is checked against the cap before
    cfinite.from_root_classes builds, or finds, the classes' annihilator.
    The zero sequence satisfies every recurrence, so a zero goal, which has
    no monomial, is read as a constant: its annihilator is x - 1, of the
    one root class (0, 0).
    """
    patterns = set()
    for atoms in nf._terms:  # the goal's own dict: support() would copy its keys
        t, slopes = 0, []
        for atom in atoms:
            for var, m in atom.index.coeffs:
                if var == index:
                    if atom.kind is GEOQ:
                        t = m
                    else:
                        slopes.append(m)
                    break
        slopes.sort()
        patterns.add((t, tuple(slopes)))
    order, classes = goal_classes(frozenset(patterns or {(0, ())}))
    if order > max_order:
        raise OrderCapExceededError(
            f"annihilator order {order} for index {index!r} exceeds the cap {max_order}"
        )
    return from_root_classes(classes)


# ---------------------------------------------------------------------------
# certificates


class LeafRecord(Record):
    # at is ((index, value), ...) along the elimination path; poly is the
    # LeafNode's, shared by every path that reaches it
    __slots__ = ("at", "poly", "zero")


class LeafNode(Record):
    __slots__ = ("goal", "poly", "zero")  # NormalForm, LaurentPoly, bool


class EliminationNode(Record):
    # subgoals is [(value, ProofNode), ...] for value in 0..order-1, or up
    # to the first value whose subtree has a nonzero leaf; zero is True
    # when every leaf below is zero (it is not written to JSON)
    __slots__ = ("index", "annihilator", "goal", "subgoals", "zero")

    @property
    def order(self) -> int:
        return self.annihilator.order


ProofNode = Union[LeafNode, EliminationNode]

PROVED = "PROVED"
REFUTED = "REFUTED"
ABORTED = "ABORTED"


class Certificate(Record):
    # factor is the goal's cancelled common atoms as a one-monomial
    # NormalForm when root and leaves are its quotient's, else None
    __slots__ = ("identity", "elimination", "factor", "root", "leaves", "verdict", "ms", "reason")

    @property
    def witness(self) -> LeafRecord | None:
        """The nonzero leaf when REFUTED, else None.

        prove stops at the first nonzero leaf in depth-first order, so a
        REFUTED certificate's witness is its last leaf and every earlier
        one is zero.
        """
        return self.leaves[-1] if self.verdict == REFUTED else None

    def json_text(self) -> str:
        """The certificate's JSON text, without a final line break.

        It is byte for byte json.dumps(doc, indent=2) of the certificate's
        document built as a tree of dicts (tests/conftest.py,
        reference_json_dict), written in one pass over the proof tree: each
        string is escaped by the C encode_basestring_ascii (json.dumps runs
        CPython's pure-Python encoder whenever indent is set), and a subgoal
        or leaf poly that several paths share is rendered and escaped once,
        its text written at each of them.
        """
        # json loads with the first certificate written, not with the package
        from json.encoder import encode_basestring_ascii as quote

        writer = _JsonWriter(quote)
        keys = {index: quote(index) for index in self.elimination}
        leaves = [writer.leaf(leaf, keys) for leaf in self.leaves]
        members = [
            '"identity": ' + quote(self.identity.source),
            '"elimination": ' + _json_block("[]", list(keys.values()), "\n  "),
        ]
        if self.factor is not None:
            members.append('"factor": ' + quote(self.factor.render()))
        members += [
            '"proof": ' + ("null" if self.root is None else writer.node(self.root, "\n  ")),
            '"leaves": ' + _json_block("[]", leaves, "\n  "),
            '"verdict": ' + quote(self.verdict),
        ]
        if self.verdict == ABORTED:
            members.append('"reason": ' + quote(self.reason))
        members.append(f'"ms": {self.ms}')
        return _json_block("{}", members, "\n")

    def to_json_dict(self) -> dict:
        """The certificate as JSON data: json_text, parsed."""
        import json

        return json.loads(self.json_text())


def _json_block(brackets: str, items: list, nl: str) -> str:
    """A JSON array or object ("[]" or "{}") of written items; nl is a line
    break plus the indent of the line the block opens on."""
    if not items:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


class _JsonWriter:
    """Writes the JSON of one certificate's proof tree and leaves.

    Each distinct subgoal and leaf poly is rendered and escaped once, keyed
    by id.  A shared subgoal always sits at the same depth, since the
    indices left to eliminate fix it, so its text is reused as is.  An
    object of fixed members is written from one f-string.
    """

    __slots__ = ("quote", "polys", "subgoals")

    def __init__(self, quote: Callable[[str], str]):
        self.quote = quote
        self.polys: dict = {}  # id(poly) -> its JSON string
        self.subgoals: dict = {}  # id(node) -> its "goal" and "proof" members

    def poly(self, poly: LaurentPoly) -> str:
        text = self.polys.get(id(poly))
        if text is None:
            text = self.polys[id(poly)] = self.quote(poly.render())
        return text

    def leaf(self, leaf: LeafRecord, keys: dict) -> str:
        at = ",\n        ".join([f"{keys[index]}: {value}" for index, value in leaf.at])
        at = "{\n        " + at + "\n      }" if at else "{}"
        poly, zero = self.poly(leaf.poly), "true" if leaf.zero else "false"
        return f'{{\n      "at": {at},\n      "poly": {poly},\n      "zero": {zero}\n    }}'

    def node(self, node: ProofNode, nl: str) -> str:
        inner = nl + "  "
        deeper = inner + "  "
        if node.__class__ is LeafNode:
            poly, zero = self.poly(node.poly), "true" if node.zero else "false"
            leaf = f'{{{deeper}"poly": {poly},{deeper}"zero": {zero}{inner}}}'
            return f'{{{inner}"leaf": {leaf}{nl}}}'
        member = deeper + "  "
        subgoals = [
            f'{{{member}"value": {value},{member}{self._subgoal(child, member)}{deeper}}}'
            for value, child in node.subgoals
        ]
        index, charpoly = self.quote(node.index), self.quote(node.annihilator.render())
        return (
            f'{{{inner}"index": {index},{inner}"order": {node.order},{inner}"charpoly": {charpoly},'
            f'{inner}"subgoals": {_json_block("[]", subgoals, inner)}{nl}}}'
        )

    def _subgoal(self, node: ProofNode, nl: str) -> str:
        """The "goal" and "proof" members of a subgoal whose members start at nl."""
        text = self.subgoals.get(id(node))
        if text is None:
            goal = '"goal": ' + self.quote(node.goal.render())
            text = self.subgoals[id(node)] = goal + "," + nl + '"proof": ' + self.node(node, nl)
        return text


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
    annihilator's constant term is a unit); REFUTED when a leaf is a
    nonzero polynomial; ABORTED when an annihilator order exceeded max_order
    or an exponent of p, a, b, c, d or q left the ring's range.

    The tree is built depth first and stops at the first nonzero leaf, so a
    REFUTED certificate's leaves end with that witness, and an elimination
    or leaf that would follow it, over the cap or not, is never reached.
    When the goal's monomials share atoms, the tree may be that of the
    quotient by them (_cancelled); the certificate then records the factor.
    """
    elim = _validated_order(identity, elimination_order)
    pins = identity.pin_map()
    start = time.perf_counter()
    # Each tree is built with its own table, _build's last argument:
    # (support, remaining) -> the nodes _build made for goals with that support.
    # Equal goals come from paths that differ in two or more eliminated
    # indices, as when a law symmetric in i and j swaps their values; one
    # goal's instances along a single index are seldom equal (never in the
    # shipped corpora), so only goals below two eliminations pay a lookup.
    # The table is passed down, not closed over, so no reference cycle
    # keeps it or the proof alive once prove returns.
    try:
        goal = identity_goal(identity)
        factor, root = _cancelled(goal, elim, pins, max_order)
        if root is None:
            root = _build(goal, elim, 0, pins, max_order, {})
        leaves = list(_leaf_records(root, ()))
        verdict = PROVED if root.zero else REFUTED
        reason = ""
    except (OrderCapExceededError, ExponentOverflowError) as exc:
        factor = root = None
        leaves = []
        verdict = ABORTED
        reason = str(exc)
    ms = int((time.perf_counter() - start) * 1000)
    return Certificate(identity, elim, factor, root, leaves, verdict, ms, reason)


def _cancelled(goal: NormalForm, elim: tuple, pins: dict, max_order: int) -> tuple:
    """(F, G's proof tree) when the goal's monomials share the atoms F and
    the quotient G = goal / F decides the goal, else (None, None).

    F is the multiset intersection of the monomials' atoms, and G each
    monomial without them, its scalar unchanged.  The goal is F*G as a
    sequence, so a PROVED G proves it.  The ring has no zero divisors, so
    a REFUTED G refutes it exactly when F is nonzero at G's witness; F is
    zero there when one of its u atoms becomes u(0).  An ABORTED G decides
    nothing.
    """
    terms = goal._terms
    monomials = iter(terms)
    shared = set(next(monomials, ()))
    for atoms in monomials:  # stop at the first monomial that leaves no atom shared
        if not shared:
            break
        shared.intersection_update(atoms)
    if not shared:
        return None, None
    common = []
    for atom in sorted(shared, key=attrgetter("order_key")):
        common += [atom] * min(atoms.count(atom) for atoms in terms)
    quotient = {}
    for atoms, scalar in terms.items():
        rest = list(atoms)
        for atom in common:
            rest.remove(atom)
        quotient[tuple(rest)] = scalar
    factor = NormalForm._raw({tuple(common): one()})
    try:
        root = _build(NormalForm._raw(quotient), elim, 0, pins, max_order, {})
        if not root.zero:
            value, node = factor, root
            while node.__class__ is EliminationNode:  # down the witness's path
                index, (at, node) = node.index, node.subgoals[-1]
                value = value.substitute_index(index, at)
            if _leaf_poly(value, pins).is_zero:
                return None, None
    except (OrderCapExceededError, ExponentOverflowError):
        return None, None
    return factor, root


def _build(
    nf: NormalForm, remaining: tuple, depth: int, pins: dict, max_order: int, proved: dict
) -> ProofNode:
    # at depths 0 and 1, nodes is a fresh list that nothing reads
    nodes = proved.setdefault((nf.support(), remaining), []) if depth >= 2 else []
    for node in nodes:
        if node.goal == nf:
            return node
    if not remaining or nf.is_zero:
        poly = _leaf_poly(nf, pins)
        node = LeafNode(nf, poly, poly.is_zero)
    else:
        index, rest = remaining[0], remaining[1:]
        ann = annihilator_for(nf, index, max_order)
        subgoals = []
        for value in range(ann.order):  # a nonzero goal's order is at least 1
            child_nf = nf.substitute_index(index, value)
            child = _build(child_nf, rest, depth + 1, pins, max_order, proved)
            subgoals.append((value, child))
            if not child.zero:  # a nonzero leaf below refutes the goal
                break
        node = EliminationNode(index, ann, nf, subgoals, child.zero)
    nodes.append(node)
    return node


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
    Every atom's term is asked of symbolic_term; none is zero, since no
    goal holds u(0), the one zero term (lang drops it at instantiation).
    The product of a monomial's first two terms comes from a bounded
    per-process cache keyed by the two terms, since the same products
    recur across the leaves of a file.  The scalar and then any further
    terms are multiplied in uncached, so no partial product larger than a
    pair is kept.
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
    goal, lets = _compile_tree(Sum(((1, identity.lhs), (-1, identity.rhs))), bindings)
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
            difference = Fraction(n, window.base**e)
            lhs = evaluate_expr(identity.lhs, scalars, indices, bindings)
            return FuzzResult(
                identity,
                trial,
                Counterexample(
                    trial,
                    tuple(sorted((s, Fraction(v)) for s, v in scalars.items())),
                    tuple((v, indices[v]) for v in index_vars),
                    lhs,
                    lhs - difference,
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
    n, e = _run(*_compile_tree(expr, bindings), window, indices)
    return Fraction(n, window.base**e)


# A compiled node is a closure (window, indices, values) -> (N, e): it reads
# its terms from the window, its index variables from indices and its let
# names' pairs from values.
Compiled = Callable[[TermWindow, Mapping[str, int], Mapping[str, tuple]], tuple]


def _compile_tree(expr: Expr, bindings: Mapping[str, Expr]) -> tuple:
    """The compiled tree and {name: compiled let body}, sharing term closures."""
    shared: dict = {}  # atom -> its closure
    return _compile(expr, shared), {name: _compile(body, shared) for name, body in bindings.items()}


def _run(
    goal: Compiled, lets: Mapping[str, Compiled], window: TermWindow, indices: Mapping[str, int]
) -> tuple:
    """The goal's pair, after valuing the compiled lets once each, in order."""
    if not lets:
        return goal(window, indices, {})
    values = let_values(lets, lambda body, values: body(window, indices, values))
    return goal(window, indices, values)


def _compile(expr: Expr, shared: dict) -> Compiled:
    """One closure per node of the tree, built once.

    Every per-node decision is taken here: a call dispatches on no node
    type, and a term's closure holds its family's accessor (_compile_term)
    and its index form's constant and (variable, coefficient) pairs.
    Atoms are interned, so shared maps each to the one closure of all its
    occurrences; a constant q^(k)'s keeps its pair for the window it last
    saw, one pow per trial.
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
        if expr not in shared:
            shared[expr] = _compile_term(expr.kind, expr.index)
        return shared[expr]
    if isinstance(expr, Sum):
        return _compile_sum(expr, shared)
    if isinstance(expr, Product):
        return _compile_product(expr, shared)
    if isinstance(expr, Pow):
        return _compile_pow(expr, shared)
    raise TypeError(f"unexpected node {expr!r}")


def _compile_term(kind: SequenceKind, form: LinForm) -> Compiled:
    """A term's closure, which calls its family's accessor in the window,
    TermWindow._q_power or _order_two, so no call tests the family again."""
    const, coeffs = form.const, form.coeffs
    if kind is GEOQ:
        if not coeffs:
            kept = [None, None]  # the window last asked, and q^const in it

            def power(window, indices, values):
                if kept[0] is not window:
                    kept[:] = window, window._q_power(const)
                return kept[1]

            return power
        if len(coeffs) == 1:
            ((var, c),) = coeffs
            return lambda window, indices, values: window._q_power(const + c * indices[var])
        return lambda window, indices, values: window._q_power(_index(const, coeffs, indices))
    if not coeffs:
        return lambda window, indices, values: window._order_two(kind, const)
    if len(coeffs) == 1:
        ((var, c),) = coeffs
        return lambda window, indices, values: window._order_two(kind, const + c * indices[var])
    return lambda window, indices, values: window._order_two(kind, _index(const, coeffs, indices))


def _index(const: int, coeffs: tuple, indices: Mapping[str, int]) -> int:
    """The index const + sum of c * indices[var] over the (var, c) pairs."""
    for var, c in coeffs:
        const += c * indices[var]
    return const


def _compile_sum(expr: Sum, shared: dict) -> Compiled:
    (sign, first), *rest = expr.terms
    first = _compile(first, shared)
    negate_first = sign < 0
    rest = tuple((sign < 0, _compile(term, shared)) for sign, term in rest)

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


def _compile_product(expr: Product, shared: dict) -> Compiled:
    first, *rest = [_compile(factor, shared) for factor in expr.factors]
    rest = tuple(rest)

    def product(window, indices, values):
        n, e = first(window, indices, values)
        for factor in rest:
            m, f = factor(window, indices, values)
            n *= m
            e += f
        return n, e

    return product


def _compile_pow(expr: Pow, shared: dict) -> Compiled:
    base, k = _compile(expr.base, shared), expr.exponent

    def power(window, indices, values):
        n, e = base(window, indices, values)
        return n**k, e * k

    return power
