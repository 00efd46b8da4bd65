"""Every leaf of every shipped certificate, re-derived from the syntax tree.

A leaf poly is the normal form of lhs - rhs at the leaf's indices, expanded
monomial by monomial.  The same value comes from evaluating the tree
lhs - rhs itself over the ring at those indices: each term from
symbolic_term (u(0) as 0, a q power q^(k) as q_power(k)), each let valued
once, every sum, product and power as the user wrote it.  The tree keeps
the user's factoring, and the normal form has multiplied it out, so the
two routes share only the terms and the ring.

With a factor F, the certificate's tree is the quotient G's, and the goal
is F*G: the tree's value is F there times G there.  A zero leaf that some
index never reached (a subgoal that u(0) made zero) has no tree value.
"""

import pytest

from conftest import MULTI_INDEX, reference_at
from horaprove import corpus_path, parse_file
from horaprove.lang import (
    IntLit,
    NameRef,
    Pow,
    Product,
    ScalarRef,
    SeqTerm,
    Sum,
    identity_goal,
    let_values,
)
from horaprove.prover import prove
from horaprove.ring import from_int, one, q_power, symbol, zero
from horaprove.sequences import GEOQ, SequenceKind, symbolic_term

CORPORA = ("paper.fib", "mutations.fib", "horadam_extra.fib")


def tree_at(expr, at: dict, values: dict):
    """The tree's exact ring value with each index variable v at at[v]."""
    if isinstance(expr, IntLit):
        return from_int(expr.value)
    if isinstance(expr, ScalarRef):
        return symbol(expr.name)
    if isinstance(expr, NameRef):
        return values[expr.name]
    if isinstance(expr, SeqTerm):
        k = expr.index.const + sum(c * at[v] for v, c in expr.index.coeffs)
        if expr.kind is GEOQ:
            return q_power(k)
        return zero() if expr.kind is SequenceKind.U and k == 0 else symbolic_term(expr.kind, k)
    if isinstance(expr, Sum):
        total = zero()
        for sign, term in expr.terms:
            value = tree_at(term, at, values)
            total = total + value if sign > 0 else total - value
        return total
    if isinstance(expr, Product):
        total = one()
        for factor in expr.factors:
            total = total * tree_at(factor, at, values)
        return total
    if isinstance(expr, Pow):
        return tree_at(expr.base, at, values) ** expr.exponent
    raise TypeError(f"unexpected node {expr!r}")


@pytest.fixture(scope="module")
def certificates():
    """The certificate of every identity of the corpora and multi_index.fib."""
    certs = []
    for source in [*map(corpus_path, CORPORA), MULTI_INDEX]:
        certs += map(prove, parse_file(source.read_text(encoding="utf-8")).identities)
    assert len(certs) == 19 + 38 + 5
    return certs


def test_every_leaf_is_the_syntax_tree_at_its_indices(certificates):
    checked = factored = pinned = 0
    for cert in certificates:
        identity = cert.identity
        pins = identity.pin_map()
        values = let_values(identity.bindings(), lambda body, values: tree_at(body, {}, values))
        goal = identity_goal(identity)
        difference = Sum(((1, identity.lhs), (-1, identity.rhs)))
        for leaf in cert.leaves:
            at = dict(leaf.at)
            if leaf.zero and len(at) < len(identity.index_vars):
                continue
            tree = tree_at(difference, at, values)
            assert tree == reference_at(goal, leaf.at, {}), (identity.source, at)
            if cert.factor is None:
                there = tree
            else:
                there = reference_at(cert.root.goal, leaf.at, {})
                assert tree == reference_at(cert.factor, leaf.at, {}) * there, identity.source
                factored += 1
            assert leaf.poly == (there.pin_substitute(pins) if pins else there), identity.source
            checked += 1
            pinned += bool(pins)
    # 180 leaves less one that u(0) made zero early, some through a factor
    assert checked > 150 and factored > 0 and pinned > 0
