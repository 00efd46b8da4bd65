"""Verdicts that survive a change to an identity which cannot change its truth.

Each corpus identity is rebuilt on its syntax tree, not on its text, and
proved again; the verdict must be the one the identity itself gets.  Only
verdicts are compared: a variant's leaves and certificate may differ.

- Swapping the sides negates the goal.
- Shifting each index v to v + c runs over the same integers.
- Multiplying both sides by a W, V or q^(...) atom and by a u atom, each
  of a nonconstant index form, multiplies the goal by a sequence that is
  zero at most on a hyperplane of the indices, and a nonzero goal cannot
  vanish off one.  prove cancels the atoms.  The u atom's form has no
  constant, so it is u(0) at indices all 0, where most refuted goals have
  their witness, and there the original product must be decided.
- Renaming every index variable, to names that sort in another order,
  only relabels the indices.
- Eliminating the indices in another order decides the same goal.
- Adding one expression to both sides leaves lhs - rhs as it was.

Two relations hold one way only: a PROVED identity stays PROVED when an
index v becomes 2v, or v + w with w a new index, since each variant runs
over a subset of the original's instances (a REFUTED one may lose its
every counterexample).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MULTI_INDEX
from horaprove import corpus_path, parse_file
from horaprove.lang import Identity, LinForm, Pow, Product, ScalarRef, SeqTerm, Sum
from horaprove.prover import PROVED, REFUTED, prove
from horaprove.sequences import SequenceKind

CORPORA = ("paper.fib", "mutations.fib", "horadam_extra.fib")


@pytest.fixture(scope="module")
def verdicts():
    """(identity, its verdict) for every identity of the corpora and multi_index.fib."""
    out = []
    for source in [*map(corpus_path, CORPORA), MULTI_INDEX]:
        for identity in parse_file(source.read_text(encoding="utf-8")).identities:
            out.append((identity, prove(identity).verdict))
    assert len(out) == 19 + 38 + 5
    return out


def with_sides(identity: Identity, lhs, rhs, lets, index_vars=None) -> Identity:
    return Identity(index_vars or identity.index_vars, lhs, rhs, identity.pins, lets,
                    identity.source, identity.line, identity.col)


def reindexed(expr, change):
    """The tree with each sequence term's index form f replaced by change(f)."""
    if isinstance(expr, SeqTerm):
        return SeqTerm(expr.kind, change(expr.index))
    if isinstance(expr, Sum):
        return Sum(tuple((sign, reindexed(term, change)) for sign, term in expr.terms))
    if isinstance(expr, Product):
        return Product(tuple(reindexed(factor, change) for factor in expr.factors))
    if isinstance(expr, Pow):
        return Pow(reindexed(expr.base, change), expr.exponent)
    return expr  # a literal, a scalar or a let name


def reindexed_identity(identity: Identity, change, index_vars=None) -> Identity:
    lets = tuple((name, reindexed(body, change)) for name, body in identity.lets)
    lhs, rhs = reindexed(identity.lhs, change), reindexed(identity.rhs, change)
    return with_sides(identity, lhs, rhs, lets, index_vars)


def forms(index_vars: tuple, consts):
    """Index forms with coefficients 0..2, not all 0, and a constant drawn from consts."""
    coeffs = st.lists(st.integers(0, 2), min_size=len(index_vars), max_size=len(index_vars))
    # all 0 becomes 1 on the first index, which costs no redraw
    coeffs = coeffs.map(lambda cs: cs if any(cs) else [1, *cs[1:]])
    return st.builds(
        lambda cs, const: LinForm.make(dict(zip(index_vars, cs)), const), coeffs, consts
    )


def test_swapping_the_sides_keeps_the_verdict(verdicts):
    for identity, verdict in verdicts:
        swapped = with_sides(identity, identity.rhs, identity.lhs, identity.lets)
        assert prove(swapped).verdict == verdict, identity.source


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_shifting_the_indices_keeps_the_verdict(verdicts, data):
    for identity, verdict in verdicts:
        shift = {
            v: data.draw(st.integers(-4, 4), label=f"{identity.source}: {v}")
            for v in identity.index_vars
        }

        def change(form):
            return LinForm(form.coeffs, form.const + sum(c * shift[v] for v, c in form.coeffs))

        variant = reindexed_identity(identity, change)
        assert prove(variant).verdict == verdict, (identity.source, shift)


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_multiplying_both_sides_by_atoms_keeps_the_verdict(verdicts, data):
    kinds = st.sampled_from((SequenceKind.W, SequenceKind.V, SequenceKind.GEOQ))
    fallbacks = 0
    for identity, verdict in verdicts:
        index_vars = identity.index_vars
        atom = SeqTerm(data.draw(kinds), data.draw(forms(index_vars, st.integers(-3, 3))))
        u_atom = SeqTerm(SequenceKind.U, data.draw(forms(index_vars, st.just(0))))
        variant = with_sides(
            identity,
            Product((identity.lhs, atom, u_atom)),
            Product((identity.rhs, atom, u_atom)),
            identity.lets,
        )
        cert = prove(variant)
        assert cert.verdict == verdict, (identity.source, atom, u_atom)
        fallbacks += cert.verdict == REFUTED and cert.factor is None
    # every refuted goal whose witness has indices all 0 is decided uncancelled
    assert fallbacks > 0


# index names no corpus identity uses; the variables take them in a drawn
# order, so the renamed ones sort in another order than their originals
FRESH = ("n1", "n2", "n3", "n4", "n5")


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_renaming_the_indices_keeps_the_verdict(verdicts, data):
    for identity, verdict in verdicts:
        names = data.draw(st.permutations(FRESH), label=identity.source)
        rename = dict(zip(identity.index_vars, names))

        def change(form):
            return LinForm.make({rename[v]: c for v, c in form.coeffs}, form.const)

        variant = reindexed_identity(identity, change, tuple(rename.values()))
        assert prove(variant).verdict == verdict, (identity.source, rename)


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_permuting_the_elimination_order_keeps_the_verdict(verdicts, data):
    for identity, verdict in verdicts:
        order = data.draw(st.permutations(identity.index_vars), label=identity.source)
        assert prove(identity, elimination_order=order).verdict == verdict, (identity.source, order)


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_adding_an_expression_to_both_sides_keeps_the_verdict(verdicts, data):
    kinds = st.sampled_from(tuple(SequenceKind))
    scalars = st.sampled_from(tuple(map(ScalarRef, "pqabcd")))
    for identity, verdict in verdicts:
        atoms = [
            SeqTerm(data.draw(kinds), data.draw(forms(identity.index_vars, st.integers(-3, 3))))
            for _ in range(2)
        ]
        # (atom +- s*atom')^2: a square that each side expands, and lhs - rhs cancels
        sign = data.draw(st.sampled_from((1, -1)))
        added = Pow(Sum(((1, atoms[0]), (sign, Product((data.draw(scalars), atoms[1]))))), 2)
        lhs, rhs = (Sum(((1, side), (1, added))) for side in (identity.lhs, identity.rhs))
        variant = with_sides(identity, lhs, rhs, identity.lets)
        assert prove(variant).verdict == verdict, (identity.source, added)


@pytest.fixture(scope="module")
def proved(verdicts):
    """Every identity of the corpora and multi_index.fib that is PROVED."""
    out = [identity for identity, verdict in verdicts if verdict == PROVED]
    assert len(out) == 19 + 5
    return out


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_doubling_an_index_keeps_a_proof(proved, data):
    for identity in proved:
        v = data.draw(st.sampled_from(identity.index_vars), label=identity.source)

        def change(form):
            return LinForm.make({u: 2 * c if u == v else c for u, c in form.coeffs}, form.const)

        variant = reindexed_identity(identity, change)
        assert prove(variant).verdict == PROVED, (identity.source, v)


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_adding_a_new_index_keeps_a_proof(proved, data):
    for identity in proved:
        v = data.draw(st.sampled_from(identity.index_vars), label=identity.source)
        assert "w" not in identity.index_vars

        def change(form):
            coeffs = dict(form.coeffs)
            return LinForm.make({**coeffs, "w": coeffs.get(v, 0)}, form.const)

        variant = reindexed_identity(identity, change, (*identity.index_vars, "w"))
        assert prove(variant).verdict == PROVED, (identity.source, v)
