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
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MULTI_INDEX
from horaprove import corpus_path, parse_file
from horaprove.lang import Identity, LinForm, Pow, Product, SeqTerm, Sum
from horaprove.prover import REFUTED, prove
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


def with_sides(identity: Identity, lhs, rhs, lets) -> Identity:
    return Identity(identity.index_vars, lhs, rhs, identity.pins, lets,
                    identity.source, identity.line, identity.col)


def shifted(expr, shift: dict):
    """The tree with each index variable v replaced by v + shift[v]."""
    if isinstance(expr, SeqTerm):
        form = expr.index
        const = form.const + sum(c * shift[v] for v, c in form.coeffs)
        return SeqTerm(expr.kind, LinForm(form.coeffs, const))
    if isinstance(expr, Sum):
        return Sum(tuple((sign, shifted(term, shift)) for sign, term in expr.terms))
    if isinstance(expr, Product):
        return Product(tuple(shifted(factor, shift) for factor in expr.factors))
    if isinstance(expr, Pow):
        return Pow(shifted(expr.base, shift), expr.exponent)
    return expr  # a literal, a scalar or a let name


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
        lets = tuple((name, shifted(body, shift)) for name, body in identity.lets)
        variant = with_sides(
            identity, shifted(identity.lhs, shift), shifted(identity.rhs, shift), lets
        )
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
