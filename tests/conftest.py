from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from horaprove import corpus_path, parse_file
from horaprove.lang import NormalForm, SeqTerm
from horaprove.prover import EliminationNode
from horaprove.ring import SYMBOLS, Record
from horaprove.sequences import numeric_term


MULTI_INDEX = Path(__file__).resolve().parents[1] / "perfbench/workloads/multi_index.fib"


@pytest.fixture(scope="session")
def corpus_identities():
    return parse_file(corpus_path("paper.fib").read_text(encoding="utf-8")).identities


@pytest.fixture(scope="session")
def mutant_identities():
    return parse_file(corpus_path("mutations.fib").read_text(encoding="utf-8")).identities


# The u-basis law in three indices, times u(i)^2*u(j)^2*u(k)^2: its tree is
# symmetric in i, j and k, so after two eliminations its 16 subgoals are 10
# distinct goals, and its 64 leaves 20 distinct leaf goals.
U_BASIS_3 = (
    "forall i, j, k: W(i+j+k)*u(i)^2*u(j)^2*u(k)^2 == "
    "(u(i+j+k)*W(1) - q*u(i+j+k-1)*W(0))*u(i)^2*u(j)^2*u(k)^2"
)


def by_fragment(identities, fragment: str):
    """The unique identity whose source text contains the fragment."""
    hits = [it for it in identities if fragment in it.source]
    assert len(hits) == 1, f"{fragment!r} matched {len(hits)} identities"
    return hits[0]


def walk(node):
    """Every node of a proof tree, parents first."""
    yield node
    if isinstance(node, EliminationNode):
        for _value, child in node.subgoals:
            yield from walk(child)


def atoms_in(value):
    """Every atom reachable from a record, tuple, list or normal form, in a fixed order."""
    if isinstance(value, SeqTerm):
        yield value
    elif isinstance(value, Record):
        for name in value._fields:
            yield from atoms_in(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from atoms_in(item)
    elif isinstance(value, NormalForm):
        for atoms, _scalar in value.monomials():
            yield from atoms


def rational_assignments():
    """Exact rational values for every scalar symbol, q nonzero."""
    base = {s: st.fractions(min_value=-6, max_value=6, max_denominator=4) for s in SYMBOLS}
    base["q"] = base["q"].filter(lambda v: v != 0)
    return st.fixed_dictionaries(base)


def eval_normal_form(nf, scalars, indices) -> Fraction:
    """Numeric value of a normal form, atom by atom.

    An independent route from both the prover's leaf expansion and the
    oracle's syntax-tree walk; used to check that normalization preserves
    meaning.
    """
    total = Fraction(0)
    for atoms, scalar in nf.monomials():
        term = scalar.evaluate(scalars)
        for atom in atoms:
            term *= numeric_term(atom.kind, atom.index.value(indices), scalars)
        total += term
    return total
