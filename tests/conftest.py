from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from horaprove import corpus_path, parse_file
from horaprove.cfinite import root_class
from horaprove.lang import (
    IntLit,
    LinForm,
    NameRef,
    NormalForm,
    Pow,
    Product,
    ScalarRef,
    SeqTerm,
    Sum,
)
from horaprove.prover import ABORTED, EliminationNode, LeafNode
from horaprove.ring import SYMBOLS, LaurentPoly, Record, from_int, zero
from horaprove.sequences import SequenceKind, numeric_term, symbolic_term


MULTI_INDEX = Path(__file__).resolve().parents[1] / "perfbench/workloads/multi_index.fib"


@pytest.fixture(scope="session")
def corpus_identities():
    return parse_file(corpus_path("paper.fib").read_text(encoding="utf-8")).identities


@pytest.fixture(scope="session")
def mutant_identities():
    return parse_file(corpus_path("mutations.fib").read_text(encoding="utf-8")).identities


# The u-basis law in three indices, times u(i)^2*u(j)^2*u(k)^2, which every
# monomial holds.  prove cancels it: the quotient, W(s) - u(s)*W(1) +
# q*u(s - 1)*W(0) with s = i + j + k, is of order 2 in each index, so its
# tree has 2*2*2 = 8 leaves.  It depends on i + j + k alone, so after two
# eliminations its 4 subgoals are 3 distinct goals, and its leaves 4
# distinct leaf goals.  (The law itself, uncancelled, is of order 4 in each
# index: 40 leaves, as each value 0 makes a u factor u(0) = 0.)
U_BASIS_3 = (
    "forall i, j, k: W(i+j+k)*u(i)^2*u(j)^2*u(k)^2 == "
    "(u(i+j+k)*W(1) - q*u(i+j+k-1)*W(0))*u(i)^2*u(j)^2*u(k)^2"
)

# A refuted law with two pins, one not an integer.  Its one leaf is -1 times
# 2^2, a's pinned denominator to a's top exponent, in either order of the pins.
TWO_PINS = "forall n: W(n+2) == p*W(n+1) - q*W(n) + p*a^2 - a^2 + 1 with p := 1, a := 1/2"

# The same law in four indices: its quotient's tree has 2^4 = 16 leaves (the
# law itself, uncancelled, 1 + 3*40 = 121).
U_BASIS_4 = (
    "forall i, j, k, l: W(i+j+k+l)*u(i)^2*u(j)^2*u(k)^2*u(l)^2 == "
    "(u(i+j+k+l)*W(1) - q*u(i+j+k+l-1)*W(0))*u(i)^2*u(j)^2*u(k)^2*u(l)^2"
)

# Theorem 3.1 in the paper's form (3.5), (3.4) rewritten by (1.1).  Every
# monomial holds W(n+2), and the quotient by it is Lemma 3.2's goal.
THEOREM_3_1 = (
    "let e = p*a*b - q*a^2 - b^2\n"
    "forall n: W(n+2)*(W(n+1)*W(n+6) - W(n+3)*W(n+4)) == e*q^(n+1)*(p^3 - p*q)*W(n+2)"
)

# Every monomial holds u(n).  The quotient is refuted at n = 0, where the
# factor is u(0) = 0, so the law itself is decided: it is refuted at n = 2.
U_FALLBACK = "forall n: W(n+2)*u(n) + u(n)*u(n-1)*u(n+1) == (p*W(n+1) - q*W(n))*u(n)"

# u(0), the one atom no normal form holds, since u0 = 0
U0 = SeqTerm(SequenceKind.U, LinForm.make({}, 0))


# Its first path, i = 0 then j = 0, reaches a nonzero leaf, W(0); the next
# subgoal along i needs an annihilator of order 10 along j.  So it is REFUTED
# under an order cap of 3, which only an elimination after the witness exceeds.
OVER_CAP_AFTER_WITNESS = "forall i, j: W(i+j)*W(5*j)^3 - W(j)*W(5*j)^3 + W(j) == 0"


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


def canonical_form(terms) -> NormalForm:
    """The normal form of a map from atom tuples, in any order, to scalars.

    The reference for normalization and substitution: it sorts each tuple
    by the atoms' order_key, sums the scalars of tuples that sort equal and
    drops zero sums.
    """
    canon: dict = {}
    for atoms, scalar in terms.items():
        key = tuple(sorted(atoms, key=lambda atom: atom.order_key))
        canon[key] = canon.get(key, zero()) + scalar
    return NormalForm._raw({atoms: s for atoms, s in canon.items() if not s.is_zero})


def convolve(f, g) -> tuple:
    """Plain coefficient-list product, an independent check on the library."""
    out = [zero()] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return tuple(out)


def poly_divmod(num, den) -> tuple:
    """Exact division of univariate polynomials with ring coefficients.

    Both arguments are ascending coefficient sequences; the divisor must be
    monic so the division never leaves the ring.  Returns (quotient,
    remainder) as ascending tuples; the remainder is padded with zeros to
    length len(den) - 1 (or (zero(),) when the divisor is linear).
    """
    num = [c if isinstance(c, LaurentPoly) else from_int(c) for c in num]
    den = [c if isinstance(c, LaurentPoly) else from_int(c) for c in den]
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    d = len(den) - 1
    rem = list(num)
    quot = [zero()] * max(1, len(num) - d)
    for k in range(len(num) - 1, d - 1, -1):
        c = rem[k]
        if c.is_zero:
            continue
        quot[k - d] = c
        for j in range(d + 1):
            rem[k - d + j] = rem[k - d + j] - c * den[j]
    rem = rem[:d] or [zero()]
    return tuple(quot), tuple(rem)


def satisfies_recurrence(coeffs, terms) -> bool:
    """Whether consecutive terms satisfy sum_i coeffs[i] X(n+i) = 0 in every window.

    Coefficients are ascending; coefficients and terms are ring elements
    (symbolic check) or numbers (evaluated check), exact either way.
    """
    assert len(terms) >= len(coeffs), f"{len(terms)} terms make no window of {len(coeffs)}"
    return all(
        sum(c * t for c, t in zip(coeffs, terms[start:])) == 0
        for start in range(len(terms) - len(coeffs) + 1)
    )


def reference_monomial_classes(atoms, index: str) -> frozenset:
    """The conjugate root classes of one monomial along the index, atom by atom.

    The reference for the prover's classes by slope pattern: the Minkowski
    sum, from (0, 0), of each atom's roots, (m, 0) and (0, m) for a
    sequence atom of slope m != 0, (0, 0) for slope 0 and (m, m) for q^(m*n).
    """
    roots = {(0, 0)}
    for atom in atoms:
        m = dict(atom.index.coeffs).get(index, 0)
        if atom.kind is SequenceKind.GEOQ:
            atom_roots = ((m, m),)
        else:
            atom_roots = ((m, 0), (0, m)) if m else ((0, 0),)
        roots = {(i + di, j + dj) for i, j in roots for di, dj in atom_roots}
    return frozenset(root_class(i, j) for i, j in roots)


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
            index = atom.index.const + sum(c * indices[v] for v, c in atom.index.coeffs)
            term *= numeric_term(atom.kind, index, scalars)
        total += term
    return total


def reference_leaf_poly(goal, pins):
    """Leaf expansion with no shortcut: sorted monomials, a plain left fold, no cache."""
    total = zero()
    for atoms, scalar in goal.monomials():
        term = scalar
        for atom in atoms:
            term = term * symbolic_term(atom.kind, atom.index.const)
        total = total + term
    return total.pin_substitute(pins) if pins else total


def reference_at(goal, at, pins):
    """The goal instantiated along a leaf's path, expanded by the reference."""
    for index, value in at:
        goal = goal.substitute_index(index, value)
    return reference_leaf_poly(goal, pins)


# Random syntax trees with every node kind, for the compiled evaluator and the
# normalizer.  Index forms have 0, 1 or 2 variables, since the compiler
# special-cases each count; a GEOQ term of a constant form is a scalar q^(k).
TREE_INDICES = ("m", "n")
tree_forms = st.builds(
    lambda names, coeffs, const: LinForm.make(dict(zip(names, coeffs)), const),
    st.sampled_from(((), ("m",), ("n",), TREE_INDICES)),
    st.tuples(*[st.integers(-3, 3).filter(bool)] * len(TREE_INDICES)),
    st.integers(-4, 4),
)


def trees(names: tuple, max_leaves: int):
    """Trees whose NameRef leaves name one of `names` (let names)."""
    leaves = [
        st.builds(IntLit, st.integers(-5, 5)),
        st.builds(ScalarRef, st.sampled_from(SYMBOLS)),
        st.builds(SeqTerm, st.sampled_from(tuple(SequenceKind)), tree_forms),
    ]
    if names:
        leaves.append(st.builds(NameRef, st.sampled_from(names)))
    return st.recursive(
        st.one_of(leaves),
        lambda children: st.one_of(
            st.builds(
                Sum,
                st.lists(st.tuples(st.sampled_from((1, -1)), children), min_size=1, max_size=3)
                .map(tuple),
            ),
            st.builds(Product, st.lists(children, min_size=2, max_size=3).map(tuple)),
            st.builds(Pow, children, st.integers(0, 3)),
        ),
        max_leaves=max_leaves,
    )


def reference_json_dict(cert) -> dict:
    """The certificate as JSON data, built as a dict tree.

    The reference for Certificate.json_text: json.dumps(doc) of this doc,
    with default arguments (one line, ASCII), is the text it must write.
    A subgoal or leaf poly that several paths share is rendered once and
    its dict written at each.
    """
    polys: dict = {}  # id(poly) -> its text
    subgoals: dict = {}  # id(node) -> {"goal": its text, "proof": its dict}

    def poly(value) -> str:
        if id(value) not in polys:
            polys[id(value)] = value.render()
        return polys[id(value)]

    def node(value) -> dict:
        if isinstance(value, LeafNode):
            return {"leaf": {"poly": poly(value.poly), "zero": value.zero}}
        return {
            "index": value.index,
            "order": value.order,
            "charpoly": value.annihilator.render(),
            "subgoals": [{"value": v, **subgoal(child)} for v, child in value.subgoals],
        }

    def subgoal(value) -> dict:
        if id(value) not in subgoals:
            subgoals[id(value)] = {"goal": value.goal.render(), "proof": node(value)}
        return subgoals[id(value)]

    out = {"identity": cert.identity.source, "elimination": list(cert.elimination)}
    if cert.factor is not None:
        out["factor"] = cert.factor.render()
    out |= {
        "proof": node(cert.root) if cert.root is not None else None,
        "leaves": [
            {"at": dict(leaf.at), "poly": poly(leaf.poly), "zero": leaf.zero}
            for leaf in cert.leaves
        ],
        "verdict": cert.verdict,
    }
    if cert.verdict == ABORTED:
        out["reason"] = cert.reason
    out["ms"] = cert.ms
    return out
