"""Annihilators built from the root lattice alpha^i beta^j.

The prover's construction is checked against the independent Kronecker
route (products of slope annihilators) and against numeric recurrence
windows; the laws it makes tractable are proved outright.
"""

from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    U_BASIS_4,
    canonical_form,
    convolve,
    eval_normal_form,
    poly_divmod,
    rational_assignments,
    reference_monomial_classes,
    satisfies_recurrence,
    walk,
)
from horaprove import prover
from horaprove.cfinite import (
    ORDER_TWO_BASE,
    X_MINUS_ONE,
    Annihilator,
    class_order,
    from_root_classes,
    goal_classes,
    lucas,
    product,
    root_class,
)
from horaprove.lang import (
    LinForm,
    NormalForm,
    SeqTerm,
    identity_goal,
    normalize,
    parse_file,
    parse_identity,
)
from horaprove.prover import (
    PROVED,
    EliminationNode,
    OrderCapExceededError,
    annihilator_for,
    prove,
)
from horaprove.ring import from_int, one, q_power, render_term, symbol
from horaprove.sequences import SequenceKind, slope_annihilator

p, q = symbol("p"), symbol("q")
KINDS = {"W": SequenceKind.W, "V": SequenceKind.V, "u": SequenceKind.U}


def linear(m: int, c: int) -> str:
    """DSL text of the index m*n + c."""
    if m == 0:
        return str(c)
    head = "n" if m == 1 else "-n" if m == -1 else f"{m}*n"
    if c == 0:
        return head
    return f"{head} {'-' if c < 0 else '+'} {abs(c)}"


# u(0) normalizes to 0, and no annihilator is asked of a zero goal; every
# other slope-0 atom, u(c) for c != 0 among them, is still drawn
seq_atoms = st.lists(
    st.tuples(st.sampled_from(sorted(KINDS)), st.integers(-3, 3), st.integers(-4, 4)).filter(
        lambda atom: atom != ("u", 0, 0)
    ),
    max_size=3,
)
q_atoms = st.none() | st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def monomial_goal(atoms, q_atom):
    factors = [f"{name}({linear(m, c)})" for name, m, c in atoms]
    if q_atom is not None:
        factors.append(f"q^({linear(*q_atom)})")
    return identity_goal(parse_identity(f"forall n: {'*'.join(factors) or '1'} == 0"))


def kronecker_route(atoms, q_atom) -> Annihilator:
    anns = [slope_annihilator(KINDS[name], m) for name, m, _c in atoms]
    if q_atom is not None:
        anns.append(slope_annihilator(SequenceKind.GEOQ, q_atom[0]))
    return reduce(product, anns, X_MINUS_ONE)


class TestRootClasses:
    def test_lucas_companion(self):
        assert lucas(0) == from_int(2)
        assert lucas(1) == p
        assert lucas(2) == p * p - 2 * q
        assert lucas(3) == p ** 3 - 3 * p * q

    def test_conjugates_share_a_class(self):
        assert root_class(3, 1) == root_class(1, 3) == (1, 2)
        assert root_class(-2, 0) == (-2, 2)
        assert root_class(2, 2) == (2, 0)

    def test_single_classes(self):
        assert from_root_classes(frozenset({(0, 0)})) == X_MINUS_ONE
        assert from_root_classes(frozenset({(0, 1)})) == ORDER_TWO_BASE
        assert from_root_classes(frozenset({(3, 0)})) == Annihilator((-q_power(3), one()))

    def test_order_counts_each_class_once(self):
        classes = [(0, 3), (1, 1), (1, 1), (2, 0)]
        assert class_order(classes) == 5
        assert from_root_classes(frozenset(classes)).order == 5


class TestCharpolyText:
    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(-3, -1), st.integers(0, 3)),
        st.sets(st.tuples(st.integers(-3, 3), st.integers(0, 3)), max_size=3),
    )
    def test_coefficients_reparse_with_negative_q_powers(self, negative, others):
        ann = from_root_classes(frozenset({negative} | others))
        for coeff in ann.coeffs:
            sign, text = render_term(coeff, "")
            reparsed = normalize(parse_identity(f"forall n: {text} == 0").lhs)
            assert reparsed == NormalForm.from_scalar(sign * coeff)


class TestAgainstTheKroneckerRoute:
    @settings(max_examples=60, deadline=None)
    @given(seq_atoms, q_atoms)
    @example([("u", 0, 2), ("W", 0, 0), ("V", 1, 0)], None)  # slope-0 atoms
    def test_lattice_divides_kronecker(self, atoms, q_atom):
        ann = annihilator_for(monomial_goal(atoms, q_atom), "n")
        _quot, rem = poly_divmod(kronecker_route(atoms, q_atom).coeffs, ann.coeffs)
        assert all(r.is_zero for r in rem)

    @settings(max_examples=60, deadline=None)
    @given(seq_atoms, q_atoms, rational_assignments(), st.integers(-8, 4))
    def test_annihilates_numeric_windows(self, atoms, q_atom, assignment, start):
        goal = monomial_goal(atoms, q_atom)
        ann = annihilator_for(goal, "n")
        window = [
            eval_normal_form(goal, assignment, {"n": n})
            for n in range(start, start + ann.order + 3)
        ]
        assert satisfies_recurrence([c.evaluate(assignment) for c in ann.coeffs], window)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(KINDS)),
        st.sampled_from(sorted(KINDS)),
        st.integers(-3, 3).filter(bool),
        st.integers(-4, 4),
        st.integers(-4, 4),
    )
    def test_same_slope_pair_is_the_kronecker_square_less_x_minus_q_power(
        self, first, second, m, c1, c2
    ):
        # a product of two solutions along slope m has the roots alpha^2m,
        # q^m, beta^2m; the Kronecker square repeats the root q^m
        goal = monomial_goal([(first, m, c1), (second, m, c2)], None)
        slope = slope_annihilator(KINDS[first], m)
        ann = annihilator_for(goal, "n")
        assert product(slope, slope).coeffs == convolve((-q_power(m), one()), ann.coeffs)


# Monomials in several indices: repeated atoms, slope 0 and negative slopes
# in the eliminated index, and at most one q atom, of no constant part, as in
# a normal form.
LATTICE_INDICES = ("i", "j", "k")
slopes = st.dictionaries(st.sampled_from(LATTICE_INDICES), st.integers(-3, 3))
lattice_seq_atoms = st.builds(
    lambda kind, coeffs, const: SeqTerm(kind, LinForm.make(coeffs, const)),
    st.sampled_from(sorted(KINDS.values(), key=lambda kind: kind.name)),
    slopes,
    st.integers(-4, 4),
)
lattice_q_atoms = st.none() | slopes.filter(lambda c: any(c.values())).map(
    lambda coeffs: SeqTerm(SequenceKind.GEOQ, LinForm.make(coeffs, 0))
)
lattice_monomials = st.builds(
    lambda seq, repeat, q_atom: tuple(seq + seq[:repeat]) + ((q_atom,) if q_atom else ()),
    st.lists(lattice_seq_atoms, max_size=3),
    st.integers(0, 2),
    lattice_q_atoms,
)
lattice_goals = st.lists(lattice_monomials, min_size=1, max_size=3).map(
    lambda monomials: canonical_form({atoms: one() for atoms in monomials})
)


def reference_classes(goal, index: str) -> frozenset:
    classes = [reference_monomial_classes(atoms, index) for atoms in goal.support()]
    return frozenset().union(*classes)


def reference_charpoly(classes) -> tuple:
    """The product of each class's factor, in any order, by plain convolution."""
    coeffs = (one(),)
    for k, e in classes:
        if e == 0:
            factor = (-q_power(k), one())
        else:
            factor = (q_power(2 * k + e), -(q_power(k) * lucas(e)), one())
        coeffs = convolve(coeffs, factor)
    return coeffs


class TestClassesBySlopePattern:
    """annihilator_for against the atom-by-atom root sets of conftest."""

    @settings(max_examples=150, deadline=None)
    @given(lattice_goals, st.sampled_from(LATTICE_INDICES))
    def test_classes_and_charpoly_equal_the_reference(self, goal, index):
        expected = reference_classes(goal, index)
        with mock.patch.object(prover, "from_root_classes", wraps=from_root_classes) as build:
            ann = annihilator_for(goal, index)
        (classes,), _ = build.call_args
        assert frozenset(classes) == expected
        assert ann.order == class_order(expected)
        assert ann.coeffs == reference_charpoly(expected)

    @settings(max_examples=60, deadline=None)
    @given(lattice_goals, st.sampled_from(LATTICE_INDICES))
    def test_the_order_cap_aborts_before_any_build(self, goal, index):
        order = class_order(reference_classes(goal, index))
        with mock.patch.object(prover, "from_root_classes") as build:
            with pytest.raises(OrderCapExceededError) as raised:
                annihilator_for(goal, index, max_order=order - 1)
            annihilator_for(goal, index, max_order=order)
        assert str(raised.value) == (
            f"annihilator order {order} for index {index!r} exceeds the cap {order - 1}"
        )
        assert build.call_count == 1  # only the call within the cap built

    def test_the_cap_holds_after_a_cached_lookup(self):
        goal = monomial_goal([("W", 1, 1), ("V", 2, 0)], (1, 0))
        order = annihilator_for(goal, "n").order
        hits = goal_classes.cache_info().hits
        with pytest.raises(OrderCapExceededError) as raised:
            annihilator_for(goal, "n", max_order=order - 1)
        assert goal_classes.cache_info().hits == hits + 1  # the order came from the cache
        assert str(raised.value) == (
            f"annihilator order {order} for index 'n' exceeds the cap {order - 1}"
        )


class TestLawsTheLatticeMakesTractable:
    def test_four_index_u_basis_law(self):
        identity = parse_identity(U_BASIS_4)
        # the law itself is of order 4 in each index
        goal = identity_goal(identity)
        assert {annihilator_for(goal, index).order for index in "ijkl"} == {4}
        cert = prove(identity)
        assert cert.verdict == PROVED
        # prove cancels u(i)^2*u(j)^2*u(k)^2*u(l)^2, and the quotient is of
        # order 2 in each index: 2^4 leaves
        assert cert.factor.render() == "u(i)^2*u(j)^2*u(k)^2*u(l)^2"
        assert len(cert.leaves) == 16
        orders = {
            (node.index, node.order)
            for node in walk(cert.root)
            if isinstance(node, EliminationNode)
        }
        assert orders == {(index, 2) for index in "ijkl"}

    def test_cubic_window_law_times_u_squared(self):
        idn = parse_file(
            "let e = p*a*b - q*a^2 - b^2\n"
            "forall n: (W(n+1)*W(n+2)*W(n+6) - W(n+3)^3)*u(n)^2 == "
            "e*q^(n+1)*(p^3*W(n+2) - q^2*W(n+1))*u(n)^2\n"
        ).identities[0]
        assert annihilator_for(identity_goal(idn), "n").order == 6
        cert = prove(idn)
        assert cert.verdict == PROVED
        # the quotient by u(n)^2 is the cubic window law, of order 4
        assert cert.factor.render() == "u(n)^2" and cert.root.order == 4
