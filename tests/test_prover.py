"""The decision procedure, its certificates, and the numeric oracle."""

import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from conftest import (
    MULTI_INDEX,
    OVER_CAP_AFTER_WITNESS,
    THEOREM_3_1,
    TREE_INDICES,
    TWO_PINS,
    U0,
    U_BASIS_3,
    U_BASIS_4,
    U_FALLBACK,
    by_fragment,
    canonical_form,
    eval_normal_form,
    rational_assignments,
    reference_at,
    reference_leaf_poly,
    trees,
    walk,
)
from horaprove import corpus_path
from horaprove.cfinite import X_MINUS_ONE, Annihilator
from horaprove.lang import (
    LinForm,
    NormalForm,
    SeqTerm,
    identity_goal,
    normalize,
    parse_file,
    parse_identity,
)
from horaprove import prover
from horaprove.prover import (
    ABORTED,
    PROVED,
    REFUTED,
    EliminationNode,
    EliminationOrderError,
    LeafNode,
    OrderCapExceededError,
    _leaf_poly,
    annihilator_for,
    evaluate_expr,
    fuzz,
    prove,
)
from horaprove.ring import (
    SYMBOLS,
    ExponentOverflowError,
    from_int,
    one,
    q_power,
    render_term,
    symbol,
)
from horaprove.sequences import SequenceKind, TermWindow, numeric_term, symbolic_term

p, a, b, q = symbol("p"), symbol("a"), symbol("b"), symbol("q")
BASE = Annihilator((q, -p, one()))
CUBIC = Annihilator((-(q ** 3), p * p * q - q * q, q - p * p, one()))

ADDITION_LAW = "forall m, n: W(m+n+1) == W(m+1)*u(n+1) - q*W(m)*u(n)"


class TestAnnihilatorSynthesis:
    def test_single_sequence_atom(self):
        nf = normalize(parse_identity("forall n: W(n+4) == 0").lhs, {})
        assert annihilator_for(nf, "n") == BASE

    def test_geometric_atom(self):
        nf = normalize(parse_identity("forall n: q^(n) == 0").lhs, {})
        assert annihilator_for(nf, "n") == Annihilator((-q, one()))

    def test_shared_pair_tightens_to_the_cubic(self):
        nf = normalize(parse_identity("forall n: W(n)*W(n+5) == 0").lhs, {})
        assert annihilator_for(nf, "n") == CUBIC

    def test_mixed_pair_tightens_too(self):
        nf = normalize(parse_identity("forall n: u(n+1)*V(n) == 0").lhs, {})
        assert annihilator_for(nf, "n") == CUBIC

    def test_unrelated_index_is_constant(self):
        nf = normalize(parse_identity("forall n, k: W(n)*q^(k) == 0").lhs, {})
        assert annihilator_for(nf, "k") == Annihilator((-q, one()))
        assert annihilator_for(nf, "n") == BASE

    def test_scalar_monomial_contributes_x_minus_one(self):
        nf = normalize(parse_identity("forall n: W(n) + p*b == 0").lhs, {})
        ann = annihilator_for(nf, "n")
        # (x - 1) folded with the defining recurrence
        assert ann.order == 3
        assert ann == Annihilator(
            tuple((BASE.coeffs[0] * -1, BASE.coeffs[0] - BASE.coeffs[1],
                   BASE.coeffs[1] - BASE.coeffs[2], one()))
        )

    def test_triple_product_gets_lattice_order_four(self):
        nf = normalize(parse_identity("forall n: W(n+1)*W(n+2)*W(n+6) == 0").lhs, {})
        # roots alpha^3, alpha^2 beta, alpha beta^2, beta^3
        assert annihilator_for(nf, "n").order == 4

    def test_duplicate_monomial_annihilators_dedupe(self, corpus_identities):
        triple_product = by_fragment(corpus_identities, "W(n+1)*W(n+2)*W(n+6)")
        goal = identity_goal(triple_product)
        # the cube terms have the classes (0, 3) and (1, 1); the
        # geometric-times-W side has (1, 1) only, counted once: 2 + 2
        assert annihilator_for(goal, "n").order == 4

    def test_order_cap_enforced(self):
        nf = normalize(parse_identity("forall n: W(n+1)*W(n+2)*W(n+6) == 0").lhs, {})
        with pytest.raises(OrderCapExceededError):
            annihilator_for(nf, "n", max_order=3)

    def test_zero_goal_gets_x_minus_one(self):
        # the zero sequence satisfies every recurrence; x - 1 is the class (0, 0)'s
        for law in ("forall n: 0 == 0", "forall n: W(n) == W(n)"):
            assert annihilator_for(identity_goal(parse_identity(law)), "n") == X_MINUS_ONE


class TestProve:
    def test_addition_law_structure(self):
        cert = prove(parse_identity(ADDITION_LAW), elimination_order=["m", "n"])
        assert cert.verdict == PROVED
        assert cert.elimination == ("m", "n")
        root = cert.root
        assert isinstance(root, EliminationNode)
        assert root.index == "m" and root.order == 2
        assert len(root.subgoals) == 2
        assert [v for v, _ in root.subgoals] == [0, 1]
        assert all(leaf.zero for leaf in cert.leaves)

    def test_every_annihilator_constant_term_is_a_unit(self, corpus_identities):
        for idn in corpus_identities:
            cert = prove(idn)
            for node in walk(cert.root):
                if isinstance(node, EliminationNode):
                    assert node.annihilator.coeffs[0].is_unit()

    def test_leaf_count_bounded_by_order_product(self, corpus_identities):
        def bound(node):
            if isinstance(node, LeafNode):
                return 1
            return node.order * max(bound(child) for _v, child in node.subgoals)

        for idn in corpus_identities:
            cert = prove(idn)
            assert 1 <= len(cert.leaves) <= bound(cert.root)

    def test_flipped_law_refuted_with_frozen_leaf(self):
        flipped = parse_file(
            "let e = p*a*b - q*a^2 - b^2\n"
            "forall n: W(n+2)*W(n+4) - W(n+3)^2 == -e*q^(n+2)\n"
        ).identities[0]
        cert = prove(flipped)
        assert cert.verdict == REFUTED
        first = cert.leaves[0]
        assert dict(first.at) == {"n": 0}
        # twice the true right-hand side at the first instantiation point
        assert first.poly == 2 * (p * a * b - q * a * a - b * b) * q * q
        assert not first.zero
        assert cert.witness is first

    @pytest.mark.parametrize(
        "law",
        [
            "forall n: W(n) == W(n+2)",
            # u(i)^2 is 0 at i = 0, so the witness is the 22nd of 64 paths
            U_BASIS_3.replace("- q*u(i+j+k-1)", "+ q*u(i+j+k-1)"),
        ],
        ids=["one-index", "u-basis-3-mutant"],
    )
    def test_refuted_certificate_stops_at_its_witness(self, law):
        cert = prove(parse_identity(law))
        assert cert.verdict == REFUTED
        *before, last = cert.leaves
        assert cert.witness is last and not last.zero
        assert all(leaf.zero for leaf in before)
        # each elimination on the witness's path ends at the path's value,
        # and keeps the order of its full annihilator
        node = cert.root
        for index, value in last.at:
            assert isinstance(node, EliminationNode) and node.index == index
            assert [v for v, _child in node.subgoals] == list(range(value + 1))
            assert node.order == annihilator_for(node.goal, index).order > value
            assert not node.zero and all(child.zero for _v, child in node.subgoals[:-1])
            node = node.subgoals[-1][1]
        assert isinstance(node, LeafNode) and node.poly is last.poly

    def test_pinned_identity_proves_only_when_pinned(self):
        pinned = parse_identity(
            "forall n: u(n+1)*u(n+2)*u(n+6) - u(n+3)^3 == q^(n)*u(n) with p := 1, q := -1"
        )
        assert prove(pinned).verdict == PROVED
        generic = parse_identity(
            "forall n: u(n+1)*u(n+2)*u(n+6) - u(n+3)^3 == q^(n)*u(n)"
        )
        assert prove(generic).verdict == REFUTED

    def test_negative_slopes_prove(self):
        cert = prove(parse_identity("forall n: u(-n) == -q^(-n)*u(n)"))
        assert cert.verdict == PROVED

    def test_proved_identities_hold_at_negative_indices(self):
        # instantiation happens at 0..d-1 only; unit constant terms push the
        # conclusion to every integer, which the recurrence oracle confirms
        idn = parse_identity(ADDITION_LAW)
        assert prove(idn).verdict == PROVED
        scalars = {s: Fraction(v) for s, v in zip(SYMBOLS, (3, 2, -5, 0, 0, 2))}
        for m in range(-5, 0):
            for n in range(-5, 0):
                lhs = evaluate_expr(idn.lhs, scalars, {"m": m, "n": n}, {})
                rhs = evaluate_expr(idn.rhs, scalars, {"m": m, "n": n}, {})
                assert lhs == rhs

    def test_zero_goal_shortcuts_to_a_leaf(self):
        cert = prove(parse_identity("forall n: W(n)*u(n+1) == u(n+1)*W(n)"))
        assert cert.verdict == PROVED
        assert isinstance(cert.root, LeafNode)
        assert len(cert.leaves) == 1

    def test_aborted_on_order_cap(self, corpus_identities):
        triple_product = by_fragment(corpus_identities, "W(n+1)*W(n+2)*W(n+6)")
        cert = prove(triple_product, max_order=3)
        assert cert.verdict == ABORTED
        assert cert.root is None and cert.leaves == []
        assert "cap" in cert.reason and cert.witness is None

    def test_order_cap_aborts_after_the_class_set_was_built(self, corpus_identities):
        triple_product = by_fragment(corpus_identities, "W(n+1)*W(n+2)*W(n+6)")
        assert prove(triple_product).verdict == PROVED
        cert = prove(triple_product, max_order=3)
        assert cert.verdict == ABORTED
        assert cert.reason == "annihilator order 4 for index 'n' exceeds the cap 3"

    def test_large_q_power_within_the_ring_range_proves(self):
        law = "forall n: q^(100000)*W(n+1) == q^(100000)*(p*W(n) - q*W(n-1))"
        assert prove(parse_identity(law)).verdict == PROVED

    @pytest.mark.parametrize(
        "source",
        [
            # packing q^(2^40) while normalizing
            "forall n: q^(1099511627776)*W(n+1) == q^(1099511627776)*(p*W(n) - q*W(n-1))\n",
            # multiplying two scalars q^(2^29)
            "let e = q^(536870912)\nforall n: e^2*W(n) == W(n)\n",
        ],
        ids=["pack", "product"],
    )
    def test_aborted_on_exponent_out_of_ring_range(self, source):
        (identity,) = parse_file(source).identities
        cert = prove(identity)
        assert cert.verdict == ABORTED
        assert cert.root is None and cert.leaves == []
        assert "of q is outside the ring's range" in cert.reason

    def test_overflow_in_leaf_expansion_names_the_first_exponent_out_of_range(self, monkeypatch):
        # both monomials overflow at the leaf; the reason must not depend on
        # the order in which the leaf's monomials are summed
        raised = []

        def leaf_poly(nf, pins):
            try:
                return _leaf_poly(nf, pins)
            except ExponentOverflowError:
                raised.append(nf)
                raise

        monkeypatch.setattr(prover, "_leaf_poly", leaf_poly)
        cert = prove(parse_identity(
            "forall n: q^(1073741000)*W(n+3000) + q^(1073741500)*u(n+2000)*W(n+1000) == 0"
        ))
        assert cert.verdict == ABORTED and len(raised) == 1
        assert cert.reason == (
            "exponent 1073741824 of q is outside the ring's range "
            "-1073741824 <= e < 1073741824"
        )

    def test_sixth_power_of_a_slope_three_law(self):
        # its leaves multiply terms like W(20)^6, of hundreds of monomials
        assert len((symbolic_term(SequenceKind.W, 20) ** 6).terms()) > 300
        law = "forall n: W(3*n+2)^6 == (p*W(3*n+1) - q*W(3*n))^6"
        cert = prove(parse_identity(law))
        assert cert.verdict == PROVED
        assert len(cert.leaves) == 7

    def test_a_far_constant_offset_proves(self):
        # each leaf term is one closed form, not a walk from the seeds
        cert = prove(parse_identity("forall n: W(n+2002) == p*W(n+2001) - q*W(n+2000)"))
        assert cert.verdict == PROVED
        assert len(cert.leaves) == 2

    def test_elimination_order_must_cover_all_indices(self):
        idn = parse_identity(ADDITION_LAW)
        with pytest.raises(EliminationOrderError):
            prove(idn, elimination_order=["m"])

    def test_extra_elimination_names_are_filtered(self):
        idn = parse_identity(ADDITION_LAW)
        cert = prove(idn, elimination_order=["k", "n", "j", "m"])
        assert cert.elimination == ("n", "m")
        assert cert.verdict == PROVED

    def test_repeated_elimination_name_keeps_its_first_place(self):
        cert = prove(parse_identity(ADDITION_LAW), elimination_order=["m", "n", "m"])
        assert cert.elimination == ("m", "n")
        assert cert.verdict == PROVED
        assert [leaf.at for leaf in cert.leaves] == [
            (("m", x), ("n", y)) for x in range(2) for y in range(2)
        ]


def leaf_is_the_root_goal(cert, leaf, pins) -> bool:
    """Whether a leaf record is the identity's goal at its indices, up to the factor.

    With no factor, the leaf is the goal there.  With one, the goal is the
    factor times the quotient, whose tree the certificate holds; the leaf
    is the quotient there; the factor there times the quotient there is the
    goal there; and a nonzero leaf's factor there is nonzero.  Pins scale
    each expansion by a constant of its own (LaurentPoly.pin_substitute),
    so that product is compared before pinning.
    """
    goal = identity_goal(cert.identity)
    if cert.factor is None:
        return leaf.poly == reference_at(goal, leaf.at, pins)
    quotient = cert.root.goal
    factor_there = reference_at(cert.factor, leaf.at, {})
    return (
        cert.factor * quotient == goal
        and leaf.poly == reference_at(quotient, leaf.at, pins)
        and factor_there * reference_at(quotient, leaf.at, {}) == reference_at(goal, leaf.at, {})
        and (leaf.zero or not reference_at(cert.factor, leaf.at, pins).is_zero)
    )


@st.composite
def leaf_goals(draw):
    """Index-free goals of up to four monomials, each of 0-4 atoms at constant indices."""
    kinds = st.sampled_from((SequenceKind.W, SequenceKind.V, SequenceKind.U))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        atoms = tuple(
            SeqTerm(draw(kinds), LinForm.make({}, draw(st.integers(-4, 9))))
            for _ in range(draw(st.integers(0, 4)))
        )
        scalar = from_int(draw(st.integers(-3, 3)))
        scalar = scalar * p ** draw(st.integers(0, 2)) * q_power(draw(st.integers(-2, 2)))
        terms[atoms] = scalar
    return canonical_form(terms)


def pin_maps(values):
    """Pins of up to three symbols, q never pinned to 0."""
    return st.dictionaries(st.sampled_from(SYMBOLS), values, max_size=3).filter(
        lambda pins: pins.get("q", 1) != 0
    )


class TestLeafExpansion:
    def test_every_corpus_leaf_expands_as_the_reference_does(self):
        names = ("paper.fib", "mutations.fib", "horadam_extra.fib")
        leaves = 0
        for source in [corpus_path(name) for name in names] + [MULTI_INDEX]:
            for identity in parse_file(source.read_text(encoding="utf-8")).identities:
                pins = identity.pin_map()
                for node in walk(prove(identity).root):
                    if isinstance(node, LeafNode):
                        expected = reference_leaf_poly(node.goal, pins)
                        assert node.poly == expected and _leaf_poly(node.goal, pins) == expected
                        leaves += 1
        # leaf paths: paper.fib 86, mutations.fib 52 (each REFUTED tree ends
        # at its witness), multi_index.fib 42 (a subgoal whose every
        # monomial holds u(0) is one zero leaf; the 3-index u-basis law's 8
        # are the leaves of its quotient by u(i-2)^2*u(j-2)^2*u(k-2)^2)
        assert leaves == 86 + 52 + 42

    @given(
        leaf_goals(),
        st.one_of(
            pin_maps(st.integers(-3, 3).map(Fraction)),
            pin_maps(st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_goals_expand_as_the_reference_does(self, goal, pins):
        expected = reference_leaf_poly(goal, pins)
        assert _leaf_poly(goal, pins) == expected
        # the second expansion reads its two-term products from the cache
        assert _leaf_poly(goal, pins) == expected

    def test_no_goal_holds_u0(self):
        """u0 = 0, so instantiation drops every monomial it makes hold u(0):
        no goal in any proof tree holds it, and a leaf never meets it."""
        names = ("paper.fib", "mutations.fib", "horadam_extra.fib")
        identities = [parse_identity(U_BASIS_3), parse_identity(U_BASIS_4)]
        for source in [corpus_path(name) for name in names] + [MULTI_INDEX]:
            identities += parse_file(source.read_text(encoding="utf-8")).identities
        goals = 0
        for identity in identities:
            for node in walk(prove(identity).root):
                assert all(U0 not in atoms for atoms, _scalar in node.goal.monomials())
                goals += 1
        assert goals > len(identities)

    def test_drawn_leaf_goals_can_hold_u0(self):
        # drawn goals are built past normalization, so they can hold u(0),
        # which _leaf_poly still expands exactly
        goal = find(leaf_goals(), lambda goal: any(U0 in atoms for atoms, _ in goal.monomials()))
        assert _leaf_poly(goal, {}) == reference_leaf_poly(goal, {})


def test_proving_leaves_no_cyclic_garbage(corpus_identities, mutant_identities):
    """Reference counting frees every proof once its certificate is dropped.

    A reference cycle per call would keep the call's table of proved goals,
    its nodes and their normal forms alive until the cyclic collector ran.
    """
    multi_index = parse_file(MULTI_INDEX.read_text(encoding="utf-8")).identities
    identities = (*corpus_identities, *mutant_identities, *multi_index)
    gc.collect()
    gc.disable()
    try:
        for identity in identities:
            prove(identity)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestSharedSubgoals:
    def test_every_path_keeps_its_leaf_in_dfs_order(self):
        cert = prove(parse_identity(U_BASIS_3))
        assert cert.verdict == PROVED
        # the tree is the quotient's, W(s) - u(s)*W(1) + q*u(s - 1)*W(0) with
        # s = i + j + k, of order 2 in each index; the paths through equal
        # subgoals, as (0, 1) and (1, 0), each keep their leaves
        assert cert.factor.render() == "u(i)^2*u(j)^2*u(k)^2"
        expected = [(("i", x), ("j", y), ("k", z)) for x in range(2) for y in range(2)
                    for z in range(2)]
        assert [leaf.at for leaf in cert.leaves] == expected

    @pytest.mark.parametrize(
        "law",
        [
            U_BASIS_3,
            # q^i and q^j fold into the scalars, so the four subgoals over k
            # share one monomial set; only 2*(q + 1)*W(k), at (0, 1) and (1, 0), repeats
            "forall i, j, k: (q^(i) + 1)*(q^(j) + 1)*W(k) == 0",
        ],
        ids=["u-basis-3", "equal-support"],
    )
    def test_each_leaf_is_the_root_goal_instantiated_along_its_path(self, law):
        identity = parse_identity(law)
        cert = prove(identity)
        root = identity_goal(identity)
        # both laws have a common factor: u(i)^2*u(j)^2*u(k)^2 and W(k)
        assert cert.factor is not None
        for leaf in cert.leaves:
            assert reference_at(cert.factor, leaf.at, {}) * leaf.poly == reference_at(
                root, leaf.at, {}
            )
            assert leaf_is_the_root_goal(cert, leaf, {})

    def test_equal_subgoals_are_proved_once(self, monkeypatch):
        calls = {"annihilator_for": 0, "substitute_index": 0, "_leaf_poly": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(prover, "annihilator_for", counted("annihilator_for", annihilator_for))
        monkeypatch.setattr(prover, "_leaf_poly", counted("_leaf_poly", _leaf_poly))
        monkeypatch.setattr(
            NormalForm,
            "substitute_index",
            counted("substitute_index", NormalForm.substitute_index),
        )
        cert = prove(parse_identity(U_BASIS_3))
        assert len(cert.leaves) == 8
        # the quotient's tree, without sharing: 1 + 2 + 4 eliminations,
        # 2 + 4 + 8 instantiations and 8 leaves; shared, the 4 goals at (i, j)
        # are 3, as i + j is 0, 1 or 2, and the leaves 4, as i + j + k is 0..3
        assert calls == {"annihilator_for": 1 + 2 + 3, "substitute_index": 2 + 4 + 6,
                         "_leaf_poly": 4}

    def test_equal_subgoals_share_one_node(self):
        cert = prove(parse_identity(U_BASIS_3))
        below = [child for _v, child in cert.root.subgoals]
        second_level = [grand for child in below for _w, grand in child.subgoals]
        # (i, j) = (0, 1) and (1, 0) reach one goal
        assert len(second_level) == 4 and len({id(node) for node in second_level}) == 3
        assert second_level[1] is second_level[2]

    def test_one_sign_mutant_is_refuted_at_the_same_witness(self):
        mutant = U_BASIS_3.replace("- q*u(i+j+k-1)", "+ q*u(i+j+k-1)")
        cert = prove(parse_identity(mutant))
        assert cert.verdict == REFUTED
        # the quotient is refuted at (0, 0, 0), where the factor is u(0)^6 = 0,
        # so the original goal is proved instead, as if it had no factor
        assert cert.factor is None
        assert cert.witness.at == (("i", 1), ("j", 1), ("k", 1))
        # the paths up to the witness: i = 0, (1, 0), then 2 at (1, 1)
        assert len(cert.leaves) == 1 + 1 + 2


class TestCommonFactor:
    """prove cancels the atoms that every monomial of the goal holds."""

    def test_the_paper_s_form_3_5_cancels_to_lemma_3_2(self, corpus_identities):
        cert = prove(parse_identity(THEOREM_3_1))
        assert cert.verdict == PROVED and cert.factor.render() == "W(n + 2)"
        lemma = by_fragment(corpus_identities, "W(n+1)*W(n+6) - W(n+3)*W(n+4) ==")
        assert cert.root.goal == identity_goal(lemma)
        assert len(cert.leaves) == 3  # 4 for the law uncancelled

    @pytest.mark.parametrize(
        "law, factor, leaves",
        [
            (
                "forall n: W(8*n+2)^3*u(n)^2 == (p*W(8*n+1) - q*W(8*n))^3*u(n)^2",
                "u(n)^2",
                4,  # 12 uncancelled
            ),
            (
                "let e = p*a*b - q*a^2 - b^2\n"
                "forall n: (W(2*n+1)*W(2*n+3) - W(2*n+2)^2)^2*V(3*n+2)^2*u(n)^2 == "
                "e^2*q^(4*n+2)*V(3*n+2)^2*u(n)^2",
                "u(n)^2*V(3*n + 2)^2",
                5,  # 17 uncancelled
            ),
        ],
        ids=["stress-s2", "cassini-squared"],
    )
    def test_a_seed_is_proved_by_its_quotient(self, law, factor, leaves):
        identity = parse_identity(law)
        cert = prove(identity)
        assert cert.verdict == PROVED and cert.factor.render() == factor
        assert cert.factor * cert.root.goal == identity_goal(identity)
        assert len(cert.leaves) == leaves

    def test_a_factor_zero_at_the_quotient_s_witness_falls_back(self):
        # the quotient alone is refuted at n = 0, where the factor u(n) is u(0)
        quotient = "forall n: W(n+2) + u(n-1)*u(n+1) == p*W(n+1) - q*W(n)"
        assert [leaf.at for leaf in prove(parse_identity(quotient)).leaves] == [(("n", 0),)]
        cert = prove(parse_identity(U_FALLBACK))
        assert cert.verdict == REFUTED and cert.factor is None
        assert cert.witness.at == (("n", 2),)
        assert "factor" not in cert.to_json_dict()

    def test_a_pinned_seed_can_make_the_factor_zero(self):
        # the quotient of W(n) is 1, refuted at n = 0, where W(0) = a := 0
        cert = prove(parse_identity("forall n: W(n) == 0 with a := 0"))
        assert cert.verdict == REFUTED and cert.factor is None
        assert [leaf.at for leaf in cert.leaves] == [(("n", 0),), (("n", 1),)]

    def test_a_refuting_quotient_refutes_where_the_factor_is_nonzero(self):
        cert = prove(parse_identity("forall n: W(n)*V(n+1) == W(n)*V(n)"))
        assert cert.verdict == REFUTED and cert.factor.render() == "W(n)"
        assert leaf_is_the_root_goal(cert, cert.witness, {})

    def test_an_aborted_quotient_falls_back(self):
        # the quotient is of order 2 in each index, the law itself of order 4
        cert = prove(parse_identity(U_BASIS_3), max_order=1)
        assert cert.verdict == ABORTED and cert.factor is None
        assert cert.reason == "annihilator order 4 for index 'i' exceeds the cap 1"
        # at a cap of 3, only the quotient is within it
        cert = prove(parse_identity(U_BASIS_3), max_order=3)
        assert cert.verdict == PROVED and cert.root.order == 2
        assert annihilator_for(identity_goal(cert.identity), "i").order == 4

    def test_the_factor_member_comes_before_the_proof(self):
        doc = prove(parse_identity(THEOREM_3_1)).to_json_dict()
        assert list(doc.keys()) == [
            "identity", "elimination", "factor", "proof", "leaves", "verdict", "ms",
        ]
        assert doc["factor"] == "W(n + 2)"


class TestRefutation:
    def test_every_witness_is_the_goal_at_its_indices(self, mutant_identities):
        """Each REFUTED witness, re-derived from the root goal by the reference expansion."""
        names = ("paper.fib", "mutations.fib", "horadam_extra.fib")
        refuted = factored = 0
        for source in [corpus_path(name) for name in names] + [MULTI_INDEX]:
            for identity in parse_file(source.read_text(encoding="utf-8")).identities:
                cert = prove(identity)
                if cert.verdict != REFUTED:
                    continue
                witness = cert.witness
                assert [index for index, _v in witness.at] == list(cert.elimination)
                pins = identity.pin_map()
                assert not reference_at(identity_goal(identity), witness.at, pins).is_zero
                assert leaf_is_the_root_goal(cert, witness, pins), identity.source
                refuted += 1
                factored += cert.factor is not None
        assert refuted == len(mutant_identities) == 38
        assert factored == 2  # mutations.fib:17 and :18, which hold q^(n) in every monomial

    def test_a_nonzero_leaf_before_an_over_cap_sibling_refutes(self):
        # at i = 0 the goal is W(j), refuted at j = 0; at i = 1 its order along j is 10
        cert = prove(parse_identity(OVER_CAP_AFTER_WITNESS), max_order=3)
        assert cert.verdict == REFUTED and cert.reason == ""
        assert [leaf.at for leaf in cert.leaves] == [(("i", 0), ("j", 0))]
        assert cert.root.order == 3 and [v for v, _child in cert.root.subgoals] == [0]

    def test_one_sign_stress_mutant_is_refuted_at_its_first_leaf(self):
        # the full tree of this mutant has 15 leaves and a 2 MB certificate
        mutant = (
            "forall n: W(5*n+2)^4*V(2*n+2)^2 == "
            "(p*W(5*n+1) - q*W(5*n))^4*(p*V(2*n+1) + q*V(2*n))^2"
        )
        cert = prove(parse_identity(mutant))
        assert cert.verdict == REFUTED
        assert [leaf.at for leaf in cert.leaves] == [(("n", 0),)]
        assert len(cert.json_text()) < 16_000

    def test_the_order_of_the_pins_does_not_change_the_certificate(self):
        swapped = TWO_PINS.replace("p := 1, a := 1/2", "a := 1/2, p := 1")
        first, second = (prove(parse_identity(law)).to_json_dict() for law in (TWO_PINS, swapped))
        assert first["identity"] != second["identity"]
        assert first["proof"] == second["proof"] and first["leaves"] == second["leaves"]
        assert [leaf["poly"] for leaf in first["leaves"]] == ["-4"]


class TestCertificateJson:
    def test_fixed_key_order(self):
        cert = prove(parse_identity(ADDITION_LAW))
        doc = cert.to_json_dict()
        assert list(doc.keys()) == ["identity", "elimination", "proof", "leaves", "verdict", "ms"]
        assert doc["identity"] == ADDITION_LAW
        assert doc["elimination"] == ["m", "n"]
        node = doc["proof"]
        assert list(node.keys()) == ["index", "order", "charpoly", "subgoals"]
        assert node["charpoly"] == "x^2 - p*x + q"
        for sub in node["subgoals"]:
            assert list(sub.keys()) == ["value", "goal", "proof"]
        for leaf in doc["leaves"]:
            assert list(leaf.keys()) == ["at", "poly", "zero"]

    def test_stable_across_runs_modulo_timing(self):
        idn = parse_identity(ADDITION_LAW)
        d1, d2 = prove(idn).to_json_dict(), prove(idn).to_json_dict()
        d1.pop("ms"), d2.pop("ms")
        assert json.dumps(d1) == json.dumps(d2)

    def test_aborted_carries_reason(self, corpus_identities):
        triple_product = by_fragment(corpus_identities, "W(n+1)*W(n+2)*W(n+6)")
        doc = prove(triple_product, max_order=3).to_json_dict()
        assert list(doc.keys()) == [
            "identity", "elimination", "proof", "leaves", "verdict", "reason", "ms",
        ]
        assert doc["verdict"] == ABORTED and doc["proof"] is None

    def test_leaf_polynomials_render_canonically(self):
        cert = prove(parse_identity("forall n: W(n) == W(n+2)"))
        doc = cert.to_json_dict()
        nonzero = [l for l in doc["leaves"] if not l["zero"]]
        assert nonzero and all(l["poly"] != "0" for l in nonzero)

    def test_every_printed_polynomial_reparses(self, corpus_identities, mutant_identities):
        """Goals, leaf polys and charpoly coefficients are in the identity language."""
        for idn in corpus_identities + mutant_identities:
            cert = prove(idn)
            doc = cert.to_json_dict()
            head = f"forall {', '.join(idn.index_vars)}: "

            def reparsed(text):
                return normalize(parse_identity(f"{head}{text} == 0").lhs)

            def check(node, node_doc):
                if isinstance(node, LeafNode):
                    poly = node_doc["leaf"]["poly"]
                    assert reparsed(poly) == NormalForm.from_scalar(node.poly)
                    return
                for coeff in node.annihilator.coeffs:
                    sign, text = render_term(coeff, "")
                    assert reparsed(text) == NormalForm.from_scalar(sign * coeff)
                for (_value, child), sub in zip(node.subgoals, node_doc["subgoals"], strict=True):
                    assert reparsed(sub["goal"]) == child.goal
                    check(child, sub["proof"])

            check(cert.root, doc["proof"])
            for leaf, record in zip(doc["leaves"], cert.leaves, strict=True):
                assert reparsed(leaf["poly"]) == NormalForm.from_scalar(record.poly)


class TestFuzz:
    def test_passes_true_identity(self):
        result = fuzz(parse_identity(ADDITION_LAW), trials=200, seed=7, value_range=9)
        assert result.ok and result.counterexample is None

    def test_kills_false_identity_and_reports_assignment(self):
        bad = parse_identity("forall m, n: W(m+n+1) == W(m+1)*u(n+1) + q*W(m)*u(n)")
        result = fuzz(bad, trials=500, seed=7, value_range=9)
        assert not result.ok
        cex = result.counterexample
        assert cex.lhs != cex.rhs
        assert dict(cex.indices).keys() == {"m", "n"}
        assert dict(cex.scalars).keys() == set(SYMBOLS)
        assert str(cex.trial) in cex.describe()

    def test_counterexample_sides_are_the_sides_values(self):
        bad = parse_file(
            "let e = p*a*b - q*a^2 - b^2\n"
            "forall n: W(n+2)*W(n+4) - W(n+3)^2 == -e*q^(n+2)\n"
        ).identities[0]
        cex = fuzz(bad, trials=50, seed=1, value_range=5).counterexample
        scalars, indices = dict(cex.scalars), dict(cex.indices)
        assert cex.lhs == evaluate_expr(bad.lhs, scalars, indices, bad.bindings())
        assert cex.rhs == evaluate_expr(bad.rhs, scalars, indices, bad.bindings())

    def test_deterministic_for_fixed_seed(self):
        bad = parse_identity("forall n: W(n) == W(n+1)")
        r1 = fuzz(bad, trials=300, seed=42, value_range=9)
        r2 = fuzz(bad, trials=300, seed=42, value_range=9)
        assert r1.counterexample == r2.counterexample

    def test_seed_changes_draws(self):
        bad = parse_identity("forall n: W(n) == W(n+1)")
        cex0 = fuzz(bad, trials=20, seed=0, value_range=9).counterexample
        cex1 = fuzz(bad, trials=20, seed=1, value_range=9).counterexample
        assert (cex0.scalars, cex0.indices) != (cex1.scalars, cex1.indices)

    @pytest.mark.parametrize(
        "line, trial, scalars, indices, lhs, rhs",
        [
            # a negative index, with negative q powers and backward terms
            (45, 2, (2, 9, -3, 7, 6, -5), (("n", 0), ("k", -5)),
             Fraction(-310995432, 9765625), Fraction(0)),
            # pinned p := 1, q := -1
            (31, 1, (4, -8, -1, 7, 1, -1), (("n", 3),), Fraction(-2), Fraction(-4)),
            # let e, at a negative index
            (28, 2, (6, 2, 9, -3, 0, 7), (("n", -5),),
             Fraction(1536, 2401), Fraction(-1536, 2401)),
        ],
    )
    def test_frozen_counterexamples(
        self, mutant_identities, line, trial, scalars, indices, lhs, rhs
    ):
        # both the draw stream and the exact values, as the oracle printed them
        # for mutations.fib at seed 0
        (identity,) = [it for it in mutant_identities if it.line == line]
        cex = fuzz(identity, trials=200, seed=0, value_range=9).counterexample
        assert cex.trial == trial
        assert cex.scalars == tuple(zip(("a", "b", "c", "d", "p", "q"), scalars))
        assert cex.indices == indices
        assert (cex.lhs, cex.rhs) == (lhs, rhs)
        assert all(type(v) is Fraction for _, v in cex.scalars)
        assert type(cex.lhs) is Fraction and type(cex.rhs) is Fraction

    # the window base is 12 = lcm(2, 3) * 2 here, neither |q| nor 1
    RATIONAL_CASSINI = (
        "forall n: W(n)*W(n+2) - W(n+1)^2 == q^(n)*(p*a*b - q*a^2 - b^2)"
        " with p := 1/2, q := 2/3"
    )

    def test_passes_true_law_at_rational_pins(self):
        law = parse_identity(self.RATIONAL_CASSINI)
        assert prove(law).verdict == PROVED
        assert fuzz(law, trials=200, seed=3, value_range=9).ok

    def test_rational_pin_counterexample_sides_are_the_sides_values(self):
        mutant = parse_identity(self.RATIONAL_CASSINI.replace("- q*a^2", "+ q*a^2"))
        assert prove(mutant).verdict == REFUTED
        cex = fuzz(mutant, trials=200, seed=3, value_range=9).counterexample
        scalars, indices = dict(cex.scalars), dict(cex.indices)
        assert (scalars["p"], scalars["q"]) == (Fraction(1, 2), Fraction(2, 3))
        assert cex.lhs == evaluate_expr(mutant.lhs, scalars, indices, {})
        assert cex.rhs == evaluate_expr(mutant.rhs, scalars, indices, {})
        assert cex.lhs != cex.rhs

    def test_pins_override_draws(self):
        pinned = parse_identity(
            "forall n: u(n+1)*u(n+2)*u(n+6) - u(n+3)^3 == q^(n)*u(n) with p := 1, q := -1"
        )
        assert fuzz(pinned, trials=200, seed=3, value_range=9).ok

    def test_trials_and_range_validated(self):
        idn = parse_identity(ADDITION_LAW)
        with pytest.raises(ValueError):
            fuzz(idn, trials=0, seed=1, value_range=9)
        with pytest.raises(ValueError):
            fuzz(idn, trials=10, seed=1, value_range=0)

    @pytest.mark.parametrize("value_range", [1, 3, 8, 9, 15, 16, 100])
    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_draws_are_the_randrange_stream(self, value_range, seed):
        # fuzz draws through getrandbits; if randrange's stream ever changes,
        # this fails here rather than as an unexplained golden diff.  The
        # widths 2r+1 of 7 and 31 sit one below a power of two, 17 and 33 one
        # above; seeds 0 and 4 draw q = 0 first at r = 1 (4 also at 3 and 15).
        always_false = parse_identity("forall n, m: u(m) + W(n) == u(m) + W(n) + 1")
        cex = fuzz(always_false, trials=1, seed=seed, value_range=value_range).counterexample
        rng = random.Random(seed)

        def draw():
            return rng.randrange(-value_range, value_range + 1)

        scalars = {}
        for name in SYMBOLS:
            scalars[name] = draw()
            while name == "q" and scalars[name] == 0:
                scalars[name] = draw()
        indices = (("n", draw()), ("m", draw()))
        assert cex.trial == 1
        assert dict(cex.scalars) == scalars
        assert cex.indices == indices

    def test_a_constant_q_power_is_one_pow_per_trial(self, monkeypatch):
        # q^(5) occurs four times, in the goal and in a let, and is one closure
        identity = parse_file(
            "let e = q^(5) - q^(5)\n"
            "forall n: q^(5)*W(n) + e == q^(5)*W(n) + q^(2)*q^(3) - q*q^(4)\n"
        ).identities[0]
        powers = []
        real = TermWindow._q_power
        monkeypatch.setattr(TermWindow, "_q_power", lambda w, k: powers.append(k) or real(w, k))
        result = fuzz(identity, trials=40, seed=3, value_range=9)
        assert result.ok
        # a pair kept from an earlier trial's q would fail a later trial
        assert sorted(powers) == sorted([5, 2, 3, 4] * 40)

    def test_single_trial_reproducible(self):
        bad = parse_identity("forall n: u(n) == 1 + u(n)")
        r = fuzz(bad, trials=1, seed=5, value_range=4)
        assert not r.ok and r.counterexample.trial == 1


class TestEvaluateExpr:
    def test_let_bindings_resolve(self):
        src = parse_file(
            "let e = p*a*b - q*a^2 - b^2\n"
            "forall n: e*u(n) == 0\n"
        )
        idn = src.identities[0]
        scalars = {s: Fraction(v) for s, v in zip(SYMBOLS, (2, 3, 5, 0, 0, 7))}
        got = evaluate_expr(idn.lhs, scalars, {"n": 4}, idn.bindings())
        e_val = 2 * 3 * 5 - 7 * 9 - 25
        assert got == e_val * numeric_term(SequenceKind.U, 4, scalars)

    def test_powers_and_negation(self):
        idn = parse_identity("forall n: -(W(n) - V(n))^3 == 0")
        scalars = {s: Fraction(v) for s, v in zip(SYMBOLS, (1, 2, 3, 4, 5, 6))}
        w = numeric_term(SequenceKind.W, 2, scalars)
        v = numeric_term(SequenceKind.V, 2, scalars)
        assert evaluate_expr(idn.lhs, scalars, {"n": 2}, {}) == -((w - v) ** 3)


class TestCompiledEvaluator:
    @given(
        trees(("e0", "e1"), 6),
        st.tuples(trees((), 3), trees(("e0",), 3)),
        rational_assignments(),
        st.fixed_dictionaries({v: st.integers(-6, 6) for v in TREE_INDICES}),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_normal_form_value(self, expr, bodies, scalars, indices):
        # e1 reads e0, and the tree reads both: a let chain of two
        bindings = dict(zip(("e0", "e1"), bodies))
        got = evaluate_expr(expr, scalars, indices, bindings)
        assert got == eval_normal_form(normalize(expr, bindings), scalars, indices)
