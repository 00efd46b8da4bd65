"""Symbolic and numeric terms of the four sequence families."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_assignments, satisfies_recurrence
from horaprove.cfinite import ORDER_TWO_BASE, from_root_classes, lucas, root_class
from horaprove.lang import SLOPE_CAP
from horaprove.ring import SYMBOLS, ZeroQError, from_int, one, q_power, symbol
from horaprove.sequences import (
    SEEDS,
    TERM_CACHE_SIZE,
    SequenceKind,
    TermWindow,
    numeric_term,
    slope_annihilator,
    symbolic_term,
)

p, a, b, c, d, q = (symbol(s) for s in SYMBOLS)

W, V, U, GEOQ = (
    SequenceKind.W,
    SequenceKind.V,
    SequenceKind.U,
    SequenceKind.GEOQ,
)


class TestFamilies:
    def test_order_two_families_share_one_charpoly(self):
        # the prover's root lattice assumes every order-2 atom has the roots
        # alpha, beta of x^2 - p*x + q
        for kind in (W, V, U):
            window = [symbolic_term(kind, n) for n in range(-4, 5)]
            assert satisfies_recurrence(ORDER_TWO_BASE.coeffs, window)


class TestSymbolicTerms:
    def test_initial_values(self):
        assert symbolic_term(W, 0) == a
        assert symbolic_term(W, 1) == b
        assert symbolic_term(V, 0) == c
        assert symbolic_term(V, 1) == d
        assert symbolic_term(U, 0) == from_int(0)
        assert symbolic_term(U, 1) == one()
        assert symbolic_term(GEOQ, 0) == one()

    def test_forward_terms(self):
        assert symbolic_term(W, 2) == p * b - q * a
        assert symbolic_term(W, 3) == p * p * b - p * q * a - q * b
        assert symbolic_term(U, 2) == p
        assert symbolic_term(U, 3) == p * p - q
        assert symbolic_term(U, 4) == p ** 3 - 2 * p * q
        assert symbolic_term(GEOQ, 4) == q_power(4)

    def test_backward_first_step(self):
        term = symbolic_term(W, -1)
        assert term == (p * a - b) * q_power(-1)
        assert term.render() == "p*a*q^(-1) - b*q^(-1)"
        assert symbolic_term(GEOQ, -2) == q_power(-2)

    def test_recurrence_satisfied_on_both_sides_of_zero(self):
        for kind in (W, V, U):
            for k in range(-6, 6):
                lhs = symbolic_term(kind, k + 2)
                assert lhs == p * symbolic_term(kind, k + 1) - q * symbolic_term(kind, k)

    def test_reflection_of_fundamental_sequence(self):
        for k in range(1, 9):
            assert symbolic_term(U, -k) == -q_power(-k) * symbolic_term(U, k)

    def test_general_sequence_specializes_to_fundamental(self):
        for k in range(-6, 7):
            specialized = symbolic_term(W, k).pin_substitute({"a": 0, "b": 1})
            assert specialized == symbolic_term(U, k)


def recurrence_terms(kind, lo: int, hi: int) -> dict:
    """X(lo..hi) by X(n+2) = p*X(n+1) - q*X(n) from the family's seeds.

    The reference route for the closed form: forward from X(0), X(1), and
    backward by X(n) = q^-1 * (p*X(n+1) - X(n+2)).
    """
    terms = {k: symbol(s) if isinstance(s, str) else from_int(s) for k, s in enumerate(SEEDS[kind])}
    for n in range(2, hi + 1):
        terms[n] = p * terms[n - 1] - q * terms[n - 2]
    for n in range(-1, lo - 1, -1):
        terms[n] = q_power(-1) * (p * terms[n + 1] - terms[n + 2])
    return terms


class TestClosedForm:
    def test_every_family_matches_the_recurrence(self):
        for kind in (W, V, U):
            reference = recurrence_terms(kind, -40, 40)
            for k in range(-40, 41):
                assert symbolic_term(kind, k) == reference[k], (kind, k)

    def test_lucas_matches_its_recurrence(self):
        reference = [from_int(2), p]
        for e in range(2, 41):
            reference.append(p * reference[e - 1] - q * reference[e - 2])
        for e in range(41):
            assert lucas(e) == reference[e], e
            assert lucas(-e) == q_power(-e) * reference[e], -e

    def test_a_far_term_is_built_in_bounded_memory(self):
        # the closed form holds one term: u(3000) has 1500 monomials with
        # coefficients below 2^2100, far less than the 3000 terms of a walk
        symbolic_term.cache_clear()
        tracemalloc.start()
        try:
            term = symbolic_term(U, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000_000
        assert len(term.terms()) == 1500
        # x^2 - 3x + 2 has roots 2 and 1, so u(k) = 2^k - 1
        assert term.evaluate({"p": 3, "q": 2}) == 2**3000 - 1

    def test_the_term_cache_has_a_constant_bound(self):
        for k in range(-TERM_CACHE_SIZE, TERM_CACHE_SIZE):
            symbolic_term(U, k)
        info = symbolic_term.cache_info()
        assert info.maxsize == TERM_CACHE_SIZE
        assert info.currsize <= TERM_CACHE_SIZE


class TestNumericTerms:
    def test_classical_values(self):
        # p=1, q=-1 starting 0, 1 gives 0 1 1 2 3 5 8 13 21
        asgn = {"p": Fraction(1), "q": Fraction(-1), "a": Fraction(0), "b": Fraction(1),
                "c": Fraction(0), "d": Fraction(0)}
        got = [numeric_term(U, k, asgn) for k in range(9)]
        assert got == [0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_negative_indices_match_reflection(self):
        asgn = {"p": Fraction(3), "q": Fraction(2), "a": Fraction(0), "b": Fraction(1),
                "c": Fraction(0), "d": Fraction(0)}
        for k in range(1, 10):
            lhs = numeric_term(U, -k, asgn)
            rhs = -Fraction(1, 2) ** k * numeric_term(U, k, asgn)
            assert lhs == rhs

    def test_q_zero_rejected(self):
        asgn = {s: Fraction(1) for s in SYMBOLS}
        asgn["q"] = Fraction(0)
        with pytest.raises(ZeroQError):
            numeric_term(W, 5, asgn)

    @given(rational_assignments(), st.integers(-10, 10))
    @settings(max_examples=80, deadline=None)
    def test_numeric_agrees_with_symbolic(self, asgn, k):
        for kind in (W, V, U, GEOQ):
            assert numeric_term(kind, k, asgn) == symbolic_term(kind, k).evaluate(asgn)


def integral_assignments():
    """Integer values for every scalar symbol, q nonzero."""
    base = {s: st.integers(-9, 9) for s in SYMBOLS}
    base["q"] = base["q"].filter(lambda v: v != 0)
    return st.fixed_dictionaries(base)


def mixed_base_assignments():
    """Rational scalars whose window base B is neither |q| nor 1.

    q's numerator is not +-1, and every other scalar has a denominator
    above 1, so B = lcm(denominators) * |num(q)| has factors of both.
    """
    q = st.builds(
        Fraction, st.integers(2, 7).flatmap(lambda n: st.sampled_from((n, -n))), st.integers(1, 5)
    ).filter(lambda v: abs(v.numerator) != 1)
    other = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(
        lambda v: v.denominator > 1
    )
    return st.fixed_dictionaries({s: q if s == "q" else other for s in SYMBOLS})


def window_value(window: TermWindow, kind: SequenceKind, k: int) -> Fraction:
    """The k-th term of a family as the window holds it, read as a Fraction."""
    n, e = window.term_pair(kind, k)
    return Fraction(n, window.base**e)


class TestTermWindow:
    @given(mixed_base_assignments())
    @settings(max_examples=15, deadline=None)
    def test_mixed_base_agrees_with_symbolic(self, asgn):
        window = TermWindow(asgn)
        assert window.base not in (1, abs(asgn["q"]))
        for k in range(-40, 41):
            for kind in (W, V, U, GEOQ):
                assert window_value(window, kind, k) == symbolic_term(kind, k).evaluate(asgn)

    @given(
        st.one_of(integral_assignments(), rational_assignments()),
        st.lists(st.integers(-40, 40), min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_agrees_with_symbolic(self, asgn, ks):
        # indices arrive in random order, with repeats, within one window
        window = TermWindow(asgn)
        for k in ks:
            for kind in (W, V, U, GEOQ):
                assert window_value(window, kind, k) == symbolic_term(kind, k).evaluate(asgn)

    def test_far_q_powers_cost_memory_linear_in_k(self):
        # q^20000 is about 8 kB; keeping every power up to it took about 77 MB
        window = TermWindow({s: Fraction(9 if s == "q" else 1) for s in SYMBOLS})
        tracemalloc.start()
        try:
            # each power asked for twice: a repeat computes it again, equal
            values = [window.term_pair(GEOQ, k) for k in (20000, 20000, -20000, -20000)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the base is |q| = 9, so q^-20000 is 1 over its 20000th power
        assert values == [(9**20000, 0)] * 2 + [(1, 20000)] * 2
        assert peak < 200_000

    @pytest.mark.parametrize("q_value", [Fraction(3, 2), Fraction(-3, 2), Fraction(-2, 5)])
    def test_far_rational_q_powers(self, q_value):
        window = TermWindow({s: q_value if s == "q" else Fraction(1, 3) for s in SYMBOLS})
        assert window.base == 3 * q_value.denominator * abs(q_value.numerator)
        for k in (2000, -2000):
            assert window_value(window, GEOQ, k) == q_value**k

    def test_a_reached_negative_index_is_a_lookup(self):
        asgn = {s: Fraction(v) for s, v in zip(SYMBOLS, (3, 2, -5, 1, 4, 7))}
        window = TermWindow(asgn)
        first = window.term_pair(W, -7)
        assert window.term_pair(W, -7) is first
        _forward, backward = window._families[W]  # [X(0), X(-1), ..., X(-7)]
        assert len(backward) == 8
        assert window.term_pair(W, -3) is backward[3]
        assert len(backward) == 8
        assert window_value(window, W, -7) == symbolic_term(W, -7).evaluate(asgn)

    @pytest.mark.parametrize("kind", [W, V, U])
    @pytest.mark.parametrize(
        "values", [(3, 2, -5, 1, 4, 7), (Fraction(1, 2), 2, Fraction(-5, 3), 1, 4, Fraction(-3, 2))]
    )
    def test_the_backward_list_opens_at_the_first_negative_index(self, kind, values):
        asgn = {s: Fraction(v) for s, v in zip(SYMBOLS, values)}
        window = TermWindow(asgn)
        for k in (5, 0, 9):
            window.term_pair(kind, k)
        forward, backward = window._families[kind]
        assert backward == [forward[0]]  # X(0) alone: no index below 0 asked
        assert window_value(window, kind, -1) == symbolic_term(kind, -1).evaluate(asgn)
        assert len(backward) == 2

    def test_a_window_refuses_a_new_attribute(self):
        window = TermWindow({s: Fraction(2) for s in SYMBOLS})
        with pytest.raises(AttributeError):
            window.extra = 1

    @given(
        st.one_of(integral_assignments(), rational_assignments(), mixed_base_assignments()),
        st.integers(-40, -1),
        st.lists(st.integers(-40, 40), max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_family_accessors_agree_with_term_pair(self, asgn, first, rest):
        # the accessors that compiled oracle terms call, asked negative-first
        # and then in random order, against term_pair in a second window
        direct, general = TermWindow(asgn), TermWindow(asgn)
        for k in (first, *rest):
            assert direct._q_power(k) == general.term_pair(GEOQ, k)
            for kind in (W, V, U):
                assert direct._order_two(kind, k) == general.term_pair(kind, k)

    @given(integral_assignments(), st.lists(st.integers(0, 40), min_size=1, max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_integral_forward_terms_stay_int(self, asgn, ks):
        window = TermWindow({s: Fraction(v) for s, v in asgn.items()})
        # integral scalars are pairs (s, 0) over the base |q|
        assert window.base == abs(asgn["q"])
        assert all(window.scalars[s] == (v, 0) for s, v in asgn.items())
        for k in ks:
            for kind in (W, V, U, GEOQ):
                assert window.term_pair(kind, k)[1] == 0


class TestSlopeAnnihilators:
    def test_slope_one_is_the_defining_recurrence(self):
        ann = slope_annihilator(W, 1)
        assert ann.coeffs == (q, -p, one())
        assert slope_annihilator(V, 1) == ann
        assert slope_annihilator(U, 1) == ann

    def test_slope_zero_is_constant(self):
        for kind in (W, V, U, GEOQ):
            ann = slope_annihilator(kind, 0)
            assert ann.coeffs == (-one(), one())

    def test_slope_two(self):
        ann = slope_annihilator(W, 2)
        assert ann.coeffs == (q * q, 2 * q - p * p, one())

    def test_slope_minus_one_runs_backward(self):
        ann = slope_annihilator(W, -1)
        assert ann.coeffs == (q_power(-1), -p * q_power(-1), one())

    def test_geometric_slopes(self):
        assert slope_annihilator(GEOQ, 1).coeffs == (-q, one())
        assert slope_annihilator(GEOQ, 3).coeffs == (-q_power(3), one())
        assert slope_annihilator(GEOQ, -2).coeffs == (-q_power(-2), one())

    @pytest.mark.parametrize("kind", [W, V, U, GEOQ])
    def test_negative_slopes_reverse_the_positive_ones(self, kind):
        # the roots at -m are the inverses of those at m: the monic reversal,
        # a[0] * b(x) = x^d a(1/x), checked without an inverse
        for m in range(9):
            a = slope_annihilator(kind, m).coeffs
            b = slope_annihilator(kind, -m).coeffs
            d = len(a) - 1
            assert len(b) == d + 1
            assert all(a[0] * b[i] == a[d - i] for i in range(d + 1)), m

    @pytest.mark.parametrize("kind", [W, V, U, GEOQ])
    def test_every_slope_meets_the_root_lattice(self, kind):
        # the matrix route, C^|m| by repeated products, against the prover's
        # roots: alpha^m and beta^m, times q^m for q^n
        for m in range(-SLOPE_CAP, SLOPE_CAP + 1):
            lattice = from_root_classes(frozenset({root_class(m, m if kind is GEOQ else 0)}))
            assert slope_annihilator(kind, m) == lattice, m

    def test_constant_terms_are_units(self):
        for kind in (W, V, U, GEOQ):
            for m in range(-4, 5):
                assert slope_annihilator(kind, m).coeffs[0].is_unit()

    @pytest.mark.parametrize("kind", [W, V, U, GEOQ])
    @pytest.mark.parametrize("slope", [-3, -1, 1, 2, 3])
    @pytest.mark.parametrize("offset", [-2, 0, 5])
    def test_annihilates_the_sampled_subsequence(self, kind, slope, offset):
        ann = slope_annihilator(kind, slope)
        window = [symbolic_term(kind, slope * t + offset) for t in range(ann.order + 3)]
        assert satisfies_recurrence(ann.coeffs, window)

    def test_cached_instances(self):
        assert slope_annihilator(W, 2) is slope_annihilator(W, 2)
