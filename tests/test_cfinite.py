"""Annihilator closure operations (product, sum) and root classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import convolve, poly_divmod, rational_assignments, satisfies_recurrence
from horaprove import cfinite
from horaprove.cfinite import (
    ANNIHILATOR_CACHE_SIZE,
    Annihilator,
    OrderMismatchError,
    from_root_classes,
    class_order,
    product,
    root_class,
    sum_annihilators,
)
from horaprove.linalg import charpoly, companion
from horaprove.ring import SYMBOLS, from_int, one, q_power, symbol
from horaprove.sequences import SequenceKind, numeric_term, symbolic_term

p, a, b, c, d, q = (symbol(s) for s in SYMBOLS)

BASE = Annihilator((q, -p, one()))  # x^2 - p*x + q
# the shared cubic: x^3 - (p^2-q)x^2 - (q^2-p^2 q)x - q^3
CUBIC = Annihilator((-(q ** 3), p * p * q - q * q, q - p * p, one()))
SOLUTIONS = (SequenceKind.W, SequenceKind.V, SequenceKind.U)  # each satisfies BASE


class TestAnnihilatorValidation:
    def test_must_be_monic(self):
        with pytest.raises(ValueError):
            Annihilator((q, -p, from_int(2)))

    def test_needs_positive_order(self):
        with pytest.raises(OrderMismatchError):
            Annihilator((one(),))

    def test_constant_term_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            Annihilator((p, -p, one()))
        with pytest.raises(ValueError, match="unit"):
            Annihilator((from_int(2), -p, one()))

    def test_int_coefficients_coerced(self):
        ann = Annihilator((-1, 1))
        assert ann.coeffs == (-one(), one())
        assert ann.order == 1

    def test_render(self):
        assert BASE.render() == "x^2 - p*x + q"
        assert Annihilator((-1, 1)).render() == "x - 1"
        assert CUBIC.render() == "x^3 + (-p^2 + q)*x^2 + (p^2*q - q^2)*x - q^3"


class TestSharedCubic:
    def test_is_the_root_class_annihilator_of_pair_products(self):
        # alpha^2, alpha*beta = q, beta^2: the roots of every product of two
        # solutions, in two conjugate classes
        classes = [root_class(i, 2 - i) for i in range(3)]
        assert sorted(set(classes)) == [(0, 2), (1, 0)]
        assert class_order(classes) == 3
        got = from_root_classes(frozenset(classes)).coeffs
        assert got[3] == one()
        assert got[2] == -(p * p - q)
        assert got[1] == p * p * q - q * q
        assert got[0] == -(q ** 3)
        assert got == CUBIC.coeffs

    @settings(max_examples=40, deadline=None)
    @given(
        rational_assignments(),
        st.sampled_from(SOLUTIONS),
        st.sampled_from(SOLUTIONS),
        st.integers(-5, 5),
        st.integers(-6, 2),
    )
    def test_annihilates_evaluated_pair_products(self, asgn, first, second, shift, start):
        # any two solutions at exact rational scalars, negative indices included
        coeffs = [c.evaluate(asgn) for c in CUBIC.coeffs]
        window = [
            numeric_term(first, t, asgn) * numeric_term(second, t + shift, asgn)
            for t in range(start, start + 6)
        ]
        assert satisfies_recurrence(coeffs, window)
        window[3] += 1
        assert not satisfies_recurrence(coeffs, window)

    def test_annihilates_products_of_two_solutions(self):
        # W- and V-started solutions both satisfy BASE; so do their products
        for shift in (0, 2, 5):
            window = [
                symbolic_term(SequenceKind.W, t) * symbolic_term(SequenceKind.V, t + shift)
                for t in range(6)
            ]
            assert satisfies_recurrence(CUBIC.coeffs, window)

    def test_annihilates_squares(self):
        window = [symbolic_term(SequenceKind.W, t) ** 2 for t in range(-2, 4)]
        assert satisfies_recurrence(CUBIC.coeffs, window)

    def test_annihilates_geometric_sequence(self):
        window = [q_power(t) for t in range(6)]
        assert satisfies_recurrence(CUBIC.coeffs, window)


class TestProduct:
    def test_order_multiplies(self):
        assert product(BASE, BASE).order == 4

    def test_kronecker_square_factors_as_geometric_times_cubic(self):
        got = product(BASE, BASE)
        expected = convolve((-q, one()), CUBIC.coeffs)
        assert got.coeffs == expected

    def test_division_confirms_the_factorization(self):
        quot, rem = poly_divmod(product(BASE, BASE).coeffs, (-q, one()))
        assert all(r.is_zero for r in rem)
        assert tuple(quot) == CUBIC.coeffs

    def test_identity_annihilator_is_neutral(self):
        x_minus_one = Annihilator((-1, 1))
        assert product(x_minus_one, BASE) == BASE
        assert product(BASE, x_minus_one) == BASE

    def test_geometric_scaling(self):
        # multiplying by q^n scales both roots by q
        got = product(BASE, Annihilator((-q, one())))
        assert got.coeffs == (q ** 3, -p * q, one())

    def test_product_annihilates_pointwise_products(self):
        u_times_geo = product(BASE, Annihilator((-q, one())))
        window = [symbolic_term(SequenceKind.U, t) * q_power(t) for t in range(-1, 4)]
        assert satisfies_recurrence(u_times_geo.coeffs, window)


class TestSum:
    def test_equal_inputs_dedupe(self):
        assert sum_annihilators(BASE, BASE) == BASE

    def test_distinct_inputs_multiply(self):
        geo = Annihilator((-q, one()))
        got = sum_annihilators(BASE, geo)
        assert got.order == BASE.order + geo.order
        assert got.coeffs == convolve(BASE.coeffs, geo.coeffs)

    def test_annihilates_sums(self):
        geo = Annihilator((-q, one()))
        both = sum_annihilators(BASE, geo)
        window = [symbolic_term(SequenceKind.W, t) + 3 * q_power(t) for t in range(-2, 4)]
        assert satisfies_recurrence(both.coeffs, window)


class TestRecurrenceWindows:
    def test_accepts_exact_windows(self):
        window = [symbolic_term(SequenceKind.W, t) for t in range(7)]
        assert satisfies_recurrence(BASE.coeffs, window)

    def test_rejects_wrong_sequences(self):
        window = [q_power(t) + from_int(t) for t in range(6)]
        assert not satisfies_recurrence(BASE.coeffs, window)

    def test_evaluated_mode(self):
        asgn = {s: Fraction(v) for s, v in zip(SYMBOLS, (3, 1, 4, 0, 0, 2))}
        coeffs = [c.evaluate(asgn) for c in BASE.coeffs]
        window = [numeric_term(SequenceKind.W, t, asgn) for t in range(5)]
        assert satisfies_recurrence(coeffs, window)
        window[2] += 1
        assert not satisfies_recurrence(coeffs, window)


class TestPolyDivmod:
    def test_exact_division(self):
        num = convolve((q, -p, one()), (-q, one()))
        quot, rem = poly_divmod(num, (-q, one()))
        assert tuple(quot) == (q, -p, one())
        assert all(r.is_zero for r in rem)

    def test_remainder(self):
        quot, rem = poly_divmod((one(), one(), one()), (-q, one()))
        # x^2 + x + 1 = (x + (1+q))(x - q) + (1 + q + q^2)
        assert tuple(quot) == (one() + q, one())
        assert rem[0] == one() + q + q * q

    def test_divisor_must_be_monic(self):
        with pytest.raises(ValueError):
            poly_divmod((one(), one()), (one(), from_int(2)))


class TestCompanionAlgebra:
    def test_charpoly_of_companion_roundtrip(self):
        for coeffs in [(q, -p, one()), (-q_power(-1), one()), CUBIC.coeffs]:
            assert charpoly(companion(coeffs)) == tuple(coeffs)


class TestFromRootClasses:
    CLASSES = [(0, 1), (1, 0), (0, 3), (1, 1)]

    def test_permuted_or_duplicated_classes_give_one_annihilator(self):
        ann = from_root_classes(frozenset(self.CLASSES))
        for variant in (
            reversed(self.CLASSES),
            self.CLASSES + self.CLASSES[:2],
            {*self.CLASSES},
            iter(sorted(self.CLASSES, key=lambda c: -c[1])),
        ):
            again = from_root_classes(frozenset(variant))
            assert again == ann and again.render() == ann.render()
        assert ann.order == 7

    def test_matches_the_product_of_its_factors(self):
        # (x - q)(x^2 - p*x + q)(x^2 - q*p*x + q^3), factor by factor
        factors = ((-q, one()), BASE.coeffs, (q ** 3, -(q * p), one()))
        expected = (one(),)
        for factor in factors:
            expected = convolve(expected, factor)
        assert from_root_classes(frozenset({(1, 1), (0, 1), (1, 0)})).coeffs == expected

    def test_cache_is_bounded(self):
        assert cfinite.from_root_classes.cache_info().maxsize == ANNIHILATOR_CACHE_SIZE

    def test_render_is_built_once(self):
        ann = from_root_classes(frozenset(self.CLASSES))
        assert ann.render() is ann.render()
