"""Exact Laurent-polynomial arithmetic over the six scalar symbols."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horaprove.lang import NormalForm, normalize, parse_identity
from horaprove.ring import (
    SYMBOLS,
    ExponentOverflowError,
    LaurentPoly,
    NotAUnitError,
    ZeroQError,
    from_int,
    one,
    q_power,
    symbol,
    zero,
)

p, a, b, c, d, q = (symbol(s) for s in SYMBOLS)

# the packed range of an exponent: 0 <= e < 2^31, and -2^30 <= e < 2^30 for q
RANGES = {s: (-(2**30), 2**30) if s == "q" else (0, 2**31) for s in SYMBOLS}


# strategy: sums of up to 5 terms, small exponents, q exponent may be negative
@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    poly = zero()
    for _ in range(n_terms):
        coeff = draw(st.integers(-9, 9))
        term = from_int(coeff)
        for s in ("p", "a", "b", "c", "d"):
            term = term * symbol(s) ** draw(st.integers(0, 2))
        term = term * q_power(draw(st.integers(-2, 2)))
        poly = poly + term
    return poly


def assignments(min_q=True):
    base = {
        s: st.fractions(min_value=-5, max_value=5, max_denominator=3) for s in SYMBOLS
    }
    if min_q:
        base["q"] = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
            lambda v: v != 0
        )
    return st.fixed_dictionaries(base)


class TestConstruction:
    def test_zero_one_int(self):
        assert zero().is_zero
        assert not one().is_zero
        assert from_int(0) == zero()
        assert from_int(1) == one()
        assert from_int(-3) + from_int(3) == zero()

    def test_from_int_one_is_the_shared_one(self):
        # so __mul__'s shortcut returns the other factor for a built or coerced 1
        x = p * q - 3 * a
        assert from_int(1) is one()
        assert from_int(1) * x is x and x * from_int(1) is x
        assert 1 * x is x and x * 1 is x

    def test_symbol_names_are_fixed(self):
        assert SYMBOLS == ("p", "a", "b", "c", "d", "q")
        with pytest.raises(ValueError):
            symbol("x")

    def test_immutable(self):
        poly = p + q
        with pytest.raises(AttributeError):
            poly._terms = {}

    def test_int_coercion_both_sides(self):
        assert 1 + p == p + one()
        assert 2 * p == p + p
        assert p - 1 == p + from_int(-1)
        assert 1 - p == one() - p
        x = p * q - 3 * a
        assert x + 3 == 3 + x == x + from_int(3)
        assert 3 * x == x * 3 == x + x + x

    def test_adding_the_shared_zero_returns_the_other_operand(self):
        x = p * q - 3 * a
        assert zero() + x is x and x + zero() is x
        assert from_int(0) + x is x and 0 + x is x

    @pytest.mark.parametrize("foreign", [1.5, Fraction(1, 2), "p", None])
    def test_foreign_operands_raise_type_error(self, foreign):
        x = p * q - 3 * a
        with pytest.raises(TypeError):
            x + foreign
        with pytest.raises(TypeError):
            foreign + x
        with pytest.raises(TypeError):
            x * foreign
        with pytest.raises(TypeError):
            foreign * x


class TestArithmetic:
    def test_known_product(self):
        assert (p + b) * (p - b) == p * p - b * b

    def test_pow(self):
        assert (p + q) ** 0 == one()
        assert (p + q) ** 3 == (p + q) * (p + q) * (p + q)
        with pytest.raises(ValueError):
            (p + q) ** -1

    def test_q_power_negative_exponents(self):
        assert q_power(-1) * q == one()
        assert q_power(-3) * q_power(5) == q * q

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero() == f
        assert f * one() == f
        assert f - f == zero()

    @given(polys(), polys(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_is_a_homomorphism(self, f, g, asgn):
        assert (f + g).evaluate(asgn) == f.evaluate(asgn) + g.evaluate(asgn)
        assert (f * g).evaluate(asgn) == f.evaluate(asgn) * g.evaluate(asgn)
        assert (-f).evaluate(asgn) == -f.evaluate(asgn)

    @given(polys(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_hash_consistent_with_eq(self, f, asgn):
        g = f + one() - one()
        assert f == g and hash(f) == hash(g)


def monomial(**exps):
    return LaurentPoly({tuple(exps.get(s, 0) for s in SYMBOLS): 1})


def in_range(exps):
    return all(RANGES[s][0] <= e < RANGES[s][1] for s, e in zip(SYMBOLS, exps))


@st.composite
def term_dicts(draw, hot):
    """Exponent tuple -> coefficient; the `hot` symbol's exponents may sit at its bounds."""
    lo, hi = RANGES[hot]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = []
        for s in SYMBOLS:
            small = st.integers(-3 if s == "q" else 0, 3)
            if s == hot:
                small = st.one_of(small, st.integers(lo, lo + 3), st.integers(hi - 4, hi - 1))
            exps.append(draw(small))
        terms[tuple(exps)] = draw(st.integers(-9, 9).filter(bool))
    return terms


def reference_mul(f: dict, g: dict):
    """Tuple-keyed product; None if some term pair leaves the packed range."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if not in_range(exps):
                return None
            out[exps] = out.get(exps, 0) + c1 * c2
    return {exps: coeff for exps, coeff in out.items() if coeff}


def reference_add(f: dict, g: dict):
    out = dict(f)
    for exps, coeff in g.items():
        out[exps] = out.get(exps, 0) + coeff
    return {exps: coeff for exps, coeff in out.items() if coeff}


class TestPackedExponents:
    @given(st.sampled_from(SYMBOLS).flatmap(lambda s: st.tuples(term_dicts(s), term_dicts(s))))
    @settings(max_examples=200, deadline=None)
    def test_product_and_sum_match_a_tuple_keyed_reference(self, pair):
        f, g = pair
        pf, pg = LaurentPoly(f), LaurentPoly(g)
        assert pf.terms() == reference_add(f, {})
        assert (pf + pg).terms() == reference_add(f, g)
        want = reference_mul(f, g)
        if want is None:
            with pytest.raises(ExponentOverflowError):
                pf * pg
        else:
            assert (pf * pg).terms() == want

    @pytest.mark.parametrize("name", SYMBOLS)
    def test_overflow_at_each_field_bound_raises_and_never_wraps(self, name):
        lo, hi = RANGES[name]
        x = monomial(**{name: 1})
        # every other field is set, so a carry or borrow out of this one would show
        others = {s: 7 for s in SYMBOLS if s != name}
        top = monomial(**{name: hi - 2}, **others) * x
        assert top.terms() == {tuple(hi - 1 if s == name else 7 for s in SYMBOLS): 1}
        with pytest.raises(ExponentOverflowError, match=f"of {name} is outside"):
            top * x
        with pytest.raises(ExponentOverflowError):
            monomial(**{name: hi})
        bottom = monomial(**{name: lo}, **others)
        assert bottom.min_exponent(name) == lo
        if name == "q":
            with pytest.raises(ExponentOverflowError, match=f"exponent {lo - 1} of q"):
                bottom * q_power(-1)
            with pytest.raises(ExponentOverflowError):
                q_power(lo - 1)
            with pytest.raises(ExponentOverflowError):
                q_power(lo).unit_inverse()  # -lo is one past the top
        else:
            with pytest.raises(ValueError):
                monomial(**{name: lo - 1})

    def test_q_sums_to_the_bounds_exactly(self):
        assert q_power(-(2**29)) * q_power(-(2**29)) == q_power(-(2**30))
        assert (q_power(2**30 - 1) * q_power(-(2**30))).terms() == {(0, 0, 0, 0, 0, -1): 1}
        assert q_power(-(2**30)).min_exponent("q") == -(2**30)


class TestEvaluate:
    def test_evaluate_q_zero_rejected(self):
        with pytest.raises(ZeroQError):
            q_power(-1).evaluate({s: Fraction(0) for s in SYMBOLS})

    def test_evaluate_missing_symbol(self):
        with pytest.raises(KeyError):
            (p + a).evaluate({"p": Fraction(1)})


class TestUnits:
    def test_unit_recognition(self):
        assert q.is_unit() and q_power(-4).is_unit() and (-q_power(2)).is_unit()
        assert one().is_unit()
        assert not (2 * q).is_unit()
        assert not (p * q).is_unit()
        assert not (q + one()).is_unit()
        assert not zero().is_unit()

    def test_unit_inverse(self):
        assert q.unit_inverse() == q_power(-1)
        assert (-q_power(-3)).unit_inverse() == -q_power(3)
        with pytest.raises(NotAUnitError):
            (p + q).unit_inverse()


class TestPinSubstitute:
    def test_integer_pin(self):
        f = p * a - b * b
        assert f.pin_substitute({"p": Fraction(2)}) == 2 * a - b * b

    def test_negative_q_exponent_cleared(self):
        f = p + q_power(-1)
        # scaled by q, then q := -1: result is a nonzero multiple of p - 1
        assert f.pin_substitute({"q": Fraction(-1)}) == one() - p

    def test_rational_pin_homogenizes(self):
        f = p * p + b
        assert f.pin_substitute({"p": Fraction(1, 2)}) == one() + 4 * b

    def test_zero_q_pin_rejected(self):
        with pytest.raises(ZeroQError):
            (p + q).pin_substitute({"q": Fraction(0)})

    @given(polys(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_pinning_preserves_zeroness(self, f, asgn):
        pins = {"p": Fraction(1, 2), "q": Fraction(-2, 3)}
        pinned = f.pin_substitute(pins)
        full = dict(asgn)
        full.update(pins)
        direct = f.evaluate(full)
        via_pin = pinned.evaluate(asgn)
        assert (direct == 0) == (via_pin == 0)


class TestRendering:
    def test_backward_step_render_contract(self):
        poly = p * a * q_power(-1) - b * q_power(-1)
        assert poly.render() == "p*a*q^(-1) - b*q^(-1)"

    def test_zero_and_constants(self):
        assert zero().render() == "0"
        assert from_int(-7).render() == "-7"
        assert one().render() == "1"

    def test_graded_lex_order(self):
        assert (q + p * p).render() == "p^2 + q"
        assert (b + a).render() == "a + b"
        assert (one() + p).render() == "p + 1"

    def test_render_deterministic(self):
        f = (p + q) * (a - b) * q_power(-1)
        assert f.render() == ((a - b) * q_power(-1) * (p + q)).render()

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_render_unique_per_value(self, f):
        g = f * one() + zero()
        assert f.render() == g.render()

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_render_reparses_to_its_value(self, f):
        def reparsed(text):
            return normalize(parse_identity(f"forall n: {text} == 0").lhs)

        assert reparsed(f.render()) == NormalForm.from_scalar(f)
        sign, text = f.render_factor()
        assert reparsed(text) == NormalForm.from_scalar(sign * f)

    def test_factor_text(self):
        assert (-q_power(-2)).render_factor() == (-1, "q^(-2)")
        assert from_int(-1).render_factor() == (-1, "1")
        assert (3 * p * a).render_factor() == (1, "3*p*a")
        assert (p - q).render_factor() == (1, "(p - q)")

    def test_min_max_exponent(self):
        f = p * q_power(-2) + a * q_power(3)
        assert f.min_exponent("q") == -2
        assert f.max_exponent("q") == 3
        assert f.min_exponent("p") == 0
