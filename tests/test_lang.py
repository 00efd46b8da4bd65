"""Parsing, normalization, and rendering of the identity language."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MULTI_INDEX, U0, canonical_form, eval_normal_form, trees
from horaprove import corpus_path
from horaprove.lang import (
    MAX_NESTING,
    RESERVED,
    Identity,
    IntLit,
    LinForm,
    NameRef,
    NonIntegerExponentError,
    NormalForm,
    ParseError,
    Pow,
    Product,
    SLOPE_CAP,
    ScalarRef,
    SeqTerm,
    SlopeCapExceededError,
    Sum,
    UndeclaredIndexError,
    UnknownNameError,
    identity_goal,
    let_values,
    normalize,
    parse_file,
    parse_identity,
)
from horaprove.ring import SYMBOLS, from_int, one, q_power, render_sum, symbol, zero
from horaprove.sequences import SequenceKind


LET_SEQUENCE = "sequence terms are not allowed in let-bindings"


class TestLinForm:
    def test_make_drops_zero_coefficients(self):
        lin = LinForm.make({"n": 2, "j": 0}, 3)
        assert lin.coeffs == (("n", 2),)

    def test_render(self):
        # variables always appear in sorted order
        assert LinForm.make({"n": 2, "j": -1}, 3).render() == "-j + 2*n + 3"
        assert LinForm.make({"j": -1, "n": 2}, 3).render() == "-j + 2*n + 3"
        assert LinForm.make({}, -4).render() == "-4"
        assert LinForm.make({"n": 1}, 0).render() == "n"
        assert LinForm.make({"n": -1}, 0).render() == "-n"

    def test_substitute_and_value(self):
        lin = LinForm.make({"m": 1, "n": 2}, 1)
        assert lin.substitute("m", 4) == LinForm.make({"n": 2}, 5)
        assert lin.substitute("m", 4).substitute("n", -1) == LinForm.make({}, 3)


class TestParsing:
    def test_single_identity_shape(self):
        idn = parse_identity("forall n: W(n+1) == p*W(n) - q*W(n-1)")
        assert idn.index_vars == ("n",)
        assert idn.pins == ()
        assert idn.source == "forall n: W(n+1) == p*W(n) - q*W(n-1)"

    def test_source_strips_comments_and_collapses_whitespace(self):
        text = "forall n:   W(n+1) ==\n    p*W(n) - q*W(n-1)   # tail note\n"
        idn = parse_identity(text)
        assert idn.source == "forall n: W(n+1) == p*W(n) - q*W(n-1)"

    def test_multiple_index_vars(self):
        idn = parse_identity("forall m, n, k: W(m+n+k) == W(m+n+k)")
        assert idn.index_vars == ("m", "n", "k")

    def test_pins(self):
        idn = parse_identity("forall n: u(n) == u(n) with p := 1, q := -1/2")
        assert idn.pin_map() == {"p": Fraction(1), "q": Fraction(-1, 2)}

    def test_let_bindings_resolve(self):
        src = parse_file(
            "let e = p*a*b - q*a^2 - b^2\n"
            "forall n: W(n)*e == e*W(n)\n"
        )
        idn = src.identities[0]
        assert list(idn.bindings()) == ["e"]

    def test_file_with_comments_only(self):
        src = parse_file("# nothing here\n\n# still nothing\n")
        assert src.identities == ()

    def test_negative_index_forms(self):
        idn = parse_identity("forall n: u(-n) == -q^(-n)*u(n)")
        goal = identity_goal(idn)
        assert not goal.is_zero

    def test_sums_and_products_are_flat(self):
        p, q, a, b = (ScalarRef(s) for s in "pqab")
        assert parse_identity("forall n: a + b - p*q*a == 0").lhs == Sum(
            ((1, a), (1, b), (-1, Product((p, q, a))))
        )
        # a term's unary minus folds into its sign
        assert parse_identity("forall n: a - -b == 0").lhs == Sum(((1, a), (1, b)))
        assert parse_identity("forall n: -p*q == 0").lhs == Sum(((-1, Product((p, q))),))
        # one positive term or one factor is the bare child
        assert parse_identity("forall n: (p) == 0").lhs == p

    def test_q_power_requires_parenthesized_exponent(self):
        idn = parse_identity("forall n: q^(2*n+1) == q*q^(2*n)")
        assert identity_goal(idn).is_zero


class TestParseErrors:
    def test_undeclared_index(self):
        with pytest.raises(UndeclaredIndexError) as info:
            parse_identity("forall n: W(x) == W(n)")
        assert info.value.line == 1 and "x" in str(info.value)

    def test_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponentError):
            parse_identity("forall n: W(n)^-2 == W(n)")
        with pytest.raises(NonIntegerExponentError):
            parse_identity("forall n: W(n)^p == W(n)")

    def test_slope_limit_is_eight(self):
        with pytest.raises(SlopeCapExceededError):
            parse_identity("forall n: W(9*n) == W(9*n)")
        # the cap admits slope 8
        parse_identity("forall n: W(8*n) == W(8*n)")
        assert SLOPE_CAP == 8

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            parse_identity("forall n: f(n) == W(n)")

    def test_parenthesis_nesting_bound(self):
        def nested(depth):
            return "forall n: " + "(" * depth + "u(n)" + ")" * depth + " == u(n)"

        assert identity_goal(parse_identity(nested(MAX_NESTING))).is_zero
        with pytest.raises(ParseError, match="nested deeper than 100") as info:
            parse_identity(nested(MAX_NESTING + 1))
        assert (info.value.line, info.value.col) == (1, len("forall n: ") + MAX_NESTING + 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_identity("forall n: W(n+1 == W(n)")

    def test_reserved_names_are_the_scalars_families_and_keywords(self):
        assert RESERVED == {*"pabcdq", "W", "V", "u", "forall", "let", "with"}

    @pytest.mark.parametrize("name", sorted(RESERVED))
    def test_reserved_name_cannot_be_bound(self, name):
        with pytest.raises(ParseError, match=f"cannot bind reserved name '{name}'"):
            parse_file(f"let {name} = 1\n")

    @pytest.mark.parametrize("name", sorted(RESERVED))
    def test_reserved_name_cannot_be_an_index_variable(self, name):
        with pytest.raises(ParseError, match=f"cannot shadow reserved name '{name}'"):
            parse_identity(f"forall {name}: u(0) == u(0)")

    def test_zero_q_pin_rejected(self):
        with pytest.raises(ParseError, match="nonzero"):
            parse_identity("forall n: u(n) == u(n) with q := 0")

    def test_duplicate_pin(self):
        with pytest.raises(ParseError):
            parse_identity("forall n: u(n) == u(n) with p := 1, p := 2")

    def test_duplicate_index_var(self):
        with pytest.raises(ParseError):
            parse_identity("forall n, n: W(n) == W(n)")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("let 3 = p", "expected a name to bind, found '3'", (1, 5)),
            ("forall n: W(n) == W(n) with p := x", "expected an integer, found 'x'", (1, 34)),
            ("foo", "expected 'let' or 'forall', found 'foo'", (1, 1)),
            (
                "let e = p\nforall e: W(e) == W(e)",
                "index variable 'e' collides with a let-binding",
                (2, 8),
            ),
            (
                "forall n: W(n) == W(n) with n := 1",
                "only scalar symbols can be pinned, not 'n'",
                (1, 29),
            ),
            ("forall n: W(n) == W(n) with p := 1/0", "zero denominator", (1, 36)),
            ("forall n: n*W(n) == 0", "index variable 'n' cannot be used as a scalar", (1, 11)),
            ("forall n: W(+n) == 0", "index form cannot start with '+'", (1, 13)),
            ("forall n: W(n+) == 0", "expected an index variable or integer, found ')'", (1, 15)),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_file(text)
        assert info.value.message == message
        assert (info.value.line, info.value.col) == position

    def test_positions_reported(self):
        with pytest.raises(ParseError) as info:
            parse_file("forall n: W(n) == W(n)\nforall k: W(k) == +\n")
        assert info.value.line == 2

    def test_identity_positions_count_comments_blank_lines_and_lets(self):
        text = "# head\n\n  let e = p  # c\nforall n: W(n) == W(n)\n"
        text += "\t forall m,\n k: W(m+k) == W(k+m)\n"
        identities = parse_file(text).identities
        assert [(idn.line, idn.col) for idn in identities] == [(4, 1), (5, 3)]

    @pytest.mark.parametrize(
        "text, position",
        [
            ("forall n: W(n) ==  # missing", (1, 20)),
            ("forall n: W(n) ==  # missing\n", (2, 1)),
            ("let e = p\nforall n: W(n) == e*W(n) + \n\n# end", (4, 1)),
        ],
    )
    def test_end_of_input_error_is_positioned(self, text, position):
        with pytest.raises(ParseError, match="found end of input") as info:
            parse_file(text)
        assert (info.value.line, info.value.col) == position

    def test_empty_input(self):
        # an empty file is a valid (empty) corpus; the one-identity helper objects
        assert parse_file("").identities == ()
        with pytest.raises(ValueError):
            parse_identity("")

    def test_let_rejects_sequence_terms(self):
        with pytest.raises(ParseError):
            parse_file("let e = W(0)\nforall n: W(n) == W(n)\n")

    def test_let_rejects_index_dependent_q_powers(self):
        with pytest.raises(UndeclaredIndexError):
            parse_file("let e = q^(n)\n")

    @pytest.mark.parametrize(
        "text, error, message, position",
        [
            ("let e = W(0)\n", ParseError, LET_SEQUENCE, (1, 9)),
            ("let e = 2*(a + u(1))\n", ParseError, LET_SEQUENCE, (1, 16)),
            (
                "let e = p + W\n",
                ParseError,
                "W is a sequence name; expected W(<index form>)",
                (1, 13),
            ),
            # a let declares no index variable, so the message lists none
            ("let e = q^(n)\n", UndeclaredIndexError, "undeclared index variable 'n'", (1, 12)),
            # an identity's index variables are not in scope after it
            ("forall n: W(n) == W(n)\nlet e = n\n", UnknownNameError, "unknown name 'n'", (2, 9)),
            (
                "forall n: W(n) == W(n)\nlet e = q^(n+1)\n",
                UndeclaredIndexError,
                "undeclared index variable 'n'",
                (2, 12),
            ),
        ],
    )
    def test_a_let_has_no_index_scope(self, text, error, message, position):
        with pytest.raises(error) as info:
            parse_file(text)
        assert type(info.value) is error
        assert (info.value.message, (info.value.line, info.value.col)) == (message, position)

    def test_let_names_bind_once(self):
        with pytest.raises(ParseError, match="'e' is already bound") as info:
            parse_file("let e = p\nlet e = e + 1\n")
        assert (info.value.line, info.value.col) == (2, 5)


class TestNormalization:
    def test_goal_of_true_identity_nonzero_before_proving(self):
        idn = parse_identity("forall n: W(n+2) == p*W(n+1) - q*W(n)")
        goal = identity_goal(idn)
        assert not goal.is_zero

    def test_commuted_goal_cancels(self):
        idn = parse_identity("forall n: W(n)*u(n+1) == u(n+1)*W(n)")
        assert identity_goal(idn).is_zero

    def test_sum_and_product_expansion(self):
        nf1 = normalize(parse_identity("forall n: (W(n) + u(n))^2 == 0").lhs, {})
        nf2 = normalize(
            parse_identity("forall n: W(n)^2 + 2*W(n)*u(n) + u(n)^2 == 0").lhs, {}
        )
        assert nf1 == nf2

    def test_q_power_constants_fold_into_scalars(self):
        nf = normalize(parse_identity("forall n: q^(n+2) == 0").lhs, {})
        ((atoms, scalar),) = nf.monomials()
        assert scalar == q_power(2)
        assert atoms[0].kind is SequenceKind.GEOQ
        assert atoms[0].index == LinForm.make({"n": 1}, 0)

    def test_substitute_index_partial(self):
        nf = normalize(parse_identity("forall n, j: q^(n-j)*W(n+j) == 0").lhs, {})
        got = nf.substitute_index("j", 2)
        expected = normalize(parse_identity("forall n: q^(-2)*q^(n)*W(n+2) == 0").lhs, {})
        assert got == expected

    def test_a_written_u0_normalizes_to_zero(self):
        # u0 = 0; u(n - n) is u(0) once its index form is made
        goal = identity_goal(parse_identity("forall n: W(n)*u(0)^2 + u(n - n) == u(0)*p"))
        assert goal.is_zero
        # only u(0) folds: u(1), which is 1, stays an atom
        nf = normalize(parse_identity("forall n: u(0)*W(n) + u(1)*V(n) == 0").lhs)
        assert nf == normalize(parse_identity("forall n: u(1)*V(n) == 0").lhs)

    def test_substitute_index_to_ground(self):
        nf = normalize(parse_identity("forall n: q^(n)*W(n) == 0").lhs, {})
        ground = nf.substitute_index("n", 3)
        ((atoms, scalar),) = ground.monomials()
        assert scalar == q_power(3)
        assert atoms == (SeqTerm(SequenceKind.W, LinForm.make({}, 3)),)

    def test_lets_expand_during_normalization(self):
        src = parse_file(
            "let e = p*a*b - q*a^2 - b^2\n"
            "forall n: e*W(n) == 0\n"
        )
        idn = src.identities[0]
        nf = normalize(idn.lhs, idn.bindings())
        ((_atoms, scalar),) = nf.monomials()
        p_, a_, b_, q_ = symbol("p"), symbol("a"), symbol("b"), symbol("q")
        assert scalar == p_ * a_ * b_ - q_ * a_ * a_ - b_ * b_

    def test_scalar_only_goal(self):
        idn = parse_identity("forall n: p*q - q*p == 0")
        assert identity_goal(idn).is_zero

    def test_let_with_a_constant_q_power(self):
        src = parse_file("let e = q^(-1)*p\nforall n: e*u(n) == p*q^(-1)*u(n)\n")
        (idn,) = src.identities
        ((name, body),) = idn.lets
        assert name == "e"
        assert normalize(body) == NormalForm.from_scalar(symbol("p") * q_power(-1))
        assert identity_goal(idn).is_zero
        rendered = render_file(src)
        assert rendered.startswith("let e = q^(-1)*p\n")
        assert parse_file(rendered).identities[0].lets == idn.lets

    def test_an_identity_values_the_lets_it_reaches_in_source_order(self):
        idn = parse_file(
            "let e1 = p\nlet unused = q\nlet e2 = e1*e1\nlet e3 = e2 + a\nlet e4 = unused*e3\n"
            "forall n: e3*u(n) + e3 == e1*u(n)\n"
        ).identities[0]
        assert [name for name, _body in idn.lets] == ["e1", "e2", "e3"]
        # each let is valued once, from the values of the lets before it
        valued = let_values(idn.bindings(), lambda body, values: sorted(values))
        assert valued == {"e1": [], "e2": ["e1"], "e3": ["e1", "e2"]}


# ---------------------------------------------------------------------------
# rendering parsed items back to source text: the parser's round-trip check


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def render_expr(expr, min_prec: int = _PREC_ADD) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, (ScalarRef, NameRef)):
        return expr.name
    if isinstance(expr, SeqTerm):
        index = expr.index.render()
        return f"q^({index})" if expr.kind is SequenceKind.GEOQ else f"{expr.kind.value}({index})"
    if isinstance(expr, Sum):
        # a term that is itself a Sum came from parentheses and keeps them
        text = render_sum((sign, render_expr(term, _PREC_MUL)) for sign, term in expr.terms)
        return text if min_prec <= _PREC_ADD else f"({text})"
    if isinstance(expr, Product):
        text = "*".join(render_expr(factor, _PREC_POW) for factor in expr.factors)
        return text if min_prec <= _PREC_MUL else f"({text})"
    if isinstance(expr, Pow):
        text = render_expr(expr.base, _PREC_ATOM) + f"^{expr.exponent}"
        return text if min_prec <= _PREC_POW else f"({text})"
    raise TypeError(f"unexpected node {expr!r}")


def render_identity(identity: Identity) -> str:
    head = "forall " + ", ".join(identity.index_vars)
    body = f"{head}: {render_expr(identity.lhs)} == {render_expr(identity.rhs)}"
    if identity.pins:
        pins = ", ".join(
            f"{name} := {v.numerator}" + (f"/{v.denominator}" if v.denominator != 1 else "")
            for name, v in identity.pins
        )
        body += f" with {pins}"
    return body


def render_file(src) -> str:
    """Each identity, after those of its lets that no earlier identity reached."""
    lines, written = [], set()
    for identity in src.identities:
        for name, body in identity.lets:
            if name not in written:
                written.add(name)
                lines.append(f"let {name} = {render_expr(body)}")
        lines.append(render_identity(identity))
    return "\n".join(lines) + "\n"


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "forall m, n: W(m+n+1) == W(m+1)*u(n+1) - q*W(m)*u(n)",
            "forall n: a - -b == W(n)",
            "forall n: a - (b - c) == W(n)",
            "forall n: W(n)*(-u(n)) == p",
            "forall n: (-a)^2 == u(n)",
            "forall n: -(a + W(n))*c == q",
        ],
    )
    def test_identity_render_reparse(self, text):
        from horaprove.prover import evaluate_expr

        idn = parse_identity(text)
        again = parse_identity(render_identity(idn))
        assert again.lhs == idn.lhs and again.rhs == idn.rhs
        assert again.index_vars == idn.index_vars
        assert identity_goal(again) == identity_goal(idn)
        scalars = {s: Fraction(v) for s, v in zip(SYMBOLS, (3, 2, -1, 5, 4, 2))}
        indices = {v: k + 2 for k, v in enumerate(idn.index_vars)}
        for side, side_again in ((idn.lhs, again.lhs), (idn.rhs, again.rhs)):
            value = evaluate_expr(side, scalars, indices, {})
            assert evaluate_expr(side_again, scalars, indices, {}) == value

    @pytest.mark.parametrize(
        "name, kind", [("W", SequenceKind.W), ("V", SequenceKind.V), ("u", SequenceKind.U)]
    )
    def test_family_surface_name_round_trips(self, name, kind):
        text = f"forall n: {name}(2*n + 1) == {name}(n)"
        idn = parse_identity(text)
        assert idn.lhs.kind is kind and idn.rhs.kind is kind
        assert render_identity(idn) == text

    def test_pins_render(self):
        text = "forall n: u(n) == u(n) with p := 1, q := -1/2"
        idn = parse_identity(text)
        rendered = render_identity(idn)
        assert "with" in rendered and "-1/2" in rendered
        assert parse_identity(rendered).pin_map() == idn.pin_map()

    def test_normal_form_render_reparses_to_same_form(self):
        idn = parse_identity(
            "forall n, j: W(n)^2 - q^(n-j)*W(j)^2 == u(n-j)*(b*W(n+j) - q*a*W(n+j-1))"
        )
        goal = identity_goal(idn)
        rendered = goal.render()
        reparsed = parse_identity(f"forall n, j: {rendered} == 0")
        assert normalize(reparsed.lhs, {}) == goal

    def test_normal_form_text(self):
        idn = parse_identity("forall n: W(n) - q^(-1)*p*u(n+1) + (a - b)*u(n)^2 == 2*W(n)")
        assert identity_goal(idn).render() == "(a - b)*u(n)^2 - p*q^(-1)*u(n + 1) - W(n)"

    def test_corpus_files_round_trip(self):
        from horaprove import corpus_path

        for name in ("paper.fib", "mutations.fib", "horadam_extra.fib"):
            source = parse_file(corpus_path(name).read_text(encoding="utf-8"))
            again = parse_file(render_file(source))
            assert len(again.identities) == len(source.identities)
            for idn, idn2 in zip(source.identities, again.identities):
                assert identity_goal(idn2) == identity_goal(idn)
                assert idn2.pin_map() == idn.pin_map()
                assert idn2.bindings() == idn.bindings()


class TestNormalizationSoundness:
    @given(
        st.fixed_dictionaries(
            {
                **{s: st.integers(-5, 5) for s in SYMBOLS},
                "q": st.integers(-5, 5).filter(lambda v: v != 0),
            }
        ),
        st.fixed_dictionaries({"m": st.integers(-6, 6), "n": st.integers(-6, 6)}),
    )
    @settings(max_examples=40, deadline=None)
    def test_normal_form_preserves_meaning(self, scalars, indices):
        from horaprove.prover import evaluate_expr

        scalars = {k: Fraction(v) for k, v in scalars.items()}
        idn = parse_identity(
            "forall m, n: (W(m+1) - u(n))*(V(m) + q^(n-m)) == "
            "W(m+1)*V(m) + W(m+1)*q^(n-m) - u(n)*V(m) - u(n)*q^(n-m)"
        )
        for side in (idn.lhs, idn.rhs):
            direct = evaluate_expr(side, scalars, indices, {})
            via_nf = eval_normal_form(normalize(side, {}), scalars, indices)
            assert direct == via_nf

    def test_goal_vanishes_numerically_on_true_identity(self, corpus_identities):
        scalars = {s: Fraction(v) for s, v in zip(SYMBOLS, (3, 2, -1, 5, 4, 2))}
        idn = corpus_identities[0]
        goal = identity_goal(idn)
        for r in range(-3, 4):
            assert eval_normal_form(goal, scalars, {"r": r}) == 0


def old_atom_order(atom):
    """The atom sort key as a tuple built per call, as atoms were once sorted."""
    if atom.kind is SequenceKind.GEOQ:
        return (1, "", (atom.index.coeffs, atom.index.const))
    return (0, atom.kind.name, (atom.index.coeffs, atom.index.const))


def reference_substitute(nf, var, value) -> dict:
    """substitute_index rebuilt from scratch: every atom fresh, every key re-sorted."""
    out = {}
    for atoms, scalar in nf.monomials():
        new_atoms, k = [], 0
        for atom in atoms:
            coeffs = dict(atom.index.coeffs)
            c = coeffs.pop(var, 0)
            new = LinForm.make(coeffs, atom.index.const + c * value)
            if atom.kind is not SequenceKind.GEOQ:
                new_atoms.append(SeqTerm(atom.kind, new))
            else:
                if not new.is_constant:
                    new_atoms.append(SeqTerm(SequenceKind.GEOQ, LinForm(new.coeffs, 0)))
                k += new.const
        key = tuple(sorted(new_atoms, key=old_atom_order))
        total = out.get(key, zero()) + scalar * q_power(k)
        if total.is_zero:
            out.pop(key, None)
        else:
            out[key] = total
    return out


def without_u0(terms: dict) -> dict:
    """The monomials that hold no u(0); a key that holds it sums only
    monomials that hold it, so dropping after the sums is dropping before."""
    return {atoms: scalar for atoms, scalar in terms.items() if U0 not in atoms}


INDEX_VARS = ("i", "j", "k")
index_forms = st.builds(
    lambda coeffs, const: LinForm.make(dict(zip(INDEX_VARS, coeffs)), const).render(),
    st.tuples(*[st.integers(-1, 1)] * len(INDEX_VARS)),
    st.integers(-3, 3),
)
atom_texts = st.one_of(
    st.builds(lambda name, lin: f"{name}({lin})", st.sampled_from(("W", "V", "u")), index_forms),
    st.builds(lambda lin: f"q^({lin})", index_forms),
)
monomial_texts = st.builds(
    lambda coeff, atoms: "*".join([str(coeff), *atoms]),
    st.integers(1, 3),
    st.lists(atom_texts, max_size=4),
)


class TestSubstitutionCaching:
    """Atoms are interned with their key; substitute_index caches each atom's image."""

    @given(
        st.lists(monomial_texts, min_size=1, max_size=6),
        st.sampled_from(INDEX_VARS),
        st.integers(-4, 4),
    )
    # W(i + 2) sorts before W(i - j), but W(i - 5) after W(i + 2)
    @example(["W(i - j)*W(i + 2)"], "j", 5)
    @settings(max_examples=80, deadline=None)
    def test_substitute_index_matches_a_fresh_rebuild(self, monomials, var, value):
        goal = normalize(parse_identity(f"forall i, j, k: {' - '.join(monomials)} == 0").lhs)
        got = goal.substitute_index(var, value)
        expected = without_u0(reference_substitute(goal, var, value))
        assert got == canonical_form(expected)
        assert dict(got.monomials()) == expected
        # monomials and the atoms in each are in the old tuple-key order
        keys = [atoms for atoms, _scalar in got.monomials()]
        assert keys == sorted(expected, key=lambda atoms: tuple(map(old_atom_order, atoms)))
        assert all(list(atoms) == sorted(atoms, key=old_atom_order) for atoms in keys)
        assert got.render() == canonical_form(expected).render()

    @given(
        st.lists(
            st.tuples(monomial_texts, st.sampled_from((None, -2, -1, 1, 2))),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from(INDEX_VARS),
        st.integers(-3, 3),
    )
    @example([("W(j)", 1), ("u(i)*V(i)", None), ("2*q^(i)", -1)], "i", 0)
    @settings(max_examples=80, deadline=None)
    def test_substitute_index_drops_exactly_the_u0_monomials(self, monomials, var, value):
        # a slope m picks a factor u(m*var - m*value), which is u(0) at var = value
        texts = [
            text if m is None else f"{text}*u({LinForm.make({var: m}, -m * value).render()})"
            for text, m in monomials
        ]
        goal = normalize(parse_identity(f"forall i, j, k: {' + '.join(texts)} == 0").lhs)
        # the reference keeps u(0), as substitution did before the rule
        kept = reference_substitute(goal, var, value)
        got = goal.substitute_index(var, value)
        assert dict(got.monomials()) == without_u0(kept)
        if any(m is not None for _text, m in monomials):
            assert any(U0 in atoms for atoms in kept)

    def test_parsed_and_substituted_atoms_agree(self):
        parsed = parse_identity("forall n: W(n+3)*q^(2*n) == 0").lhs.factors
        instantiated = normalize(
            parse_identity("forall n, j: W(n+j+3)*q^(2*n-j) == 0").lhs
        ).substitute_index("j", 0)
        ((atoms, scalar),) = instantiated.monomials()
        assert scalar == one()
        for left, right in zip(parsed, atoms):
            assert left is right
            assert hash(left) == hash(right)
            assert left.order_key == right.order_key == old_atom_order(left)

    def test_atoms_of_another_kind_or_index_differ(self):
        w = SeqTerm(SequenceKind.W, LinForm.make({"n": 1}, 3))
        others = (
            SeqTerm(SequenceKind.V, LinForm.make({"n": 1}, 3)),
            SeqTerm(SequenceKind.W, LinForm.make({"n": 1}, 4)),
            SeqTerm(SequenceKind.W, LinForm.make({"n": 2}, 3)),
            SeqTerm(SequenceKind.GEOQ, LinForm.make({"n": 1}, 3)),
        )
        for other in others:
            assert w != other and other != w
            assert w.order_key != other.order_key
        assert repr(w) == (
            "SeqTerm(kind=<SequenceKind.W: 'W'>, index=LinForm(coeffs=(('n', 1),), const=3))"
        )

    def test_substitute_leaves_a_form_without_the_variable_as_it_is(self):
        lin = LinForm.make({"n": 2}, 1)
        assert lin.substitute("m", 4) is lin


# ---------------------------------------------------------------------------
# scalar subtrees normalize in the ring

GEOQ = SequenceKind.GEOQ


def reference_normalize(expr, values):
    """Normalization by NormalForm algebra alone: every subtree, scalar or
    not, becomes a NormalForm before it is added or multiplied."""
    if isinstance(expr, IntLit):
        return NormalForm.from_scalar(from_int(expr.value))
    if isinstance(expr, ScalarRef):
        return NormalForm.from_scalar(symbol(expr.name))
    if isinstance(expr, NameRef):
        return values[expr.name]
    if isinstance(expr, SeqTerm):
        # u(0) = u0 = 0, and a normal form holds no u(0) atom (lang drops it
        # wherever it would arise), so the reference maps it to 0 as well
        if expr is U0:
            return NormalForm.from_scalar(zero())
        if expr.kind is not GEOQ:
            return canonical_form({(expr,): one()})
        lin = expr.index
        atoms = () if lin.is_constant else (SeqTerm(GEOQ, LinForm(lin.coeffs, 0)),)
        return canonical_form({atoms: q_power(lin.const)})
    if isinstance(expr, Sum):
        (sign, first), *rest = expr.terms
        total = reference_normalize(first, values)
        if sign < 0:
            total = -total
        for sign, term in rest:
            nf = reference_normalize(term, values)
            total = total + nf if sign > 0 else total - nf
        return total
    if isinstance(expr, Product):
        first, *rest = expr.factors
        total = reference_normalize(first, values)
        for factor in rest:
            total = total * reference_normalize(factor, values)
        return total
    if isinstance(expr, Pow):
        result = NormalForm.from_scalar(one())
        base = reference_normalize(expr.base, values)
        for _ in range(expr.exponent):
            result = result * base
        return result
    raise TypeError(f"unexpected node {expr!r}")


def reference_goal(identity):
    values = let_values(identity.bindings(), reference_normalize)
    return reference_normalize(identity.lhs, values) - reference_normalize(identity.rhs, values)


def assert_normalizes_as_the_reference(identity):
    goal = identity_goal(identity)
    assert type(goal) is NormalForm
    assert goal == reference_goal(identity)
    assert goal.render() == reference_goal(identity).render()
    values = let_values(identity.bindings(), reference_normalize)
    for side in (identity.lhs, identity.rhs):
        got = normalize(side, identity.bindings())
        assert type(got) is NormalForm
        assert got == reference_normalize(side, values)


class TestScalarSubtrees:
    """Scalar subtrees stay ring elements, yet every goal equals the
    NormalForm-only reference."""

    @pytest.mark.parametrize("name", ["paper.fib", "mutations.fib", "multi_index.fib"])
    def test_every_corpus_goal_normalizes_as_the_reference(self, name):
        path = MULTI_INDEX if name == "multi_index.fib" else corpus_path(name)
        identities = parse_file(path.read_text(encoding="utf-8")).identities
        assert identities
        for identity in identities:
            assert_normalizes_as_the_reference(identity)

    @pytest.mark.parametrize(
        "text",
        [
            "forall n: 0*W(n) == W(n)*0",
            "forall n: 0*p*W(n) + (p - p)*u(n) == 0",
            "forall n: (p + W(n))^0 == W(n)^0*q^(3)",
            "forall n: q^(2)*q^(-2) == q^(0)",
            "forall n: p*q - q*p == 0",
            "forall n: (p^2 - q)*(q^2 - p^2*q)*q^3 == W(n)*(p - 1)^2",
            "let e = p*a*b - q*a^2 - b^2\nlet f = e^2 - q^(-1)\n"
            "forall n: e*q^(n+1)*(p^3 - p*q) == f*V(n) - e",
            "forall n, j: u(n-j)*(b*W(n+j) - q*a*W(n+j-1)) == (p + q^(j))*u(n)",
            # cross terms cancel in a product of normal forms
            "forall n: (W(n)+W(n+1))*(W(n)-W(n+1)) == W(n)^2 - W(n+1)^2",
            # u(0) is zero wherever it is written
            "forall n: (u(0) + W(n))^2*u(0) == u(0)*(p - u(0))",
        ],
    )
    def test_edge_goals_normalize_as_the_reference(self, text):
        (identity,) = parse_file(text).identities
        assert_normalizes_as_the_reference(identity)

    @given(
        trees(("e0", "e1"), 6),
        trees(("e0", "e1"), 6),
        st.tuples(trees((), 3), trees(("e0",), 3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_trees_normalize_as_the_reference(self, lhs, rhs, bodies):
        # e1 reads e0, and both sides read both: a let chain of two
        lets = tuple(zip(("e0", "e1"), bodies))
        assert_normalizes_as_the_reference(Identity(("m", "n"), lhs, rhs, (), lets, "", 0, 0))

    @given(
        st.lists(monomial_texts, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(SYMBOLS), st.integers(-2, 2))),
    )
    @example(["W(i)*q^(j)", "2*u(k)"], [])
    @example(["W(i)"], [(2, "p", 1), (-2, "p", 1)])
    @settings(max_examples=80, deadline=None)
    def test_scaled_is_the_product_by_the_scalar_form(self, monomials, scalar_terms):
        nf = normalize(parse_identity(f"forall i, j, k: {' - '.join(monomials)} == 0").lhs)
        s = zero()  # sum of c*x^e, x^e a q power when x is q
        for c, x, e in scalar_terms:
            s = s + from_int(c) * (q_power(e) if x == "q" else symbol(x) ** abs(e))
        got = nf.scaled(s)
        assert got == nf * NormalForm.from_scalar(s)
        assert got.is_zero == (s.is_zero or nf.is_zero)
