"""The identity language: parsing, normal forms, index substitution.

Grammar (whitespace-insensitive; '#' starts a comment to end of line):

    file       := item*
    item       := letdecl | identity
    letdecl    := 'let' NAME '=' scalarexpr
    identity   := 'forall' ivar (',' ivar)* ':' expr '==' expr pins?
    pins       := 'with' SCALAR ':=' rational (',' SCALAR ':=' rational)*
    expr       := term (('+' | '-') term)*
    term       := ('-')? factor ('*' factor)*
    factor     := base ('^' INT)?
    base       := SEQ '(' linform ')' | 'q' '^' '(' linform ')'
                | SCALAR | NAME | INT | '(' expr ')'
    linform    := INT-linear combination of declared ivars plus a constant,
                  e.g. 2*n - j + 3
    SEQ        := 'W' | 'V' | 'u'        (case-sensitive)
    SCALAR     := 'p' | 'q' | 'a' | 'b' | 'c' | 'd'
    rational   := ('-')? INT ('/' INT)?

Let-bindings are file-scoped, scalar-only (no sequence terms, and q^(...)
only with a constant exponent), bind each name once, and must precede use.
Power exponents are non-negative integer literals; negative q powers are
written q^(-1).  The 'with' clause pins scalars for one identity; a pinned
q must be nonzero.  Parentheses nest at most MAX_NESTING deep; a sum or a
product of any length is one flat Sum or Product node.

Every atom is a sequence term, SeqTerm(kind, linear form); q^(...) is the
term of the GEOQ family, the q^n of sequences.SequenceKind.  A NormalForm
is the sum-of-monomials view of an expression: a map from a multiset of
atoms (at most one of them of the GEOQ family, with no constant part) to
an exact scalar coefficient in the ring.  Identity index variables never
appear in scalars, only inside atom index forms, which makes eliminating
one index at a time well-defined.  Normalizing builds a NormalForm only
where an atom occurs: a subtree without one is a ring element.

Atoms are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): each distinct (kind, index form) is one
live SeqTerm object, built once with its sort key, so atoms compare and
hash by identity.  substitute_index instantiates an atom at a given index
value once per process (a bounded cache), however many monomials and
subgoals share it.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Union

from .ring import (
    RENDER_CACHE_SIZE,
    SYMBOLS,
    LaurentPoly,
    Record,
    from_int,
    one,
    q_power,
    render_sum,
    symbol,
)
from .sequences import SequenceKind

GEOQ = SequenceKind.GEOQ
# q^n is written q^(...), so every other family's value is its surface name
SEQ_NAMES = {kind.value: kind for kind in SequenceKind if kind is not GEOQ}
RESERVED = frozenset((*SYMBOLS, *SEQ_NAMES, "forall", "let", "with"))
SLOPE_CAP = 8
# Each open parenthesis costs the parser four stack frames and every tree
# walker one or two, so a fixed bound keeps all of them far from the
# interpreter's recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# errors


class ParseError(Exception):
    """Syntax or validation error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UndeclaredIndexError(ParseError):
    pass


class NonIntegerExponentError(ParseError):
    pass


class SlopeCapExceededError(ParseError):
    pass


class UnknownNameError(ParseError):
    pass


# ---------------------------------------------------------------------------
# syntax tree


class LinForm(Record):
    """Integer-linear form in index variables plus an integer constant.

    coeffs holds (variable, nonzero coefficient) pairs sorted by variable
    name, so equal forms compare equal.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple, const: int):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)

    @classmethod
    def make(cls, coeffs: Mapping[str, int], const: int) -> "LinForm":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return cls(items, const)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def coefficient(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def substitute(self, var: str, value: int) -> "LinForm":
        coeffs = self.coeffs
        for i, (v, c) in enumerate(coeffs):
            if v == var:
                # dropping one pair keeps the rest sorted and nonzero
                return LinForm(coeffs[:i] + coeffs[i + 1 :], self.const + c * value)
        return self

    def plus(self, other: "LinForm") -> "LinForm":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs:
            coeffs[v] = coeffs.get(v, 0) + c
        return LinForm.make(coeffs, self.const + other.const)

    def render(self) -> str:
        terms = [(c, v if abs(c) == 1 else f"{abs(c)}*{v}") for v, c in self.coeffs]
        if self.const:
            terms.append((self.const, str(abs(self.const))))
        return render_sum(terms)


class IntLit(Record):
    __slots__ = ("value",)


class ScalarRef(Record):
    __slots__ = ("name",)


class NameRef(Record):
    __slots__ = ("name",)


# Atoms are interned: SeqTerm(kind, index) returns the one live atom whose
# order_key, its place in a monomial, names that kind and index form, and
# builds it only when there is none.  So equal atoms are one object, equality
# and hash are the identity tests done in C, and an atom is a cheap key for
# per-atom caches.  The table holds its atoms weakly: an atom that nothing
# else references leaves it.  A set of atoms iterates in an address-dependent
# order, so no output is written from one: every output sorts atoms by
# order_key.
_ATOMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # order_key -> atom
_KIND_NAMES = {kind: kind.name for kind in SequenceKind}  # Enum.name is a Python-level property


class SeqTerm(Record):
    __slots__ = ("kind", "index", "order_key", "__weakref__")

    def __new__(cls, kind: SequenceKind, index: LinForm):
        form = index.coeffs, index.const
        key = (1, "", form) if kind is GEOQ else (0, _KIND_NAMES[kind], form)
        atom = _ATOMS.get(key)
        if atom is None:
            atom = object.__new__(cls)
            object.__setattr__(atom, "kind", kind)
            object.__setattr__(atom, "index", index)
            object.__setattr__(atom, "order_key", key)
            _ATOMS[key] = atom
        return atom

    def __init__(self, kind: SequenceKind, index: LinForm):
        pass  # __new__ found or built the atom

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return SeqTerm, (self.kind, self.index)

    def __repr__(self) -> str:
        return f"SeqTerm(kind={self.kind!r}, index={self.index!r})"


class Sum(Record):
    __slots__ = ("terms",)  # ((sign, Expr), ...) with sign +1 or -1, at least one term


class Product(Record):
    __slots__ = ("factors",)  # (Expr, ...), at least two factors


class Pow(Record):
    __slots__ = ("base", "exponent")  # Expr, int


Expr = Union[IntLit, ScalarRef, NameRef, SeqTerm, Sum, Product, Pow]


class LetDecl(Record):
    __slots__ = ("name", "value", "line", "col")
    _compared = 2
    _defaults = {"line": 0, "col": 0}


class Identity(Record):
    # pins is ((symbol, Fraction), ...), lets the ((name, body), ...) it reaches
    __slots__ = ("index_vars", "lhs", "rhs", "pins", "lets", "source", "line", "col")
    _compared = 4
    _defaults = {"pins": (), "lets": (), "source": "", "line": 0, "col": 0}

    def bindings(self) -> dict:
        return dict(self.lets)

    def pin_map(self) -> dict:
        return dict(self.pins)


class SourceFile(Record):
    __slots__ = ("items",)  # LetDecl | Identity, in source order

    @property
    def identities(self) -> tuple:
        return tuple(i for i in self.items if isinstance(i, Identity))


# ---------------------------------------------------------------------------
# tokenizer


class _Token:
    __slots__ = ("kind", "text", "line", "col", "offset")

    def __init__(self, kind: str, text: str, line: int, col: int, offset: int):
        self.kind = kind  # NAME INT OP EOF
        self.text = text
        self.line = line
        self.col = col
        self.offset = offset


# One match per token, each with the blanks before it.  Group 1 is a line
# break, 2 a comment, 3 a decimal run (\d is exactly str.isdecimal), 4 a
# word run (\w is str.isalnum plus '_'), 5 an operator and 6 any other
# character but a blank, so a scan skips no text but the blanks at its end.
_SCAN = re.compile(
    r"[ \t\r]*(?:(\n)|(#[^\n]*)|(\d+)|(\w+)|(==|:=|[()^*+\-,:=/])|([^ \t\r]))", re.DOTALL
).finditer
_KINDS = (None, None, None, "INT", "NAME", "OP")


def _tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0
    for m in _SCAN(text):
        group = m.lastindex
        if group == 1:
            line += 1
            line_start = m.end()
            continue
        if group == 2:
            continue
        start = m.start(group)
        col = start - line_start + 1
        word = m[group]
        # a word must start as a name does; '²', '①' or '½' alone is an error
        if group == 6 or (group == 4 and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", line, col)
        tokens.append(_Token(_KINDS[group], word, line, col, start))
    # the end of input sits after the last line's text, less any comment on it
    last = text[line_start:]
    hash_at = last.find("#")
    col = (len(last) if hash_at < 0 else hash_at) + 1
    tokens.append(_Token("EOF", "", line, col, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        tokens = _tokenize(text)
        tokens += tokens[-1:] * 2  # EOF padding: peek(2) never runs off the end
        self.tokens = tokens
        self.pos = 0
        self.lets: dict = {}  # name -> body, in source order
        self.let_refs: dict = {}  # name -> the let names its body refers to
        self.refs: set = set()  # the let names the item being parsed refers to
        self.items: list = []
        self.nesting = 0  # open expression parentheses

    # token helpers

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "EOF":
            want = what or f"'{text}'"
            raise ParseError(f"expected {want}, found {_describe(tok)}", tok.line, tok.col)
        return self.next()

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME":
            raise ParseError(f"expected {what}, found {_describe(tok)}", tok.line, tok.col)
        return self.next()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise ParseError(f"expected an integer, found {_describe(tok)}", tok.line, tok.col)
        self.next()
        return int(tok.text)

    # file structure

    def parse_file(self) -> SourceFile:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "NAME" and tok.text == "let":
                self.items.append(self.parse_let())
            elif tok.kind == "NAME" and tok.text == "forall":
                self.items.append(self.parse_identity())
            else:
                raise ParseError(
                    f"expected 'let' or 'forall', found {_describe(tok)}",
                    tok.line,
                    tok.col,
                )
        return SourceFile(tuple(self.items))

    def parse_let(self) -> LetDecl:
        kw = self.expect("let")
        name_tok = self.expect_name("a name to bind")
        name = name_tok.text
        if name in RESERVED:
            raise ParseError(
                f"cannot bind reserved name {name!r}", name_tok.line, name_tok.col
            )
        if name in self.lets:
            raise ParseError(f"{name!r} is already bound", name_tok.line, name_tok.col)
        self.expect("=")
        self.refs = set()
        value = self.parse_expr(index_vars=(), scalar_only=True)
        decl = LetDecl(name, value, kw.line, kw.col)
        self.lets[name] = value
        self.let_refs[name] = self.refs
        return decl

    def parse_identity(self) -> Identity:
        kw = self.expect("forall")
        start = self.pos - 1
        index_vars = [self.parse_index_var(())]
        while self.peek().text == ",":
            self.next()
            index_vars.append(self.parse_index_var(tuple(index_vars)))
        self.expect(":")
        ivars = tuple(index_vars)
        self.refs = set()
        lhs = self.parse_expr(ivars)
        self.expect("==")
        rhs = self.parse_expr(ivars)
        pins = self.parse_pins() if self.peek().text == "with" else ()
        first = self.tokens[start]
        last = self.tokens[self.pos - 1]
        raw = self.text[first.offset : last.offset + len(last.text)]
        # comments cannot occur inside tokens, so a line-wise cut is exact
        source = " ".join(line.split("#", 1)[0] for line in raw.splitlines())
        source = " ".join(source.split())
        return Identity(ivars, lhs, rhs, pins, self.reached_lets(), source, kw.line, kw.col)

    def reached_lets(self) -> tuple:
        """(name, body) of each let the item just parsed reaches, in source order.

        A let is reached when the item or a reached let refers to it; a body
        refers only to lets bound before it, so one backward pass finds them.
        """
        wanted = self.refs
        reached = []
        for name in reversed(self.lets):
            if name in wanted:
                reached.append((name, self.lets[name]))
                wanted |= self.let_refs[name]
        return tuple(reversed(reached))

    def parse_index_var(self, taken: tuple) -> str:
        tok = self.expect_name("an index variable")
        name = tok.text
        if name in RESERVED:
            raise ParseError(
                f"index variable cannot shadow reserved name {name!r}", tok.line, tok.col
            )
        if name in self.lets:
            raise ParseError(
                f"index variable {name!r} collides with a let-binding", tok.line, tok.col
            )
        if name in taken:
            raise ParseError(f"duplicate index variable {name!r}", tok.line, tok.col)
        return name

    def parse_pins(self) -> tuple:
        self.expect("with")
        pins = []
        seen = set()
        while True:
            tok = self.expect_name("a scalar symbol to pin")
            if tok.text not in SYMBOLS:
                raise ParseError(
                    f"only scalar symbols can be pinned, not {tok.text!r}",
                    tok.line,
                    tok.col,
                )
            if tok.text in seen:
                raise ParseError(f"duplicate pin for {tok.text!r}", tok.line, tok.col)
            seen.add(tok.text)
            self.expect(":=")
            value = self.parse_rational()
            if tok.text == "q" and value == 0:
                raise ParseError("q must be pinned to a nonzero value", tok.line, tok.col)
            pins.append((tok.text, value))
            if self.peek().text != ",":
                break
            self.next()
        return tuple(pins)

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        num = self.expect_int()
        if self.peek().text == "/":
            self.next()
            den_tok = self.peek()
            den = self.expect_int()
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # expressions

    def parse_expr(self, index_vars: tuple, scalar_only: bool = False) -> Expr:
        terms = [self.parse_term(index_vars, scalar_only)]
        while self.peek().text in ("+", "-"):
            op_sign = 1 if self.next().text == "+" else -1
            sign, node = self.parse_term(index_vars, scalar_only)
            terms.append((op_sign * sign, node))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_term(self, index_vars: tuple, scalar_only: bool) -> tuple:
        """One signed term as (sign, node); a leading '-' folds into the sign."""
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        factors = [self.parse_factor(index_vars, scalar_only)]
        while self.peek().text == "*":
            self.next()
            factors.append(self.parse_factor(index_vars, scalar_only))
        return sign, factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self, index_vars: tuple, scalar_only: bool) -> Expr:
        node = self.parse_base(index_vars, scalar_only)
        if self.peek().text == "^":
            caret = self.next()
            tok = self.peek()
            if tok.kind != "INT":
                raise NonIntegerExponentError(
                    "power exponents must be non-negative integer literals"
                    + (" (negative q powers are written q^(-1))" if tok.text == "-" else ""),
                    tok.line,
                    tok.col,
                )
            self.next()
            node = Pow(node, int(tok.text))
        return node

    def parse_base(self, index_vars: tuple, scalar_only: bool) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntLit(int(tok.text))
        if tok.text == "(":
            if self.nesting == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col
                )
            self.next()
            self.nesting += 1
            node = self.parse_expr(index_vars, scalar_only)
            self.expect(")")
            self.nesting -= 1
            return node
        if tok.kind == "NAME":
            name = tok.text
            if name in SEQ_NAMES:
                if self.peek(1).text != "(":
                    raise ParseError(
                        f"{name} is a sequence name; expected {name}(<index form>)",
                        tok.line,
                        tok.col,
                    )
                if scalar_only:
                    raise ParseError(
                        "sequence terms are not allowed in let-bindings",
                        tok.line,
                        tok.col,
                    )
                self.next()
                self.expect("(")
                lin = self.parse_linform(index_vars)
                self.expect(")")
                return SeqTerm(SEQ_NAMES[name], lin)
            if name == "q" and self.peek(1).text == "^" and self.peek(2).text == "(":
                self.next()
                self.next()
                self.next()
                lin = self.parse_linform(index_vars)
                self.expect(")")
                return SeqTerm(GEOQ, lin)
            if name in SYMBOLS:
                self.next()
                return ScalarRef(name)
            if name in self.lets:
                self.next()
                self.refs.add(name)
                return NameRef(name)
            if name in index_vars:
                raise ParseError(
                    f"index variable {name!r} cannot be used as a scalar",
                    tok.line,
                    tok.col,
                )
            raise UnknownNameError(f"unknown name {name!r}", tok.line, tok.col)
        raise ParseError(f"expected an expression, found {_describe(tok)}", tok.line, tok.col)

    def parse_linform(self, index_vars: tuple) -> LinForm:
        coeffs: dict = {}
        const = 0
        first = True
        while True:
            sign = 1
            tok = self.peek()
            if tok.text in ("+", "-"):
                if first and tok.text == "+":
                    raise ParseError("index form cannot start with '+'", tok.line, tok.col)
                self.next()
                sign = -1 if tok.text == "-" else 1
            elif not first:
                break
            tok = self.peek()
            if tok.kind == "INT":
                self.next()
                value = int(tok.text)
                if self.peek().text == "*":
                    self.next()
                    var_tok = self.expect_name("an index variable")
                    self._check_index_var(var_tok, index_vars)
                    coeffs[var_tok.text] = coeffs.get(var_tok.text, 0) + sign * value
                    self._check_slope(coeffs[var_tok.text], var_tok)
                else:
                    const += sign * value
            elif tok.kind == "NAME":
                self.next()
                self._check_index_var(tok, index_vars)
                coeffs[tok.text] = coeffs.get(tok.text, 0) + sign
                self._check_slope(coeffs[tok.text], tok)
            else:
                raise ParseError(
                    f"expected an index variable or integer, found {_describe(tok)}",
                    tok.line,
                    tok.col,
                )
            first = False
            if self.peek().text not in ("+", "-"):
                break
        return LinForm.make(coeffs, const)

    def _check_index_var(self, tok: _Token, index_vars: tuple):
        if tok.text not in index_vars:
            raise UndeclaredIndexError(
                f"undeclared index variable {tok.text!r}"
                + (f" (declared: {', '.join(index_vars)})" if index_vars else ""),
                tok.line,
                tok.col,
            )

    def _check_slope(self, coeff: int, tok: _Token):
        if abs(coeff) > SLOPE_CAP:
            raise SlopeCapExceededError(
                f"index coefficient {coeff} exceeds the slope cap {SLOPE_CAP}",
                tok.line,
                tok.col,
            )


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "EOF" else f"{tok.text!r}"


def parse_file(text: str) -> SourceFile:
    return _Parser(text).parse_file()


def parse_identity(text: str) -> Identity:
    """Parse text holding (lets and) exactly one identity; return it."""
    src = parse_file(text)
    ids = src.identities
    if len(ids) != 1:
        raise ValueError(f"expected exactly one identity, found {len(ids)}")
    return ids[0]


# ---------------------------------------------------------------------------
# normal forms


# W, V and u terms by family name, then the GEOQ term; each by its index form
_atom_order = attrgetter("order_key")


class NormalForm:
    """Sum of monomials: multiset of atoms -> exact scalar coefficient.

    Canonical: atom tuples are sorted, at most one GEOQ atom per monomial
    (with zero constant part), and no zero scalars.  Only normalization and
    the form's own operations build one, and each keeps it canonical.
    """

    __slots__ = ("_terms",)

    @classmethod
    def _raw(cls, terms: dict) -> "NormalForm":
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def from_scalar(cls, scalar: LaurentPoly) -> "NormalForm":
        return cls._raw({} if scalar.is_zero else {(): scalar})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset:
        """The monomials' atom tuples, without their scalars.

        Built from the term dict's stored hashes, so it hashes no atom
        tuple and no scalar: a cheap key under which equal normal forms
        always meet.
        """
        return frozenset(self._terms)

    def monomials(self) -> Iterator[tuple]:
        """(atoms, scalar) pairs in the canonical deterministic order."""
        return iter(
            sorted(self._terms.items(), key=lambda kv: tuple(map(_atom_order, kv[0])))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "NormalForm") -> "NormalForm":
        out = dict(self._terms)
        for atoms, scalar in other._terms.items():
            got = out.get(atoms)
            s = scalar if got is None else got + scalar
            if s.is_zero:
                out.pop(atoms, None)
            else:
                out[atoms] = s
        return NormalForm._raw(out)

    def __neg__(self) -> "NormalForm":
        return NormalForm._raw({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + (-other)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        out: dict = {}
        for atoms1, s1 in self._terms.items():
            for atoms2, s2 in other._terms.items():
                atoms = _merge_atoms(atoms1 + atoms2)
                scalar = s1 * s2
                got = out.get(atoms)
                s = scalar if got is None else got + scalar
                if s.is_zero:
                    out.pop(atoms, None)
                else:
                    out[atoms] = s
        return NormalForm._raw(out)

    def scaled(self, s: LaurentPoly) -> "NormalForm":
        """This form times s; with no zero divisors, no coefficient vanishes unless s is 0."""
        if s.is_zero:
            return NormalForm._raw({})
        return NormalForm._raw({atoms: c * s for atoms, c in self._terms.items()})

    def substitute_index(self, var: str, value: int) -> "NormalForm":
        """Instantiate one index variable at an integer value.

        Sequence-term constants stay inside the atom; a GEOQ atom folds its
        new constant part into the scalar (as q^const) and disappears
        entirely if its index loses all variables.

        Each atom's image at var = value comes from a bounded per-process
        cache, so an atom shared by many monomials or subgoals is
        instantiated once; an atom free of var is its own image.
        """
        out: dict = {}
        for atoms, scalar in self._terms.items():
            new_atoms = []
            k = 0
            for atom in atoms:
                image, shift = _substitute_atom(atom, var, value)
                new_atoms += image
                k += shift
            key = tuple(sorted(new_atoms, key=_atom_order))
            s = scalar * q_power(k) if k else scalar
            got = out.get(key)
            s = s if got is None else got + s
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return NormalForm._raw(out)

    def render(self) -> str:
        """Deterministic DSL-parseable text (e.g. for certificates)."""
        return render_sum(_render_monomial(atoms, scalar) for atoms, scalar in self.monomials())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"NormalForm({self.render()})"


def _merge_atoms(atoms: tuple) -> tuple:
    """Sort atoms, combining GEOQ atoms into one.

    A normal form's GEOQ atoms have no constant part, so neither has their
    product, and no scalar factor arises.
    """
    merged = []
    qlin = None
    for atom in atoms:
        if atom.kind is not GEOQ:
            merged.append(atom)
        else:
            qlin = atom.index if qlin is None else qlin.plus(atom.index)
    if qlin is not None and not qlin.is_constant:
        merged.append(SeqTerm(GEOQ, qlin))
    return tuple(sorted(merged, key=_atom_order))


# distinct (atom, index variable, value) triples whose images are kept
SUBSTITUTE_CACHE_SIZE = 2048


@lru_cache(maxsize=SUBSTITUTE_CACHE_SIZE)
def _substitute_atom(atom: SeqTerm, var: str, value: int) -> tuple:
    """(atoms, k): the atom at var = value is the atoms times the scalar q^k."""
    new = atom.index.substitute(var, value)
    if new is atom.index:
        return (atom,), 0
    if atom.kind is GEOQ:
        return _q_power(new)
    return (SeqTerm(atom.kind, new),), 0


def _q_power(lin: LinForm) -> tuple:
    """Split q^(lin) into (atoms, k), the atoms times the scalar q^k.

    The atoms are q^(lin without its constant), or none when lin is
    constant; k is lin's constant.
    """
    atoms = () if lin.is_constant else (SeqTerm(GEOQ, LinForm(lin.coeffs, 0)),)
    return atoms, lin.const


# Certificates render the same few atoms over and over, so each distinct
# atom is rendered once.  The cache is keyed by the atom's order_key, not by
# the atom, so it keeps no atom alive in the intern table.
@lru_cache(maxsize=RENDER_CACHE_SIZE)
def _render_atom(order_key: tuple) -> str:
    """The text of the atom whose order_key this is."""
    family, kind_name, (coeffs, const) = order_key
    index = LinForm(coeffs, const).render()
    return f"q^({index})" if family else f"{SequenceKind[kind_name].value}({index})"


def _render_monomial(atoms: tuple, scalar: LaurentPoly):
    sign, scalar_text = scalar.render_factor()
    factors = [] if scalar_text == "1" else [scalar_text]
    # equal atoms sit side by side and have equal text, and only they do
    for text, run in groupby(map(_render_atom, map(_atom_order, atoms))):
        count = len(list(run))
        factors.append(text if count == 1 else f"{text}^{count}")
    if not factors:
        factors.append("1")
    return sign, "*".join(factors)


# ---------------------------------------------------------------------------
# normalization


def normalize(expr: Expr, bindings: Mapping[str, Expr] | None = None) -> NormalForm:
    """Expand an expression into its canonical sum-of-monomials form.

    bindings maps let names to their bodies, in source order.  A subtree
    with no atom, such as every let body, normalizes to a ring element.
    """
    return _form(_normalize(expr, let_values(bindings, _normalize)))


def _normalize(expr: Expr, values: Mapping) -> LaurentPoly | NormalForm:
    """expr's value: a LaurentPoly where no atom occurs, else a NormalForm."""
    if isinstance(expr, IntLit):
        return from_int(expr.value)
    if isinstance(expr, ScalarRef):
        return symbol(expr.name)
    if isinstance(expr, NameRef):
        return values[expr.name]
    if isinstance(expr, SeqTerm):
        atoms, k = _q_power(expr.index) if expr.kind is GEOQ else ((expr,), 0)
        scalar = q_power(k) if k else one()
        return NormalForm._raw({atoms: scalar}) if atoms else scalar
    if isinstance(expr, Sum):
        (sign, first), *rest = expr.terms
        total = _normalize(first, values)
        if sign < 0:
            total = -total
        for sign, term in rest:
            nf = _normalize(term, values)
            if nf.__class__ is not total.__class__:
                total, nf = _form(total), _form(nf)
            total = total + nf if sign > 0 else total - nf
        return total
    if isinstance(expr, Product):
        first, *rest = expr.factors
        total = _normalize(first, values)
        for factor in rest:
            total = _times(total, _normalize(factor, values))
        return total
    if isinstance(expr, Pow):
        result, base = one(), _normalize(expr.base, values)
        for _ in range(expr.exponent):
            result = _times(result, base)
        return result
    raise TypeError(f"unexpected node {expr!r}")


def _times(x, y):
    """x * y, where each is a scalar (a LaurentPoly) or a NormalForm."""
    if x.__class__ is y.__class__:
        return x * y
    return x.scaled(y) if y.__class__ is LaurentPoly else y.scaled(x)


def _form(value) -> NormalForm:
    return value if value.__class__ is NormalForm else NormalForm.from_scalar(value)


def identity_goal(identity: Identity) -> NormalForm:
    """Normal form of lhs - rhs, the thing that must vanish; scalar
    subtrees and let bodies are ring elements until they meet an atom."""
    values = let_values(identity.bindings(), _normalize)
    return _form(_normalize(identity.lhs, values)) - _form(_normalize(identity.rhs, values))


def let_values(bindings: Mapping[str, Expr] | None, value: Callable) -> dict:
    """Value let-bindings once each, in source order.

    bindings maps let names to their bodies in source order; a body refers
    only to lets bound before it.  value(body, values) computes a body from
    the values of those lets, so a let name in a tree is a lookup.
    """
    values: dict = {}
    for name, body in (bindings or {}).items():
        values[name] = value(body, values)
    return values
