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

No normal form holds u(0): u starts at u0 = 0, so normalizing maps a
written u(0) to the zero scalar, and substitute_index drops every monomial
in which it makes an atom u(0).  A goal whose every monomial holds u(0) is
then zero before any elimination.

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
    render_term,
    symbol,
    zero,
)
from .sequences import GEOQ, SequenceKind

U = SequenceKind.U  # reading a member off an Enum class is a slow lookup

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

    @classmethod
    def make(cls, coeffs: Mapping[str, int], const: int) -> "LinForm":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return cls(items, const)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

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
# per-atom caches.  The table maps each order_key to a weak reference to its
# atom, so an atom that nothing else references dies, and its reference's
# callback takes the entry out; a plain dict and a weakref.ref subclass keep
# every lookup and insertion in C, where a WeakValueDictionary runs Python
# code for both.  A set of atoms iterates in an address-dependent order, so
# no output is written from one: every output sorts atoms by order_key.
_ATOMS: dict = {}  # order_key -> _AtomRef to the atom
_KIND_NAMES = {kind: kind.name for kind in SequenceKind}  # Enum.name is a Python-level property


class _AtomRef(weakref.ref):
    __slots__ = ("key",)  # the atom's order_key


def _drop_atom(ref: _AtomRef, atoms: dict = _ATOMS):
    """An atom's weak-reference callback: remove its entry from the table.

    The entry goes only while it is still this reference, never a newer
    atom's under the same key.  The table is bound as a default, so the
    callback still finds it when an atom dies during interpreter shutdown,
    after the module's globals are gone.
    """
    if atoms.get(ref.key) is ref:
        del atoms[ref.key]


class SeqTerm(Record):
    __slots__ = ("kind", "index", "order_key", "__weakref__")

    def __new__(cls, kind: SequenceKind, index: LinForm):
        form = index.coeffs, index.const
        key = (1, "", form) if kind is GEOQ else (0, _KIND_NAMES[kind], form)
        ref = _ATOMS.get(key)
        if ref is not None:
            atom = ref()
            if atom is not None:
                return atom
        atom = _new(cls)
        _set_kind(atom, kind)
        _set_index(atom, index)
        _set_order_key(atom, key)
        ref = _ATOMS[key] = _AtomRef(atom, _drop_atom)
        ref.key = key
        return atom

    # __new__ found or built the atom; object.__init__ takes the arguments
    # and, since __new__ is overridden, does nothing, in C
    __init__ = object.__init__

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return SeqTerm, (self.kind, self.index)

    def __repr__(self) -> str:
        return f"SeqTerm(kind={self.kind!r}, index={self.index!r})"


_new = object.__new__
_set_kind, _set_index, _set_order_key = SeqTerm._setters


class Sum(Record):
    __slots__ = ("terms",)  # ((sign, Expr), ...) with sign +1 or -1, at least one term


class Product(Record):
    __slots__ = ("factors",)  # (Expr, ...), at least two factors


class Pow(Record):
    __slots__ = ("base", "exponent")  # Expr, int


Expr = Union[IntLit, ScalarRef, NameRef, SeqTerm, Sum, Product, Pow]


class Identity(Record):
    # pins is ((symbol, Fraction), ...), lets the ((name, body), ...) it reaches
    __slots__ = ("index_vars", "lhs", "rhs", "pins", "lets", "source", "line", "col")
    _compared = 4

    def bindings(self) -> dict:
        return dict(self.lets)

    def pin_map(self) -> dict:
        return dict(self.pins)


class SourceFile(Record):
    __slots__ = ("identities",)  # in source order


# ---------------------------------------------------------------------------
# tokenizer


# One match per token, each with the blanks and line breaks before it.
# Group 1 is a comment, 2 a decimal run (\d is exactly str.isdecimal), 3 a
# word run (\w is str.isalnum plus '_'), 4 an operator and 5 any other
# character but a blank, so a scan skips no text but the blanks at its end.
_SCAN = re.compile(
    r"[ \t\r\n]*(?:(#[^\n]*)|(\d+)|(\w+)|(==|:=|[()^*+\-,:=/])|([^ \t\r\n]))"
).finditer
_KINDS = (None, None, "INT", "NAME", "OP")


def _tokenize(text: str) -> tuple:
    """(kinds, texts, offsets): three lists with an entry per token.

    A kind is NAME, INT or OP, and the lists end with an EOF token, whose
    text is "" at offset len(text).  A token's line and column are found
    from its offset only where one is reported (_position).
    """
    kinds, texts, offsets = [], [], []
    for m in _SCAN(text):
        group = m.lastindex
        if group == 1:
            continue
        word = m[group]
        # a word must start as a name does; '²', '①' or '½' alone is an error
        if group == 5 or (group == 3 and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", *_position(text, m.start(group)))
        kinds.append(_KINDS[group])
        texts.append(word)
        offsets.append(m.start(group))
    kinds.append("EOF")
    texts.append("")
    offsets.append(len(text))
    return kinds, texts, offsets


def _position(text: str, offset: int) -> tuple:
    """(line, column) of the token at offset.  The end of input sits after
    the last line's text, less any comment on it."""
    line_start = text.rfind("\n", 0, offset) + 1
    if offset == len(text):
        hash_at = text.find("#", line_start)
        offset = offset if hash_at < 0 else hash_at
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over the token lists; pos is the next token's index."""

    def __init__(self, text: str):
        self.text = text
        # EOF padding: a look two tokens ahead never runs off the end
        self.kinds, self.texts, self.offsets = (part + part[-1:] * 2 for part in _tokenize(text))
        self.pos = 0
        self.line, self.line_offset = 1, 0  # the last identity keyword's line, its offset
        self.lets: dict = {}  # name -> body, in source order
        self.let_refs: dict = {}  # name -> the let names its body refers to
        self.refs: set = set()  # the let names the item being parsed refers to
        self.index_vars: tuple = ()  # those the item being parsed declares; none in a let
        self.nesting = 0  # open expression parentheses

    # token helpers: each takes or returns a token's index

    def error(self, message: str, at: int, kind=ParseError) -> ParseError:
        return kind(message, *_position(self.text, self.offsets[at]))

    def found(self, at: int) -> str:
        return "end of input" if self.kinds[at] == "EOF" else repr(self.texts[at])

    def expect(self, text: str) -> int:
        at = self.pos
        if self.texts[at] != text:  # EOF's text is "", which is never expected
            raise self.error(f"expected '{text}', found {self.found(at)}", at)
        self.pos = at + 1
        return at

    def expect_name(self, what: str) -> int:
        at = self.pos
        if self.kinds[at] != "NAME":
            raise self.error(f"expected {what}, found {self.found(at)}", at)
        self.pos = at + 1
        return at

    def expect_int(self) -> int:
        at = self.pos
        if self.kinds[at] != "INT":
            raise self.error(f"expected an integer, found {self.found(at)}", at)
        self.pos = at + 1
        return int(self.texts[at])

    def keyword_position(self, at: int) -> tuple:
        """(line, column) of an identity's keyword, counting line breaks on
        from the last identity's: identities come in source order."""
        offset = self.offsets[at]
        self.line += self.text.count("\n", self.line_offset, offset)
        self.line_offset = offset
        return self.line, offset - self.text.rfind("\n", 0, offset)

    # file structure

    def parse_file(self) -> SourceFile:
        identities = []
        while self.kinds[self.pos] != "EOF":
            text = self.texts[self.pos]
            if text == "let":
                self.parse_let()
            elif text == "forall":
                identities.append(self.parse_identity())
            else:
                raise self.error(f"expected 'let' or 'forall', found {text!r}", self.pos)
        return SourceFile(tuple(identities))

    def parse_let(self):
        """Bind a let's body in lets and its references in let_refs."""
        self.expect("let")
        at = self.expect_name("a name to bind")
        name = self.texts[at]
        if name in RESERVED:
            raise self.error(f"cannot bind reserved name {name!r}", at)
        if name in self.lets:
            raise self.error(f"{name!r} is already bound", at)
        self.expect("=")
        self.refs = set()
        self.index_vars = ()
        self.lets[name] = self.parse_expr()
        self.let_refs[name] = self.refs

    def parse_identity(self) -> Identity:
        start = self.expect("forall")
        line, col = self.keyword_position(start)
        self.index_vars = ()
        self.parse_index_var()
        while self.texts[self.pos] == ",":
            self.pos += 1
            self.parse_index_var()
        self.expect(":")
        self.refs = set()
        lhs = self.parse_expr()
        self.expect("==")
        rhs = self.parse_expr()
        pins = self.parse_pins() if self.texts[self.pos] == "with" else ()
        last = self.pos - 1
        raw = self.text[self.offsets[start] : self.offsets[last] + len(self.texts[last])]
        # comments cannot occur inside tokens, so a line-wise cut is exact
        source = " ".join(row.split("#", 1)[0] for row in raw.splitlines())
        source = " ".join(source.split())
        lets = self.reached_lets()
        return Identity(self.index_vars, lhs, rhs, pins, lets, source, line, col)

    def reached_lets(self) -> tuple:
        """(name, body) of each let the identity just parsed reaches, in source order.

        A let is reached when the identity or a reached let refers to it; a body
        refers only to lets bound before it, so one backward pass finds them.
        """
        wanted = self.refs
        reached = []
        for name in reversed(self.lets):
            if name in wanted:
                reached.append((name, self.lets[name]))
                wanted |= self.let_refs[name]
        return tuple(reversed(reached))

    def parse_index_var(self):
        """Declare one more index variable of the identity being parsed."""
        at = self.expect_name("an index variable")
        name = self.texts[at]
        if name in RESERVED:
            raise self.error(f"index variable cannot shadow reserved name {name!r}", at)
        if name in self.lets:
            raise self.error(f"index variable {name!r} collides with a let-binding", at)
        if name in self.index_vars:
            raise self.error(f"duplicate index variable {name!r}", at)
        self.index_vars += (name,)

    def parse_pins(self) -> tuple:
        self.expect("with")
        pins: dict = {}
        while True:
            at = self.expect_name("a scalar symbol to pin")
            name = self.texts[at]
            if name not in SYMBOLS:
                raise self.error(f"only scalar symbols can be pinned, not {name!r}", at)
            if name in pins:
                raise self.error(f"duplicate pin for {name!r}", at)
            self.expect(":=")
            value = pins[name] = self.parse_rational()
            if name == "q" and value == 0:
                raise self.error("q must be pinned to a nonzero value", at)
            if self.texts[self.pos] != ",":
                return tuple(pins.items())
            self.pos += 1

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.texts[self.pos] == "-":
            self.pos += 1
            sign = -1
        num = self.expect_int()
        if self.texts[self.pos] != "/":
            return Fraction(sign * num)
        self.pos += 1
        den = self.expect_int()
        if den == 0:
            raise self.error("zero denominator", self.pos - 1)
        return Fraction(sign * num, den)

    # expressions

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while (op := self.texts[self.pos]) == "+" or op == "-":
            self.pos += 1
            sign, node = self.parse_term()
            terms.append((sign if op == "+" else -sign, node))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_term(self) -> tuple:
        """One signed term as (sign, node); a leading '-' folds into the sign."""
        sign = 1
        if self.texts[self.pos] == "-":
            self.pos += 1
            sign = -1
        factors = [self.parse_factor()]
        while self.texts[self.pos] == "*":
            self.pos += 1
            factors.append(self.parse_factor())
        return sign, factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.texts[self.pos] != "^":
            return node
        at = self.pos + 1
        if self.kinds[at] != "INT":
            raise self.error(
                "power exponents must be non-negative integer literals"
                + (" (negative q powers are written q^(-1))" if self.texts[at] == "-" else ""),
                at, NonIntegerExponentError,
            )
        self.pos = at + 1
        return Pow(node, int(self.texts[at]))

    def parse_base(self) -> Expr:
        at = self.pos
        kind, name = self.kinds[at], self.texts[at]  # the token's text, a name if kind is NAME
        if kind == "INT":
            self.pos = at + 1
            return IntLit(int(name))
        if name == "(":
            if self.nesting == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.pos = at + 1
            self.nesting += 1
            node = self.parse_expr()
            self.expect(")")
            self.nesting -= 1
            return node
        if kind != "NAME":
            raise self.error(f"expected an expression, found {self.found(at)}", at)
        if name in SEQ_NAMES:
            if self.texts[at + 1] != "(":
                raise self.error(f"{name} is a sequence name; expected {name}(<index form>)", at)
            if not self.index_vars:  # a let
                raise self.error("sequence terms are not allowed in let-bindings", at)
            self.pos = at + 2
            lin = self.parse_linform()
            self.expect(")")
            return SeqTerm(SEQ_NAMES[name], lin)
        if name == "q" and self.texts[at + 1] == "^" and self.texts[at + 2] == "(":
            self.pos = at + 3
            lin = self.parse_linform()
            self.expect(")")
            return SeqTerm(GEOQ, lin)
        if name in SYMBOLS:
            self.pos = at + 1
            return ScalarRef(name)
        if name in self.lets:
            self.pos = at + 1
            self.refs.add(name)
            return NameRef(name)
        if name in self.index_vars:
            raise self.error(f"index variable {name!r} cannot be used as a scalar", at)
        raise self.error(f"unknown name {name!r}", at, UnknownNameError)

    def parse_linform(self) -> LinForm:
        kinds, texts = self.kinds, self.texts
        at = self.pos
        if texts[at] == "+":
            raise self.error("index form cannot start with '+'", at)
        coeffs: dict = {}
        const = 0
        while True:
            sign = 1
            if texts[at] in ("+", "-"):  # always so after the first term
                sign = -1 if texts[at] == "-" else 1
                at += 1
            if kinds[at] == "INT":
                value = sign * int(texts[at])
                if texts[at + 1] == "*":
                    self.pos = at + 2
                    at = self.expect_name("an index variable")
                    self.add_coefficient(coeffs, at, value)
                else:
                    const += value
            elif kinds[at] == "NAME":
                self.add_coefficient(coeffs, at, sign)
            else:
                found = self.found(at)
                raise self.error(f"expected an index variable or integer, found {found}", at)
            at += 1
            if texts[at] not in ("+", "-"):
                self.pos = at
                return LinForm.make(coeffs, const)

    def add_coefficient(self, coeffs: dict, at: int, amount: int):
        """Add amount to the coefficient of the index variable token `at` names."""
        var = self.texts[at]
        if var not in self.index_vars:
            raise self.error(
                f"undeclared index variable {var!r}"
                + (f" (declared: {', '.join(self.index_vars)})" if self.index_vars else ""),
                at,
                UndeclaredIndexError,
            )
        coeff = coeffs[var] = coeffs.get(var, 0) + amount
        if abs(coeff) > SLOPE_CAP:
            message = f"index coefficient {coeff} exceeds the slope cap {SLOPE_CAP}"
            raise self.error(message, at, SlopeCapExceededError)


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
    (with zero constant part), no u(0) atom (u0 = 0, so such a monomial is
    zero), and no zero scalars.  Only normalization and the form's own
    operations build one, and each keeps it canonical.
    """

    __slots__ = ("_terms",)

    @staticmethod
    def _raw(terms: dict) -> "NormalForm":
        # terms must already be canonical; with no __setattr__ to get round,
        # a plain store costs less than the slot's setter
        self = _new(NormalForm)
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
        entirely if its index loses all variables.  A monomial in which an
        atom becomes u(0) is zero and is dropped.

        Each atom's image at var = value comes from a bounded per-process
        cache, so an atom shared by many monomials or subgoals is
        instantiated once; an atom free of var is its own image.
        """
        out: dict = {}
        for atoms, scalar in self._terms.items():
            new_atoms = []
            k = 0
            for atom in atoms:
                image = _substitute_atom(atom, var, value)
                if image is None:  # u(0): the monomial is zero
                    break
                new_atoms += image[0]
                k += image[1]
            else:
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
        return render_sum(
            render_term(scalar, _render_atoms(atoms)) for atoms, scalar in self.monomials()
        )

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
def _substitute_atom(atom: SeqTerm, var: str, value: int) -> tuple | None:
    """(atoms, k): the atom at var = value is the atoms times the scalar q^k;
    None when it is u(0), which is zero."""
    new = atom.index.substitute(var, value)
    if new is atom.index:
        return (atom,), 0
    if atom.kind is GEOQ:
        return _q_power(new)
    if _is_u0(atom.kind, new):
        return None
    return (SeqTerm(atom.kind, new),), 0


def _is_u0(kind: SequenceKind, index: LinForm) -> bool:
    """Whether the atom is u(0), the one zero term: u starts at u0 = 0."""
    return kind is U and not index.coeffs and not index.const


def _q_power(lin: LinForm) -> tuple:
    """Split q^(lin) into (atoms, k), the atoms times the scalar q^k.

    The atoms are q^(lin without its constant), or none when lin is
    constant; k is lin's constant.
    """
    atoms = () if lin.is_constant else (SeqTerm(GEOQ, LinForm(lin.coeffs, 0)),)
    return atoms, lin.const


# Certificates render the same few atoms and atom tuples over and over (a
# corpus pass renders 1,199 monomials over 187 distinct tuples), so each is
# rendered once.  _render_atom is keyed by an atom's order_key, which keeps
# no atom alive in the intern table; _render_atoms holds its tuples' atoms
# there until it drops them.
@lru_cache(maxsize=RENDER_CACHE_SIZE)
def _render_atom(order_key: tuple) -> str:
    """The text of the atom whose order_key this is."""
    family, kind_name, (coeffs, const) = order_key
    index = LinForm(coeffs, const).render()
    return f"q^({index})" if family else f"{SequenceKind[kind_name].value}({index})"


@lru_cache(maxsize=RENDER_CACHE_SIZE)
def _render_atoms(atoms: tuple) -> str:
    """A monomial's atom factors, '' for none."""
    factors = []
    # equal atoms sit side by side and have equal text, and only they do
    for text, run in groupby(map(_render_atom, map(_atom_order, atoms))):
        count = len(list(run))
        factors.append(text if count == 1 else f"{text}^{count}")
    return "*".join(factors)


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
        if _is_u0(expr.kind, expr.index):
            return zero()
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
    """Normal form of lhs - rhs, the thing that must vanish: the tree
    Sum(lhs, -rhs) that the fuzz oracle compiles, normalized."""
    return normalize(Sum(((1, identity.lhs), (-1, identity.rhs))), identity.bindings())


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
