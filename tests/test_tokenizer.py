"""The regex tokenizer against a character-by-character reference."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horaprove.lang import ParseError, _position, _tokenize


def reference_tokenize(text: str) -> list:
    """(kind, text, line, col, offset) of each token, one character at a time.

    The tokenizer the language was defined with: a blank or a token advances
    the column by its length, a comment advances nothing, a line break
    starts the next line at column 1, and the list ends with an EOF token.
    """
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in ("==", ":="):
            tokens.append(("OP", two, line, col, i))
            i += 2
            col += 2
            continue
        if ch in "()^*+-,:=/":
            tokens.append(("OP", ch, line, col, i))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col, n))
    return tokens


def outcome(tokenize, text: str):
    """The token tuples, or the error's message and position."""
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)
    if tokenize is reference_tokenize:
        return tokens
    # the tokenizer gives lists of kinds, texts and offsets; _position finds the rest
    return [(kind, word, *_position(text, offset), offset) for kind, word, offset in zip(*tokens)]


# letters, '_', ASCII and Arabic-Indic digits, digit-like characters that are
# not decimal ('²', '①', '½'), a byte-order mark and a no-break space (both
# errors), every blank and line break, comments and every operator
PIECES = st.sampled_from(
    [*"abnqWVu_", *"0179", *"٠١٩", *"²①½", "\ufeff", "\xa0", *" \t\r\n",
     "#", "# note", *"()^*+-,:=/", "==", ":="]
)
TEXTS = st.lists(PIECES, max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(TEXTS)
@example("")
@example("# only a comment")
@example("forall n: W(n) == W(n)  # trailing")
@example("n² u①(n) x½")
@example("٣n + 2٠")
@example("a\r\n\tb\n\n  ")
@example("\ufefflet x = 1")
@example("=== :== :=:")
def test_tokenizer_matches_the_reference(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


@pytest.mark.parametrize(
    "text, col",
    [("x # c", 3), ("x\n  # c", 3), ("x  ", 4), ("x\n", 1), ("", 1)],
)
def test_end_of_input_column(text, col):
    kind, _text, _line, eof_col, offset = outcome(_tokenize, text)[-1]
    assert (kind, eof_col, offset) == ("EOF", col, len(text))
