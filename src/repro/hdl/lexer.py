"""Lexer for LHDL, the Verilog subset used throughout this reproduction.

The lexer works on preprocessed text (see ``repro.hdl.preprocessor``).
Comments are skipped but counted, so LiveParser can tell comment-only
edits apart from behavioural ones by comparing token streams rather
than raw text.

One compiled master regex classifies each lexeme; the Python loop only
tracks line/column and builds tokens.  Only ASCII ``[0-9]`` are digits,
so a non-ASCII digit is an unexpected character, not a number.
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable, List

from .errors import LexError
from .tokens import (
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    MACRO,
    MULTI_CHAR_OPS,
    NUMBER,
    OP,
    PUNCT,
    PUNCTUATION,
    SINGLE_CHAR_OPS,
    SIZED_NUMBER,
    SYSCALL,
    Token,
)

# Base letter -> radix and a sized literal's body (digits and '_').
_BASES = {
    "h": (16, re.compile(r"[0-9a-fA-F_]*")),
    "d": (10, re.compile(r"[0-9_]*")),
    "b": (2, re.compile(r"[01_]*")),
    "o": (8, re.compile(r"[0-7_]*")),
}


def _char_class(chars) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


# Alternatives are tried in order at each position: comments before the
# '/' operator, a digit run that ends in "'" (sized literal) before a
# plain number, multi-character operators longest first.  Identifier
# starts are ``[^\W\d]`` (word characters that are not decimal digits);
# the few of those that are not letters are rejected in the loop.
_MASTER = re.compile(
    "|".join((
        r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)",
        r"(?P<open_comment>/\*)",
        r"(?P<ident>[^\W\d][\w$]*)",
        r"(?P<number>[0-9][0-9_]*'?|')",
        r"(?P<syscall>\$\w*)",
        r"(?P<macro>`\w*)",
        "(?P<op>" + "|".join(re.escape(op) for op in MULTI_CHAR_OPS)
        + "|" + _char_class(SINGLE_CHAR_OPS) + ")",
        "(?P<punct>" + _char_class(PUNCTUATION) + ")",
        r"(?P<bad>.)",
    )),
    re.DOTALL,
)


def _sized_number(text: str, pos: int, quote: int, line: int, col: int):
    """Lex the sized literal whose ``'`` is at ``quote``; returns the
    token and the position after it."""
    digits = text[pos:quote].replace("_", "")
    base_ch = text[quote + 1 : quote + 2].lower()
    if base_ch not in _BASES:
        raise LexError(f"unknown number base {base_ch!r}", line, col)
    radix, body_re = _BASES[base_ch]
    body_match = body_re.match(text, quote + 2)
    body = body_match.group().replace("_", "")
    if not body:
        raise LexError("sized literal with no digits", line, col)
    width = int(digits) if digits else 32
    if width <= 0:
        raise LexError("sized literal must have positive width", line, col)
    value = int(body, radix) & ((1 << width) - 1)
    token = Token(
        SIZED_NUMBER, f"{width}'{base_ch}{body}", line, col, value, width
    )
    return token, body_match.end()


def tokenize(text: str, start_line: int = 1) -> List[Token]:
    """Tokenize ``text`` fully, returning the EOF token as the last item.

    Lines are numbered from ``start_line``, so a region cut out of a
    file lexes with file line numbers.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    line = start_line
    line_start = 0  # index of the first character of ``line``
    pos = 0
    end = len(text)
    while pos < end:
        m = match(text, pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "skip":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rindex("\n") + 1
            pos = m.end()
            continue
        col = pos - line_start + 1
        if kind == "ident":
            first = value[0]
            if not (first.isalpha() or first == "_"):
                raise LexError(f"unexpected character {first!r}", line, col)
            append(Token(
                KEYWORD if value in KEYWORDS else IDENT, value, line, col
            ))
        elif kind == "punct":
            append(Token(PUNCT, value, line, col))
        elif kind == "op":
            append(Token(OP, value, line, col))
        elif kind == "number":
            if value[-1] == "'":
                token, pos = _sized_number(
                    text, pos, m.end() - 1, line, col
                )
                append(token)
                continue
            digits = value.replace("_", "")
            append(Token(NUMBER, digits, line, col, int(digits)))
        elif kind == "syscall":
            if len(value) == 1:
                raise LexError("bare '$' is not a valid token", line, col)
            append(Token(SYSCALL, value, line, col))
        elif kind == "macro":
            # Raw (un-preprocessed) text: keep the macro reference as a
            # token so LiveParser can fingerprint module regions before
            # preprocessing.  Preprocessed text never contains these.
            append(Token(MACRO, value, line, col))
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line, col)
        else:
            raise LexError(f"unexpected character {value!r}", line, col)
        pos = m.end()
    append(Token(EOF, "", line, end - line_start + 1))
    return tokens


def behavioral_fingerprint(tokens: Iterable[Token]) -> str:
    """Hash of a token stream, insensitive to comments and whitespace.

    LiveParser uses this to decide whether an edit changed behaviour
    (paper §III-C: "confirm that actual behavior was changed, not just
    comments or spacing").  Numbers hash by value and width, so
    ``8'hFF`` and ``8'd255`` are the same behaviour.
    """
    parts = []
    for tok in tokens:
        if tok.kind == EOF:
            break
        if tok.num_value is not None:
            parts.append(f"{tok.kind}\x00{tok.num_value}/{tok.num_width}\x01")
        else:
            parts.append(f"{tok.kind}\x00{tok.value}\x01")
    return hashlib.sha256("".join(parts).encode()).hexdigest()
