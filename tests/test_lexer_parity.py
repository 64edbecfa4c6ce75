"""Parity of the regex lexer with the character-loop lexer it replaced.

``OracleLexer`` is the previous implementation, kept here verbatim as
the reference: token streams, ``LexError`` messages and positions, and
behavioural fingerprints must all match it.  The one intended
difference is that only ASCII ``[0-9]`` are digits: the oracle lexed a
non-ASCII digit as part of a number (and ``int("²")`` then raised
``ValueError``), the new lexer reports an unexpected character.
"""

import hashlib
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.hdl.errors import LexError
from repro.hdl.lexer import behavioral_fingerprint, tokenize
from repro.hdl.source_regions import split_regions
from repro.hdl.tokens import (
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
from repro.riscv import patches
from repro.riscv.pgas import build_pgas_source

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "designs"
)

_BASE_DIGITS = {
    "h": "0123456789abcdefABCDEF",
    "d": "0123456789",
    "b": "01",
    "o": "01234567",
}
_BASE_RADIX = {"h": 16, "d": 10, "b": 2, "o": 8}


class OracleLexer:
    """The character-loop lexer, as it was before the regex lexer."""

    def __init__(self, text: str, start_line: int = 1):
        self._text = text
        self._pos = 0
        self._line = start_line
        self._col = 1

    def _peek(self, ahead: int = 0) -> str:
        i = self._pos + ahead
        return self._text[i] if i < len(self._text) else ""

    def _advance(self, count: int = 1) -> str:
        chunk = self._text[self._pos : self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
        self._pos += count
        return chunk

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self._line, self._col
                self._advance(2)
                while self._pos < len(self._text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError(
                        "unterminated block comment", start_line, start_col
                    )
            else:
                return

    def _lex_number(self) -> Token:
        line, col = self._line, self._col
        digits = ""
        while self._peek().isdigit() or self._peek() == "_":
            digits += self._advance()
        digits = digits.replace("_", "")
        if self._peek() == "'":
            self._advance()
            base_ch = self._advance().lower()
            if base_ch not in _BASE_DIGITS:
                raise LexError(f"unknown number base {base_ch!r}", line, col)
            allowed = _BASE_DIGITS[base_ch]
            body = ""
            while True:
                ch = self._peek()
                if not ch or (ch not in allowed and ch != "_"):
                    break
                body += self._advance()
            body = body.replace("_", "")
            if not body:
                raise LexError("sized literal with no digits", line, col)
            width = int(digits) if digits else 32
            value = int(body, _BASE_RADIX[base_ch])
            if width <= 0:
                raise LexError(
                    "sized literal must have positive width", line, col
                )
            value &= (1 << width) - 1
            return Token(
                SIZED_NUMBER, f"{width}'{base_ch}{body}", line, col,
                num_value=value, num_width=width,
            )
        if not digits:
            raise LexError("malformed number", line, col)
        return Token(NUMBER, digits, line, col, num_value=int(digits))

    def _lex_ident(self) -> Token:
        line, col = self._line, self._col
        name = ""
        while self._peek().isalnum() or self._peek() in ("_", "$"):
            name += self._advance()
        kind = KEYWORD if name in KEYWORDS else IDENT
        return Token(kind, name, line, col)

    def _lex_syscall(self) -> Token:
        line, col = self._line, self._col
        name = self._advance()
        while self._peek().isalnum() or self._peek() == "_":
            name += self._advance()
        if len(name) == 1:
            raise LexError("bare '$' is not a valid token", line, col)
        return Token(SYSCALL, name, line, col)

    def next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        if self._pos >= len(self._text):
            return Token(EOF, "", self._line, self._col)
        ch = self._peek()
        if ch.isdigit():
            return self._lex_number()
        if ch == "'":
            return self._lex_number()
        if ch.isalpha() or ch == "_":
            return self._lex_ident()
        if ch == "$":
            return self._lex_syscall()
        if ch == "`":
            line, col = self._line, self._col
            name = self._advance()
            while self._peek().isalnum() or self._peek() == "_":
                name += self._advance()
            return Token(MACRO, name, line, col)
        line, col = self._line, self._col
        for op in MULTI_CHAR_OPS:
            if self._text.startswith(op, self._pos):
                self._advance(len(op))
                return Token(OP, op, line, col)
        if ch in SINGLE_CHAR_OPS:
            self._advance()
            return Token(OP, ch, line, col)
        if ch in PUNCTUATION:
            self._advance()
            return Token(PUNCT, ch, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)

    def tokens(self):
        while True:
            tok = self.next_token()
            yield tok
            if tok.kind == EOF:
                return


def oracle_tokenize(text, start_line=1):
    return list(OracleLexer(text, start_line=start_line).tokens())


def oracle_fingerprint(text):
    digest = hashlib.sha256()
    for tok in OracleLexer(text).tokens():
        if tok.kind == EOF:
            break
        digest.update(tok.kind.encode())
        digest.update(b"\x00")
        if tok.num_value is not None:
            digest.update(str(tok.num_value).encode())
            digest.update(b"/")
            digest.update(str(tok.num_width).encode())
        else:
            digest.update(tok.value.encode())
        digest.update(b"\x01")
    return digest.hexdigest()


def outcome(lex, text, start_line=1):
    """Tokens as plain tuples, or the error's message and position."""
    try:
        return "ok", [tuple(tok) for tok in lex(text, start_line)]
    except LexError as exc:
        return "error", str(exc), exc.line, exc.col


def assert_parity(text, start_line=1):
    expected = outcome(oracle_tokenize, text, start_line)
    assert outcome(tokenize, text, start_line) == expected
    if expected[0] == "ok":
        assert behavioral_fingerprint(tokenize(text)) == oracle_fingerprint(text)


def _example_sources():
    names = sorted(n for n in os.listdir(EXAMPLES) if n.endswith(".v"))
    assert names
    for name in names:
        with open(os.path.join(EXAMPLES, name)) as handle:
            yield name, handle.read()


def _patched_sources():
    base = build_pgas_source(1)
    for patch in patches.PATCHES.values():
        injected = patch.inject(base)
        yield f"{patch.name}:inject", injected
        yield f"{patch.name}:fix", patch.fix(injected)


class TestCorpusParity:
    @pytest.mark.parametrize("name,source", list(_example_sources()))
    def test_example_designs(self, name, source):
        assert_parity(source)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_pgas_sources(self, n):
        assert_parity(build_pgas_source(n))

    def test_patch_injects_and_fixes(self):
        for _, source in _patched_sources():
            assert_parity(source)

    def test_regions_lexed_at_their_file_line(self):
        source = build_pgas_source(2)
        for region in split_regions(source):
            assert_parity(region.text, region.start_line)


# Fragments chosen to hit every lexer path, malformed literals and the
# error cases included; non-ASCII letters are identifier characters.
FRAGMENTS = [
    "module", "endmodule", "wire", "reg", "assign", "always", "begin",
    "end", "if", "else", "case", "foo", "_x", "a$b", "q7", "é", "ßeta",
    "Ωmega", "x½",
    "0", "42", "1_000", "8'hFF", "4'b1010", "12'd100", "6'o77", "'b1",
    "8'h", "4'b12", "0'h1", "0'd0", "8'q0", "8'", "'", "16'h_", "3'B1_1",
    "$", "$signed", "$$", "`", "`FOO", "`define",
    "//", "// c\n", "/*", "*/", "/* x */", "/**/", "/*\n*/",
    " ", "\t", "\n", "\r\n", "\n\n",
    "==", "===", "!==", "<=", ">>>", "<<<", "&&", "||", "+:", "-:",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "?",
    "(", ")", "[", "]", "{", "}", ":", ";", ",", ".", "#", "=", "@",
    "\\", "\x0c", '"',
]
_ASCII_DIGITS = set("0123456789")


def _has_non_ascii_digit(text):
    return any(ch.isdigit() and ch not in _ASCII_DIGITS for ch in text)


class TestGeneratedParity:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=4),
                 max_size=30),
        st.integers(min_value=1, max_value=500),
    )
    def test_generated_text(self, pieces, start_line):
        text = "".join(pieces)
        # Non-ASCII digits are the one intended difference (below).
        assume(not _has_non_ascii_digit(text))
        assert_parity(text, start_line)


class TestNonAsciiDigits:
    def test_superscript_is_an_unexpected_character(self):
        with pytest.raises(LexError) as info:
            tokenize("wire a = ²;")
        assert "unexpected character '²'" in str(info.value)
        assert (info.value.line, info.value.col) == (1, 10)

    def test_digit_after_ascii_number_ends_the_number(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 1٣;", start_line=7)
        assert "unexpected character '٣'" in str(info.value)
        assert (info.value.line, info.value.col) == (7, 6)

    def test_non_ascii_digit_inside_identifier_still_lexes(self):
        assert_parity("wire a٣b;")
