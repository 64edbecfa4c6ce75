"""Lexer unit tests: token classification, literals, comments, errors."""

import pytest

from repro.hdl.errors import LexError
from repro.hdl.lexer import behavioral_fingerprint, tokenize
from repro.hdl.tokens import (
    EOF, IDENT, KEYWORD, NUMBER, OP, PUNCT, SIZED_NUMBER, SYSCALL,
)


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


def fingerprint(text):
    return behavioral_fingerprint(tokenize(text))


class TestBasicTokens:
    def test_keywords_recognized(self):
        assert kinds("module endmodule wire reg") == [
            (KEYWORD, "module"),
            (KEYWORD, "endmodule"),
            (KEYWORD, "wire"),
            (KEYWORD, "reg"),
        ]

    def test_identifiers(self):
        assert kinds("foo _bar x42 a$b") == [
            (IDENT, "foo"), (IDENT, "_bar"), (IDENT, "x42"), (IDENT, "a$b"),
        ]

    def test_identifier_at_end_of_input(self):
        # Regression: '' in "_$" is True, which once made this loop forever.
        toks = tokenize("endmodule")
        assert toks[0].value == "endmodule"
        assert toks[-1].kind == EOF

    def test_punctuation_and_operators(self):
        assert kinds("( ) [ ] { } ; , # @ = .") == [
            (PUNCT, c) for c in "()[]{};,#@=."
        ]

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == EOF

    def test_syscall_token(self):
        assert kinds("$signed $clog2") == [
            (SYSCALL, "$signed"), (SYSCALL, "$clog2"),
        ]

    def test_bare_dollar_rejected(self):
        with pytest.raises(LexError):
            tokenize("$ ")

    def test_unknown_character_rejected(self):
        with pytest.raises(LexError):
            tokenize("a \\ b")


class TestNumbers:
    def test_plain_decimal(self):
        tok = tokenize("1234")[0]
        assert tok.kind == NUMBER
        assert tok.num_value == 1234

    def test_decimal_with_underscores(self):
        assert tokenize("1_000_000")[0].num_value == 1000000

    def test_sized_hex(self):
        tok = tokenize("8'hFF")[0]
        assert tok.kind == SIZED_NUMBER
        assert (tok.num_width, tok.num_value) == (8, 255)

    def test_sized_binary(self):
        tok = tokenize("4'b1010")[0]
        assert (tok.num_width, tok.num_value) == (4, 10)

    def test_sized_decimal(self):
        tok = tokenize("12'd100")[0]
        assert (tok.num_width, tok.num_value) == (12, 100)

    def test_sized_octal(self):
        tok = tokenize("6'o77")[0]
        assert (tok.num_width, tok.num_value) == (6, 63)

    def test_sized_literal_truncates_to_width(self):
        tok = tokenize("4'hFF")[0]
        assert tok.num_value == 0xF

    def test_unsized_based_literal_defaults_32(self):
        tok = tokenize("'b1")[0]
        assert (tok.num_width, tok.num_value) == (32, 1)

    def test_empty_sized_literal_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'h ;")

    def test_bad_base_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'q0")

    def test_zero_width_rejected(self):
        with pytest.raises(LexError):
            tokenize("0'd1")


class TestOperators:
    def test_multi_char_operators_greedy(self):
        assert kinds("<= >= == != && || << >> >>>") == [
            (OP, "<="), (OP, ">="), (OP, "=="), (OP, "!="),
            (OP, "&&"), (OP, "||"), (OP, "<<"), (OP, ">>"), (OP, ">>>"),
        ]

    def test_indexed_part_select_ops(self):
        assert kinds("+: -:") == [(OP, "+:"), (OP, "-:")]

    def test_arrowless_single_ops(self):
        assert kinds("+ - * / % & | ^ ~ ! < > ?") == [
            (OP, c) for c in "+-*/%&|^~!<>?"
        ]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment here\nb") == [(IDENT, "a"), (IDENT, "b")]

    def test_line_comment_at_eof(self):
        assert kinds("a // trailing") == [(IDENT, "a")]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [(IDENT, "a"), (IDENT, "b")]

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers_track_newlines(self):
        toks = tokenize("a\n  b\n    c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]
        assert toks[1].col == 3


class TestFingerprint:
    def test_comment_changes_do_not_change_fingerprint(self):
        a = fingerprint("assign x = a + b; // one")
        b = fingerprint("assign x = a + b; // two")
        assert a == b

    def test_whitespace_changes_do_not_change_fingerprint(self):
        a = fingerprint("assign x=a+b;")
        b = fingerprint("assign  x =\n  a + b ;")
        assert a == b

    def test_behavioral_change_changes_fingerprint(self):
        a = fingerprint("assign x = a + b;")
        b = fingerprint("assign x = a - b;")
        assert a != b

    def test_equivalent_literals_same_fingerprint(self):
        # 8'hFF and 8'd255 encode the same value and width.
        assert fingerprint("8'hFF") == fingerprint("8'd255")

    def test_different_width_literal_differs(self):
        assert fingerprint("8'd1") != fingerprint("9'd1")

    def test_renamed_identifier_differs(self):
        assert fingerprint("wire a;") != fingerprint("wire b;")
