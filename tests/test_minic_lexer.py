"""Tests for the mini-C lexer."""

import pytest

from repro.minic.lexer import CLexError, lex_line, strip_comments, tokenize
from repro.minic.tokens import (
    CTokenKind,
    is_unsigned_literal,
    parse_c_char,
    parse_c_int,
    parse_c_string,
)


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not CTokenKind.EOF]


def test_keywords_and_identifiers():
    tokens = tokenize("static inline u8 foo")
    assert [t.kind for t in tokens[:4]] == [
        CTokenKind.KEYWORD,
        CTokenKind.KEYWORD,
        CTokenKind.IDENT,  # u8 is a typedef, not a keyword
        CTokenKind.IDENT,
    ]


def test_integer_bases():
    assert parse_c_int("42") == 42
    assert parse_c_int("0x1f") == 31
    assert parse_c_int("0X1F") == 31
    assert parse_c_int("070") == 56  # octal!
    assert parse_c_int("0") == 0


def test_integer_suffixes():
    assert parse_c_int("42u") == 42
    assert parse_c_int("0xffUL") == 255
    assert is_unsigned_literal("42u")
    assert not is_unsigned_literal("42")
    assert is_unsigned_literal("0xffffffff")  # too big for s32


def test_char_literals():
    assert parse_c_char("'a'") == 97
    assert parse_c_char("'\\n'") == 10
    assert parse_c_char("'\\0'") == 0


def test_string_literals_with_escapes():
    assert parse_c_string('"hi\\n"') == "hi\n"
    assert parse_c_string('"a\\"b"') == 'a"b'


def test_greedy_operators():
    assert texts("a <<= b >> c >= d") == ["a", "<<=", "b", ">>", "c", ">=", "d"]
    assert texts("x->y") == ["x", "->", "y"]
    assert texts("a+++b") == ["a", "++", "+", "b"]


def test_ellipsis():
    assert texts("int f(const char *fmt, ...);")[-3] == "..."


def test_strip_comments_preserves_offsets():
    source = "a /* gone */ b // tail\nc"
    stripped = strip_comments(source)
    assert len(stripped) == len(source)
    assert stripped.index("b") == source.index("b")
    assert "gone" not in stripped and "tail" not in stripped


def test_strip_comments_keeps_strings():
    source = 'printk("/* not a comment */");'
    assert strip_comments(source) == source


def test_strip_comments_keeps_newlines_in_blocks():
    source = "a/*x\ny*/b"
    stripped = strip_comments(source)
    assert stripped.count("\n") == 1


def test_lex_line_columns():
    tokens = lex_line("  foo(1);", 7, "d.c")
    assert tokens[0].column == 3 and tokens[0].line == 7


def test_unterminated_string_rejected():
    with pytest.raises(CLexError):
        lex_line('"open', 1, "x.c")


def test_unterminated_char_rejected():
    with pytest.raises(CLexError):
        lex_line("'a", 1, "x.c")


def test_unknown_character_rejected():
    with pytest.raises(CLexError):
        lex_line("a ` b", 1, "x.c")


def test_malformed_number_rejected():
    with pytest.raises(CLexError):
        lex_line("0xzz", 1, "x.c")


@pytest.mark.parametrize(
    "source,expected",
    [
        # An unterminated block comment blanks the rest, newlines kept.
        ("a /* open\nto the end", "a        \n          "),
        # An escaped quote does not end the string: its "//" is text.
        ('x = "a\\"//b"; // c', 'x = "a\\"//b";     '),
        # A quote inside a character literal opens no string.
        ("c = '\"'; /* d */", "c = '\"';        "),
        # "/*/" is not closed by its own star.
        ("/*/ still */x", "            x"),
        # An unterminated string runs on across lines, "//" included.
        ('"open\n// kept" y', '"open\n// kept" y'),
        # A trailing backslash inside an open string is kept.
        ('z = "tail\\', 'z = "tail\\'),
    ],
)
def test_strip_comments_edge_cases(source, expected):
    assert strip_comments(source) == expected


@pytest.mark.parametrize(
    "line,message,column",
    [
        ('"open', "unterminated string literal", 1),
        ("'a", "unterminated character literal", 1),
        ("a ` b", "unexpected character '`'", 3),
        (" 0x", "hexadecimal literal with no digits", 2),
        ("1u_", "malformed number near '1u_'", 1),
    ],
)
def test_lex_errors_name_the_token_and_its_column(line, message, column):
    with pytest.raises(CLexError) as raised:
        lex_line(line, 3, "x.c")
    (diagnostic,) = raised.value.diagnostics
    assert diagnostic.message == message
    assert (diagnostic.location.line, diagnostic.location.column) == (3, column)
    assert diagnostic.location.filename == "x.c"
