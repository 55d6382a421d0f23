"""Lexer for mini-C.

Operates on a single *logical line* at a time (the preprocessor drives it
line by line so that directives and ``__LINE__`` behave), or on whole text
for direct use in tests.
"""

from __future__ import annotations

import re

from repro.diagnostics import CompileError, Diagnostic, Severity, SourceLocation
from repro.minic.tokens import KEYWORDS, PUNCTUATION, CToken, CTokenKind

#: An identifier's tail: ``\w`` is exactly ``str.isalnum()`` or ``_``.
_WORD_TAIL = re.compile(r"\w*")

#: :data:`PUNCTUATION` by first character, in table order, so the first
#: entry that matches is still the longest.
_PUNCT_BY_FIRST: dict[str, tuple[str, ...]] = {}
for _punct in PUNCTUATION:
    _PUNCT_BY_FIRST[_punct[0]] = _PUNCT_BY_FIRST.get(_punct[0], ()) + (_punct,)
del _punct

#: What :func:`strip_comments` must see whole: a comment (blanked), or a
#: string or character literal (kept, so a ``//`` inside one is text).
#: Each alternative also matches when unterminated, up to the end.
_COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*"
    r"|/\*.*?(?:\*/|\Z)"
    r'|"(?:\\.|[^"\\])*(?:"|\\?\Z)'
    r"|'(?:\\.|[^'\\])*(?:'|\\?\Z)",
    re.DOTALL,
)
_NOT_NEWLINE = re.compile(r"[^\n]")


class CLexError(CompileError):
    """A character sequence that is not part of mini-C."""


def _error(message: str, location: SourceLocation) -> CLexError:
    return CLexError([Diagnostic(Severity.ERROR, "c-lex", message, location)])


def lex_line(text: str, line: int, filename: str) -> list[CToken]:
    """Tokenize one logical line (no newline handling, no comments).

    The preprocessor strips comments before calling this.
    """
    tokens: list[CToken] = []
    append = tokens.append
    pos = 0
    length = len(text)
    while pos < length:
        char = text[pos]
        if char in " \t\r\f\v":
            pos += 1
            continue
        column = pos + 1

        if char.isalpha() or char == "_":
            end = _WORD_TAIL.match(text, pos + 1).end()
            word = text[pos:end]
            kind = CTokenKind.KEYWORD if word in KEYWORDS else CTokenKind.IDENT
            append(CToken(kind, word, line, column, filename))
            pos = end
            continue

        if char.isdigit():
            end = pos
            if text.startswith(("0x", "0X"), pos):
                end = pos + 2
                while end < length and text[end] in "0123456789abcdefABCDEF":
                    end += 1
                if end == pos + 2:
                    raise _error(
                        "hexadecimal literal with no digits",
                        SourceLocation(line, column, filename),
                    )
            else:
                while end < length and text[end].isdigit():
                    end += 1
            while end < length and text[end] in "uUlL":
                end += 1
            if end < length and (text[end].isalpha() or text[end] == "_"):
                raise _error(
                    f"malformed number near {text[pos:end + 1]!r}",
                    SourceLocation(line, column, filename),
                )
            append(CToken(CTokenKind.INT, text[pos:end], line, column, filename))
            pos = end
            continue

        if char == "'" or char == '"':
            end = pos + 1
            while end < length and text[end] != char:
                if text[end] == "\\":
                    end += 1
                end += 1
            if end >= length:
                what = "character" if char == "'" else "string"
                raise _error(
                    f"unterminated {what} literal",
                    SourceLocation(line, column, filename),
                )
            kind = CTokenKind.CHAR if char == "'" else CTokenKind.STRING
            append(CToken(kind, text[pos : end + 1], line, column, filename))
            pos = end + 1
            continue

        for punct in _PUNCT_BY_FIRST.get(char, ()):
            if text.startswith(punct, pos):
                break
        else:
            raise _error(
                f"unexpected character {char!r}",
                SourceLocation(line, column, filename),
            )
        append(CToken(CTokenKind.PUNCT, punct, line, column, filename))
        pos += len(punct)
    return tokens


def _blank_comment(match: re.Match) -> str:
    span = match.group()
    return _NOT_NEWLINE.sub(" ", span) if span[0] == "/" else span


def strip_comments(text: str) -> str:
    """Replace comments with spaces, preserving line structure."""
    return _COMMENT_OR_LITERAL.sub(_blank_comment, text)


def tokenize(text: str, filename: str = "<c>") -> list[CToken]:
    """Tokenize full text (comments stripped); no preprocessing."""
    tokens: list[CToken] = []
    for index, line in enumerate(strip_comments(text).splitlines(), start=1):
        tokens.extend(lex_line(line, index, filename))
    tokens.append(CToken(CTokenKind.EOF, "", len(text.splitlines()) + 1, 1, filename))
    return tokens
