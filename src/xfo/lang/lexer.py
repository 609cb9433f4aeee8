"""Tokenizer for .xfo source. Keywords are contextual: the lexer only emits
identifiers, strings, and punctuation. ``#`` starts a line comment.

One compiled pattern scans the source in one pass. Each match takes the
blanks (spaces, tabs, carriage returns) before it as a prefix, so blanks cost
no match of their own, then exactly one numbered group: 1 a newline, which
advances the line, 2 a comment, 3 an identifier, 4 a string (5 its closing
quote, empty when it is unterminated), 6 a punctuation mark, 7 any other
character, which is an error. A token is a flat record of its kind, text and
position (line, column, offset, length); its ``Span`` is built on demand, for
a diagnostic or a node's extent, not once per token."""

from __future__ import annotations

import re
from typing import NamedTuple

from ..diagnostics import ERROR, SYNTAX, Diagnostic, Span

IDENT = "IDENT"
STRING = "STRING"
LBRACE = "LBRACE"
RBRACE = "RBRACE"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
COLON = "COLON"
EQUALS = "EQUALS"
QUESTION = "QUESTION"
DOT = "DOT"
EOF = "EOF"

_PUNCT = {
    "{": LBRACE,
    "}": RBRACE,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
    ":": COLON,
    "=": EQUALS,
    "?": QUESTION,
    ".": DOT,
}

# An escape stands for its mapped character, any other escaped character for
# itself; a backslash that ends the source stands for itself.
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "": "\\"}
_ESCAPE = re.compile(r"\\([\s\S]?)")

# A string runs to its closing quote, else up to (not over) a newline or the
# end of the source; an escaped newline continues it. Blanks at the end of the
# source match nothing.
_TOKEN = re.compile(
    r"""[ \t\r]*
      (?: (\n)
        | (\#[^\n]*)
        | ([A-Za-z_][A-Za-z0-9_-]*)
        | ("(?:[^"\\\n]|\\[\s\S]?)*("?))
        | ([{}(),:=?.])
        | ([^ \t\r\n]) )""",
    re.VERBOSE,
)
_NEWLINE, _COMMENT, _IDENT, _STRING, _CLOSE, _PUNCT_GROUP = 1, 2, 3, 4, 5, 6


class Token(NamedTuple):
    kind: str
    text: str  # a string token's decoded value
    line: int
    column: int
    offset: int
    length: int  # of the source text, quotes and escapes included

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, self.length, self.offset)


def tokenize(source: str, file: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    new = tuple.__new__  # a Token without the Python frame of Token.__new__
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group <= _COMMENT:
            if group == _NEWLINE:
                line += 1
                line_start = match.end()
            continue
        start, end = match.span(group)
        text = match[group]
        column = start - line_start + 1
        if group == _IDENT:
            append(new(Token, (IDENT, text, line, column, start, end - start)))
        elif group == _PUNCT_GROUP:
            append(new(Token, (_PUNCT[text], text, line, column, start, 1)))
        elif group == _STRING:
            closed = match[_CLOSE]
            value = text[1 : len(text) - len(closed)]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), value)
            if not closed:
                diagnostics.append(
                    Diagnostic(ERROR, SYNTAX, "unterminated string literal", file,
                               Span(line, column, end - start, start))
                )
            append(new(Token, (STRING, value, line, column, start, end - start)))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        else:
            diagnostics.append(
                Diagnostic(ERROR, SYNTAX, f"unexpected character {text!r}", file,
                           Span(line, column, 1, start))
            )
    end = len(source)
    append(new(Token, (EOF, "", line, end - line_start + 1, end, 0)))
    return tokens, diagnostics
