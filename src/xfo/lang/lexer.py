"""Tokenizer for .xfo source. Keywords are contextual: the lexer only emits
identifiers, strings, and punctuation. ``#`` starts a line comment.

One compiled pattern scans the source. A token is a flat record of its kind,
text and position (line, column, offset, length); its ``Span`` is built on
demand, for a diagnostic or a node's extent, not once per token."""

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
# end of the source; an escaped newline continues it.
_TOKEN = re.compile(
    r"""(?P<NEWLINE>\n)
      | (?P<SKIP>[ \t\r]+|\#[^\n]*)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<STRING>"(?:[^"\\\n]|\\[\s\S]?)*(?P<CLOSE>"?))
      | (?P<PUNCT>[{}(),:=?.])
      | (?P<OTHER>.)""",
    re.VERBOSE,
)


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
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        if group == "SKIP":
            continue
        start, end = match.span()
        if group == "NEWLINE":
            line += 1
            line_start = end
            continue
        text = match[0]
        column = start - line_start + 1
        if group == "IDENT":
            tokens.append(Token(IDENT, text, line, column, start, end - start))
        elif group == "PUNCT":
            tokens.append(Token(_PUNCT[text], text, line, column, start, 1))
        elif group == "STRING":
            closed = match["CLOSE"]
            value = text[1 : len(text) - len(closed)]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), value)
            if not closed:
                diagnostics.append(
                    Diagnostic(ERROR, SYNTAX, "unterminated string literal", file,
                               Span(line, column, end - start, start))
                )
            tokens.append(Token(STRING, value, line, column, start, end - start))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        else:
            diagnostics.append(
                Diagnostic(ERROR, SYNTAX, f"unexpected character {text!r}", file,
                           Span(line, column, 1, start))
            )
    end = len(source)
    tokens.append(Token(EOF, "", line, end - line_start + 1, end, 0))
    return tokens, diagnostics
