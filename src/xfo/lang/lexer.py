"""Tokenizer for .xfo source. Keywords are contextual: the lexer only emits
identifiers, strings, and punctuation. ``#`` starts a line comment.

One compiled pattern scans the source in one pass. Each match takes the
blanks (spaces, tabs, carriage returns) before it as a prefix, so blanks cost
no match of their own, then exactly one numbered group: 1 a newline, which
advances the line, 2 a comment, 3 an identifier, 4 a string (5 its closing
quote, empty when it is unterminated), 6 a punctuation mark, 7 any other
character, which is an error.

A token is an exact tuple ``(kind, text, line, column, offset, length)``, read
through the indexes ``KIND`` ... ``LENGTH``. CPython's cyclic collector untracks
an exact tuple of strings and ints the first time it examines it, so later
collections skip a module's thousands of tokens (it never untracks a tuple
subclass such as a NamedTuple). ``span`` builds a token's ``Span`` on demand."""

from __future__ import annotations

import re

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


# The fields of a token, by index. TEXT is a string token's decoded value;
# LENGTH is that of the source text, quotes and escapes included.
KIND, TEXT, LINE, COLUMN, OFFSET, LENGTH = range(6)


def span(token: tuple) -> Span:
    return Span(token[LINE], token[COLUMN], token[LENGTH], token[OFFSET])


def tokenize(source: str, file: str = "<input>") -> tuple[list[tuple], list[Diagnostic]]:
    tokens: list[tuple] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
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
            append((IDENT, text, line, column, start, end - start))
        elif group == _PUNCT_GROUP:
            append((_PUNCT[text], text, line, column, start, 1))
        elif group == _STRING:
            closed = match[_CLOSE]
            value = text[1 : len(text) - len(closed)]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), value)
            append((STRING, value, line, column, start, end - start))
            if not closed:
                diagnostics.append(Diagnostic(ERROR, SYNTAX, "unterminated string literal",
                                              file, span(tokens[-1])))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        else:
            diagnostics.append(
                Diagnostic(ERROR, SYNTAX, f"unexpected character {text!r}", file,
                           Span(line, column, 1, start))
            )
    end = len(source)
    append((EOF, "", line, end - line_start + 1, end, 0))
    return tokens, diagnostics
