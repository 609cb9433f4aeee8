"""Tokenizer for .xfo source. Keywords are contextual: the lexer only emits
identifiers, strings, and punctuation. ``#`` starts a line comment.

One ``findall`` cuts the source into pieces that cover it without gaps: an
identifier, a run of blanks, a newline with the next line's indent, a
punctuation mark, a comment, a string, or any other character, an error. The
pattern has no capture groups, so ``findall`` returns plain strings and builds
no match object; a piece's first character names its class, and the running
sum of the lengths gives its offset.

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

# Every character of the source falls in exactly one piece, so a piece's
# offset is the sum of the lengths before it. A newline takes the blanks that
# indent the next line. A string runs to its closing quote, else up to (not
# over) a newline or the end of the source; an escaped newline continues it.
_PIECES = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_-]* | [ \t\r]+ | \n[ \t\r]* | [{}(),:=?.] | \#[^\n]*
      | "[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"? | [\s\S]""",
    re.VERBOSE,
)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


# The fields of a token, by index. TEXT is a string token's decoded value;
# LENGTH is that of the source text, quotes and escapes included.
KIND, TEXT, LINE, COLUMN, OFFSET, LENGTH = range(6)


def span(token: tuple) -> Span:
    return Span(token[LINE], token[COLUMN], token[LENGTH], token[OFFSET])


def tokenize(source: str, file: str = "<input>") -> tuple[list[tuple], list[Diagnostic]]:
    tokens: list[tuple] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    line, line_start, offset = 1, 0, 0
    for piece in _PIECES.findall(source):
        first = piece[0]
        size = len(piece)
        if first in _IDENT_START:
            append((IDENT, piece, line, offset - line_start + 1, offset, size))
        elif first in " \t\r":  # blanks count only by their length
            pass
        elif first in _PUNCT:
            append((_PUNCT[first], piece, line, offset - line_start + 1, offset, 1))
        elif first == "\n":
            line += 1
            line_start = offset + 1
        elif first == '"':
            # Closed when it ends in a quote that an odd run of backslashes does not escape.
            closed = size > 1 and piece[-1] == '"'
            value = piece[1 : size - closed]
            if "\\" in value:
                closed = closed and (len(value) - len(value.rstrip("\\"))) % 2 == 0
                value = _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), piece[1 : size - closed])
            append((STRING, value, line, offset - line_start + 1, offset, size))
            if not closed:
                diagnostics.append(Diagnostic(ERROR, SYNTAX, "unterminated string literal",
                                              file, span(tokens[-1])))
            if "\n" in piece:
                line += piece.count("\n")
                line_start = offset + piece.rindex("\n") + 1
        elif first != "#":
            diagnostics.append(
                Diagnostic(ERROR, SYNTAX, f"unexpected character {piece!r}", file,
                           Span(line, offset - line_start + 1, 1, offset))
            )
        offset += size
    append((EOF, "", line, offset - line_start + 1, offset, 0))
    return tokens, diagnostics
