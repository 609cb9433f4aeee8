"""Positioned diagnostics shared by the parser, compiler, and validator."""

from __future__ import annotations

from typing import Iterable

from .records import record

ERROR = "error"
WARNING = "warning"

# Diagnostic codes. These are stable strings: tooling may grep for them.
SYNTAX = "SyntaxError"
DUPLICATE_NAME = "DuplicateName"
DUPLICATE_MODULE = "DuplicateModule"
RESERVED_NAME = "ReservedUpperTaxonomyName"
DANGLING_REFERENCE = "DanglingReference"
INHERITANCE_CYCLE = "InheritanceCycle"
UNBOUND_OCCURRENT = "UnboundOccurrent"
PART_WITHOUT_FUNCTION = "PartWithoutFunction"
DISPOSITION_INCOMPLETE = "DispositionIncomplete"
UNBOUND_VARIABLE = "UnboundVariable"
RECURSIVE_AGGREGATE = "RecursiveAggregate"
RECURSIVE_COMPOSITION = "RecursiveComposition"
INVALID_CHAIN = "InvalidChain"


@record
class Span:
    """Position of a source region: 1-based line/column plus absolute offset."""

    line: int
    column: int
    length: int
    offset: int


DUMMY_SPAN = Span(0, 0, 0, 0)


@record
class Diagnostic:
    severity: str
    code: str
    message: str
    file: str = "<input>"
    span: Span | None = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def _sort_key(diag: Diagnostic) -> tuple:
    span = diag.span or DUMMY_SPAN
    return (diag.file, span.line, span.column, diag.code, diag.message)


def format_diagnostics(diagnostics: Iterable[Diagnostic]) -> str:
    """Render one line per diagnostic, ordered by file then span.

    Format: ``file:line:col: severity[code]: message``. Diagnostics without
    a span drop the position fields. An empty input yields the empty string.
    """
    lines = []
    for diag in sorted(diagnostics, key=_sort_key):
        if diag.span is None:
            lines.append(f"{diag.file}: {diag.severity}[{diag.code}]: {diag.message}")
        else:
            lines.append(
                f"{diag.file}:{diag.span.line}:{diag.span.column}: "
                f"{diag.severity}[{diag.code}]: {diag.message}"
            )
    return "\n".join(lines)
