"""AST for the XFO modeling language.

Every node carries a source span; spans are excluded from equality so the
pretty-print round trip can compare structure.
"""

from __future__ import annotations

from dataclasses import field

from ..diagnostics import DUMMY_SPAN, Span
from ..records import record


def _span_field():
    return field(compare=False, kw_only=True, default=DUMMY_SPAN)


@record
class TermNode:
    kind: str  # var | ident | string
    value: str
    span: Span = _span_field()


@record
class PatternNode:
    predicate: str
    subject: TermNode
    object: TermNode
    span: Span = _span_field()


@record
class ImportNode:
    module: str
    span: Span = _span_field()


@record
class QualityNode:
    name: str
    determinants: tuple[str, ...]
    span: Span = _span_field()


@record
class QualitySlotNode:
    determinable: str
    ontology: str
    required: bool = False
    span: Span = _span_field()


@record
class PartNode:
    slot: str
    schema: str
    function: str
    linkage: str | None = None  # "composition" | "contained" | None (default)
    span: Span = _span_field()


@record
class FunctionNode:
    name: str
    serves: str | None = None
    span: Span = _span_field()


@record
class RoleNode:
    name: str
    span: Span = _span_field()


@record
class ObjectNode:
    name: str
    parent: str | None
    items: tuple
    span: Span = _span_field()


@record
class MemberNode:
    slot: str
    schema: str
    span: Span = _span_field()


@record
class LinkNode:
    relation: str
    subject_slot: str
    object_slot: str
    span: Span = _span_field()


@record
class AggregateNode:
    name: str
    members: tuple[MemberNode, ...]
    links: tuple[LinkNode, ...]
    span: Span = _span_field()


@record
class RelationNode:
    name: str
    subject_kind: str
    object_kind: str
    relational_quality: bool = False
    span: Span = _span_field()


@record
class EditNode:
    op: str  # delete | create
    pattern: PatternNode
    span: Span = _span_field()


@record
class TransitionalNode:
    name: str
    bearer: str
    requires: tuple[PatternNode, ...]
    edits: tuple[EditNode, ...]
    span: Span = _span_field()


@record
class DoNode:
    transitional: str
    intervention: bool = False
    span: Span = _span_field()


@record
class IfNode:
    condition: PatternNode
    then_steps: tuple
    else_steps: tuple
    span: Span = _span_field()


@record
class WhileNode:
    condition: PatternNode
    body: tuple
    span: Span = _span_field()


@record
class ChainNode:
    name: str
    kind: str  # sequence | mechanism | procedure | workflow
    steps: tuple
    span: Span = _span_field()


@record
class DispositionNode:
    name: str
    bearer: str
    trigger: PatternNode
    realization: str
    span: Span = _span_field()


@record
class AssignNode:
    determinable: str
    value: TermNode
    span: Span = _span_field()


@record
class SpawnNode:
    instance: str
    schema: str
    assignments: tuple[AssignNode, ...]
    span: Span = _span_field()


@record
class WorldNode:
    name: str
    spawns: tuple[SpawnNode, ...]
    asserts: tuple[PatternNode, ...]
    span: Span = _span_field()


@record
class EvidenceNode:
    ref: str
    note: str
    span: Span = _span_field()


@record
class ClaimNode:
    name: str
    statement: str
    evidence: tuple[EvidenceNode, ...]
    span: Span = _span_field()


Declaration = (
    QualityNode
    | ObjectNode
    | AggregateNode
    | RelationNode
    | TransitionalNode
    | ChainNode
    | DispositionNode
    | WorldNode
    | ClaimNode
)


@record
class SourceModule:
    """One parsed .xfo module: imports plus declarations, with a facet label
    and the file name its diagnostics carry. ``dropped`` names the schema
    declarations the parser skipped on a syntax error after their name; the
    error is reported, and the names still count as declared."""

    name: str
    facet: str | None
    imports: tuple[ImportNode, ...]
    decls: tuple
    span: Span = _span_field()
    file: str = field(compare=False, kw_only=True, default="<input>")
    dropped: tuple[str, ...] = field(compare=False, kw_only=True, default=())

    def declared_names(self) -> tuple[str, ...]:
        names = []
        for decl in self.decls:
            if isinstance(decl, (WorldNode, ClaimNode)):
                continue
            names.append(decl.name)
            if isinstance(decl, ObjectNode):
                for item in decl.items:
                    if isinstance(item, (RoleNode, FunctionNode)):
                        names.append(item.name)
        return tuple(names)

    def determinable_names(self) -> tuple[str, ...]:
        """Quality slot determinables, which act as predicates in patterns."""
        names = (
            item.determinable
            for decl in self.decls if isinstance(decl, ObjectNode)
            for item in decl.items if isinstance(item, QualitySlotNode)
        )
        return tuple(dict.fromkeys(names))
