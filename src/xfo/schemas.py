"""Universal definitions: the immutable schema values a registry holds.

Schemas describe types (Universals); live entities (Particulars) exist only
in a relation store. Everything here is a frozen, slotted dataclass so a
resolved registry can be shared freely.
"""

from __future__ import annotations

import json
from dataclasses import replace

from . import kinds
from .records import record

# --- pattern terms ------------------------------------------------------------

VAR = "var"
CONST = "const"
TEXT = "text"


@record
class Term:
    """One argument position of a pattern: a ?variable, identifier, or string."""

    kind: str
    value: str


def var(name: str) -> Term:
    return Term(VAR, name)


def const(name: str) -> Term:
    return Term(CONST, name)


def text(value: str) -> Term:
    return Term(TEXT, value)


# Inside transitional and disposition bodies the identifier ``bearer`` is an
# implicitly bound variable naming the bearer instance.
BEARER = var("bearer")


@record
class Pattern:
    predicate: str
    subject: Term
    object: Term

    def __str__(self) -> str:
        """The pattern as written in a body: ``color(bearer, red)``."""
        def source(term: Term) -> str:
            if term.kind == VAR:
                return term.value if term == BEARER else f"?{term.value}"
            return json.dumps(term.value) if term.kind == TEXT else term.value

        return f"{self.predicate}({source(self.subject)}, {source(self.object)})"

    def variables(self) -> tuple[str, ...]:
        return tuple(term.value for term in (self.subject, self.object) if term.kind == VAR)


# --- quality ontologies ----------------------------------------------------------

@record
class QualityOntology:
    """A determinable with its closed, ordered set of determinant values."""

    determinable: str
    determinants: tuple[str, ...]

    def __post_init__(self):
        if not self.determinants:
            raise ValueError(f"quality {self.determinable!r} has no determinants")
        if len(set(self.determinants)) != len(self.determinants):
            raise ValueError(f"quality {self.determinable!r} repeats a determinant")

    @property
    def name(self) -> str:
        return self.determinable


# --- thick objects ---------------------------------------------------------------

COMPOSITION = "composition"
CONTAINMENT = "containment"


@record
class QualitySlot:
    determinable: str
    ontology: str
    required: bool = False


@record
class PartSlot:
    slot: str
    schema: str
    function: str
    linkage: str = COMPOSITION


@record
class ThickObjectSchema:
    """A structured object definition: qualities, parts with functions,
    realizables, and an optional location slot."""

    name: str
    parent: str | None = None
    qualities: tuple[QualitySlot, ...] = ()
    parts: tuple[PartSlot, ...] = ()
    realizables: tuple[str, ...] = ()
    location_slot: str | None = None

    def quality_slot(self, determinable: str) -> QualitySlot | None:
        for slot in self.qualities:
            if slot.determinable == determinable:
                return slot
        return None


def flatten_object(child: ThickObjectSchema, parent: ThickObjectSchema) -> ThickObjectSchema:
    """Merge a parent's slots into a child, child redeclarations winning.

    Parent order is preserved: a child slot that redeclares a parent's (by
    determinable, or by part slot name) takes that slot's place, and new child
    slots and realizables append after. Each name keeps one slot, the last one
    given, at the place of its first. Idempotent when the child already
    carries the parent's slots.
    """
    qualities = {slot.determinable: slot for slot in parent.qualities + child.qualities}
    parts = {slot.slot: slot for slot in parent.parts + child.parts}
    return replace(
        child,
        qualities=tuple(qualities.values()),
        parts=tuple(parts.values()),
        realizables=tuple(dict.fromkeys(parent.realizables + child.realizables)),
        location_slot=child.location_slot or parent.location_slot,
    )


# --- aggregates --------------------------------------------------------------------

@record
class AggregateMember:
    slot: str
    schema: str


@record
class AggregateLink:
    relation: str
    subject_slot: str
    object_slot: str


@record
class AggregateSchema:
    """A collection of co-equal members defined by the network of their links."""

    name: str
    members: tuple[AggregateMember, ...] = ()
    links: tuple[AggregateLink, ...] = ()

    def member(self, slot: str) -> AggregateMember | None:
        for m in self.members:
            if m.slot == slot:
                return m
        return None


# --- relations -----------------------------------------------------------------------

@record
class RelationSchema:
    name: str
    subject_kind: str
    object_kind: str
    relational_quality: bool = False


# --- realizables ------------------------------------------------------------------------

ROLE = kinds.ROLE
DISPOSITION = kinds.DISPOSITION
FUNCTION = kinds.FUNCTION


@record
class RealizableSchema:
    """A Role, Disposition, or Function, with the variant-specific fields."""

    name: str
    variant: str
    bearer_kind: str | None = None
    context: str | None = None           # Roles: the aggregate that confers them
    trigger: Pattern | None = None       # Dispositions
    realization: str | None = None       # Dispositions: transitional fired on trigger
    purpose: str = ""                    # Functions
    serves: str | None = None            # Functions: the Need served


@record
class Need:
    name: str
    description: str = ""


# --- transitionals ------------------------------------------------------------------------

DELETE = "delete"
CREATE = "create"


@record
class Edit:
    op: str
    pattern: Pattern


@record
class TransitionalSchema:
    """An atomic, guarded relationship edit bound to a bearer kind.

    Edits keep their declaration order, but execution always retracts the
    delete set before asserting the create set so that a functional quality
    can move without a transient second live value.
    """

    name: str
    bearer_kind: str | None
    guards: tuple[Pattern, ...] = ()
    edits: tuple[Edit, ...] = ()

    @property
    def deletes(self) -> tuple[Pattern, ...]:
        return tuple(e.pattern for e in self.edits if e.op == DELETE)

    @property
    def creates(self) -> tuple[Pattern, ...]:
        return tuple(e.pattern for e in self.edits if e.op == CREATE)

    def unbound_variables(self) -> tuple[str, ...]:
        bound = {"bearer"}
        for guard in self.guards:
            bound.update(guard.variables())
        loose = []
        for edit in self.edits:
            for name in edit.pattern.variables():
                if name not in bound and name not in loose:
                    loose.append(name)
        return tuple(loose)


# --- chains ----------------------------------------------------------------------------------

SEQUENCE = "sequence"
MECHANISM = "mechanism"
PROCEDURE = "procedure"
WORKFLOW = "workflow"
CHAIN_KINDS = (SEQUENCE, MECHANISM, PROCEDURE, WORKFLOW)


@record
class DoStep:
    transitional: str
    intervention: bool = False


@record
class IfStep:
    condition: Pattern
    then_steps: tuple = ()
    else_steps: tuple = ()


@record
class WhileStep:
    condition: Pattern
    body: tuple = ()


Step = DoStep | IfStep | WhileStep


@record
class ChainSchema:
    name: str
    kind: str
    steps: tuple[Step, ...] = ()


def walk_steps(steps: tuple[Step, ...]):
    """Pre-order traversal over a step tree."""
    for step in steps:
        yield step
        if isinstance(step, IfStep):
            yield from walk_steps(step.then_steps)
            yield from walk_steps(step.else_steps)
        elif isinstance(step, WhileStep):
            yield from walk_steps(step.body)


def step_depth(steps: tuple[Step, ...]) -> int:
    """Nesting depth of a step tree; a flat nonempty body has depth 1."""
    depth = 0
    for step in steps:
        if isinstance(step, DoStep):
            depth = max(depth, 1)
        elif isinstance(step, IfStep):
            inner = max(step_depth(step.then_steps), step_depth(step.else_steps))
            depth = max(depth, 1 + inner)
        elif isinstance(step, WhileStep):
            depth = max(depth, 1 + step_depth(step.body))
    return depth


# --- processes -----------------------------------------------------------------------------------

@record
class ProcessSchema:
    """A named continuous activity with its participant kinds."""

    name: str
    participants: tuple[str, ...] = ()


# --- microworld and claim definitions (compile output, not registry content) ---------------------

@record
class SpawnDef:
    instance: str
    schema: str
    assignments: tuple[tuple[str, str], ...] = ()


@record
class WorldDef:
    name: str
    spawns: tuple[SpawnDef, ...] = ()
    asserts: tuple[Pattern, ...] = ()


@record
class EvidenceDef:
    ref: str
    note: str = ""


@record
class ClaimDef:
    name: str
    statement: str
    evidence: tuple[EvidenceDef, ...] = ()


Schema = (
    QualityOntology
    | ThickObjectSchema
    | AggregateSchema
    | RelationSchema
    | RealizableSchema
    | Need
    | TransitionalSchema
    | ChainSchema
    | ProcessSchema
)
