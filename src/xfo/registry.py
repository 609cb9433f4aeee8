"""Schema registry: registration, resolution (inheritance flattening,
reference checking, fingerprinting), and the post-resolve validator.

A RegistryBuilder accumulates schemas in a single context; ``resolve`` yields
an immutable Registry that may be shared across concurrent readers.
Resolution and validation report ``(code, owner, message)`` findings, where
``code`` is a diagnostic code and ``owner`` the schema at fault; the compiler
anchors each at its owner's declaration.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Iterator

from . import diagnostics as diag
from . import kinds, schemas
from .errors import (
    DanglingReferenceError,
    DuplicateNameError,
    InheritanceCycleError,
    InvalidChainError,
    RecursiveAggregateError,
    RecursiveCompositionError,
    ReservedUpperTaxonomyNameError,
    UnboundVariableError,
    XfoError,
)
from .fingerprint import stable_fingerprint

# Predicates available in every registry. Subject must be an alive instance;
# object rules vary per predicate (see relations.RelationStore).
BUILTIN_PREDICATES = ("part_of", "member_of", "located_in", "has_role", "participates_in")

Finding = tuple[str, str, str]  # (diagnostic code, owning schema name, message)

# Typed errors ``RegistryBuilder.resolve`` raises for API callers.
_RESOLVE_ERRORS = {
    diag.INHERITANCE_CYCLE: InheritanceCycleError,
    diag.UNBOUND_VARIABLE: UnboundVariableError,
    diag.INVALID_CHAIN: InvalidChainError,
    diag.RECURSIVE_AGGREGATE: RecursiveAggregateError,
    diag.RECURSIVE_COMPOSITION: RecursiveCompositionError,
}


def _schema_payload(schema: schemas.Schema) -> dict:
    payload = dataclasses.asdict(schema)
    payload["__type__"] = type(schema).__name__
    return payload


class Registry:
    """An immutable, fully resolved set of Universals plus the kind table."""

    def __init__(
        self,
        resolved: dict[str, schemas.Schema],
        raw_objects: dict[str, schemas.ThickObjectSchema],
        kind_table: kinds.KindTable,
        fingerprint: str,
    ):
        self._schemas = MappingProxyType(dict(resolved))
        self.kinds = kind_table
        self.fingerprint = fingerprint
        # determinable -> schemas that introduce (not merely inherit) it
        declarers: dict[str, list[str]] = {}
        for schema in raw_objects.values():
            for determinable in dict.fromkeys(slot.determinable for slot in schema.qualities):
                declarers.setdefault(determinable, []).append(schema.name)
        self._declarers = {d: tuple(names) for d, names in declarers.items()}
        self._predicates = frozenset(BUILTIN_PREDICATES).union(
            self._declarers,
            (name for name, s in resolved.items() if isinstance(s, schemas.RelationSchema)),
        )

    # -- lookup -----------------------------------------------------------

    @property
    def schemas(self) -> MappingProxyType:
        return self._schemas

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def get(self, name: str) -> schemas.Schema | None:
        return self._schemas.get(name)

    def _typed(self, name: str, cls) -> object | None:
        schema = self._schemas.get(name)
        return schema if isinstance(schema, cls) else None

    def object_schema(self, name: str) -> schemas.ThickObjectSchema | None:
        return self._typed(name, schemas.ThickObjectSchema)

    def quality(self, name: str) -> schemas.QualityOntology | None:
        return self._typed(name, schemas.QualityOntology)

    def relation(self, name: str) -> schemas.RelationSchema | None:
        return self._typed(name, schemas.RelationSchema)

    def aggregate(self, name: str) -> schemas.AggregateSchema | None:
        return self._typed(name, schemas.AggregateSchema)

    def realizable(self, name: str) -> schemas.RealizableSchema | None:
        return self._typed(name, schemas.RealizableSchema)

    def transitional(self, name: str) -> schemas.TransitionalSchema | None:
        return self._typed(name, schemas.TransitionalSchema)

    def chain(self, name: str) -> schemas.ChainSchema | None:
        return self._typed(name, schemas.ChainSchema)

    def process(self, name: str) -> schemas.ProcessSchema | None:
        return self._typed(name, schemas.ProcessSchema)

    def need(self, name: str) -> schemas.Need | None:
        return self._typed(name, schemas.Need)

    def _iter_type(self, cls) -> Iterator:
        for schema in self._schemas.values():
            if isinstance(schema, cls):
                yield schema

    def objects(self) -> Iterator[schemas.ThickObjectSchema]:
        return self._iter_type(schemas.ThickObjectSchema)

    def qualities(self) -> Iterator[schemas.QualityOntology]:
        return self._iter_type(schemas.QualityOntology)

    def relations(self) -> Iterator[schemas.RelationSchema]:
        return self._iter_type(schemas.RelationSchema)

    def aggregates(self) -> Iterator[schemas.AggregateSchema]:
        return self._iter_type(schemas.AggregateSchema)

    def realizables(self) -> Iterator[schemas.RealizableSchema]:
        return self._iter_type(schemas.RealizableSchema)

    def dispositions(self) -> Iterator[schemas.RealizableSchema]:
        for schema in self.realizables():
            if schema.variant == schemas.DISPOSITION:
                yield schema

    def transitionals(self) -> Iterator[schemas.TransitionalSchema]:
        return self._iter_type(schemas.TransitionalSchema)

    def chains(self) -> Iterator[schemas.ChainSchema]:
        return self._iter_type(schemas.ChainSchema)

    def processes(self) -> Iterator[schemas.ProcessSchema]:
        return self._iter_type(schemas.ProcessSchema)

    # -- kind queries ----------------------------------------------------------

    def is_subkind(self, name: str, ancestor: str) -> bool:
        path = self.kinds.paths.get(name)
        return path is not None and ancestor in path

    def is_independent_continuant_kind(self, name: str) -> bool:
        return self.is_subkind(name, kinds.INDEPENDENT_CONTINUANT)

    def specificity(self, name: str) -> int:
        """Edges from a registered kind down from its upper attachment point."""
        if name not in self.kinds:
            raise XfoError(f"unknown kind: {name}")
        return self.kinds.depth_below_attachment(name)

    # -- predicate helpers -------------------------------------------------------

    def determinable_slot(self, schema_name: str, determinable: str) -> schemas.QualitySlot | None:
        schema = self.object_schema(schema_name)
        if schema is None:
            return None
        return schema.quality_slot(determinable)

    def determinable_declarers(self, determinable: str) -> tuple[str, ...]:
        """Schemas that introduce (not merely inherit) the determinable."""
        return self._declarers.get(determinable, ())

    def is_determinable(self, name: str) -> bool:
        return name in self._declarers

    def predicate_declared(self, name: str) -> bool:
        return name in self._predicates


class RegistryBuilder:
    """Accumulates schemas prior to resolution. Single-context only."""

    def __init__(self):
        self._schemas: dict[str, schemas.Schema] = {}

    def __len__(self) -> int:
        return len(self._schemas)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def register(self, schema: schemas.Schema) -> "RegistryBuilder":
        name = schema.name
        if kinds.is_upper(name):
            raise ReservedUpperTaxonomyNameError(
                f"{name!r} is an upper-taxonomy name and cannot be redeclared"
            )
        if name in self._schemas:
            raise DuplicateNameError(f"{name!r} is already registered")
        self._schemas[name] = schema
        return self

    def register_all(self, items) -> "RegistryBuilder":
        for schema in items:
            self.register(schema)
        return self

    # -- resolution --------------------------------------------------------------

    def resolve(self) -> Registry:
        """Flatten inheritance, check every cross-reference, and freeze.

        For API callers: raises the typed error of the first finding of
        ``resolve_with_findings`` (InheritanceCycleError,
        DanglingReferenceError carrying every dangling reference,
        UnboundVariableError, InvalidChainError, RecursiveAggregateError or
        RecursiveCompositionError). Deterministic: the same definitions
        always produce the same fingerprint.
        """
        registry, findings = self.resolve_with_findings()
        if registry is not None:
            return registry
        code, _, message = findings[0]
        if code == diag.DANGLING_REFERENCE:
            raise DanglingReferenceError(
                [(owner, text) for kind, owner, text in findings if kind == code]
            )
        raise _RESOLVE_ERRORS[code](message)

    def resolve_with_findings(self) -> tuple[Registry | None, list[Finding]]:
        """Resolve, reporting every finding; the registry is None iff any.

        An inheritance cycle stops resolution before flattening, which needs
        a DAG; otherwise every check runs and reports all it finds.
        """
        table = dict(self._schemas)
        findings: list[Finding] = []
        self._check_inheritance_cycles(table, findings)
        if findings:
            return None, findings
        resolved = dict(table)
        resolved.update(self._flatten_objects(table))
        self._auto_register_needs(resolved)
        self._collect_dangling(resolved, findings)
        self._check_transitional_variables(resolved, findings)
        self._check_chain_bodies(resolved, findings)
        self._check_aggregate_recursion(resolved, findings)
        self._check_part_recursion(resolved, findings)
        if findings:
            return None, findings
        kind_table = self._build_kind_table(resolved)

        payload = {name: _schema_payload(s) for name, s in sorted(resolved.items())}
        fingerprint = stable_fingerprint(payload)
        raw_objects = {
            name: s for name, s in self._schemas.items()
            if isinstance(s, schemas.ThickObjectSchema)
        }
        return Registry(resolved, raw_objects, kind_table, fingerprint), []

    def _check_inheritance_cycles(self, table: dict, findings: list[Finding]) -> None:
        on_cycle: set[str] = set()
        for name, schema in table.items():
            if not isinstance(schema, schemas.ThickObjectSchema) or name in on_cycle:
                continue
            seen = {name}
            cursor = schema.parent
            while cursor is not None and cursor not in seen:
                seen.add(cursor)
                parent = table.get(cursor)
                cursor = parent.parent if isinstance(parent, schemas.ThickObjectSchema) else None
            # The walk returns to its start only when the start lies on the
            # cycle; then ``seen`` is exactly the cycle, reported once.
            if cursor == name:
                on_cycle |= seen
                findings.append(
                    (diag.INHERITANCE_CYCLE, name, f"inheritance cycle through {name!r}")
                )

    def _flatten_objects(self, table: dict) -> dict[str, schemas.ThickObjectSchema]:
        flat: dict[str, schemas.ThickObjectSchema] = {}

        def flatten(name: str) -> schemas.ThickObjectSchema:
            if name in flat:
                return flat[name]
            schema = table[name]
            if schema.parent is not None and isinstance(
                table.get(schema.parent), schemas.ThickObjectSchema
            ):
                schema = schemas.flatten_object(schema, flatten(schema.parent))
            flat[name] = schema
            return schema

        for name, schema in table.items():
            if isinstance(schema, schemas.ThickObjectSchema):
                flatten(name)
        return flat

    def _auto_register_needs(self, resolved: dict) -> None:
        # Needs are leaf records; a Function's `serves` reference creates one.
        for schema in list(resolved.values()):
            if isinstance(schema, schemas.RealizableSchema) and schema.serves:
                if schema.serves not in resolved:
                    resolved[schema.serves] = schemas.Need(schema.serves)

    def _collect_dangling(self, resolved: dict, findings: list[Finding]) -> None:
        def missing(owner: str, ref: str) -> None:
            findings.append((diag.DANGLING_REFERENCE, owner, f"{owner}: {ref} not found"))

        def kind_exists(name: str) -> bool:
            if kinds.is_upper(name):
                return True
            return isinstance(
                resolved.get(name), (schemas.ThickObjectSchema, schemas.AggregateSchema)
            )

        def predicate_exists(name: str) -> bool:
            if name in BUILTIN_PREDICATES:
                return True
            if isinstance(resolved.get(name), schemas.RelationSchema):
                return True
            return any(
                isinstance(s, schemas.ThickObjectSchema) and s.quality_slot(name)
                for s in resolved.values()
            )

        def check_pattern(owner: str, pattern: schemas.Pattern, bearer_kind: str | None) -> None:
            if not predicate_exists(pattern.predicate):
                missing(owner, f"predicate {pattern.predicate!r}")
                return
            # Determinant constants are checkable when the subject is the bearer.
            if bearer_kind is None or pattern.subject != schemas.BEARER:
                return
            slot = None
            bearer = resolved.get(bearer_kind)
            if isinstance(bearer, schemas.ThickObjectSchema):
                slot = bearer.quality_slot(pattern.predicate)
            if slot is None:
                return
            ontology = resolved.get(slot.ontology)
            obj = pattern.object
            if (
                isinstance(ontology, schemas.QualityOntology)
                and obj.kind in (schemas.CONST, schemas.TEXT)
                and obj.value not in ontology.determinants
            ):
                missing(owner, f"determinant {obj.value!r} not in quality {slot.ontology!r}")

        for name, schema in resolved.items():
            if isinstance(schema, schemas.ThickObjectSchema):
                if schema.parent is not None and not isinstance(
                    resolved.get(schema.parent), schemas.ThickObjectSchema
                ):
                    missing(name, f"parent {schema.parent!r}")
                for slot in schema.qualities:
                    if not isinstance(resolved.get(slot.ontology), schemas.QualityOntology):
                        missing(name, f"quality ontology {slot.ontology!r}")
                for part in schema.parts:
                    if not isinstance(resolved.get(part.schema), schemas.ThickObjectSchema):
                        missing(name, f"part schema {part.schema!r}")
                for rname in schema.realizables:
                    if not isinstance(resolved.get(rname), schemas.RealizableSchema):
                        missing(name, f"realizable {rname!r}")
            elif isinstance(schema, schemas.RelationSchema):
                for ref in (schema.subject_kind, schema.object_kind):
                    if not kind_exists(ref):
                        missing(name, f"kind {ref!r}")
            elif isinstance(schema, schemas.RealizableSchema):
                if schema.bearer_kind is not None and not kind_exists(schema.bearer_kind):
                    missing(name, f"bearer kind {schema.bearer_kind!r}")
                if schema.context is not None and not isinstance(
                    resolved.get(schema.context), schemas.AggregateSchema
                ):
                    missing(name, f"context aggregate {schema.context!r}")
                if schema.realization is not None and not isinstance(
                    resolved.get(schema.realization), schemas.TransitionalSchema
                ):
                    missing(name, f"realization {schema.realization!r}")
                if schema.trigger is not None:
                    check_pattern(name, schema.trigger, schema.bearer_kind)
            elif isinstance(schema, schemas.TransitionalSchema):
                if schema.bearer_kind is not None and not kind_exists(schema.bearer_kind):
                    missing(name, f"bearer kind {schema.bearer_kind!r}")
                for pattern in schema.guards:
                    check_pattern(name, pattern, schema.bearer_kind)
                for edit in schema.edits:
                    check_pattern(name, edit.pattern, schema.bearer_kind)
            elif isinstance(schema, schemas.AggregateSchema):
                for member in schema.members:
                    if not kind_exists(member.schema):
                        missing(name, f"member schema {member.schema!r}")
                slots = {m.slot for m in schema.members}
                for link in schema.links:
                    if not predicate_exists(link.relation):
                        missing(name, f"link relation {link.relation!r}")
                    for slot in (link.subject_slot, link.object_slot):
                        if slot not in slots:
                            missing(name, f"link slot {slot!r}")
            elif isinstance(schema, schemas.ChainSchema):
                for step in schemas.walk_steps(schema.steps):
                    if isinstance(step, schemas.DoStep):
                        if not isinstance(
                            resolved.get(step.transitional), schemas.TransitionalSchema
                        ):
                            missing(name, f"transitional {step.transitional!r}")
                    else:
                        condition = (
                            step.condition
                            if isinstance(step, (schemas.IfStep, schemas.WhileStep))
                            else None
                        )
                        if condition is not None and not predicate_exists(condition.predicate):
                            missing(name, f"predicate {condition.predicate!r}")
            elif isinstance(schema, schemas.ProcessSchema):
                for ref in schema.participants:
                    if not kind_exists(ref):
                        missing(name, f"participant kind {ref!r}")

    def _check_transitional_variables(self, resolved: dict, findings: list[Finding]) -> None:
        for schema in resolved.values():
            if isinstance(schema, schemas.TransitionalSchema):
                loose = schema.unbound_variables()
                if loose:
                    findings.append((
                        diag.UNBOUND_VARIABLE, schema.name,
                        f"transitional {schema.name!r} edits unbound "
                        f"variable(s): {', '.join(loose)}",
                    ))

    def _check_chain_bodies(self, resolved: dict, findings: list[Finding]) -> None:
        for schema in resolved.values():
            if not isinstance(schema, schemas.ChainSchema):
                continue
            if schema.kind not in schemas.CHAIN_KINDS:
                findings.append((
                    diag.INVALID_CHAIN, schema.name,
                    f"chain {schema.name!r} has unknown kind {schema.kind!r}",
                ))
            elif schema.kind == schemas.SEQUENCE and not all(
                isinstance(step, schemas.DoStep) for step in schemas.walk_steps(schema.steps)
            ):
                findings.append((
                    diag.INVALID_CHAIN, schema.name,
                    f"sequence {schema.name!r} admits no conditionals or loops",
                ))

    def _check_aggregate_recursion(self, resolved: dict, findings: list[Finding]) -> None:
        # Aggregate membership must be a DAG; kinship-style recursion is rejected.
        edges = {
            name: [
                m.schema
                for m in schema.members
                if isinstance(resolved.get(m.schema), schemas.AggregateSchema)
            ]
            for name, schema in resolved.items()
            if isinstance(schema, schemas.AggregateSchema)
        }
        self._reject_cycles(edges, diag.RECURSIVE_AGGREGATE, "aggregate", findings)

    def _check_part_recursion(self, resolved: dict, findings: list[Finding]) -> None:
        # Part slots auto-instantiate on spawn, so the part graph must be a DAG.
        edges = {
            name: [p.schema for p in schema.parts]
            for name, schema in resolved.items()
            if isinstance(schema, schemas.ThickObjectSchema)
        }
        self._reject_cycles(edges, diag.RECURSIVE_COMPOSITION, "part", findings)

    @staticmethod
    def _reject_cycles(edges: dict, code: str, label: str, findings: list[Finding]) -> None:
        done: set[str] = set()

        def visit(node: str, stack: tuple[str, ...]):
            if node in stack:
                finding = (code, node, f"recursive {label} definition through {node!r}")
                if finding not in findings:
                    findings.append(finding)
                return
            if node in done:
                return
            for nxt in edges.get(node, ()):
                visit(nxt, stack + (node,))
            done.add(node)

        for node in edges:
            visit(node, ())

    def _build_kind_table(self, resolved: dict) -> kinds.KindTable:
        user: dict[str, str] = {}
        for name, schema in resolved.items():
            if isinstance(schema, schemas.ThickObjectSchema):
                user[name] = schema.parent if schema.parent else kinds.OBJECT
            elif isinstance(schema, schemas.AggregateSchema):
                user[name] = kinds.OBJECT_AGGREGATE
            elif isinstance(schema, schemas.QualityOntology):
                user[name] = kinds.QUALITY
            elif isinstance(schema, schemas.RelationSchema):
                if schema.relational_quality:
                    user[name] = kinds.RELATIONAL_QUALITY
            elif isinstance(schema, schemas.RealizableSchema):
                user[name] = schema.variant
            elif isinstance(schema, schemas.TransitionalSchema):
                user[name] = kinds.TRANSITIONAL
            elif isinstance(schema, (schemas.ChainSchema, schemas.ProcessSchema)):
                user[name] = kinds.PROCESS
        return kinds.KindTable(user)


def validation_findings(registry: Registry) -> list[Finding]:
    """Findings for the runtime axioms a resolved registry must satisfy.

    Empty iff every Transitional and Process schema declares at least one
    Independent Continuant participant, every Disposition has both trigger
    and realization, and every part slot carries a function. A part slot's
    finding is owned by the object that holds the slot.
    """
    out: list[Finding] = []
    for schema in registry.transitionals():
        bearer = schema.bearer_kind
        if bearer is None:
            out.append((
                diag.UNBOUND_OCCURRENT, schema.name,
                f"transitional {schema.name!r} declares no bearer",
            ))
        elif not registry.is_independent_continuant_kind(bearer):
            out.append((
                diag.UNBOUND_OCCURRENT, schema.name,
                f"transitional {schema.name!r} bearer {bearer!r} is not an "
                "Independent Continuant",
            ))
    for schema in registry.processes():
        if not any(registry.is_independent_continuant_kind(p) for p in schema.participants):
            out.append((
                diag.UNBOUND_OCCURRENT, schema.name,
                f"process {schema.name!r} has no Independent Continuant participant",
            ))
    for schema in registry.realizables():
        if schema.variant == schemas.DISPOSITION and (
            schema.trigger is None or schema.realization is None
        ):
            out.append((
                diag.DISPOSITION_INCOMPLETE, schema.name,
                f"disposition {schema.name!r} must declare both trigger and realization",
            ))
    for schema in registry.objects():
        for part in schema.parts:
            if not part.function.strip():
                out.append((
                    diag.PART_WITHOUT_FUNCTION, schema.name,
                    f"part slot {part.slot!r} of {schema.name!r} declares no function",
                ))
    return out


def validate_registry(registry: Registry) -> list[diag.Diagnostic]:
    """Check the runtime axioms a resolved registry must satisfy.

    Returns one error per ``validation_findings`` entry, so an empty list
    means the registry passes.
    """
    return [
        diag.Diagnostic(diag.ERROR, code, message)
        for code, _, message in validation_findings(registry)
    ]
