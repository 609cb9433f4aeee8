"""Schema registry: registration, resolution (inheritance flattening and
reference checking), and the post-resolve validator.

A RegistryBuilder accumulates schemas in a single context; ``resolve`` yields
an immutable Registry that may be shared across concurrent readers.
Resolution builds one SchemaIndex: the resolved table partitioned by schema
type, plus the predicate, kind and determinable name sets and each chain's
reach. Every resolution check, the validator and the Registry's lookups read
that index, so none of them type-tests or scans the whole table per call.

Resolution and validation report Findings: a diagnostic code, the schema at
fault, a message and, for a dangling reference to a schema or predicate, the
name it references. The compiler anchors each at its owner's declaration.

The registry fingerprint is not a resolution step: it is computed on its
first read and kept. It is ``stable_fingerprint`` over a payload that maps
each schema name, in sorted order, to the schema's dataclass fields by name
plus ``__type__``, its class name; nested schema values (slots, patterns,
steps) are encoded by their fields alone, with no ``__type__``. Two threads
that read it at once may both encode it, with the same result.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterator, NamedTuple, get_args

from . import diagnostics as diag
from . import errors, kinds, schemas
from .fingerprint import dataclass_fields, stable_fingerprint

# Predicates available in every registry. Subject must be an alive instance;
# object rules vary per predicate (see relations.RelationStore).
BUILTIN_PREDICATES = ("part_of", "member_of", "located_in", "has_role", "participates_in")


class Finding(NamedTuple):
    code: str  # diagnostic code
    owner: str  # the schema at fault
    message: str
    name: str | None = None  # the undeclared name a dangling reference names


class ChainReach(NamedTuple):
    transitionals: tuple[str, ...]  # the names its ``do`` steps run, once each, first-reach order
    branches: tuple  # its ``if`` and ``while`` steps, in pre-order


class SchemaIndex:
    """A resolved schema table partitioned by type, with the name sets that
    resolution checks and registry lookups read.

    Built once per resolution, over the flattened table. It registers the
    Needs that Functions serve, so ``table`` is the full resolved table.
    ``declared_objects`` are the object schemas as registered, before
    flattening.
    """

    def __init__(
        self,
        table: dict[str, schemas.Schema],
        declared_objects: dict[str, schemas.ThickObjectSchema],
    ):
        self.table = table
        by_type: dict[type, dict] = {cls: {} for cls in get_args(schemas.Schema)}
        for name, schema in table.items():
            by_type[type(schema)][name] = schema
        self.objects = by_type[schemas.ThickObjectSchema]
        self.qualities = by_type[schemas.QualityOntology]
        self.relations = by_type[schemas.RelationSchema]
        self.aggregates = by_type[schemas.AggregateSchema]
        self.realizables = by_type[schemas.RealizableSchema]
        self.needs = by_type[schemas.Need]
        self.transitionals = by_type[schemas.TransitionalSchema]
        self.chains = by_type[schemas.ChainSchema]
        self.processes = by_type[schemas.ProcessSchema]
        # Needs are leaf records; a Function's `serves` reference to an unused,
        # non-upper name creates one. `_check_name_clashes` reports the rest.
        for schema in self.realizables.values():
            if schema.serves and schema.serves not in table and not kinds.is_upper(schema.serves):
                table[schema.serves] = self.needs[schema.serves] = schemas.Need(schema.serves)
        self.dispositions = tuple(
            s for s in self.realizables.values() if s.variant == schemas.DISPOSITION
        )
        # Names that may bear a realizable, end a relation or be a member.
        self.kind_names = frozenset(kinds.UPPER_TAXONOMY).union(self.objects, self.aggregates)
        # determinable -> schemas that introduce (not merely inherit) it
        declarers: dict[str, list[str]] = {}
        for schema in declared_objects.values():
            for determinable in dict.fromkeys(slot.determinable for slot in schema.qualities):
                declarers.setdefault(determinable, []).append(schema.name)
        self.declarers = {d: tuple(names) for d, names in declarers.items()}
        # A flattened object's determinables are its own and its ancestors',
        # so the declared objects' determinables are every predicate a slot gives.
        self.predicates = frozenset(BUILTIN_PREDICATES).union(self.declarers, self.relations)
        self.reaches = {}
        for name, chain in self.chains.items():
            steps = tuple(schemas.walk_steps(chain.steps))
            runs = (step.transitional for step in steps if isinstance(step, schemas.DoStep))
            branches = tuple(step for step in steps if not isinstance(step, schemas.DoStep))
            self.reaches[name] = ChainReach(tuple(dict.fromkeys(runs)), branches)


class Registry:
    """An immutable, fully resolved set of Universals plus the kind table."""

    def __init__(self, index: SchemaIndex, kind_table: kinds.KindTable):
        self._schemas = MappingProxyType(index.table)
        self._index = index
        self.kinds = kind_table

    @cached_property
    def fingerprint(self) -> str:
        return stable_fingerprint({
            name: {**dataclass_fields(s), "__type__": type(s).__name__}
            for name, s in sorted(self._schemas.items())
        })

    # -- lookup -----------------------------------------------------------

    @property
    def schemas(self) -> MappingProxyType:
        return self._schemas

    def object_schema(self, name: str) -> schemas.ThickObjectSchema | None:
        return self._index.objects.get(name)

    def quality(self, name: str) -> schemas.QualityOntology | None:
        return self._index.qualities.get(name)

    def relation(self, name: str) -> schemas.RelationSchema | None:
        return self._index.relations.get(name)

    def aggregate(self, name: str) -> schemas.AggregateSchema | None:
        return self._index.aggregates.get(name)

    def realizable(self, name: str) -> schemas.RealizableSchema | None:
        return self._index.realizables.get(name)

    def transitional(self, name: str) -> schemas.TransitionalSchema | None:
        return self._index.transitionals.get(name)

    def chain(self, name: str) -> schemas.ChainSchema | None:
        return self._index.chains.get(name)

    def reach(self, chain: str) -> ChainReach | None:
        return self._index.reaches.get(chain)

    def process(self, name: str) -> schemas.ProcessSchema | None:
        return self._index.processes.get(name)

    def need(self, name: str) -> schemas.Need | None:
        return self._index.needs.get(name)

    def objects(self) -> Iterator[schemas.ThickObjectSchema]:
        return iter(self._index.objects.values())

    def qualities(self) -> Iterator[schemas.QualityOntology]:
        return iter(self._index.qualities.values())

    def relations(self) -> Iterator[schemas.RelationSchema]:
        return iter(self._index.relations.values())

    def aggregates(self) -> Iterator[schemas.AggregateSchema]:
        return iter(self._index.aggregates.values())

    def realizables(self) -> Iterator[schemas.RealizableSchema]:
        return iter(self._index.realizables.values())

    def dispositions(self) -> Iterator[schemas.RealizableSchema]:
        return iter(self._index.dispositions)

    def transitionals(self) -> Iterator[schemas.TransitionalSchema]:
        return iter(self._index.transitionals.values())

    def chains(self) -> Iterator[schemas.ChainSchema]:
        return iter(self._index.chains.values())

    def processes(self) -> Iterator[schemas.ProcessSchema]:
        return iter(self._index.processes.values())

    # -- kind queries ----------------------------------------------------------

    def is_subkind(self, name: str, ancestor: str) -> bool:
        path = self.kinds.paths.get(name)
        return path is not None and ancestor in path

    def is_independent_continuant_kind(self, name: str) -> bool:
        return self.is_subkind(name, kinds.INDEPENDENT_CONTINUANT)

    def specificity(self, name: str) -> int:
        """Edges from a registered kind down from its upper attachment point."""
        return self.kinds.depth_below_attachment(name)

    # -- predicate helpers -------------------------------------------------------

    def determinable_slot(self, schema_name: str, determinable: str) -> schemas.QualitySlot | None:
        schema = self.object_schema(schema_name)
        if schema is None:
            return None
        return schema.quality_slot(determinable)

    def determinable_declarers(self, determinable: str) -> tuple[str, ...]:
        """Schemas that introduce (not merely inherit) the determinable."""
        return self._index.declarers.get(determinable, ())

    def is_determinable(self, name: str) -> bool:
        return name in self._index.declarers

    def predicate_declared(self, name: str) -> bool:
        return name in self._index.predicates


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
            raise errors.ReservedUpperTaxonomyNameError(
                f"{name!r} is an upper-taxonomy name and cannot be redeclared"
            )
        if name in self._schemas:
            raise errors.DuplicateNameError(f"{name!r} is already registered")
        self._schemas[name] = schema
        return self

    def register_all(self, items) -> "RegistryBuilder":
        for schema in items:
            self.register(schema)
        return self

    # -- resolution --------------------------------------------------------------

    def resolve(self) -> Registry:
        """Flatten inheritance, check every cross-reference, and freeze.

        For API callers: raises the error class named by the first finding's
        code plus ``Error`` (InheritanceCycleError, DanglingReferenceError
        carrying every dangling reference, UnboundVariableError,
        InvalidChainError, RecursiveAggregateError, RecursiveCompositionError
        or DuplicateNameError). Deterministic: the same definitions always
        produce the same fingerprint.
        """
        registry, findings = self.resolve_with_findings()
        if registry is not None:
            return registry
        first = findings[0]
        if first.code == diag.DANGLING_REFERENCE:
            raise errors.DanglingReferenceError(
                [(f.owner, f.message) for f in findings if f.code == first.code]
            )
        raise getattr(errors, first.code + "Error")(first.message)

    def resolve_with_findings(self) -> tuple[Registry | None, list[Finding]]:
        """Resolve, reporting every finding; the registry is None iff any.

        An inheritance cycle stops resolution before flattening, which needs
        a DAG; otherwise every check runs and reports all it finds.
        """
        declared_objects = {
            name: s for name, s in self._schemas.items()
            if isinstance(s, schemas.ThickObjectSchema)
        }
        findings: list[Finding] = []
        self._check_inheritance_cycles(declared_objects, findings)
        if findings:
            return None, findings
        flat = self._flatten_objects(declared_objects)
        index = SchemaIndex({**self._schemas, **flat}, declared_objects)
        self._collect_dangling(index, findings)
        self._check_transitional_variables(index, findings)
        self._check_chain_bodies(index, findings)
        self._check_aggregate_recursion(index, findings)
        self._check_part_recursion(index, findings)
        self._check_name_clashes(index, findings)
        if findings:
            return None, findings
        return Registry(index, self._build_kind_table(index)), []

    def _check_inheritance_cycles(self, objects: dict, findings: list[Finding]) -> None:
        on_cycle: set[str] = set()
        for name, schema in objects.items():
            if name in on_cycle:
                continue
            seen = {name}
            cursor = schema.parent
            while cursor is not None and cursor not in seen:
                seen.add(cursor)
                parent = objects.get(cursor)
                cursor = parent.parent if parent is not None else None
            # The walk returns to its start only when the start lies on the
            # cycle; then ``seen`` is exactly the cycle, reported once.
            if cursor == name:
                on_cycle |= seen
                findings.append(
                    Finding(diag.INHERITANCE_CYCLE, name, f"inheritance cycle through {name!r}")
                )

    def _flatten_objects(self, objects: dict) -> dict[str, schemas.ThickObjectSchema]:
        flat: dict[str, schemas.ThickObjectSchema] = {}  # each parent before its children
        for cursor in objects:
            lineage = []  # ``cursor`` and its ancestors not yet flattened, child first
            while cursor in objects and cursor not in flat:
                lineage.append(cursor)
                cursor = objects[cursor].parent
            for name in reversed(lineage):
                schema = objects[name]
                parent = flat.get(schema.parent)
                flat[name] = schema if parent is None else schemas.flatten_object(schema, parent)
        return flat

    def _collect_dangling(self, index: SchemaIndex, findings: list[Finding]) -> None:
        def dangling(owner: str, what: str, name: str | None = None) -> None:
            message = f"{owner}: {what} not found"
            findings.append(Finding(diag.DANGLING_REFERENCE, owner, message, name))

        def missing(owner: str, what: str, ref: str) -> None:
            dangling(owner, f"{what} {ref!r}", ref)

        def check_pattern(owner: str, pattern: schemas.Pattern, bearer_kind: str | None) -> None:
            if pattern.predicate not in index.predicates:
                missing(owner, "predicate", pattern.predicate)
                return
            # Determinant constants are checkable when the subject is the bearer.
            bearer = index.objects.get(bearer_kind)
            if bearer is None or pattern.subject != schemas.BEARER:
                return
            slot = bearer.quality_slot(pattern.predicate)
            ontology = index.qualities.get(slot.ontology) if slot is not None else None
            obj = pattern.object
            if (
                ontology is not None
                and obj.kind in (schemas.CONST, schemas.TEXT)
                and obj.value not in ontology.determinants
            ):
                dangling(owner, f"determinant {obj.value!r} not in quality {slot.ontology!r}")

        for name, schema in index.table.items():
            if isinstance(schema, schemas.ThickObjectSchema):
                if schema.parent is not None and schema.parent not in index.objects:
                    missing(name, "parent", schema.parent)
                for slot in schema.qualities:
                    if slot.ontology not in index.qualities:
                        missing(name, "quality ontology", slot.ontology)
                for part in schema.parts:
                    if part.schema not in index.objects:
                        missing(name, "part schema", part.schema)
                for rname in schema.realizables:
                    if rname not in index.realizables:
                        missing(name, "realizable", rname)
            elif isinstance(schema, schemas.RelationSchema):
                for ref in dict.fromkeys((schema.subject_kind, schema.object_kind)):
                    if ref not in index.kind_names:
                        missing(name, "kind", ref)
            elif isinstance(schema, schemas.RealizableSchema):
                if schema.bearer_kind is not None and schema.bearer_kind not in index.kind_names:
                    missing(name, "bearer kind", schema.bearer_kind)
                if schema.context is not None and schema.context not in index.aggregates:
                    missing(name, "context aggregate", schema.context)
                if (
                    schema.realization is not None
                    and schema.realization not in index.transitionals
                ):
                    missing(name, "realization", schema.realization)
                if schema.trigger is not None:
                    check_pattern(name, schema.trigger, schema.bearer_kind)
            elif isinstance(schema, schemas.TransitionalSchema):
                if schema.bearer_kind is not None and schema.bearer_kind not in index.kind_names:
                    missing(name, "bearer kind", schema.bearer_kind)
                for pattern in schema.guards:
                    check_pattern(name, pattern, schema.bearer_kind)
                for edit in schema.edits:
                    check_pattern(name, edit.pattern, schema.bearer_kind)
            elif isinstance(schema, schemas.AggregateSchema):
                for member in schema.members:
                    if member.schema not in index.kind_names:
                        missing(name, "member schema", member.schema)
                slots = {m.slot for m in schema.members}
                for link in schema.links:
                    if link.relation not in index.predicates:
                        missing(name, "link relation", link.relation)
                    for slot in (link.subject_slot, link.object_slot):
                        if slot not in slots:
                            dangling(name, f"link slot {slot!r}")
            elif isinstance(schema, schemas.ChainSchema):
                for step in schemas.walk_steps(schema.steps):
                    if isinstance(step, schemas.DoStep):
                        if step.transitional not in index.transitionals:
                            missing(name, "transitional", step.transitional)
                    elif step.condition is not None:
                        check_pattern(name, step.condition, None)
            elif isinstance(schema, schemas.ProcessSchema):
                for ref in schema.participants:
                    if ref not in index.kind_names:
                        missing(name, "participant kind", ref)

    def _check_transitional_variables(self, index: SchemaIndex, findings: list[Finding]) -> None:
        for schema in index.transitionals.values():
            loose = schema.unbound_variables()
            if loose:
                findings.append(Finding(
                    diag.UNBOUND_VARIABLE, schema.name,
                    f"transitional {schema.name!r} edits unbound "
                    f"variable(s): {', '.join(loose)}",
                ))

    def _check_chain_bodies(self, index: SchemaIndex, findings: list[Finding]) -> None:
        for schema in index.chains.values():
            if schema.kind not in schemas.CHAIN_KINDS:
                findings.append(Finding(
                    diag.INVALID_CHAIN, schema.name,
                    f"chain {schema.name!r} has unknown kind {schema.kind!r}",
                ))
            elif schema.kind == schemas.SEQUENCE and index.reaches[schema.name].branches:
                findings.append(Finding(
                    diag.INVALID_CHAIN, schema.name,
                    f"sequence {schema.name!r} admits no conditionals or loops",
                ))

    def _check_aggregate_recursion(self, index: SchemaIndex, findings: list[Finding]) -> None:
        # Aggregate membership must be a DAG; kinship-style recursion is rejected.
        edges = {
            name: [m.schema for m in schema.members if m.schema in index.aggregates]
            for name, schema in index.aggregates.items()
        }
        self._reject_cycles(edges, diag.RECURSIVE_AGGREGATE, "aggregate", findings)

    def _check_part_recursion(self, index: SchemaIndex, findings: list[Finding]) -> None:
        # Part slots auto-instantiate on spawn, so the part graph must be a DAG.
        edges = {name: [p.schema for p in schema.parts] for name, schema in index.objects.items()}
        self._reject_cycles(edges, diag.RECURSIVE_COMPOSITION, "part", findings)

    def _check_name_clashes(self, index: SchemaIndex, findings: list[Finding]) -> None:
        # A name names one thing. A predicate is a relation, a quality slot or
        # a built-in; the name a Function serves is a Need.
        for name in index.relations:
            if name in BUILTIN_PREDICATES or name in index.declarers:
                what = "a built-in predicate" if name in BUILTIN_PREDICATES else "a quality slot"
                message = f"relation {name!r} is also {what}"
                findings.append(Finding(diag.DUPLICATE_NAME, name, message))
        for determinable, owners in index.declarers.items():
            if determinable in BUILTIN_PREDICATES:
                findings.extend(Finding(
                    diag.DUPLICATE_NAME, owner,
                    f"quality slot {determinable!r} of {owner!r} is a built-in predicate",
                ) for owner in owners)
        for schema in index.realizables.values():
            if schema.serves and schema.serves not in index.needs:
                message = f"function {schema.name!r} serves {schema.serves!r}, which is not a need"
                findings.append(Finding(diag.DUPLICATE_NAME, schema.name, message))

    @staticmethod
    def _reject_cycles(edges: dict, code: str, label: str, findings: list[Finding]) -> None:
        done: set[str] = set()
        closing: list[str] = []  # the node each back edge reaches, depth first
        for node in edges:
            _back_edges(edges, node, (), done, closing)
        findings.extend(
            Finding(code, node, f"recursive {label} definition through {node!r}")
            for node in dict.fromkeys(closing)
        )

    def _build_kind_table(self, index: SchemaIndex) -> kinds.KindTable:
        user = {name: schema.parent or kinds.OBJECT for name, schema in index.objects.items()}
        user.update(dict.fromkeys(index.aggregates, kinds.OBJECT_AGGREGATE))
        user.update(dict.fromkeys(index.qualities, kinds.QUALITY))
        user.update(
            (name, kinds.RELATIONAL_QUALITY)
            for name, schema in index.relations.items() if schema.relational_quality
        )
        user.update((name, schema.variant) for name, schema in index.realizables.items())
        user.update(dict.fromkeys(index.transitionals, kinds.TRANSITIONAL))
        user.update(dict.fromkeys([*index.chains, *index.processes], kinds.PROCESS))
        return kinds.KindTable(user)


def _back_edges(edges: dict, node: str, stack: tuple, done: set, closing: list) -> None:
    """Walk depth first from ``node``, below the path ``stack``: a node met
    again on its path closes a cycle and goes to ``closing``."""
    if node in stack:
        closing.append(node)
    elif node not in done:
        for nxt in edges.get(node, ()):
            _back_edges(edges, nxt, stack + (node,), done, closing)
        done.add(node)


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
            out.append(Finding(
                diag.UNBOUND_OCCURRENT, schema.name,
                f"transitional {schema.name!r} declares no bearer",
            ))
        elif not registry.is_independent_continuant_kind(bearer):
            out.append(Finding(
                diag.UNBOUND_OCCURRENT, schema.name,
                f"transitional {schema.name!r} bearer {bearer!r} is not an "
                "Independent Continuant",
            ))
    for schema in registry.processes():
        if not any(registry.is_independent_continuant_kind(p) for p in schema.participants):
            out.append(Finding(
                diag.UNBOUND_OCCURRENT, schema.name,
                f"process {schema.name!r} has no Independent Continuant participant",
            ))
    for schema in registry.dispositions():
        if schema.trigger is None or schema.realization is None:
            out.append(Finding(
                diag.DISPOSITION_INCOMPLETE, schema.name,
                f"disposition {schema.name!r} must declare both trigger and realization",
            ))
    for schema in registry.objects():
        for part in schema.parts:
            if not part.function.strip():
                out.append(Finding(
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
        diag.Diagnostic(diag.ERROR, finding.code, finding.message)
        for finding in validation_findings(registry)
    ]
