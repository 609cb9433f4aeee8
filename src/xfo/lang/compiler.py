"""Compile parsed modules into a resolved Registry plus world definitions.

Cross-module references resolve through explicit imports; importing the same
module twice is deduplicated by content fingerprint. All registry errors
surface as positioned diagnostics anchored at the offending declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import schemas
from ..diagnostics import (
    DANGLING_REFERENCE,
    DUPLICATE_MODULE,
    DUPLICATE_NAME,
    ERROR,
    RESERVED_NAME,
    UNBOUND_VARIABLE,
    Diagnostic,
    Span,
    has_errors,
)
from ..errors import DuplicateNameError, ReservedUpperTaxonomyNameError
from ..fingerprint import stable_fingerprint
from ..kinds import is_upper
from ..registry import BUILTIN_PREDICATES, Registry, RegistryBuilder, validation_findings
from . import ast
from .printer import module_to_source


@dataclass(frozen=True)
class ModuleInfo:
    """Per-module record feeding foundry registration."""

    name: str
    fingerprint: str
    terms: tuple[str, ...]
    facet: str


@dataclass
class CompileResult:
    registry: Registry | None
    worlds: dict[str, schemas.WorldDef] = field(default_factory=dict)
    claims: tuple[schemas.ClaimDef, ...] = ()
    modules: tuple[ModuleInfo, ...] = ()
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.registry is not None and not has_errors(self.diagnostics)

    def world(self, name: str) -> schemas.WorldDef | None:
        return self.worlds.get(name)


def module_fingerprint(module: ast.SourceModule) -> str:
    return stable_fingerprint(module_to_source(module))


class _Lowering:
    """Lowers one module's declarations with its visible-name set."""

    def __init__(self, module: ast.SourceModule, declared: dict[str, tuple[str, ...]],
                 determinables: dict[str, tuple[str, ...]], diagnostics: list[Diagnostic],
                 builder: RegistryBuilder, spans: dict[str, tuple[str, Span]],
                 unresolved: set[str]):
        self.file = module.file
        self.diagnostics = diagnostics
        self.builder = builder
        self.spans = spans  # schema name -> (file, span)
        self.unresolved = unresolved  # names already reported, here or by the parser
        # Own declarations plus those of imported modules: plain name -> owning module.
        self.visible = dict.fromkeys(declared[module.name], module.name)
        dets = set(determinables[module.name])
        for imp in module.imports:
            if imp.module not in declared:
                self.error(
                    DANGLING_REFERENCE,
                    f"imported module {imp.module!r} is not among the compiled modules",
                    imp.span,
                )
                continue
            for name in declared[imp.module]:
                self.visible.setdefault(name, imp.module)
            dets.update(determinables[imp.module])
        self.visible_determinables = frozenset(dets)

    def error(self, code: str, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(ERROR, code, message, self.file, span))

    def register(self, schema: schemas.Schema, span: Span) -> None:
        try:
            self.builder.register(schema)
            self.spans[schema.name] = (self.file, span)
        except ReservedUpperTaxonomyNameError as exc:
            self.error(RESERVED_NAME, str(exc), span)
        except DuplicateNameError as exc:
            self.error(DUPLICATE_NAME, str(exc), span)

    def resolve_ref(self, name: str, span: Span) -> str:
        """Resolve a possibly qualified reference to a plain registry name.

        An unresolved reference is reported here and returned as written, so
        resolution still checks the declaration that holds it."""
        if "." in name:
            module_name, _, plain = name.rpartition(".")
            if self.visible.get(plain) == module_name:
                return plain
            message = f"{name!r} does not resolve; is module {module_name!r} imported?"
        elif is_upper(name) or name in BUILTIN_PREDICATES or name in self.visible:
            return name
        else:
            message = f"{name!r} is not declared in this module or its imports"
        self.error(DANGLING_REFERENCE, message, span)
        self.unresolved.add(name)
        return name

    def resolve_predicate(self, name: str, span: Span) -> str:
        # Quality slot determinables are valid predicates without being
        # registry entries of their own.
        if "." not in name and name in self.visible_determinables:
            return name
        return self.resolve_ref(name, span)

    def term(self, node: ast.TermNode, *, bearer_scope: bool) -> schemas.Term:
        if node.kind == "var":
            return schemas.var(node.value)
        if node.kind == "string":
            return schemas.text(node.value)
        if bearer_scope and node.value == "bearer":
            return schemas.var("bearer")
        return schemas.const(node.value)

    def pattern(self, node: ast.PatternNode, *, bearer_scope: bool = False,
                ground: bool = False) -> schemas.Pattern | None:
        predicate = self.resolve_predicate(node.predicate, node.span)
        subject = self.term(node.subject, bearer_scope=bearer_scope)
        obj = self.term(node.object, bearer_scope=bearer_scope)
        if ground:
            for term in (subject, obj):
                if term.kind == schemas.VAR:
                    self.error(
                        UNBOUND_VARIABLE,
                        f"world assertions must be ground; ?{term.value} is not bound",
                        node.span,
                    )
                    return None
        return schemas.Pattern(predicate, subject, obj)

    def steps(self, nodes) -> tuple:
        out = []
        for node in nodes:
            if isinstance(node, ast.DoNode):
                transitional = self.resolve_ref(node.transitional, node.span)
                out.append(schemas.DoStep(transitional, node.intervention))
            elif isinstance(node, ast.IfNode):
                out.append(
                    schemas.IfStep(
                        self.pattern(node.condition),
                        self.steps(node.then_steps),
                        self.steps(node.else_steps),
                    )
                )
            elif isinstance(node, ast.WhileNode):
                out.append(schemas.WhileStep(self.pattern(node.condition), self.steps(node.body)))
        return tuple(out)


def compile_modules(modules: list[ast.SourceModule]) -> CompileResult:
    """Register, resolve, and validate a set of parsed modules.

    Returns a CompileResult; ``registry`` is None when any error diagnostic
    was produced. Deterministic: identical sources yield identical registry
    fingerprints.
    """
    diagnostics: list[Diagnostic] = []

    # Deduplicate by content: the same module supplied or imported twice
    # registers once; same name with different content is an error.
    unique: list[ast.SourceModule] = []
    by_name: dict[str, str] = {}
    for module in modules:
        fingerprint = module_fingerprint(module)
        known = by_name.get(module.name)
        if known == fingerprint:
            continue
        if known is not None:
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    DUPLICATE_MODULE,
                    f"module {module.name!r} appears twice with different content",
                    module.file,
                    module.span,
                )
            )
            continue
        by_name[module.name] = fingerprint
        unique.append(module)

    # A declaration the parser dropped keeps its name: the syntax error is its
    # one report, so neither lowering nor resolution reports the name again.
    declared: dict[str, tuple[str, ...]] = {
        module.name: module.declared_names() + module.dropped for module in unique
    }

    determinables: dict[str, tuple[str, ...]] = {
        module.name: module.determinable_names() for module in unique
    }

    builder = RegistryBuilder()
    spans: dict[str, tuple[str, Span]] = {}
    unresolved = {name for module in unique for name in module.dropped}
    worlds: dict[str, schemas.WorldDef] = {}
    claims: list[schemas.ClaimDef] = []
    infos: list[ModuleInfo] = []

    for module in unique:
        lowering = _Lowering(
            module, declared, determinables, diagnostics, builder, spans, unresolved
        )
        register = lowering.register
        for decl in module.decls:
            if isinstance(decl, ast.QualityNode):
                register(schemas.QualityOntology(decl.name, decl.determinants), decl.span)
            elif isinstance(decl, ast.ObjectNode):
                _lower_object(decl, lowering)
            elif isinstance(decl, ast.AggregateNode):
                members = tuple(
                    schemas.AggregateMember(m.slot, lowering.resolve_ref(m.schema, m.span))
                    for m in decl.members
                )
                links = tuple(
                    schemas.AggregateLink(
                        lowering.resolve_ref(l.relation, l.span),
                        l.subject_slot,
                        l.object_slot,
                    )
                    for l in decl.links
                )
                register(schemas.AggregateSchema(decl.name, members, links), decl.span)
            elif isinstance(decl, ast.RelationNode):
                register(
                    schemas.RelationSchema(
                        decl.name,
                        lowering.resolve_ref(decl.subject_kind, decl.span),
                        lowering.resolve_ref(decl.object_kind, decl.span),
                        decl.relational_quality,
                    ),
                    decl.span,
                )
            elif isinstance(decl, ast.TransitionalNode):
                bearer = lowering.resolve_ref(decl.bearer, decl.span)
                guards = [lowering.pattern(node, bearer_scope=True) for node in decl.requires]
                edits = [
                    schemas.Edit(node.op, lowering.pattern(node.pattern, bearer_scope=True))
                    for node in decl.edits
                ]
                register(
                    schemas.TransitionalSchema(
                        decl.name, bearer, tuple(guards), tuple(edits)
                    ),
                    decl.span,
                )
            elif isinstance(decl, ast.ChainNode):
                register(
                    schemas.ChainSchema(decl.name, decl.kind, lowering.steps(decl.steps)),
                    decl.span,
                )
            elif isinstance(decl, ast.DispositionNode):
                bearer = lowering.resolve_ref(decl.bearer, decl.span)
                realization = lowering.resolve_ref(decl.realization, decl.span)
                trigger = lowering.pattern(decl.trigger, bearer_scope=True)
                register(
                    schemas.RealizableSchema(
                        decl.name,
                        schemas.DISPOSITION,
                        bearer_kind=bearer,
                        trigger=trigger,
                        realization=realization,
                    ),
                    decl.span,
                )
            elif isinstance(decl, ast.WorldNode):
                world = _lower_world(decl, lowering)
                if decl.name in worlds:
                    lowering.error(
                        DUPLICATE_NAME, f"world {decl.name!r} is already defined", decl.span
                    )
                else:
                    worlds[decl.name] = world
            elif isinstance(decl, ast.ClaimNode):
                if any(c.name == decl.name for c in claims):
                    lowering.error(
                        DUPLICATE_NAME, f"claim {decl.name!r} is already defined", decl.span
                    )
                else:
                    claims.append(
                        schemas.ClaimDef(
                            decl.name,
                            decl.statement,
                            tuple(
                                schemas.EvidenceDef(e.ref, e.note) for e in decl.evidence
                            ),
                        )
                    )
        infos.append(
            ModuleInfo(
                name=module.name,
                fingerprint=by_name[module.name],
                terms=module.declared_names(),
                facet=module.facet or "physical",
            )
        )

    # Resolution runs even after lowering errors, so every error of a compile
    # shows at once; a reference to a name lowering or the parser already
    # reported is not repeated.
    registry, findings = builder.resolve_with_findings()
    if registry is not None:
        findings = validation_findings(registry)
    for finding in findings:
        if finding.name not in unresolved:  # a name of None is never there
            diagnostics.append(
                Diagnostic(ERROR, finding.code, finding.message, *spans[finding.owner])
            )
    if has_errors(diagnostics):
        registry = None
    return CompileResult(registry, worlds, tuple(claims), tuple(infos), diagnostics)


def _lower_object(decl: ast.ObjectNode, lowering: _Lowering) -> None:
    qualities = []
    parts = []
    realizables = []
    for item in decl.items:
        if isinstance(item, ast.QualitySlotNode):
            ontology = lowering.resolve_ref(item.ontology, item.span)
            qualities.append(schemas.QualitySlot(item.determinable, ontology, item.required))
        elif isinstance(item, ast.PartNode):
            schema = lowering.resolve_ref(item.schema, item.span)
            linkage = (
                schemas.CONTAINMENT if item.linkage == "contained" else schemas.COMPOSITION
            )
            parts.append(schemas.PartSlot(item.slot, schema, item.function, linkage))
        elif isinstance(item, ast.FunctionNode):
            lowering.register(
                schemas.RealizableSchema(
                    item.name,
                    schemas.FUNCTION,
                    bearer_kind=decl.name,
                    serves=item.serves,
                ),
                item.span,
            )
            realizables.append(item.name)
        elif isinstance(item, ast.RoleNode):
            lowering.register(
                schemas.RealizableSchema(item.name, schemas.ROLE, bearer_kind=decl.name),
                item.span,
            )
            realizables.append(item.name)
    parent = None
    if decl.parent is not None:
        parent = lowering.resolve_ref(decl.parent, decl.span)
    lowering.register(
        schemas.ThickObjectSchema(
            decl.name,
            parent=parent,
            qualities=tuple(qualities),
            parts=tuple(parts),
            realizables=tuple(realizables),
        ),
        decl.span,
    )


def _lower_world(decl: ast.WorldNode, lowering: _Lowering) -> schemas.WorldDef:
    spawns = []
    for node in decl.spawns:
        schema = lowering.resolve_ref(node.schema, node.span)
        assignments = tuple(
            (assign.determinable, assign.value.value) for assign in node.assignments
        )
        spawns.append(schemas.SpawnDef(node.instance, schema, assignments))
    asserts = []
    for node in decl.asserts:
        pattern = lowering.pattern(node, ground=True)
        if pattern is not None:
            asserts.append(pattern)
    return schemas.WorldDef(decl.name, tuple(spawns), tuple(asserts))
