"""Compile parsed modules into a resolved Registry plus world definitions.

Cross-module references resolve through explicit imports; importing the same
module twice is deduplicated by content fingerprint. One ``_Lowering`` object
per compile lowers every module into one RegistryBuilder; the ``_LOWER`` table
maps each AST declaration type to the one ``*_decl`` method that lowers it, as
the parser's ``_DECLS`` maps each keyword to the method that parses it. Worlds
and claims follow one duplicate rule: the first definition of a name is kept
and each repeat is reported where it is written. All registry errors surface
as positioned diagnostics anchored at the offending declaration.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property

from .. import schemas
from ..diagnostics import (
    DANGLING_REFERENCE,
    DUPLICATE_MODULE,
    DUPLICATE_NAME,
    ERROR,
    UNBOUND_VARIABLE,
    Diagnostic,
    Span,
    has_errors,
)
from ..errors import XfoError
from ..fingerprint import stable_fingerprint
from ..kinds import is_upper
from ..registry import BUILTIN_PREDICATES, Registry, RegistryBuilder, validation_findings
from . import ast
from .printer import module_to_source


@dataclass(frozen=True)
class ModuleInfo:
    """Per-module record feeding foundry registration. It keeps its module,
    and computes the module's content ``fingerprint`` on its first read."""

    name: str
    terms: tuple[str, ...]
    facet: str
    module: ast.SourceModule = field(compare=False, repr=False)

    @cached_property
    def fingerprint(self) -> str:
        return module_fingerprint(self.module)


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
    """Lowers every module of one compile into one RegistryBuilder.

    It owns what a compile accumulates: the builder, the span of each
    registered schema, the names already reported, the worlds and the claims.
    """

    def __init__(self, modules: Collection[ast.SourceModule], diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        self.builder = RegistryBuilder()
        self.spans: dict[str, tuple[str, Span]] = {}  # schema name -> (file, span)
        # A declaration the parser dropped keeps its name: the syntax error is
        # its one report, so neither lowering nor resolution reports the name again.
        self.unresolved = {name for module in modules for name in module.dropped}
        self.worlds: dict[str, schemas.WorldDef] = {}
        self.claims: dict[str, schemas.ClaimDef] = {}
        self.terms = {module.name: module.declared_names() for module in modules}
        self.declared = {module.name: self.terms[module.name] + module.dropped
                         for module in modules}
        self.determinables = {module.name: module.determinable_names() for module in modules}

    def lower(self, module: ast.SourceModule) -> ModuleInfo:
        self.file = module.file
        # Own declarations plus those of imported modules: plain name -> owning module.
        self.visible = dict.fromkeys(self.declared[module.name], module.name)
        dets = set(self.determinables[module.name])
        for imp in module.imports:
            if imp.module not in self.declared:
                self.error(
                    DANGLING_REFERENCE,
                    f"imported module {imp.module!r} is not among the compiled modules",
                    imp.span,
                )
                continue
            for name in self.declared[imp.module]:
                self.visible.setdefault(name, imp.module)
            dets.update(self.determinables[imp.module])
        self.visible_determinables = frozenset(dets)
        for decl in module.decls:
            _LOWER[type(decl)](self, decl)
        return ModuleInfo(module.name, self.terms[module.name], module.facet or "physical", module)

    def error(self, code: str, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(ERROR, code, message, self.file, span))

    def register(self, schema: schemas.Schema, span: Span) -> None:
        try:
            self.builder.register(schema)
            self.spans[schema.name] = (self.file, span)
        except XfoError as exc:  # the code is the class's name without ``Error``
            self.error(type(exc).__name__.removesuffix("Error"), str(exc), span)

    def define(self, table: dict, what: str, decl, value) -> None:
        """Keep the first world or claim of a name; report a repeat at itself."""
        if decl.name in table:
            self.error(DUPLICATE_NAME, f"{what} {decl.name!r} is already defined", decl.span)
        else:
            table[decl.name] = value

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

    # -- declarations: one method per AST declaration type, named in _LOWER ----------

    def quality_decl(self, decl: ast.QualityNode) -> None:
        determinants = tuple(dict.fromkeys(decl.determinants))
        if len(determinants) < len(decl.determinants):
            self.error(DUPLICATE_NAME, f"quality {decl.name!r} repeats a determinant", decl.span)
        self.register(schemas.QualityOntology(decl.name, determinants), decl.span)

    def object_decl(self, decl: ast.ObjectNode) -> None:
        qualities = []
        parts = []
        realizables = []
        slots: set[tuple[str, str]] = set()
        for item in decl.items:
            if isinstance(item, (ast.FunctionNode, ast.RoleNode)):
                function = isinstance(item, ast.FunctionNode)
                realizable = schemas.RealizableSchema(
                    item.name, schemas.FUNCTION if function else schemas.ROLE,
                    bearer_kind=decl.name, serves=item.serves if function else None,
                )
                self.register(realizable, item.span)
                realizables.append(item.name)
                continue
            quality = isinstance(item, ast.QualitySlotNode)
            slot = ("quality", item.determinable) if quality else ("part", item.slot)
            if slot in slots:
                message = f"object {decl.name!r} repeats {slot[0]} slot {slot[1]!r}"
                self.error(DUPLICATE_NAME, message, item.span)
            elif quality:
                slots.add(slot)
                ontology = self.resolve_ref(item.ontology, item.span)
                qualities.append(schemas.QualitySlot(item.determinable, ontology, item.required))
            else:
                slots.add(slot)
                schema = self.resolve_ref(item.schema, item.span)
                linkage = (
                    schemas.CONTAINMENT if item.linkage == "contained" else schemas.COMPOSITION
                )
                parts.append(schemas.PartSlot(item.slot, schema, item.function, linkage))
        parent = None
        if decl.parent is not None:
            parent = self.resolve_ref(decl.parent, decl.span)
        self.register(
            schemas.ThickObjectSchema(
                decl.name,
                parent=parent,
                qualities=tuple(qualities),
                parts=tuple(parts),
                realizables=tuple(realizables),
            ),
            decl.span,
        )

    def aggregate_decl(self, decl: ast.AggregateNode) -> None:
        members = tuple(
            schemas.AggregateMember(m.slot, self.resolve_ref(m.schema, m.span))
            for m in decl.members
        )
        links = tuple(
            schemas.AggregateLink(
                self.resolve_ref(link.relation, link.span), link.subject_slot, link.object_slot
            )
            for link in decl.links
        )
        self.register(schemas.AggregateSchema(decl.name, members, links), decl.span)

    def relation_decl(self, decl: ast.RelationNode) -> None:
        subject_kind = self.resolve_ref(decl.subject_kind, decl.span)
        object_kind = self.resolve_ref(decl.object_kind, decl.span)
        self.register(
            schemas.RelationSchema(decl.name, subject_kind, object_kind, decl.relational_quality),
            decl.span,
        )

    def transitional_decl(self, decl: ast.TransitionalNode) -> None:
        bearer = self.resolve_ref(decl.bearer, decl.span)
        guards = tuple(self.pattern(node, bearer_scope=True) for node in decl.requires)
        edits = tuple(
            schemas.Edit(node.op, self.pattern(node.pattern, bearer_scope=True))
            for node in decl.edits
        )
        self.register(schemas.TransitionalSchema(decl.name, bearer, guards, edits), decl.span)

    def chain_decl(self, decl: ast.ChainNode) -> None:
        chain = schemas.ChainSchema(decl.name, decl.kind, self.steps(decl.steps))
        self.register(chain, decl.span)

    def disposition_decl(self, decl: ast.DispositionNode) -> None:
        bearer = self.resolve_ref(decl.bearer, decl.span)
        realization = self.resolve_ref(decl.realization, decl.span)
        trigger = self.pattern(decl.trigger, bearer_scope=True)
        self.register(
            schemas.RealizableSchema(
                decl.name,
                schemas.DISPOSITION,
                bearer_kind=bearer,
                trigger=trigger,
                realization=realization,
            ),
            decl.span,
        )

    def world_decl(self, decl: ast.WorldNode) -> None:
        spawns = tuple(
            schemas.SpawnDef(
                node.instance,
                self.resolve_ref(node.schema, node.span),
                tuple((assign.determinable, assign.value.value) for assign in node.assignments),
            )
            for node in decl.spawns
        )
        asserts = [self.pattern(node, ground=True) for node in decl.asserts]
        world = schemas.WorldDef(decl.name, spawns, tuple(p for p in asserts if p is not None))
        self.define(self.worlds, "world", decl, world)

    def claim_decl(self, decl: ast.ClaimNode) -> None:
        evidence = tuple(schemas.EvidenceDef(e.ref, e.note) for e in decl.evidence)
        claim = schemas.ClaimDef(decl.name, decl.statement, evidence)
        self.define(self.claims, "claim", decl, claim)


# AST declaration type -> the _Lowering method that lowers it.
_LOWER = {
    ast.QualityNode: _Lowering.quality_decl,
    ast.ObjectNode: _Lowering.object_decl,
    ast.AggregateNode: _Lowering.aggregate_decl,
    ast.RelationNode: _Lowering.relation_decl,
    ast.TransitionalNode: _Lowering.transitional_decl,
    ast.ChainNode: _Lowering.chain_decl,
    ast.DispositionNode: _Lowering.disposition_decl,
    ast.WorldNode: _Lowering.world_decl,
    ast.ClaimNode: _Lowering.claim_decl,
}


def compile_modules(modules: list[ast.SourceModule]) -> CompileResult:
    """Register, resolve, and validate a set of parsed modules.

    Returns a CompileResult; ``registry`` is None when any error diagnostic
    was produced. Deterministic: identical sources yield identical registry
    fingerprints.
    """
    diagnostics: list[Diagnostic] = []

    # Deduplicate by content: the same module supplied or imported twice
    # registers once; same name with different content is an error. Only a
    # repeated name is fingerprinted.
    by_name: dict[str, ast.SourceModule] = {}
    for module in modules:
        known = by_name.setdefault(module.name, module)
        if known is not module and module_fingerprint(known) != module_fingerprint(module):
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    DUPLICATE_MODULE,
                    f"module {module.name!r} appears twice with different content",
                    module.file,
                    module.span,
                )
            )

    lowering = _Lowering(by_name.values(), diagnostics)
    infos = tuple(lowering.lower(module) for module in by_name.values())

    # Resolution runs even after lowering errors, so every error of a compile
    # shows at once; a reference to a name lowering or the parser already
    # reported is not repeated.
    registry, findings = lowering.builder.resolve_with_findings()
    if registry is not None:
        findings = validation_findings(registry)
    for finding in findings:
        if finding.name not in lowering.unresolved:  # a name of None is never there
            diagnostics.append(
                Diagnostic(ERROR, finding.code, finding.message, *lowering.spans[finding.owner])
            )
    if has_errors(diagnostics):
        registry = None
    # One report per distinct diagnostic: ``relation r(b, b)`` resolves ``b`` twice at one span.
    diagnostics = list(dict.fromkeys(diagnostics))
    return CompileResult(
        registry, lowering.worlds, tuple(lowering.claims.values()), infos, diagnostics
    )
