"""Registry-of-registries for modular ontologies, with quality measures:
orthogonality between modules, and exhaustivity/specificity of descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConflictingModuleError,
    UnknownFacetError,
    UnknownModuleError,
    UnknownTermError,
)
from .kinds import is_upper
from .registry import Registry

# The three default description levels; user-extensible per foundry.
DEFAULT_FACETS = ("physical", "social-structure", "meta-structure")


@dataclass(frozen=True)
class OntologyModuleRecord:
    name: str
    fingerprint: str
    terms: tuple[str, ...]
    facet: str = "physical"


class Foundry:
    """Holds module records and answers the quality measures.

    Registration is serialized; the measures are pure and freely concurrent.
    A registry may be attached so specificity can count hierarchy edges.
    """

    def __init__(self, registry: Registry | None = None, facets=DEFAULT_FACETS):
        self._registry = registry
        self._facets: list[str] = list(facets)
        self._modules: dict[str, OntologyModuleRecord] = {}

    def register_facet(self, facet: str) -> None:
        if facet not in self._facets:
            self._facets.append(facet)

    def facets(self) -> tuple[str, ...]:
        return tuple(self._facets)

    def modules(self) -> tuple[OntologyModuleRecord, ...]:
        return tuple(self._modules.values())

    def register_module(self, record: OntologyModuleRecord) -> "Foundry":
        """Add a module. Re-registering identical content is idempotent;
        the same name with a different fingerprint is rejected. Only then is
        ``record.fingerprint`` read, so a lazy ``ModuleInfo`` will do."""
        if record.facet not in self._facets:
            raise UnknownFacetError(f"facet {record.facet!r} is not registered")
        existing = self._modules.get(record.name)
        if existing is not None:
            if existing.fingerprint == record.fingerprint:
                return self
            raise ConflictingModuleError(
                f"module {record.name!r} already registered with different content"
            )
        self._modules[record.name] = record
        return self

    def _module(self, name: str) -> OntologyModuleRecord:
        record = self._modules.get(name)
        if record is None:
            raise UnknownModuleError(f"unknown module: {name}")
        return record

    def orthogonality(self, module_a: str, module_b: str) -> float:
        """1 minus the Jaccard overlap of exported term names; symmetric,
        0 for a module against itself, 1 for disjoint term sets."""
        terms_a = set(self._module(module_a).terms)
        terms_b = set(self._module(module_b).terms)
        union = terms_a | terms_b
        if not union:
            return 0.0
        return 1.0 - len(terms_a & terms_b) / len(union)

    def _owners(self, term: str) -> tuple[OntologyModuleRecord, ...]:
        return tuple(r for r in self._modules.values() if term in r.terms)

    def exhaustivity(self, description) -> int:
        """Number of distinct facets among the modules a description draws on."""
        facets: set[str] = set()
        for term in description:
            owners = self._owners(term)
            if not owners:
                raise UnknownTermError(f"term {term!r} belongs to no registered module")
            facets.update(r.facet for r in owners)
        return len(facets)

    def specificity(self, schema_name: str) -> int:
        """Edges from a schema down from its upper-taxonomy attachment point."""
        if is_upper(schema_name):
            return 0
        if self._registry is None or schema_name not in self._registry.kinds:
            raise UnknownTermError(f"unknown schema: {schema_name}")
        return self._registry.specificity(schema_name)
