"""The fixed upper taxonomy and the kind table built over it.

The upper taxonomy is hard-coded and acyclic. User-declared universals
attach below exactly one upper node; the KindTable records every kind's
single parent and answers path and subkind queries.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import XfoError

ENTITY = "Entity"
CONTINUANT = "Continuant"
OCCURRENT = "Occurrent"
INDEPENDENT_CONTINUANT = "IndependentContinuant"
MATERIAL_ENTITY = "MaterialEntity"
OBJECT = "Object"
OBJECT_AGGREGATE = "ObjectAggregate"
DEPENDENT_CONTINUANT = "DependentContinuant"
QUALITY = "Quality"
RELATIONAL_QUALITY = "RelationalQuality"
REALIZABLE = "Realizable"
ROLE = "Role"
DISPOSITION = "Disposition"
FUNCTION = "Function"
PROCESS = "Process"
TRANSITIONAL = "Transitional"

# name -> parent; Entity is the sole root.
UPPER_TAXONOMY: dict[str, str | None] = {
    ENTITY: None,
    CONTINUANT: ENTITY,
    OCCURRENT: ENTITY,
    INDEPENDENT_CONTINUANT: CONTINUANT,
    MATERIAL_ENTITY: INDEPENDENT_CONTINUANT,
    OBJECT: MATERIAL_ENTITY,
    OBJECT_AGGREGATE: MATERIAL_ENTITY,
    DEPENDENT_CONTINUANT: CONTINUANT,
    QUALITY: DEPENDENT_CONTINUANT,
    RELATIONAL_QUALITY: QUALITY,
    REALIZABLE: DEPENDENT_CONTINUANT,
    ROLE: REALIZABLE,
    DISPOSITION: REALIZABLE,
    FUNCTION: REALIZABLE,
    PROCESS: OCCURRENT,
    TRANSITIONAL: OCCURRENT,
}


def is_upper(name: str) -> bool:
    return name in UPPER_TAXONOMY


class KindTable:
    """Immutable map from every known kind to its parent.

    User kinds are layered over the upper taxonomy at construction time;
    the table never changes afterwards, so it is safe to share. ``paths``
    maps every kind to its path up to Entity, computed once here.
    """

    def __init__(self, user_kinds: dict[str, str] | None = None):
        table = dict(UPPER_TAXONOMY)
        for name, parent in (user_kinds or {}).items():
            if name in table:
                raise XfoError(f"kind {name!r} shadows an existing kind")
            table[name] = parent
        self._table = table
        # Validate: every chain must reach Entity without repeating a node.
        # The walk leaves every kind's path cached for the queries below.
        paths: dict[str, tuple[str, ...]] = {}
        for name in table:
            climbed: list[str] = []
            seen: set[str] = set()
            cursor: str | None = name
            while cursor is not None and cursor not in paths:
                if cursor in seen:
                    raise XfoError(f"kind cycle through {cursor!r}")
                seen.add(cursor)
                if cursor not in table:
                    raise XfoError(f"unknown kind: {cursor}")
                climbed.append(cursor)
                cursor = table[cursor]
            path = paths[cursor] if cursor is not None else ()
            for node in reversed(climbed):
                path = (node,) + path
                paths[node] = path
        self.paths = MappingProxyType(paths)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def path_to_entity(self, name: str) -> tuple[str, ...]:
        """The unique parent chain from ``name`` up to and including Entity."""
        path = self.paths.get(name)
        if path is None:
            raise XfoError(f"unknown kind: {name}")
        return path

    def is_subkind(self, name: str, ancestor: str) -> bool:
        """True when ``ancestor`` lies on the (unique) path from name to Entity."""
        return ancestor in self.path_to_entity(name)

    def attachment(self, name: str) -> str:
        """The first upper-taxonomy node on the path from ``name`` upward.
        Every path ends at Entity, an upper node, so there always is one."""
        return next(node for node in self.path_to_entity(name) if node in UPPER_TAXONOMY)

    def depth_below_attachment(self, name: str) -> int:
        """Edges from ``name`` down from its upper attachment point (0 for upper nodes)."""
        return self.path_to_entity(name).index(self.attachment(name))

    def names(self) -> tuple[str, ...]:
        return tuple(self._table)
