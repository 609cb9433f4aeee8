"""The blackboard's ground truth: a triple store with history.

Triples are never deleted; retraction stamps ``retracted_at`` so past states
stay queryable for the temporal map. The store also owns the instance table
(lifecycle, aggregate slots) and part-link metadata, because destruction
semantics need all three together. A store belongs to one execution context.
While ``trail`` is a list, each write pushes its inverse onto it; running the
inverses newest first puts the store back exactly as it was. While ``trail``
is None, writes record nothing. Besides instance and triple writes, every
undoable write (aggregate slots, part linkages, the world's id counters) is
a dict write through ``_put``. An aggregate's slots are the one record of
its membership and the only writer of ``member_of``: ``_slot_triples`` says
which triples they imply.

The store owns every world unit: it checks all a unit will write, once,
before it writes any of it, so a unit that raises leaves the store as it was.
``spawn`` checks a whole part tree in one walk; ``_write_unit`` checks a
transitional's, a direct edit's or an aggregate binding's deletes and creates
against the post-delete view. Neither checks its writes again.

Live triples are indexed in two orders, predicate -> subject -> objects and
predicate -> object -> subjects (the hexastore idea, cut down to the orders
the engine asks for), so a lookup with a bound subject or object reads only
its matching slice. The first order also maps each live triple to its record.

The primary state is the triple records, the instance records and the part
links. The indexes (both triple orders, schema -> alive ids) derive from it:
``_index``/``_unindex`` and ``_join``/``_discard`` write them, and ``clone``
copies the primary state and rebuilds them through ``_index`` and ``_join``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from operator import attrgetter
from types import MappingProxyType

from . import schemas
from .errors import (
    AlreadyDestroyedError,
    DuplicateNameError,
    FunctionalConflictError,
    KindMismatchError,
    MissingRequiredDeterminableError,
    NoSuchLiveTripleError,
    SlotTypeMismatchError,
    SubjectDestroyedError,
    UndeclaredPredicateError,
    UnknownDeterminantError,
    UnknownInstanceError,
)
from .fingerprint import streamed_fingerprint
from .kinds import INDEPENDENT_CONTINUANT
from .records import record
from .registry import BUILTIN_PREDICATES, Registry

PART_OF = "part_of"
MEMBER_OF = "member_of"
HAS_ROLE = "has_role"

_EMPTY = MappingProxyType({})  # what an index lookup that finds nothing returns


@record
class Triple:
    subject: str
    predicate: str
    object: str
    asserted_at: int
    retracted_at: int | None = None

    def live_at(self, tick: int | None) -> bool:
        if tick is None:
            return self.retracted_at is None
        return self.asserted_at <= tick and (self.retracted_at is None or self.retracted_at > tick)


@dataclass(slots=True)
class InstanceRecord:
    id: str
    schema: str
    created_at: int
    destroyed_at: int | None = None
    slots: dict[str, str | None] | None = None  # aggregate instances only

    @property
    def alive(self) -> bool:
        return self.destroyed_at is None


@dataclass(frozen=True)
class AggregateInstance:
    """A read-only view of an aggregate instance and its member slots."""

    id: str
    schema: str
    slots: tuple[tuple[str, str | None], ...]
    slot_types: tuple[tuple[str, str], ...]

    def bound_slots(self) -> tuple[str, ...]:
        return tuple(slot for slot, member in self.slots if member is not None)


class RelationStore:
    def __init__(self, registry: Registry):
        self.registry = registry
        self._records: list[Triple] = []
        # pred -> subj -> {obj: record index}, and pred -> obj -> {subj}: live triples only
        self._by_subject: dict[str, dict[str, dict[str, int]]] = {}
        self._by_object: dict[str, dict[str, set[str]]] = {}
        self._instances: dict[str, InstanceRecord] = {}
        self._alive: dict[str, set[str]] = {}  # schema -> ids of its alive instances
        self._link_meta: dict[tuple[str, str], str] = {}  # (part, whole) -> linkage
        self.trail: list[tuple] | None = None  # inverses of writes, (function, *args)

    # -- instances ------------------------------------------------------------

    def register_instance(self, instance_id: str, schema: str, tick: int,
                          slots: dict[str, str | None] | None = None) -> InstanceRecord:
        if instance_id in self._instances:
            raise DuplicateNameError(f"instance id {instance_id!r} already exists")
        record = InstanceRecord(instance_id, schema, tick, slots=slots)
        self._register(record)
        return record

    def _register(self, record: InstanceRecord) -> None:
        self._instances[record.id] = record
        _join(self._alive, record.schema, record.id)
        if self.trail is not None:
            self.trail.append((self._unregister, record))

    def _unregister(self, record: InstanceRecord) -> None:
        del self._instances[record.id]
        _discard(self._alive, record.schema, record.id)

    def _revive(self, record: InstanceRecord) -> None:
        record.destroyed_at = None
        _join(self._alive, record.schema, record.id)

    def instance(self, instance_id: str) -> InstanceRecord:
        record = self._instances.get(instance_id)
        if record is None:
            raise UnknownInstanceError(f"unknown instance: {instance_id}")
        return record

    def has_instance(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def instances(self) -> tuple[InstanceRecord, ...]:
        return tuple(self._instances.values())

    def alive_of_kind(self, kind: str) -> tuple[str, ...]:
        is_subkind = self.registry.is_subkind
        out = [
            instance_id
            for schema, ids in self._alive.items()
            if is_subkind(schema, kind)
            for instance_id in ids
        ]
        return tuple(sorted(out))

    def is_independent_continuant(self, instance_id: str) -> bool:
        record = self.instance(instance_id)
        return self.registry.is_subkind(record.schema, INDEPENDENT_CONTINUANT)

    # -- record plumbing ----------------------------------------------------------

    @property
    def records(self) -> tuple[Triple, ...]:
        return tuple(self._records)

    def live_triples(self) -> tuple[Triple, ...]:
        return tuple(t for t in self._records if t.retracted_at is None)

    def live_set(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(
            (subject, predicate, obj)
            for predicate, subjects in self._by_subject.items()
            for subject, objects in subjects.items()
            for obj in objects
        )

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        """Whether the (subject, predicate, object) triple is live."""
        subject, predicate, obj = key
        return obj in self._objects(subject, predicate)

    def _objects(self, subject: str, predicate: str) -> dict[str, int]:
        """The live objects of (subject, predicate), each with its record index."""
        return self._by_subject.get(predicate, _EMPTY).get(subject, _EMPTY)

    def _add(self, triple: Triple) -> None:
        self._index(triple, len(self._records))
        self._records.append(triple)
        if self.trail is not None:
            self.trail.append((self._unadd, triple))

    def _unadd(self, triple: Triple) -> None:
        self._records.pop()
        self._unindex(triple.subject, triple.predicate, triple.object)

    def _index(self, triple: Triple, index: int) -> None:
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        self._by_subject.setdefault(predicate, {}).setdefault(subject, {})[obj] = index
        self._by_object.setdefault(predicate, {}).setdefault(obj, set()).add(subject)

    def _unindex(self, subject: str, predicate: str, obj: str) -> int:
        subjects = self._by_subject[predicate]
        objects = subjects[subject]
        index = objects.pop(obj)
        if not objects:
            del subjects[subject]
        _discard(self._by_object[predicate], obj, subject)
        if not subjects:  # the predicate's last live triple, in both orders
            del self._by_subject[predicate], self._by_object[predicate]
        return index

    def _retract(self, subject: str, predicate: str, obj: str, tick: int) -> None:
        index = self._unindex(subject, predicate, obj)
        triple = self._records[index]
        self._records[index] = Triple(subject, predicate, obj, triple.asserted_at, tick)
        if self.trail is not None:
            self.trail.append((self._unretract, index, triple))

    def _unretract(self, index: int, triple: Triple) -> None:
        self._records[index] = triple
        self._index(triple, index)

    # -- assertion checks --------------------------------------------------------------

    def check_assert(
        self,
        subject: str,
        predicate: str,
        obj: str,
        *,
        pending_deletes: frozenset[tuple[str, str, str]] = frozenset(),
        pending_creates: Sequence[tuple[str, str, str]] = (),
    ) -> None:
        """Raise if asserting (subject, predicate, obj) would be invalid.

        ``pending_deletes`` names live triples about to be retracted in the
        same atomic unit; functional-conflict checks ignore them.
        ``pending_creates`` names the unit's earlier creates: none of them may
        give a determinable of the subject another value.
        """
        registry = self.registry
        record = self._instances.get(subject)
        if record is None:
            raise UnknownInstanceError(f"unknown subject instance: {subject}")
        if not record.alive:
            raise SubjectDestroyedError(f"subject {subject!r} is destroyed")

        relation = registry.relation(predicate)
        if relation is not None:
            if not registry.is_subkind(record.schema, relation.subject_kind):
                raise KindMismatchError(
                    f"{subject!r} is a {record.schema}, not a {relation.subject_kind}: "
                    f"cannot be subject of {predicate!r}"
                )
            target = self._instances.get(obj)
            if (
                target is None
                or not target.alive
                or not registry.is_subkind(target.schema, relation.object_kind)
            ):
                raise KindMismatchError(
                    f"object of {predicate!r} must be a live {relation.object_kind} "
                    f"instance, got {obj!r}"
                )
        elif predicate in BUILTIN_PREDICATES:
            self._check_builtin(record, predicate, obj)
        elif slot := registry.determinable_slot(record.schema, predicate):
            ontology = registry.quality(slot.ontology)
            if ontology is None or obj not in ontology.determinants:
                raise KindMismatchError(
                    f"{obj!r} is not a determinant of quality {slot.ontology!r}"
                )
            for other in sorted(self._objects(subject, predicate)):
                if other != obj and (subject, predicate, other) not in pending_deletes:
                    raise FunctionalConflictError(
                        f"{subject!r} already has a live {predicate!r} value {other!r}"
                    )
            if any(s == subject and p == predicate and o != obj for s, p, o in pending_creates):
                raise FunctionalConflictError(f"conflicting creates for functional {predicate!r}")
        elif registry.is_determinable(predicate):
            raise KindMismatchError(
                f"{record.schema!r} does not declare determinable {predicate!r}"
            )
        else:
            raise UndeclaredPredicateError(f"undeclared predicate: {predicate}")

    def _check_builtin(self, record: InstanceRecord, predicate: str, obj: str) -> None:
        registry = self.registry
        if predicate in (PART_OF, MEMBER_OF):
            target = self._instances.get(obj)
            if target is None or not target.alive:
                raise KindMismatchError(
                    f"object of {predicate!r} must be a live instance, got {obj!r}"
                )
        elif predicate == HAS_ROLE:
            role = registry.realizable(obj)
            if role is None or role.variant != schemas.ROLE:
                raise KindMismatchError(f"{obj!r} is not a registered Role")
            if role.bearer_kind is not None and not registry.is_subkind(
                record.schema, role.bearer_kind
            ):
                raise KindMismatchError(
                    f"{record.id!r} is a {record.schema}, not a {role.bearer_kind}: "
                    f"cannot bear role {obj!r}"
                )
        # located_in / participates_in accept instance ids or opaque values.

    # -- mutation ----------------------------------------------------------------------

    def assert_relation(self, subject: str, predicate: str, obj: str, tick: int) -> bool:
        """Add a live triple. Returns False (no-op) if it is already live."""
        return bool(self.apply_unit((), ((subject, predicate, obj),), tick))

    def retract_relation(self, subject: str, predicate: str, obj: str, tick: int) -> None:
        self.apply_unit(((subject, predicate, obj),), (), tick)

    def apply_unit(
        self,
        deletes: tuple[tuple[str, str, str], ...],
        creates: Sequence[tuple[str, str, str]],
        tick: int,
    ) -> list[tuple[str, str, str]]:
        """Retract ``deletes`` then assert ``creates``, all at ``tick``, as one unit.

        Edits are distinct (subject, predicate, object) triples. The whole
        unit is checked against the post-delete view before anything mutates,
        so a unit that raises leaves the store untouched. A create of a live
        triple the unit does not delete is a no-op. Returns the creates added.
        ``member_of`` belongs to aggregate slots: a unit that edits it raises.
        """
        for _, predicate, _ in (*deletes, *creates):
            if predicate == MEMBER_OF:
                raise SlotTypeMismatchError(f"{MEMBER_OF!r} is written only by aggregate slots")
        return self._write_unit(deletes, creates, tick)

    def _write_unit(self, deletes: Sequence[tuple[str, str, str]],
                    creates: Sequence[tuple[str, str, str]], tick: int) -> list[tuple[str, str, str]]:
        """``apply_unit`` for any predicate, ``member_of`` included."""
        added = self._check_unit(deletes, creates)
        for key in deletes:
            self._retract(*key, tick)
        for subject, predicate, obj in added:
            self._add(Triple(subject, predicate, obj, tick))
        return added

    def _check_unit(self, deletes: Sequence[tuple[str, str, str]],
                    creates: Sequence[tuple[str, str, str]]) -> list[tuple[str, str, str]]:
        """Raise unless the unit is valid; return the creates it adds."""
        for key in deletes:
            if key not in self:
                raise NoSuchLiveTripleError(f"delete target not live: {key}")
        pending = frozenset(deletes)
        added: list[tuple[str, str, str]] = []
        for key in creates:
            if key in self and key not in pending:
                continue
            self.check_assert(*key, pending_deletes=pending, pending_creates=added)
            added.append(key)
        return added

    def spawn(self, schema: schemas.ThickObjectSchema, determinants: dict[str, str],
              location: str | None, instance_id: str | None, tick: int,
              draw_id: Callable[[str], str]) -> list[InstanceRecord]:
        """Create an instance, its qualities, its location and its part tree
        (part ``slot`` of ``x`` is ``x.slot``) as one unit at ``tick``. The
        tree is checked, ``draw_id`` names the root unless ``instance_id``
        does, and every id must be free and distinct before anything is
        written. Returns the new records in spawn order, root first."""
        nodes, links = [], []
        qualities = self._plan_spawn(schema, determinants, "", nodes, links)
        root = instance_id or draw_id(schema.name)
        fresh: dict[str, InstanceRecord] = {}
        for suffix, name in nodes:
            new_id = root + suffix
            if new_id in self._instances or new_id in fresh:
                raise DuplicateNameError(f"instance id {new_id!r} already exists")
            fresh[new_id] = InstanceRecord(new_id, name, tick)
        for record in fresh.values():
            self._register(record)
        for determinable, value in qualities.items():
            self._add(Triple(root, determinable, value, tick))
        if location is not None:
            self._add(Triple(root, "located_in", location, tick))
        for part, whole, linkage in links:
            self._add(Triple(root + part, PART_OF, root + whole, tick))
            self._put(self._link_meta, (root + part, root + whole), linkage)
        return list(fresh.values())

    def _plan_spawn(self, schema: schemas.ThickObjectSchema, determinants: dict[str, str],
                    suffix: str, nodes: list, links: list) -> dict[str, str]:
        """Check one instance of a spawn and, recursively, its parts: adds
        (id suffix, schema) to ``nodes`` in preorder and (part, whole, linkage)
        suffixes to ``links`` in postorder. Returns its values in slot order."""
        for det in determinants:
            if schema.quality_slot(det) is None:
                raise UnknownDeterminantError(f"{schema.name!r} declares no determinable {det!r}")
        qualities: dict[str, str] = {}
        for slot in schema.qualities:
            if slot.required and slot.determinable not in determinants:
                raise MissingRequiredDeterminableError(
                    f"spawn of {schema.name!r} misses required determinable {slot.determinable!r}"
                )
            value = determinants.get(slot.determinable)
            if value is not None:
                ontology = self.registry.quality(slot.ontology)
                if ontology is None or value not in ontology.determinants:
                    raise UnknownDeterminantError(
                        f"{value!r} is not a determinant of quality {slot.ontology!r}"
                    )
                qualities[slot.determinable] = value
        nodes.append((suffix, schema.name))
        for part in schema.parts:
            if part.linkage not in (schemas.COMPOSITION, schemas.CONTAINMENT):
                raise KindMismatchError(f"unknown linkage: {part.linkage}")
            path = f"{suffix}.{part.slot}"
            self._plan_spawn(self.registry.object_schema(part.schema), {}, path, nodes, links)
            links.append((path, suffix, part.linkage))
        return qualities

    def link_part(self, part: str, whole: str, linkage: str, tick: int) -> None:
        """Attach ``part`` into ``whole`` with the given linkage discipline."""
        if linkage not in (schemas.COMPOSITION, schemas.CONTAINMENT):
            raise KindMismatchError(f"unknown linkage: {linkage}")
        self.assert_relation(part, PART_OF, whole, tick)
        self._put(self._link_meta, (part, whole), linkage)

    def _put(self, mapping: dict, key, value) -> None:
        """Set ``mapping[key]`` to ``value``; the one undoable dict write."""
        if self.trail is not None:
            self.trail.append((mapping.__setitem__, key, mapping[key]) if key in mapping
                              else (mapping.pop, key))
        mapping[key] = value

    def linkage(self, part: str, whole: str) -> str:
        # Direct part_of assertions default to the weaker containment discipline.
        return self._link_meta.get((part, whole), schemas.CONTAINMENT)

    # -- queries -----------------------------------------------------------------------

    def query(
        self,
        pattern: schemas.Pattern,
        *,
        at: int | None = None,
        bindings: dict[str, str] | None = None,
    ) -> list[dict[str, str]]:
        """All bindings making the pattern match a live-at-``at`` triple.

        Results are ordered by (subject id, object) so traces reproduce.
        ``bindings`` pre-binds variables; constants are matched as written.
        """
        if not self.registry.predicate_declared(pattern.predicate):
            raise UndeclaredPredicateError(f"undeclared predicate: {pattern.predicate}")
        seed = dict(bindings or {})
        subject_term = _substitute(pattern.subject, seed)
        object_term = _substitute(pattern.object, seed)

        if at is None:
            candidates = self._live_pairs(pattern.predicate, subject_term, object_term)
        else:
            candidates = sorted(
                (t.subject, t.object)
                for t in self._records
                if t.predicate == pattern.predicate and t.live_at(at)
            )

        out = []
        for subject, obj in candidates:
            result = dict(seed)
            if not _match_term(subject_term, subject, result):
                continue
            if not _match_term(object_term, obj, result):
                continue
            out.append(result)
        return out

    def _live_pairs(
        self, predicate: str, subject_term: schemas.Term, object_term: schemas.Term
    ) -> list[tuple[str, str]]:
        """Live (subject, object) pairs of ``predicate`` that a bound subject or
        object allows, in (subject, object) order."""
        by_subject = self._by_subject.get(predicate, _EMPTY)
        if subject_term.kind != schemas.VAR:
            subject = subject_term.value
            objects = by_subject.get(subject, _EMPTY)
            if object_term.kind != schemas.VAR:
                return [(subject, object_term.value)] if object_term.value in objects else []
            return [(subject, obj) for obj in sorted(objects)]
        if object_term.kind != schemas.VAR:
            obj = object_term.value
            subjects = self._by_object.get(predicate, _EMPTY).get(obj, ())
            return [(subject, obj) for subject in sorted(subjects)]
        return [(s, o) for s in sorted(by_subject) for o in sorted(by_subject[s])]

    def matches(
        self,
        pattern: schemas.Pattern,
        *,
        at: int | None = None,
        bindings: dict[str, str] | None = None,
    ) -> bool:
        return bool(self.query(pattern, at=at, bindings=bindings))

    # -- aggregates -----------------------------------------------------------------------

    def instantiate_aggregate_from_member(
        self,
        aggregate: schemas.AggregateSchema,
        member_id: str,
        slot: str,
        tick: int,
        instance_id: str | None,
        draw_id: Callable[[str], str] | None = None,
    ) -> AggregateInstance:
        """Create an aggregate instance from a single known member.

        The named slot is bound; every other slot is typed but unbound.
        ``draw_id`` names the aggregate unless ``instance_id`` does, once the
        unit checks.
        """
        self._check_member(aggregate, slot, member_id)
        slots: dict[str, str | None] = dict.fromkeys(m.slot for m in aggregate.members)
        slots[slot] = member_id
        # member_of, first, joins a member checked live to an aggregate not made
        # yet; the links name no aggregate, so they are checked before its id is drawn.
        links = self._check_unit((), _slot_triples(aggregate, instance_id, slots)[1:])
        instance_id = instance_id or draw_id(aggregate.name)
        self.register_instance(instance_id, aggregate.name, tick, slots=slots)
        for subject, predicate, obj in ((member_id, MEMBER_OF, instance_id), *links):
            self._add(Triple(subject, predicate, obj, tick))
        return self.aggregate_view(instance_id)

    def bind_member(self, instance_id: str, slot: str, member_id: str, tick: int) -> None:
        """Fill ``slot`` as one unit: create the triples the filled slots
        imply and retract those they stop implying, unless another live
        aggregate implies them too."""
        record, aggregate = self._aggregate_of(instance_id)
        self._check_member(aggregate, slot, member_id)
        creates = _slot_triples(aggregate, instance_id, {**record.slots, slot: member_id})
        dropped = [key for key in _slot_triples(aggregate, instance_id, record.slots)
                   if key not in creates]
        self._write_unit(self._orphans(dropped, {instance_id}), creates, tick)
        self._put(record.slots, slot, member_id)

    def _orphans(self, keys: list[tuple[str, str, str]],
                 gone: set[str]) -> tuple[tuple[str, str, str], ...]:
        """The live ``keys`` that no live aggregate outside ``gone`` implies.
        A link's subject is a member, joined by member_of to each aggregate
        whose slots hold it."""
        holders = {a for subject, _, _ in keys for a in self._objects(subject, MEMBER_OF)}
        kept = set()
        for holder in holders - gone:
            record = self._instances[holder]
            kept.update(_slot_triples(self.registry.aggregate(record.schema), holder,
                                      record.slots))
        return tuple(key for key in keys if key in self and key not in kept)

    def _check_member(self, aggregate: schemas.AggregateSchema, slot: str,
                      member_id: str) -> None:
        """Raise unless ``member_id`` may fill ``slot``: the slot is declared
        and the member is a live instance of its kind."""
        declared = aggregate.member(slot)
        if declared is None:
            raise SlotTypeMismatchError(f"{aggregate.name!r} has no slot {slot!r}")
        member = self.instance(member_id)
        if not self.registry.is_subkind(member.schema, declared.schema):
            raise SlotTypeMismatchError(
                f"{member_id!r} is a {member.schema}, not a {declared.schema}: "
                f"cannot fill slot {slot!r}"
            )
        if not member.alive:
            raise SubjectDestroyedError(f"subject {member_id!r} is destroyed")

    def _aggregate_of(self, instance_id: str) -> tuple[InstanceRecord, schemas.AggregateSchema]:
        record = self.instance(instance_id)
        aggregate = self.registry.aggregate(record.schema)
        if aggregate is None or record.slots is None:
            raise SlotTypeMismatchError(f"{instance_id!r} is not an aggregate instance")
        return record, aggregate

    def aggregate_view(self, instance_id: str) -> AggregateInstance:
        record, aggregate = self._aggregate_of(instance_id)
        return AggregateInstance(
            id=record.id,
            schema=record.schema,
            slots=tuple(sorted(record.slots.items())),
            slot_types=tuple(sorted((m.slot, m.schema) for m in aggregate.members)),
        )

    # -- destruction -----------------------------------------------------------------------

    def destroy_instance(self, instance_id: str, tick: int) -> list[str]:
        """Destroy an instance and its composition-linked parts, recursively.

        Containment parts and aggregate members survive; only their link
        triples are retracted. Every remaining live triple touching a
        destroyed id is retracted at ``tick``, and so is each link a destroyed
        aggregate implies that no live aggregate implies too. Every slot of a
        destroyed aggregate, and every slot of a live one that held a
        destroyed member (its live ``member_of`` names each), becomes unbound.
        Returns ids in traversal order.
        """
        root = self.instance(instance_id)
        if not root.alive:
            raise AlreadyDestroyedError(f"{instance_id!r} is already destroyed")

        wholes = self._by_object.get(PART_OF, _EMPTY)
        order = [instance_id]
        for whole in order:  # breadth first: the list grows as it is walked
            order += sorted(part for part in wholes.get(whole, ())
                            if part not in order
                            and self.linkage(part, whole) == schemas.COMPOSITION)

        gone = set(order)
        touched: set[tuple[str, str, str]] = set()
        implied: list[tuple[str, str, str]] = []
        holders: list[str] = []  # aggregates whose slots hold a destroyed id
        for dest in order:
            holders += self._objects(dest, MEMBER_OF)
            record = self._instances[dest]
            record.destroyed_at = tick
            _discard(self._alive, record.schema, dest)
            if self.trail is not None:
                self.trail.append((self._revive, record))
            for predicate, objects in self._by_subject.items():
                touched.update((dest, predicate, obj) for obj in objects.get(dest, ()))
            for predicate, subjects in self._by_object.items():
                touched.update((subj, predicate, dest) for subj in subjects.get(dest, ()))
            if record.slots is not None:
                implied += _slot_triples(self.registry.aggregate(record.schema), dest, record.slots)
                holders.append(dest)
        touched.update(self._orphans(implied, gone))
        for key in sorted(touched):
            self._retract(*key, tick)
        # A destroyed aggregate holds nothing, and no live one holds a destroyed member.
        for holder in holders:
            slots = self._instances[holder].slots
            for slot, member in slots.items():
                if member is not None and (holder in gone or member in gone):
                    self._put(slots, slot, None)
        return order

    # -- snapshots -------------------------------------------------------------------------

    def clone(self) -> "RelationStore":
        """An independent copy of the primary state, its indexes rebuilt by
        their writers. It records nothing until a trail is opened on it."""
        other = RelationStore(self.registry)
        other._records = list(self._records)
        other._link_meta = dict(self._link_meta)
        for index, triple in enumerate(self._records):
            if triple.retracted_at is None:
                other._index(triple, index)
        for record in self._instances.values():
            slots = dict(record.slots) if record.slots is not None else None
            other._instances[record.id] = replace(record, slots=slots)
            if record.alive:
                _join(other._alive, record.schema, record.id)
        return other

    def fingerprint(self) -> str:
        return streamed_fingerprint({
            "records": (
                [t.subject, t.predicate, t.object, t.asserted_at, t.retracted_at]
                for t in self._records
            ),
            "instances": (
                [r.id, r.schema, r.created_at, r.destroyed_at,
                 sorted(r.slots.items()) if r.slots is not None else None]
                for r in sorted(self._instances.values(), key=attrgetter("id"))
            ),
            "links": sorted([p, w, l] for (p, w), l in self._link_meta.items()),
        })


def _join(index: dict[str, set[str]], key: str, value: str) -> None:
    """Add ``value`` to ``index[key]``."""
    index.setdefault(key, set()).add(value)


def _discard(index: dict[str, set[str]], key: str, value: str) -> None:
    """Remove ``value`` from ``index[key]``, dropping the key once its set empties."""
    values = index[key]
    values.discard(value)
    if not values:
        del index[key]


def _slot_triples(aggregate: schemas.AggregateSchema, instance_id: str | None,
                  slots: dict[str, str | None]) -> list[tuple[str, str, str]]:
    """The triples an aggregate's slots imply: each bound member's
    ``member_of``, in slot order, then each link whose two slots are bound,
    in declaration order, each triple once."""
    triples = [(member, MEMBER_OF, instance_id) for member in slots.values() if member is not None]
    for link in aggregate.links:
        subject, obj = slots[link.subject_slot], slots[link.object_slot]
        if subject is not None and obj is not None:
            triples.append((subject, link.relation, obj))
    return list(dict.fromkeys(triples))


def _substitute(term: schemas.Term, bindings: dict[str, str]) -> schemas.Term:
    if term.kind == schemas.VAR and term.value in bindings:
        return schemas.const(bindings[term.value])
    return term


def _match_term(term: schemas.Term, value: str, bindings: dict[str, str]) -> bool:
    if term.kind == schemas.VAR:
        if term.value in bindings:
            return bindings[term.value] == value
        bindings[term.value] = value
        return True
    return term.value == value
