"""The blackboard runtime: instances, the relation store, a logical clock,
the unified temporal map, disposition firing, and interaction-rule dispatch.

One microworld is one execution context. Time is a logical tick counter:
every applied unit (a spawn with its parts, one transitional, one process
boundary) advances the clock by one, and all edits of a unit share its tick.
The store checks each unit whole before writing it, so a unit that raises
or blocks leaves the store, the clock and the timeline as they were.
``mark`` and ``rewind`` undo whole sequences of units: a search that tries
and takes back moves walks one world instead of copying it per state.

Two production systems drive transitions. Dispositions fire sure-fire after
every applied step, in declaration order over their alive bearers in id
order, until no pair is left to try: a (disposition, bearer) pair whose
realization blocks is skipped for the rest of that call. Interaction rules
fire one at a time, over participant tuples in rule-declaration then id
order, the most specific matching rule first.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from dataclasses import dataclass
from types import MappingProxyType

from . import schemas, transitions
from .errors import (
    DispositionCascadeOverflowError,
    KindMismatchError,
    NoIndependentContinuantParticipantError,
    NoOpenIntervalError,
    SnapshotVersionMismatchError,
    XfoError,
)
from .fingerprint import streamed_fingerprint
from .records import record, slot_writer
from .registry import Registry
from .relations import RelationStore

SNAPSHOT_VERSION = 1
DEFAULT_DISPOSITION_CAP = 1_000

SPAWN = "spawn"
DESTROY = "destroy"
TRANSITION = "transition"
PROCESS_INTERVAL = "process_interval"

# run() outcomes
COMPLETED = "completed"
ABORTED = "aborted"
QUIESCENT = "quiescent"
TICK_BUDGET_EXHAUSTED = "tick_budget_exhausted"


# The edit keys of the events a microworld records, one tuple per shape,
# shared by every event of that shape.
_EDIT_KEYS = MappingProxyType({
    keys: keys
    for keys in (
        ("qualities", "location"), ("member",), ("destroyed",), ("end",), ("deletes", "creates"),
    )
})


@record
class TimelineEvent:
    """One unit of the temporal map.

    ``edits`` are (key, value) pairs. An event holds them as a shared tuple of
    keys and its own tuple of values, since a long run keeps every event.
    """

    tick: int
    kind: str
    name: str
    participants: tuple[str, ...]
    _keys: tuple[str, ...]
    _values: tuple[object, ...]

    def __init__(self, tick: int, kind: str, name: str, participants: tuple[str, ...],
                 edits: tuple[tuple[str, object], ...] = ()):
        keys, values = tuple(zip(*edits)) or ((), ())
        _write_event(self, tick, kind, name, participants, _EDIT_KEYS.get(keys, keys), values)

    @property
    def edits(self) -> tuple[tuple[str, object], ...]:
        return tuple(zip(self._keys, self._values))

    def __repr__(self) -> str:
        return (f"TimelineEvent(tick={self.tick!r}, kind={self.kind!r}, name={self.name!r}, "
                f"participants={self.participants!r}, edits={self.edits!r})")

    def edit(self, key: str):
        for k, v in zip(self._keys, self._values):
            if k == key:
                return v
        return None

    def as_dict(self) -> dict:
        return {
            "tick": self.tick,
            "kind": self.kind,
            "name": self.name,
            "participants": list(self.participants),
            "edits": {k: _jsonable(v) for k, v in zip(self._keys, self._values)},
        }


_write_event = slot_writer(TimelineEvent)


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class InteractionRule:
    """Multiple dispatch over participant kind tuples.

    The guard pattern may reference participants positionally through the
    variables ?p1..?pN. The transitional's bearer is the first participant
    whose kind matches the transitional's bearer kind.
    """

    kinds: tuple[str, ...]
    guard: schemas.Pattern | None
    transitional: str


@dataclass(frozen=True)
class DispositionFiring:
    disposition: str
    bearer: str
    tick: int
    transitional: str


@dataclass(frozen=True)
class WorldSnapshot:
    version: int
    state: dict


class Microworld:
    def __init__(self, registry: Registry, name: str = "world", seed: int | None = None):
        self.registry = registry
        self.name = name
        self.store = RelationStore(registry)
        self.clock = 0
        self.events: list[TimelineEvent] = []
        self.rules: list[InteractionRule] = []
        self.disposition_cap = DEFAULT_DISPOSITION_CAP
        self._rng = random.Random(seed) if seed is not None else None
        self._id_counters: dict[str, int] = {}

    # -- identity and time ----------------------------------------------------

    def new_id(self, base: str) -> str:
        base = base.lower()
        trail, rng, counters = self.store.trail, self._rng, self._id_counters
        while True:
            if rng is not None:
                if trail is not None:
                    trail.append((rng.setstate, rng.getstate()))
                candidate = f"{base}-{rng.getrandbits(32):08x}"
            else:
                count = counters.get(base, 0) + 1
                self.store._put(counters, base, count)
                candidate = f"{base}-{count}"
            if not self.store.has_instance(candidate):
                return candidate

    # -- spawning -----------------------------------------------------------------

    def spawn(
        self,
        schema_name: str,
        determinants: dict[str, str] | None = None,
        *,
        location: str | None = None,
        instance_id: str | None = None,
    ) -> str:
        """Create an alive instance with its quality triples and (recursively)
        its declared parts, all as one unit at one tick. The store checks the
        whole unit before it writes any of it."""
        schema = self.registry.object_schema(schema_name)
        if schema is None:
            raise KindMismatchError(f"{schema_name!r} is not a spawnable object schema")
        given = determinants or {}
        tick = self.clock + 1
        records = self.store.spawn(schema, given, location, instance_id, tick, self.new_id)
        self.clock = tick
        edits = (("qualities", tuple(sorted(given.items()))), ("location", location))
        for record in records:  # the root, then its parts, which have neither
            self.events.append(TimelineEvent(tick, SPAWN, record.schema, (record.id,), edits))
            edits = (("qualities", ()), ("location", None))
        return records[0].id

    def instantiate_aggregate(
        self, schema_name: str, member_id: str, slot: str, *, instance_id: str | None = None
    ):
        aggregate = self.registry.aggregate(schema_name)
        if aggregate is None:
            raise KindMismatchError(f"{schema_name!r} is not an aggregate schema")
        tick = self.clock + 1
        view = self.store.instantiate_aggregate_from_member(
            aggregate, member_id, slot, tick, instance_id, self.new_id
        )
        self.clock = tick
        self.events.append(
            TimelineEvent(tick, SPAWN, schema_name, (view.id,), (("member", member_id),))
        )
        return view

    def bind_member(self, instance_id: str, slot: str, member_id: str) -> None:
        tick = self.clock + 1
        self.store.bind_member(instance_id, slot, member_id, tick)
        self.clock = tick

    # -- relation edits ---------------------------------------------------------------

    def assert_relation(self, subject: str, predicate: str, obj: str) -> bool:
        tick = self.clock + 1
        added = self.store.assert_relation(subject, predicate, obj, tick)
        if added:
            self.clock = tick
        return added

    def retract_relation(self, subject: str, predicate: str, obj: str) -> None:
        tick = self.clock + 1
        self.store.retract_relation(subject, predicate, obj, tick)
        self.clock = tick

    def destroy(self, instance_id: str) -> list[str]:
        tick = self.clock + 1
        destroyed = self.store.destroy_instance(instance_id, tick)
        self.clock = tick
        ids = tuple(destroyed)
        self.events.append(TimelineEvent(tick, DESTROY, instance_id, ids, (("destroyed", ids),)))
        return destroyed

    # -- processes -----------------------------------------------------------------------

    def begin_process(self, process_name: str, participants) -> int:
        """Open a process interval. At least one participant must be an alive
        Independent Continuant."""
        participants = tuple(participants)
        if not any(self.store.has_instance(p) and self.store.instance(p).alive
                   and self.store.is_independent_continuant(p) for p in participants):
            raise NoIndependentContinuantParticipantError(
                f"process {process_name!r} has no alive Independent Continuant participant"
            )
        self.clock += 1
        self.events.append(TimelineEvent(
            self.clock, PROCESS_INTERVAL, process_name, tuple(sorted(participants)),
            (("end", None),),
        ))
        return len(self.events) - 1

    def end_process(self, process_name: str, participants=None) -> int:
        """Close the earliest matching open interval at the current tick."""
        wanted = tuple(sorted(participants)) if participants is not None else None
        for index, event in enumerate(self.events):
            if (
                event.kind == PROCESS_INTERVAL
                and event.name == process_name
                and event.edit("end") is None
                and (wanted is None or event.participants == wanted)
            ):
                self.clock += 1
                if self.store.trail is not None:
                    self.store.trail.append((self.events.__setitem__, index, event))
                self.events[index] = TimelineEvent(
                    event.tick, event.kind, event.name, event.participants, (("end", self.clock),)
                )
                return index
        raise NoOpenIntervalError(f"no open interval for process {process_name!r}")

    # -- transitionals and dispositions ------------------------------------------------------

    def apply(self, transitional_name: str, bearer: str):
        """Apply a named transitional; blocked applications consume no tick."""
        transitional = self.registry.transitional(transitional_name)
        if transitional is None:
            raise XfoError(f"unknown transitional: {transitional_name}")
        tick = self.clock + 1
        result = transitions.apply_transitional(self.store, transitional, bearer, tick)
        if isinstance(result, transitions.AppliedTransition):
            self.clock = tick
            self.events.append(TimelineEvent(
                tick, TRANSITION, transitional_name, (bearer,),
                (("deletes", result.deletes), ("creates", result.creates)),
            ))
        return result

    def _triggered(self, blocked: set[tuple[str, str]]):
        """The (disposition, bearer) pairs outside ``blocked`` whose trigger
        holds: dispositions in declaration order, bearers in id order."""
        for disposition in self.registry.dispositions():
            if (disposition.trigger is None or disposition.realization is None
                    or disposition.bearer_kind is None):
                continue
            for bearer in self.store.alive_of_kind(disposition.bearer_kind):
                if (disposition.name, bearer) not in blocked and self.store.matches(
                    disposition.trigger, bindings={"bearer": bearer}
                ):
                    yield disposition, bearer

    def fire_dispositions(self) -> list[DispositionFiring]:
        """Fire triggered dispositions, sure-fire, until no pair is left to try.

        Each firing is the first triggered pair of ``_triggered``'s scan, which
        restarts after it, so cascades fire in a stable order. A (disposition,
        bearer) pair whose realization blocks is skipped for the rest of the
        call, even when a later firing would let it apply: the call can end
        with a trigger that holds. Raises DispositionCascadeOverflow past the
        cap.
        """
        fired: list[DispositionFiring] = []
        blocked: set[tuple[str, str]] = set()
        while True:
            for disposition, bearer in self._triggered(blocked):
                result = self.apply(disposition.realization, bearer)
                if isinstance(result, transitions.AppliedTransition):
                    fired.append(DispositionFiring(
                        disposition.name, bearer, result.tick, result.transitional
                    ))
                    if len(fired) > self.disposition_cap:
                        raise DispositionCascadeOverflowError(
                            f"disposition cascade exceeded {self.disposition_cap} firings"
                        )
                    break
                blocked.add((disposition.name, bearer))
            else:
                return fired

    # -- interaction rules ----------------------------------------------------------------------

    def add_interaction_rule(
        self, kinds: tuple[str, ...], guard: schemas.Pattern | None, transitional: str
    ) -> None:
        self.rules.append(InteractionRule(tuple(kinds), guard, transitional))

    def fire_one_interaction(self):
        """Fire the first applicable interaction rule.

        Participant tuples are visited in rule-declaration then id order, and
        each tuple is tried once, when the first rule matching it reaches it.
        A rule declared earlier would have reached the tuple first, so only
        rules declared later are checked against it. Among the matching rules
        the most specific kind tuple wins, ties going to declaration order,
        falling back to less specific rules when a realization blocks.
        Returns the applied transition, or None when nothing can fire."""
        registry, store = self.registry, self.store

        def holds(rule: InteractionRule, combo: tuple[str, ...]) -> bool:
            if rule.guard is None:
                return True
            return store.matches(rule.guard, bindings={f"p{i}": p for i, p in enumerate(combo, 1)})

        attempted: set[tuple[str, ...]] = set()
        for index, rule in enumerate(self.rules):
            pools = [store.alive_of_kind(kind) for kind in rule.kinds]
            for combo in itertools.product(*pools):
                if combo in attempted or len(set(combo)) != len(combo) or not holds(rule, combo):
                    continue
                attempted.add(combo)
                kinds = [store.instance(instance_id).schema for instance_id in combo]
                matching = [rule] + [
                    later
                    for later in self.rules[index + 1:]
                    if len(later.kinds) == len(combo)
                    and all(map(registry.is_subkind, kinds, later.kinds))
                    and holds(later, combo)
                ]
                matching.sort(key=lambda r: -sum(len(registry.kinds.paths[k]) for k in r.kinds))
                for candidate in matching:
                    transitional = registry.transitional(candidate.transitional)
                    bearer = transitional and transitions.first_bearer(
                        registry, transitional.bearer_kind, zip(combo, kinds)
                    )
                    if bearer is not None:
                        result = self.apply(candidate.transitional, bearer)
                        if isinstance(result, transitions.AppliedTransition):
                            return result
        return None

    # -- timeline export --------------------------------------------------------------------------

    def export_timeline(self) -> list[dict]:
        """The unified temporal map: every event, nondecreasing tick order.
        Each unit records its events at the tick it takes, so ``events`` is
        already in that order."""
        return [event.as_dict() for event in self.events]

    def timeline_ndjson(self) -> str:
        return "".join(canonical_event_json(event.as_dict()) + "\n" for event in self.events)

    # -- marks and snapshots ------------------------------------------------------------------------

    def mark(self) -> tuple:
        """A token for ``rewind``. While a mark is open, each store and world
        write pushes its inverse onto the store's trail; the token keeps the
        clock and the lengths of the event and rule lists."""
        store = self.store
        opens = store.trail is None
        if opens:
            store.trail = []
        return None if opens else len(store.trail), self.clock, len(self.events), len(self.rules)

    def rewind(self, token: tuple) -> None:
        """Put the world back exactly as it was at ``mark``. Marks nest; a mark
        may be rewound again until the first open mark is rewound, which
        closes the trail and spends every mark taken since."""
        length, clock, events, rules = token
        trail = self.store.trail
        if trail is None:
            raise XfoError("no open mark to rewind to")
        while len(trail) > (length or 0):
            inverse, *args = trail.pop()
            inverse(*args)
        if length is None:
            self.store.trail = None
        self.clock = clock
        del self.events[events:]
        del self.rules[rules:]

    def clone(self) -> "Microworld":
        """An independent copy: store, clock, events, rules, id counters, rng
        state and disposition cap. The registry is shared; it is immutable."""
        other = copy.copy(self)
        other.store = self.store.clone()
        other.events = list(self.events)
        other.rules = list(self.rules)
        other._id_counters = dict(self._id_counters)
        other._rng = copy.deepcopy(self._rng)
        return other

    def snapshot(self) -> WorldSnapshot:
        return WorldSnapshot(SNAPSHOT_VERSION, {"world": self.clone()})

    @classmethod
    def restore(cls, snapshot: WorldSnapshot) -> "Microworld":
        if snapshot.version != SNAPSHOT_VERSION:
            raise SnapshotVersionMismatchError(
                f"snapshot version {snapshot.version} != {SNAPSHOT_VERSION}"
            )
        return snapshot.state["world"].clone()

    def fingerprint(self) -> str:
        return streamed_fingerprint({
            "clock": self.clock,
            "store": self.store.fingerprint(),
            "events": (canonical_event_json(e.as_dict()) for e in self.events),
        })


def canonical_event_json(event_dict: dict) -> str:
    # Fixed key order: tick, kind, name, participants, edits.
    return json.dumps(event_dict, sort_keys=False, separators=(",", ":"), ensure_ascii=True)


# --- running --------------------------------------------------------------------------------------

@dataclass
class RunResult:
    status: str
    world: Microworld
    applied: list
    events: list[TimelineEvent]
    ticks_used: int


def run(world: Microworld, chain: transitions.ChainInstance | None = None,
        *, max_ticks: int = 10_000) -> RunResult:
    """Run a chain instance, or (without one) the interaction rules.

    Steps until completion, quiescence, or the tick budget; after every
    applied transitional, ``fire_dispositions`` fires the dispositions. A
    chain that has finished reports its end even when the budget is spent.
    On budget exhaustion the world state so far is still returned.
    """
    if max_ticks <= 0:
        raise XfoError(f"the tick budget must be positive, got {max_ticks}")
    start_clock = world.clock
    start_events = len(world.events)
    applied: list = []
    status = None
    while status is None:
        if chain is not None and chain.finished:
            status = COMPLETED if chain.status == transitions.COMPLETED else ABORTED
        elif world.clock - start_clock >= max_ticks:
            status = TICK_BUDGET_EXHAUSTED
        elif chain is not None:
            before = len(chain.log)
            transitions.step_chain(world, chain)
            if len(chain.log) > before:
                applied.append(chain.log[-1])
                world.fire_dispositions()
        elif (result := world.fire_one_interaction()) is None:
            status = QUIESCENT
        else:
            applied.append(result)
            world.fire_dispositions()
    return RunResult(
        status=status,
        world=world,
        applied=applied,
        events=world.events[start_events:],
        ticks_used=world.clock - start_clock,
    )


def build_world(
    registry: Registry,
    world_def: schemas.WorldDef,
    *,
    seed: int | None = None,
) -> Microworld:
    """Materialize a compiled world definition: spawns then assertions."""
    world = Microworld(registry, name=world_def.name, seed=seed)
    for spawn in world_def.spawns:
        world.spawn(
            spawn.schema,
            dict(spawn.assignments),
            instance_id=spawn.instance,
        )
    for pattern in world_def.asserts:
        subject = pattern.subject.value
        obj = pattern.object.value
        world.assert_relation(subject, pattern.predicate, obj)
    return world
