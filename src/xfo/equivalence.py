"""Functional equivalence of transition chains over a state space.

Two chains are functionally equivalent over a state space when, run to
completion or abort from every enumerable initial store, their final live
triple sets coincide. The space enumerates instances and sweeps each
declared determinable over its full ontology unless pinned. Only the axes
the chains' cone of influence reaches are swept; the rest cannot change a
verdict (Clarke, Grumberg & Peled, *Model Checking*, 1999).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import schemas, transitions
from .errors import NonterminatingChainError, StateSpaceTooLargeError, XfoError
from .microworld import Microworld, run
from .registry import Registry

DEFAULT_STATE_BOUND = 1_000_000


@dataclass(frozen=True)
class StateSpace:
    """A finite family of initial stores.

    ``instances`` lists (name, schema) pairs; every declared determinable of
    each schema sweeps its whole quality ontology unless pinned to one value
    via ``pinned`` entries (instance, determinable, value). A pin must name
    an instance of the space and a determinable its schema declares.
    """

    instances: tuple[tuple[str, str], ...]
    pinned: tuple[tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    counterexample: tuple[tuple[str, str], ...] | None  # (("inst.det", value), ...)
    states_checked: int


def _levels(registry: Registry, space: StateSpace) -> list[tuple[str, str, tuple, list]]:
    """(name, schema, determinables, value axes) per instance in name order:
    determinables in declaration order, each axis in ontology order."""
    pinned = {(inst, det): value for inst, det, value in space.pinned}
    levels = []
    for name, schema_name in sorted(space.instances):
        schema = registry.object_schema(schema_name)
        if schema is None:
            raise XfoError(f"{schema_name!r} is not an object schema")
        dets = tuple(slot.determinable for slot in schema.qualities)
        axes = [
            (pinned[name, slot.determinable],) if (name, slot.determinable) in pinned
            else registry.quality(slot.ontology).determinants
            for slot in schema.qualities
        ]
        levels.append((name, schema_name, dets, axes))
    # A pin that fixes no axis would silently widen the space swept.
    declared = {name: (schema_name, dets) for name, schema_name, dets, _ in levels}
    for inst, det, value in space.pinned:
        pin = f"pin {inst}.{det}={value}"
        if inst not in declared:
            raise XfoError(f"{pin}: {inst!r} is not an instance of the space")
        schema_name, dets = declared[inst]
        if det not in dets:
            raise XfoError(f"{pin}: {schema_name!r} declares no determinable {det!r}")
    return levels


def _cone(registry: Registry, chain_names, levels) -> set[tuple[str, str]]:
    """The swept (instance, determinable) pairs that a run of either chain may
    read or write. The patterns in scope: every transitional a chain reaches,
    on the bearer the chain binds; every ``if``/``while`` condition; and
    every disposition, trigger and realization, on each instance of its
    bearer kind (``run`` fires them after any step, and a trigger may hold
    from the start). A ``bearer`` subject names those bearers, a
    constant the instance (or role) it spells, any other variable every
    instance declaring the predicate."""
    bound = [(name, schema) for name, schema, _, _ in levels]
    code = []  # (patterns, their bearers, or None where ``bearer`` is a plain variable)
    for reach in map(registry.reach, chain_names):
        for name in reach.transitionals:
            transitional = registry.transitional(name)
            bearer = transitions.first_bearer(registry, transitional.bearer_kind, bound)
            code.append((transitional.guards + transitional.deletes + transitional.creates,
                         [bearer]))
        code.extend(((step.condition,), None) for step in reach.branches)
    for disposition in registry.dispositions():
        kind, realization = disposition.bearer_kind, registry.transitional(disposition.realization)
        if disposition.trigger and realization and kind:
            bearers = [name for name, schema in bound if registry.is_subkind(schema, kind)]
            code.append(((disposition.trigger, *realization.guards, *realization.deletes,
                          *realization.creates), bearers))
    swept = {(name, det) for name, _, dets, _ in levels for det in dets}
    cone = set()
    for patterns, bearers in code:
        for pattern in patterns:
            subject, predicate = pattern.subject, pattern.predicate
            if subject == schemas.BEARER and bearers is not None:
                cone.update((bearer, predicate) for bearer in bearers)
            elif subject.kind == schemas.VAR:
                cone.update(pair for pair in swept if pair[1] == predicate)
            else:
                cone.add((subject.value, predicate))
    return cone & swept


def _sweep(world: Microworld, swept: list, spawn, differs, assignment: tuple = ()) -> tuple | None:
    """The first assignment below the world's prefix where ``differs()``, if any.
    Not a closure: one that calls itself holds itself, and its world, in a cycle."""
    if len(assignment) == len(swept):
        return assignment if differs() else None
    name, schema_name, dets, axes = swept[len(assignment)]
    for combo in itertools.product(*axes):
        determinants = dict(zip(dets, combo))
        mark = world.mark()
        spawn(name, schema_name, determinants)
        found = _sweep(world, swept, spawn, differs, assignment + ((name, determinants),))
        world.rewind(mark)
        if found is not None:
            return found
    return None


def check_equivalence(
    registry: Registry,
    chain_a: str,
    chain_b: str,
    space: StateSpace,
    *,
    state_bound: int = DEFAULT_STATE_BOUND,
    loop_cap: int = transitions.DEFAULT_LOOP_CAP,
) -> EquivalenceResult:
    """Run both chains from every initial store in the space.

    Returns equivalence, or the lexicographically first differing initial
    store (instances in name order, determinables in declaration order,
    values in ontology order). Raises StateSpaceTooLarge when the product
    exceeds ``state_bound`` and NonterminatingChain when a run hits its
    loop cap.

    Every state is counted, but an axis outside the chains' cone of influence
    (``_cone``) is swept at its first value only: nothing reads or writes
    it, so the verdict and any run error at a state are those of the state
    with that axis at its first value, which comes no later. The first
    differing state is thus found, and ``states_checked`` is its place.

    An instance left with one value per axis (out of the cone, or pinned)
    is fixed: it is spawned once, before the sweep. The sweep walks the
    states depth first through one world, one swept instance per level:
    each is spawned once per prefix of choices and rewound before the next,
    so states sharing a prefix share its spawns. The states come in the
    order of a full sweep, and a spawn error is the one spawning in name
    order meets first. At each state both chains run, each from a fresh
    copy of the one chain instance made per check (exact: every state has
    the same instance names and schemas), and each run is rewound.
    """
    for chain_name in (chain_a, chain_b):
        if registry.chain(chain_name) is None:
            raise XfoError(f"unknown chain: {chain_name}")
    levels = _levels(registry, space)
    size = math.prod(len(values) for *_, axes in levels for values in axes)
    if size > state_bound:
        raise StateSpaceTooLargeError(f"state space has {size} states (bound {state_bound})")

    cone = _cone(registry, (chain_a, chain_b), levels)
    bindings = {name: name for name, _ in space.instances}
    world = Microworld(registry, name="equiv")
    planned: dict[str, transitions.ChainInstance] = {}

    def spawn(name: str, schema_name: str, determinants: dict[str, str]) -> None:
        try:
            world.spawn(schema_name, determinants, instance_id=name)
        except XfoError:
            # Fixed levels spawn first: raise the error spawning in name order meets first.
            first = Microworld(registry)
            for other, schema, dets, axes in levels:
                first.spawn(schema, {d: v[0] for d, v in zip(dets, axes)}, instance_id=other)
            raise

    def final_state(chain_name: str) -> frozenset[tuple[str, str, str]]:
        if chain_name not in planned:
            planned[chain_name] = transitions.instantiate_chain(
                world, chain_name, bindings, loop_cap=loop_cap
            )
        plan = planned[chain_name]
        instance = transitions.ChainInstance(
            plan.schema, plan.bindings, plan.bearer_map, loop_cap=loop_cap
        )
        mark = world.mark()
        run(world, instance, max_ticks=10**9)
        if instance.abort_reason and instance.abort_reason.startswith(
            transitions.LOOP_CAP_REASON
        ):
            raise NonterminatingChainError(instance.abort_reason)
        live = world.store.live_set()
        world.rewind(mark)
        return live

    fixed, swept = [], []  # fixed: (name, determinants) of the levels with one combination
    for name, schema_name, dets, axes in levels:
        axes = [values if (name, det) in cone else values[:1] for det, values in zip(dets, axes)]
        if any(len(values) > 1 for values in axes):
            swept.append((name, schema_name, dets, axes))
        else:
            determinants = {det: values[0] for det, values in zip(dets, axes)}
            spawn(name, schema_name, determinants)
            fixed.append((name, determinants))
    mark = world.mark()  # rewound also when a run raises: an open mark holds a cycle
    try:
        found = _sweep(world, swept, spawn, lambda: final_state(chain_a) != final_state(chain_b))
    finally:
        world.rewind(mark)
    if found is None:
        return EquivalenceResult(True, None, size)
    found = sorted((*fixed, *found))  # every spawn succeeded, so names are distinct
    index = 0  # the witness's place in the full order, one mixed-radix digit per axis
    for (_, determinants), (*_, axes) in zip(found, levels):
        for value, values in zip(determinants.values(), axes):
            index = index * len(values) + values.index(value)
    # Keyed by (instance, determinable), not by the joined text: "a-b.x" < "a.x".
    pairs = sorted(((inst, det), value) for inst, dets in found for det, value in dets.items())
    witness = tuple((f"{inst}.{det}", value) for (inst, det), value in pairs)
    return EquivalenceResult(False, witness, index + 1)
