"""Brute-force functional equivalence of transition chains.

Two chains are functionally equivalent over a state space when, run to
completion or abort from every enumerable initial store, their final live
triple sets coincide. The space enumerates instances and sweeps each
declared determinable over its full ontology unless pinned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import transitions
from .errors import NonterminatingChainError, StateSpaceTooLargeError, XfoError
from .microworld import Microworld, run
from .registry import Registry

DEFAULT_STATE_BOUND = 1_000_000


@dataclass(frozen=True)
class StateSpace:
    """A finite family of initial stores.

    ``instances`` lists (name, schema) pairs; every declared determinable of
    each schema sweeps its whole quality ontology unless pinned to one value
    via ``pinned`` entries (instance, determinable, value).
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
    return levels


def _final_state(
    world: Microworld, chain_name: str, bindings: dict[str, str], loop_cap: int
) -> frozenset[tuple[str, str, str]]:
    instance = transitions.instantiate_chain(world, chain_name, bindings, loop_cap=loop_cap)
    run(world, instance, max_ticks=10**9)
    if instance.abort_reason and instance.abort_reason.startswith(
        transitions.LOOP_CAP_REASON
    ):
        raise NonterminatingChainError(instance.abort_reason)
    return world.store.live_set()


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

    The sweep walks the states depth first, one instance per level: each
    instance is spawned once per prefix of choices into a clone of the
    world that holds the prefix, so states sharing a prefix share its spawns.
    """
    for chain_name in (chain_a, chain_b):
        if registry.chain(chain_name) is None:
            raise XfoError(f"unknown chain: {chain_name}")
    levels = _levels(registry, space)
    size = math.prod(len(values) for *_, axes in levels for values in axes)
    if size > state_bound:
        raise StateSpaceTooLargeError(f"state space has {size} states (bound {state_bound})")

    bindings = {name: name for name, _ in space.instances}
    checked = 0

    def sweep(world: Microworld, depth: int, assignment: tuple) -> tuple | None:
        """The first differing assignment at or below ``world``, if any."""
        nonlocal checked
        if depth == len(levels):
            checked += 1
            final_a = _final_state(world.clone(), chain_a, bindings, loop_cap)
            final_b = _final_state(world, chain_b, bindings, loop_cap)
            return assignment if final_a != final_b else None
        name, schema_name, dets, axes = levels[depth]
        for combo in itertools.product(*axes):
            determinants = dict(zip(dets, combo))
            child = world.clone()
            child.spawn(schema_name, determinants, instance_id=name)
            found = sweep(child, depth + 1, assignment + ((name, determinants),))
            if found is not None:
                return found
        return None

    found = sweep(Microworld(registry, name="equiv"), 0, ())
    if found is None:
        return EquivalenceResult(True, None, checked)
    # Keyed by (instance, determinable), not by the joined text: "a-b.x" < "a.x".
    pairs = sorted(((inst, det), value) for inst, dets in found for det, value in dets.items())
    witness = tuple((f"{inst}.{det}", value) for (inst, det), value in pairs)
    return EquivalenceResult(False, witness, checked)
