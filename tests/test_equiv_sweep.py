"""The depth-first equivalence sweep against a per-state rebuild oracle.

The oracle builds every initial world from scratch, once per chain, spawning
the instances in the order the space lists them. The sweep must agree with it
on the verdict, the number of states checked, the witness and every error.
"""

import itertools
import math

import pytest
from helpers import compile_ok, cyclic_garbage
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xfo import StateSpace, check_equivalence, instantiate_chain
from xfo.equivalence import EquivalenceResult
from xfo.errors import (
    DuplicateNameError,
    NonterminatingChainError,
    StateSpaceTooLargeError,
    XfoError,
)
from xfo.microworld import Microworld, run
from xfo.transitions import DEFAULT_LOOP_CAP, LOOP_CAP_REASON

# --- oracle: every state rebuilt from scratch ---------------------------------------------


def _oracle_axes(registry, space):
    pinned = {(inst, det): value for inst, det, value in space.pinned}
    axes = []
    for name, schema_name in sorted(space.instances):
        for slot in registry.object_schema(schema_name).qualities:
            pin = pinned.get((name, slot.determinable))
            values = (pin,) if pin is not None else registry.quality(slot.ontology).determinants
            axes.append((name, slot.determinable, values))
    return axes


def _oracle_final_state(registry, chain_name, space, assignment, loop_cap):
    world = Microworld(registry, name="oracle")
    for name, schema_name in space.instances:
        determinants = {
            det: value for (inst, det), value in assignment.items() if inst == name
        }
        world.spawn(schema_name, determinants, instance_id=name)
    bindings = {name: name for name, _ in space.instances}
    instance = instantiate_chain(world, chain_name, bindings, loop_cap=loop_cap)
    run(world, instance, max_ticks=10**9)
    if instance.abort_reason and instance.abort_reason.startswith(LOOP_CAP_REASON):
        raise NonterminatingChainError(instance.abort_reason)
    return world.store.live_set()


def oracle(registry, chain_a, chain_b, space, *, state_bound=10**6,
           loop_cap=DEFAULT_LOOP_CAP):
    axes = _oracle_axes(registry, space)
    size = math.prod(len(values) for _, _, values in axes)
    if size > state_bound:
        raise StateSpaceTooLargeError(f"state space has {size} states (bound {state_bound})")
    checked = 0
    for combo in itertools.product(*[values for _, _, values in axes]):
        assignment = {(inst, det): value for (inst, det, _), value in zip(axes, combo)}
        checked += 1
        final_a = _oracle_final_state(registry, chain_a, space, assignment, loop_cap)
        final_b = _oracle_final_state(registry, chain_b, space, assignment, loop_cap)
        if final_a != final_b:
            witness = tuple(
                (f"{inst}.{det}", value) for (inst, det), value in sorted(assignment.items())
            )
            return EquivalenceResult(False, witness, checked)
    return EquivalenceResult(True, None, checked)


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except XfoError as exc:
        return type(exc), str(exc)


# --- random spaces over corpus instances ----------------------------------------------------

# Schemas with how many initial stores one instance of each spans: a dropper
# with three qualities, a clock with composed parts, a region whose era is
# optional, and the traffic light.
SCHEMAS = {"CeladonDropper": 18, "Clock": 2, "Region": 2, "TrafficLight": 3}
CHAINS = {
    "TrafficLight": ("cycle", "go_yellow", "go_green_swapped"),
    "CeladonDropper": ("pottery", "celadon_production"),
    "Clock": ("unwind",),
}
# "a" sorts before "a-b" as a name but "a-b.x" before "a.x" as a witness key.
NAMES = ("a", "a-b", "b", "lamp.b")


@st.composite
def spaces(draw, registry):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    instances = [(name, draw(st.sampled_from(sorted(SCHEMAS)))) for name in names]
    assume(math.prod(SCHEMAS[schema] for _, schema in instances) <= 400)
    chains = sorted({c for _, schema in instances for c in CHAINS.get(schema, ())})
    assume(chains)
    pinned = []
    for name, schema in draw(st.lists(st.sampled_from(instances), max_size=3)):
        slot = draw(st.sampled_from(registry.object_schema(schema).qualities))
        value = draw(st.sampled_from(registry.quality(slot.ontology).determinants))
        pinned.append((name, slot.determinable, value))
    order = draw(st.permutations(instances))
    space = StateSpace(tuple(order), tuple(pinned))
    return space, draw(st.sampled_from(chains)), draw(st.sampled_from(chains))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_sweep_agrees_with_per_state_rebuild(registry, data):
    space, chain_a, chain_b = data.draw(spaces(registry))
    expected = _outcome(oracle, registry, chain_a, chain_b, space)
    got, cyclic = cyclic_garbage(
        lambda: _outcome(check_equivalence, registry, chain_a, chain_b, space))
    assert got == expected
    # A check frees its world by reference counting alone, whether it returns or raises.
    assert cyclic == 0, f"{cyclic} cyclic objects"


def test_counterexample_on_a_mixed_space_matches_the_oracle(registry):
    space = StateSpace(
        (("lamp.b", "Region"), ("c", "Clock"), ("a-b", "CeladonDropper"),
         ("a", "TrafficLight")),
        pinned=(("a-b", "shape", "duck"),),
    )
    result = check_equivalence(registry, "cycle", "go_yellow", space)
    assert not result.equivalent
    assert result == oracle(registry, "cycle", "go_yellow", space)


# --- errors -----------------------------------------------------------------------------------


def test_too_large_space_raises_before_any_spawn(registry, monkeypatch):
    def no_spawn(*args, **kwargs):
        raise AssertionError("spawned before the bound check")

    monkeypatch.setattr(Microworld, "spawn", no_spawn)
    space = StateSpace((("a", "TrafficLight"), ("b", "TrafficLight")))
    with pytest.raises(StateSpaceTooLargeError):
        check_equivalence(registry, "cycle", "go_yellow", space, state_bound=8)


def test_nonterminating_chain_still_raised():
    looping = compile_ok(
        {
            "m": (
                "quality color { red, green }\n"
                "object Light { quality color: color required }\n"
                "transitional touch on Light {\n"
                "  require color(bearer, red)\n"
                "  create color(bearer, red)\n"
                "}\n"
                "chain procedure spin { while color(?x, red) { do touch } }\n"
            )
        }
    ).registry
    space = StateSpace((("b", "Light"), ("a", "Light")))
    expected = _outcome(oracle, looping, "spin", "spin", space, loop_cap=20)
    assert expected[0] is NonterminatingChainError
    got, cyclic = cyclic_garbage(
        lambda: _outcome(check_equivalence, looping, "spin", "spin", space, loop_cap=20))
    assert got == expected
    assert cyclic == 0, f"{cyclic} cyclic objects"


def test_duplicate_instance_name_raises(registry):
    space = StateSpace((("a", "TrafficLight"), ("a", "TrafficLight")))
    with pytest.raises(DuplicateNameError):
        check_equivalence(registry, "cycle", "go_yellow", space)
