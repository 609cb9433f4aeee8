import itertools

import pytest

from xfo import StateSpace, check_equivalence, instantiate_chain
from xfo.errors import NonterminatingChainError, StateSpaceTooLargeError, XfoError
from xfo.microworld import Microworld, run

SPACE = StateSpace((("light", "TrafficLight"),))


# --- independent trace-replay oracle --------------------------------------------------
#
# Enumerates the same spaces on its own (no reuse of equivalence internals)
# and compares full applied-transition traces instead of final states.
# Trace equality implies state equality, not the reverse; the reordered-edit
# pair below is exactly a case where state-equal differs from trace-equal.


def _enumerate_assignments(registry, space):
    axes = []
    for name, schema_name in sorted(space.instances):
        schema = registry.object_schema(schema_name)
        for slot in schema.qualities:
            ontology = registry.quality(slot.ontology)
            axes.append(((name, slot.determinable), ontology.determinants))
    for combo in itertools.product(*[values for _, values in axes]):
        yield dict(zip([key for key, _ in axes], combo))


def _trace(registry, chain_name, space, assignment):
    world = Microworld(registry, name="oracle")
    for name, schema_name in space.instances:
        determinants = {
            det: value for (inst, det), value in assignment.items() if inst == name
        }
        world.spawn(schema_name, determinants, instance_id=name)
    chain = instantiate_chain(world, chain_name, {n: n for n, _ in space.instances})
    outcome = run(world, chain, max_ticks=10**6)
    applied = tuple(
        (record.transitional, record.deletes, record.creates) for record in chain.log
    )
    return outcome.status, applied


def trace_replay_verdict(registry, chain_a, chain_b, space):
    for assignment in _enumerate_assignments(registry, space):
        if _trace(registry, chain_a, space, assignment) != _trace(
            registry, chain_b, space, assignment
        ):
            return False, assignment
    return True, None


# --- tests -----------------------------------------------------------------------------


def test_reordered_edits_equivalent(registry):
    result = check_equivalence(registry, "cycle", "go_green_swapped", SPACE)
    assert result.equivalent
    assert result.states_checked == 3


def test_green_vs_yellow_counterexample(registry):
    result = check_equivalence(registry, "cycle", "go_yellow", SPACE)
    assert not result.equivalent
    assert result.counterexample == (("light.color", "red"),)


def test_reflexive(registry):
    for chain in ("cycle", "go_yellow", "go_green_swapped", "pottery"):
        space = (
            SPACE
            if chain != "pottery"
            else StateSpace((("dropper", "CeladonDropper"),))
        )
        result = check_equivalence(registry, chain, chain, space)
        assert result.equivalent, chain


def test_symmetric_on_tested_pairs(registry):
    pairs = [
        ("cycle", "go_green_swapped"),
        ("cycle", "go_yellow"),
        ("go_yellow", "go_green_swapped"),
    ]
    for a, b in pairs:
        forward = check_equivalence(registry, a, b, SPACE)
        backward = check_equivalence(registry, b, a, SPACE)
        assert forward.equivalent == backward.equivalent, (a, b)


def test_agrees_with_trace_oracle_on_small_spaces(registry):
    # Wherever traces agree the checker must report equivalence; a state-level
    # counterexample must also break trace equality.
    pairs = [
        ("cycle", "cycle"),
        ("cycle", "go_yellow"),
        ("go_yellow", "go_yellow"),
        ("go_green_swapped", "go_green_swapped"),
    ]
    for a, b in pairs:
        trace_equal, _ = trace_replay_verdict(registry, a, b, SPACE)
        state_equal = check_equivalence(registry, a, b, SPACE).equivalent
        if trace_equal:
            assert state_equal, (a, b)
        if not state_equal:
            assert not trace_equal, (a, b)


def test_trace_equal_differs_from_state_equal_on_reordered_pair(registry):
    # The reordered-edit chains are functionally equivalent (final states
    # match everywhere) yet their traces name different transitionals, so the
    # trace oracle distinguishes them. This is the documented divergence
    # between trace equality and the state equality the checker decides.
    state_equal = check_equivalence(registry, "cycle", "go_green_swapped", SPACE)
    assert state_equal.equivalent
    trace_equal, witness = trace_replay_verdict(
        registry, "cycle", "go_green_swapped", SPACE
    )
    assert not trace_equal
    assert witness == {("light", "color"): "red"}


def test_state_space_too_large(registry):
    with pytest.raises(StateSpaceTooLargeError):
        check_equivalence(registry, "cycle", "go_yellow", SPACE, state_bound=2)


def test_nonterminating_chain_detected():
    from helpers import compile_ok

    looping = compile_ok(
        {
            "m": (
                "quality color { red, green }\n"
                "object Light { quality color: color required }\n"
                "transitional touch on Light {\n"
                "  require color(bearer, red)\n"
                "  create color(bearer, red)\n"
                "}\n"
                "transitional go on Light {\n"
                "  require color(bearer, red)\n"
                "  delete color(bearer, red)\n"
                "  create color(bearer, green)\n"
                "}\n"
                "chain procedure spin { while color(?x, red) { do touch } }\n"
                "chain sequence went { do go }\n"
            )
        }
    )
    space = StateSpace((("light", "Light"),))
    with pytest.raises(NonterminatingChainError):
        check_equivalence(looping.registry, "spin", "went", space, loop_cap=20)


def test_multi_instance_space(registry):
    # Two lights: 3 x 3 = 9 initial stores; a chain bound to one light leaves
    # the other untouched, so cycle-vs-cycle stays equivalent.
    space = StateSpace((("a", "TrafficLight"), ("b", "TrafficLight")))
    result = check_equivalence(registry, "cycle", "cycle", space)
    assert result.equivalent
    assert result.states_checked == 9


def test_pinned_axis_restricts_enumeration(registry):
    space = StateSpace(
        (("light", "TrafficLight"),), pinned=(("light", "color", "red"),)
    )
    result = check_equivalence(registry, "cycle", "go_yellow", space)
    assert not result.equivalent
    assert result.states_checked == 1


@pytest.mark.parametrize("pin, message", [
    (("b", "color", "red"), "pin b.color=red: 'b' is not an instance of the space"),
    (("a", "colour", "red"),
     "pin a.colour=red: 'TrafficLight' declares no determinable 'colour'"),
], ids=["instance", "determinable"])
def test_a_pin_that_fixes_no_axis_is_an_error(registry, pin, message):
    space = StateSpace((("a", "TrafficLight"),), (pin,))
    with pytest.raises(XfoError) as excinfo:
        check_equivalence(registry, "cycle", "go_yellow", space)
    assert str(excinfo.value) == message
