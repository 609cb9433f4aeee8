"""``Microworld.mark``/``rewind`` as a property over random unit sequences.

Units run on seeded and unseeded worlds under nested marks. They are drawn
from a seeded generator that mostly picks valid arguments, so most of them
apply: spawns with drawn ids and part trees, applies with their disposition
cascades, assertions and retractions, destructions, aggregate instantiations
and (re)bindings, process boundaries, interaction rules and part links.
Rewinding a mark restores the fingerprint, the clock, the timeline length,
the live triples, the rules, the id the world draws next and what destroying
every instance would do. Replaying the units rewound gives the same
fingerprint again, with the trail open and, once the first mark is rewound
and the trail closes, without it.
"""

import random

import pytest
from helpers import world_from
from hypothesis import given, settings
from hypothesis import strategies as st
from test_unit_atomicity import REGISTRIES

from xfo import StateSpace, check_equivalence
from xfo.errors import XfoError
from xfo.microworld import Microworld
from xfo.relations import RelationStore


def _alive(world, rng, kind="Entity"):
    ids = world.store.alive_of_kind(kind)
    return rng.choice(ids) if ids and rng.random() < 0.9 else "ghost"


def spawn(world, rng):
    registry = world.registry
    names = sorted(o.name for o in registry.objects()
                   if registry.is_independent_continuant_kind(o.name))
    schema = registry.object_schema(rng.choice(names))
    determinants = {
        slot.determinable: rng.choice(registry.quality(slot.ontology).determinants)
        for slot in schema.qualities if slot.required or rng.random() < 0.5
    }
    world.spawn(schema.name, determinants, location=rng.choice((None, "garage")),
                instance_id=rng.choice((None, None, None, "a", "c")))


def apply(world, rng):
    transitionals = sorted((t for t in world.registry.transitionals()
                            if world.store.alive_of_kind(t.bearer_kind)), key=lambda t: t.name)
    if transitionals:
        transitional = rng.choice(transitionals)
        world.apply(transitional.name, _alive(world, rng, transitional.bearer_kind))
        world.fire_dispositions()


def assert_or_retract(world, rng):
    live = sorted(world.store.live_set())
    relations = sorted(world.registry.relations(), key=lambda r: r.name)
    if live and (rng.random() < 0.5 or not relations):
        world.retract_relation(*rng.choice(live))
    else:
        relation = rng.choice(relations)
        world.assert_relation(_alive(world, rng, relation.subject_kind), relation.name,
                              _alive(world, rng, relation.object_kind))


def destroy(world, rng):
    world.destroy(_alive(world, rng))


def instantiate(world, rng):
    aggregate = rng.choice(sorted(world.registry.aggregates(), key=lambda a: a.name))
    member = rng.choice(aggregate.members)
    world.instantiate_aggregate(aggregate.name, _alive(world, rng, member.schema), member.slot,
                                instance_id=rng.choice((None, None, "o")))


def bind(world, rng):
    aggregates = sorted(r.id for r in world.store.instances() if r.slots is not None)
    if aggregates:
        record = world.store.instance(rng.choice(aggregates))
        member = rng.choice(world.registry.aggregate(record.schema).members)
        world.bind_member(record.id, member.slot, _alive(world, rng, member.schema))


def process(world, rng):
    name = rng.choice(("work", "rest"))
    if rng.random() < 0.5:
        world.begin_process(name, [_alive(world, rng)])
    else:
        world.end_process(name)


def rule_or_link(world, rng):
    if rng.random() < 0.5:
        kind = rng.choice(sorted(o.name for o in world.registry.objects()))
        world.add_interaction_rule((kind,), None, "missing")
    else:
        world.store.link_part(_alive(world, rng), _alive(world, rng),
                              rng.choice(("composition", "containment")), world.clock)


UNITS = (spawn, spawn, spawn, apply, apply, assert_or_retract, destroy, instantiate, bind,
         bind, process, rule_or_link)


def _run(world, seed, length):
    rng = random.Random(seed)
    for _ in range(length):
        try:
            rng.choice(UNITS)(world, rng)
        except XfoError:
            pass


def _observe(world):
    """What rewind must restore. Destroying every instance of a copy probes
    the state the fingerprint leaves out: indexes, slot refs, link kinds."""
    probe = world.clone()
    drawn = probe.new_id("Probe")
    for record in probe.store.instances():
        if record.alive:
            probe.destroy(record.id)
    return (world.fingerprint(), world.clock, len(world.events), len(world.rules),
            world.store.live_set(), drawn, probe.fingerprint())


@settings(max_examples=200, deadline=None)
@given(registry=st.sampled_from(REGISTRIES), seed=st.none() | st.integers(0, 3),
       units=st.integers(0, 2**32 - 1), prefix=st.integers(0, 30),
       levels=st.lists(st.integers(0, 15), min_size=1, max_size=3))
def test_rewind_restores_every_nested_mark(registry, seed, units, prefix, levels):
    world = Microworld(registry, seed=seed)
    _run(world, units, prefix)
    marks = []
    for depth, length in enumerate(levels):
        marks.append((world.mark(), _observe(world)))
        _run(world, f"{units}-{depth}", length)
    final = world.fingerprint()

    for depth in reversed(range(len(levels))):
        mark, state = marks[depth]
        world.rewind(mark)
        assert _observe(world) == state
        for later in range(depth, len(levels)):
            _run(world, f"{units}-{later}", levels[later])
        assert world.fingerprint() == final
        if depth:
            world.rewind(mark)
            assert _observe(world) == state
    assert world.store.trail is None


def test_rewind_restores_rebound_and_vacated_slots(corpus):
    world = world_from(corpus, "workshop")
    world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id="o")
    before = _observe(world)
    mark = world.mark()
    world.bind_member("o", "conductor", "maestro")
    world.bind_member("o", "strings", "trumpeter")
    world.destroy("maestro")
    world.instantiate_aggregate("Orchestra", "timpanist", "brass")
    world.rewind(mark)
    assert _observe(world) == before


def test_rewind_reopens_the_intervals_ended_since_the_mark(corpus):
    world = world_from(corpus, "workshop")
    first = world.begin_process("rehearsal", ["violinist"])
    second = world.begin_process("rehearsal", ["maestro"])
    before = _observe(world)
    mark = world.mark()
    assert world.end_process("rehearsal") == first
    third = world.begin_process("rehearsal", ["violinist"])
    assert world.end_process("rehearsal", ["violinist"]) == third
    world.rewind(mark)
    assert _observe(world) == before
    assert world.end_process("rehearsal", ["maestro"]) == second
    assert world.end_process("rehearsal") == first
    with pytest.raises(XfoError, match="no open interval"):
        world.end_process("rehearsal")


def test_rewind_without_an_open_mark_raises(corpus):
    world = Microworld(corpus.registry)
    mark = world.mark()
    world.rewind(mark)
    with pytest.raises(XfoError, match="no open mark"):
        world.rewind(mark)


def test_the_sweep_copies_no_world(corpus, monkeypatch):
    def refuse(self):
        raise AssertionError("clone called")

    monkeypatch.setattr(Microworld, "clone", refuse)
    monkeypatch.setattr(RelationStore, "clone", refuse)
    space = StateSpace((("a", "TrafficLight"), ("b", "TrafficLight")))
    assert check_equivalence(corpus.registry, "cycle", "go_yellow", space).states_checked == 7
