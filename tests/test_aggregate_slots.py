"""An aggregate's slots are the one record of its membership.

Random spawns, instantiations, bindings, rebindings and destructions of
members and of aggregates run on the guild model (one link is narrower than
the slots it joins, one joins a slot to itself) and on the corpus orchestra,
mixed with direct ``member_of`` assertions and retractions, which must raise
and change nothing. After every unit, the live ``member_of`` and link triples
are exactly those the live aggregates' slots imply, so destroying or
rebinding never leaves a triple behind.
"""

import pytest
from helpers import count_calls, world_from
from hypothesis import given, settings
from hypothesis import strategies as st
from test_unit_atomicity import REGISTRIES

from xfo import transitions
from xfo.errors import SlotTypeMismatchError, XfoError
from xfo.microworld import Microworld
from xfo.relations import MEMBER_OF, RelationStore, _slot_triples
from xfo.schemas import Edit, Pattern, TransitionalSchema, const, var

CORPUS, GUILD = REGISTRIES
# (registry, the aggregates units instantiate, the kinds spawns make)
MODELS = ((GUILD, ("Guild", "Duo"), ("Person", "Master")), (CORPUS, ("Orchestra",), ("Musician",)))


def _implied(world):
    """The union of the triples the live aggregates' slots imply."""
    registry = world.registry
    return {
        key
        for record in world.store.instances() if record.alive and record.slots is not None
        for key in _slot_triples(registry.aggregate(record.schema), record.id, record.slots)
    }


def _joined(world):
    """The live member_of and link triples."""
    links = {link.relation for a in world.registry.aggregates() for link in a.links}
    return {key for key in world.store.live_set() if key[1] == MEMBER_OF or key[1] in links}


def _aggregates(world, alive=True):
    return [r for r in world.store.instances() if r.slots is not None and r.alive == alive]


def _direct_edit(world, draw, create):
    """A direct member_of edit: it raises and leaves the world as it was."""
    ids = [r.id for r in world.store.instances()]
    live = sorted(key for key in world.store.live_set() if key[1] == MEMBER_OF)
    if create or not live:
        edit, key = world.assert_relation, (draw(st.sampled_from(ids)), MEMBER_OF,
                                            draw(st.sampled_from(ids)))
    else:
        edit, key = world.retract_relation, draw(st.sampled_from(live))
    before = (world.fingerprint(), world.clock, list(world.events))
    with pytest.raises(SlotTypeMismatchError, match="'member_of' is written only by aggregate"):
        edit(*key)
    assert (world.fingerprint(), world.clock, list(world.events)) == before


def _unit(world, draw, aggregates, kinds):
    registry, store = world.registry, world.store
    members = [i for kind in kinds for i in store.alive_of_kind(kind)
               if store.instance(i).schema == kind]
    op = draw(st.sampled_from(("spawn", "instantiate", "bind", "rebind", "destroy member",
                               "destroy aggregate", "assert member_of", "retract member_of")))
    if op == "spawn" or not members:
        world.spawn(draw(st.sampled_from(kinds)))
    elif op.endswith("member_of"):
        _direct_edit(world, draw, op == "assert member_of")
    elif op == "instantiate":
        aggregate = registry.aggregate(draw(st.sampled_from(aggregates)))
        slot = draw(st.sampled_from(aggregate.members)).slot
        world.instantiate_aggregate(aggregate.name, draw(st.sampled_from(members)), slot)
    elif op in ("bind", "rebind"):
        # Now and then into a destroyed aggregate, which must be rejected.
        records = _aggregates(world, alive=draw(st.integers(0, 7)) != 7) or _aggregates(world)
        if records:
            record = draw(st.sampled_from(records))
            bound = [s for s, m in record.slots.items() if m is not None]
            slots = bound if op == "rebind" and bound else list(record.slots)
            world.bind_member(record.id, draw(st.sampled_from(slots)),
                              draw(st.sampled_from(members)))
    elif op == "destroy member":
        world.destroy(draw(st.sampled_from(members)))
    elif records := _aggregates(world):
        world.destroy(draw(st.sampled_from(records)).id)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), model=st.sampled_from(MODELS), length=st.integers(1, 30))
def test_live_membership_is_what_the_slots_imply(data, model, length):
    registry, aggregates, kinds = model
    world = Microworld(registry)
    for _ in range(length):
        try:
            _unit(world, data.draw, aggregates, kinds)
        except XfoError:
            pass
        assert _joined(world) == _implied(world)


def test_destroying_an_aggregate_retracts_its_links(corpus):
    world = world_from(corpus, "workshop")
    world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id="o")
    world.bind_member("o", "conductor", "maestro")
    world.destroy("o")
    assert _joined(world) == set()
    assert {member for _, member in world.store.aggregate_view("o").slots} == {None}


def test_a_link_another_live_aggregate_implies_outlives_a_destroyed_one(corpus):
    world = world_from(corpus, "workshop")
    for orchestra in ("o1", "o2"):
        world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id=orchestra)
        world.bind_member(orchestra, "conductor", "maestro")
    world.destroy("o1")
    assert _joined(world) == {("violinist", MEMBER_OF, "o2"), ("maestro", MEMBER_OF, "o2"),
                              ("violinist", "performs_with", "maestro")}
    world.destroy("o2")
    assert _joined(world) == set()


def test_a_rebind_retracts_the_links_through_the_slot_though_the_old_member_stays():
    world = Microworld(GUILD)
    world.spawn("Master", instance_id="m")
    world.spawn("Person", instance_id="p")
    world.instantiate_aggregate("Guild", "m", "lead", instance_id="g")
    world.bind_member("g", "aide", "m")
    assert _joined(world) == {("m", MEMBER_OF, "g"), ("m", "trains", "m")}
    world.bind_member("g", "aide", "p")
    assert _joined(world) == {("m", MEMBER_OF, "g"), ("p", MEMBER_OF, "g"), ("m", "trains", "p")}


def test_a_shared_link_outlives_a_destroyed_orchestra_whatever_is_edited_directly(corpus):
    world = world_from(corpus, "workshop")
    for orchestra in ("o1", "o2"):
        world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id=orchestra)
        world.bind_member(orchestra, "conductor", "maestro")
    # Unbinding o2's members behind its slots' back would orphan the link o2 implies.
    for member in ("violinist", "maestro"):
        with pytest.raises(SlotTypeMismatchError):
            world.retract_relation(member, MEMBER_OF, "o2")
    world.destroy("o1")
    assert ("violinist", "performs_with", "maestro") in world.store
    assert dict(world.store.aggregate_view("o2").slots)["strings"] == "violinist"
    assert _joined(world) == _implied(world)


def test_destroying_a_member_reads_its_holders_without_listing_live_aggregates(
        corpus, monkeypatch):
    world = world_from(corpus, "workshop")
    for orchestra in ("o1", "o2"):
        world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id=orchestra)
    world.bind_member("o2", "conductor", "maestro")
    calls = count_calls(monkeypatch, RelationStore, "alive_of_kind")
    world.destroy("violinist")
    assert calls == []
    assert {member for _, member in world.store.aggregate_view("o1").slots} == {None}
    assert dict(world.store.aggregate_view("o2").slots)["conductor"] == "maestro"
    assert _joined(world) == _implied(world) == {("maestro", MEMBER_OF, "o2")}


def test_a_transitional_that_edits_member_of_blocks_with_the_store_unchanged():
    world = Microworld(GUILD)
    world.spawn("Person", instance_id="p")
    world.instantiate_aggregate("Guild", "p", "aide", instance_id="g")
    world.spawn("Person", instance_id="q")
    for op, subject in (("delete", var("bearer")), ("create", const("q"))):
        transitional = TransitionalSchema("edit", "Person", (), (
            Edit(op, Pattern(MEMBER_OF, subject, const("g"))),))
        before = world.store.fingerprint()
        result = transitions.apply_transitional(world.store, transitional, "p", world.clock + 1)
        assert result == transitions.BlockedTransition(
            "edit", "p", None, "'member_of' is written only by aggregate slots")
        assert world.store.fingerprint() == before
