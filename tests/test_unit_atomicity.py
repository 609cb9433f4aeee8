"""Every world unit is atomic, as a property over random unit sequences.

A unit that raises an ``XfoError``, blocks or is a no-op leaves the world's
fingerprint, clock and timeline length as they were; an applied unit
advances the clock by one tick. No instance, triple or event ever carries a
tick later than the clock, and the timeline's ticks never decrease. Units
run on the corpus kinds and on a small guild model whose link relations are
narrower than the slots they join. The generator mostly draws valid
arguments, so binds, part-tree spawns and applies each apply many times.
"""

from collections import Counter

from conftest import load_corpus_modules
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compile_ok

from xfo import compile_modules
from xfo.errors import XfoError
from xfo.microworld import Microworld
from xfo.registry import BUILTIN_PREDICATES
from xfo.transitions import AppliedTransition

GUILD = """
object Person { }
object Master : Person { }
relation trains(Master, Person)
aggregate Guild {
  member lead: Person
  member aide: Person
  link trains(lead, aide)
}
aggregate Duo {
  member solo: Person
  link trains(solo, solo)
}
"""

REGISTRIES = (
    compile_modules(load_corpus_modules()).registry,
    compile_ok({"guild": GUILD}).registry,
)

# Named ids, including a Clock's part id, so spawns collide with taken ids.
IDS = ("a", "b", "c", "c.main_gear", "c.mainspring", "g", "ghost")
PROCESSES = ("work", "rest")


def _rarely(draw) -> bool:
    """True for one draw in eight. Shrinking heads for False, the likely choice."""
    return draw(st.integers(0, 7)) == 7


def _pick(draw, likely, other=IDS):
    """Mostly one of ``likely``, sometimes one of ``other``."""
    if likely and not _rarely(draw):
        return draw(st.sampled_from(sorted(likely)))
    return draw(st.sampled_from(other))


def _instance(world, draw):
    return _pick(draw, [record.id for record in world.store.instances()])


def _member(world, draw, aggregate):
    """A slot of ``aggregate`` and a member for it, mostly one of its kind."""
    slot = _pick(draw, [m.slot for m in aggregate.members], ("bogus",))
    declared = aggregate.member(slot)
    kind = declared.schema if declared is not None else "Entity"
    return slot, _pick(draw, world.store.alive_of_kind(kind), IDS)


def _triple(world, draw):
    registry = world.registry
    predicates = sorted(
        {r.name for r in registry.relations()}
        | {q.determinable for o in registry.objects() for q in o.qualities}
        | set(BUILTIN_PREDICATES) | {"undeclared"}
    )
    values = sorted({v for q in registry.qualities() for v in q.determinants} | {"garage"})
    obj = draw(st.sampled_from(values) | st.just(_instance(world, draw)))
    return _instance(world, draw), draw(st.sampled_from(predicates)), obj


def spawn(world, draw):
    registry = world.registry
    # Mostly a kind that makes a part tree, fills a slot or bears a transitional.
    acted_on = {m.schema for a in registry.aggregates() for m in a.members}
    acted_on |= {t.bearer_kind for t in registry.transitionals()}
    names = [o.name for o in registry.objects()]
    likely = [o.name for o in registry.objects() if o.parts or o.name in acted_on]
    name = _pick(draw, likely, names + [next(registry.aggregates()).name, "Nope"])
    determinants = {}
    schema = registry.object_schema(name)
    for slot in schema.qualities if schema is not None else ():
        if not _rarely(draw):  # rarely left out, rarely a bad value
            values = registry.quality(slot.ontology).determinants
            determinants[slot.determinable] = "x" if _rarely(draw) else draw(st.sampled_from(values))
    if _rarely(draw):
        determinants["bogus"] = "x"
    location = draw(st.sampled_from((None, None, "garage")))
    world.spawn(name, determinants, location=location,
                instance_id=draw(st.none() | st.sampled_from(IDS)))
    return True


def instantiate(world, draw):
    aggregates = {a.name: a for a in world.registry.aggregates()}
    with_members = [name for name, a in aggregates.items()
                    if any(world.store.alive_of_kind(m.schema) for m in a.members)]
    aggregate = aggregates[_pick(draw, with_members, sorted(aggregates))]
    slot, member = _member(world, draw, aggregate)
    name = _pick(draw, [aggregate.name], ("Person",))
    world.instantiate_aggregate(name, member, slot,
                                instance_id=draw(st.none() | st.sampled_from(IDS)))
    return True


def bind(world, draw):
    store = world.store
    aggregates = [r for r in store.instances() if r.slots is not None]
    instance_id = _pick(draw, [r.id for r in aggregates if r.alive],
                        [r.id for r in aggregates] + list(IDS))
    schema = store.instance(instance_id).schema if store.has_instance(instance_id) else None
    aggregate = world.registry.aggregate(schema) or next(world.registry.aggregates())
    world.bind_member(instance_id, *_member(world, draw, aggregate))
    return True


def assert_relation(world, draw):
    return world.assert_relation(*_triple(world, draw))


def retract(world, draw):
    live = sorted(world.store.live_set())
    if live and draw(st.booleans()):
        world.retract_relation(*draw(st.sampled_from(live)))
    else:
        world.retract_relation(*_triple(world, draw))
    return True


def apply(world, draw):
    alive_of_kind = world.store.alive_of_kind
    transitionals = {t.name: t.bearer_kind for t in world.registry.transitionals()}
    name = _pick(draw, [t for t, kind in transitionals.items() if alive_of_kind(kind)],
                 ("missing",))
    bearers = alive_of_kind(transitionals[name]) if name in transitionals else ()
    result = world.apply(name, _pick(draw, bearers, IDS))
    return isinstance(result, AppliedTransition)


def destroy(world, draw):
    world.destroy(_instance(world, draw))
    return True


def begin_process(world, draw):
    participants = draw(st.lists(st.just(_instance(world, draw)), max_size=2))
    world.begin_process(draw(st.sampled_from(PROCESSES)), participants)
    return True


def end_process(world, draw):
    world.end_process(draw(st.sampled_from(PROCESSES)))
    return True


# Spawns, aggregate units and applies are listed twice: most units need what
# spawns set up, and binds and applies need more than one earlier unit.
UNITS = (spawn, spawn, instantiate, instantiate, bind, bind, assert_relation, retract, apply,
         apply, destroy, begin_process, end_process)


def _unit(world, draw):
    """Mostly a spawn while the world has few alive instances, then any unit."""
    if len(world.store.alive_of_kind("Entity")) < 6 and not _rarely(draw):
        return spawn
    return draw(st.sampled_from(UNITS))


def _state(world):
    return world.fingerprint(), world.clock, len(world.events)


def _latest_tick(world):
    store = world.store
    ticks = [t for r in store.records for t in (r.asserted_at, r.retracted_at) if t is not None]
    ticks += [t for r in store.instances() for t in (r.created_at, r.destroyed_at)
              if t is not None]
    ticks += [e.tick for e in world.events]
    ticks += [e.edit("end") for e in world.events if e.edit("end") is not None]
    return max(ticks, default=0)


def test_every_unit_is_atomic():
    returned = Counter()  # units that did not raise, and part-tree spawns

    # Derandomized, so the 200 examples and the counts below are the same on every run.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), registry=st.sampled_from(REGISTRIES), length=st.integers(1, 30),
           seed=st.none() | st.integers(0, 3))
    def check(data, registry, length, seed):
        world = Microworld(registry, seed=seed)
        for _ in range(length):
            unit = _unit(world, data.draw)
            before = _state(world)
            try:
                applied = unit(world, data.draw)
                returned[unit.__name__] += 1
            except XfoError:
                applied = False
            if applied:
                assert world.clock == before[1] + 1, unit.__name__
                if unit is spawn and len(world.events) > before[2] + 1:
                    returned["part tree"] += 1
            else:
                assert _state(world) == before, unit.__name__
            assert _latest_tick(world) <= world.clock, unit.__name__
            ticks = [event.tick for event in world.events]
            assert ticks == sorted(ticks), unit.__name__

    check()
    for unit in ("bind", "part tree", "apply"):
        assert returned[unit] >= 10, dict(returned)
