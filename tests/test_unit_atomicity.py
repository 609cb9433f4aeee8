"""Every world unit is atomic, as a property over random unit sequences.

A unit that raises an ``XfoError``, blocks or is a no-op leaves the world's
fingerprint, clock and timeline length as they were; an applied unit
advances the clock by one tick. No instance, triple or event ever carries a
tick later than the clock. Units run on the corpus kinds and on a small
guild model whose link relations are narrower than the slots they join.
"""

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


def _pick(draw, likely, other=IDS):
    """Mostly one of ``likely``, sometimes one of ``other``."""
    if likely and draw(st.integers(0, 3)):
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
    names = sorted(o.name for o in registry.objects())
    name = draw(st.sampled_from(names + [next(registry.aggregates()).name, "Nope"]))
    determinants = {}
    schema = registry.object_schema(name)
    for slot in schema.qualities if schema is not None else ():
        choice = draw(st.integers(0, 4))  # 0 leaves it out, 1 gives a bad value
        if choice:
            values = registry.quality(slot.ontology).determinants
            determinants[slot.determinable] = draw(st.sampled_from(values)) if choice > 1 else "x"
    if draw(st.integers(0, 9)) == 0:
        determinants["bogus"] = "x"
    location = draw(st.sampled_from((None, None, "garage")))
    world.spawn(name, determinants, location=location,
                instance_id=draw(st.none() | st.sampled_from(IDS)))
    return True


def instantiate(world, draw):
    aggregate = draw(st.sampled_from(list(world.registry.aggregates())))
    slot, member = _member(world, draw, aggregate)
    name = _pick(draw, [aggregate.name], ("Person",))
    world.instantiate_aggregate(name, member, slot,
                                instance_id=draw(st.none() | st.sampled_from(IDS)))
    return True


def bind(world, draw):
    store = world.store
    instance_id = _pick(draw, [r.id for r in store.instances() if r.slots is not None])
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
    transitionals = {t.name: t.bearer_kind for t in world.registry.transitionals()}
    name = _pick(draw, transitionals, ("missing",))
    bearers = world.store.alive_of_kind(transitionals[name]) if name in transitionals else ()
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


# Spawns are listed twice so that worlds fill up before other units run.
UNITS = (spawn, spawn, instantiate, bind, assert_relation, retract, apply, destroy,
         begin_process, end_process)


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), registry=st.sampled_from(REGISTRIES), length=st.integers(1, 30),
       seed=st.none() | st.integers(0, 3))
def test_every_unit_is_atomic(data, registry, length, seed):
    world = Microworld(registry, seed=seed)
    for _ in range(length):
        unit = data.draw(st.sampled_from(UNITS))
        before = _state(world)
        try:
            applied = unit(world, data.draw)
        except XfoError:
            applied = False
        if applied:
            assert world.clock == before[1] + 1, unit.__name__
        else:
            assert _state(world) == before, unit.__name__
        assert _latest_tick(world) <= world.clock, unit.__name__
