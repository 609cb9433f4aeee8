"""Differential test of the relation store's indexes.

Random spawn / assert / retract / apply / destroy sequences run on corpus
kinds. After every step, the indexed answers must equal a brute-force oracle
that reads nothing but ``store.records`` and the instance table. At the end,
with and without a mark open, the store's clone must equal it and be
independent of it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfo.errors import FunctionalConflictError, SlotTypeMismatchError, XfoError
from xfo.microworld import Microworld
from xfo.schemas import VAR, Pattern, const, var

SPAWNABLE = {
    "TrafficLight": ("color", ("green", "yellow", "red")),
    "Windshield": ("condition", ("intact", "broken")),
    "Clock": ("tension", ("wound", "unwound")),
    "Sledgehammer": None,
    "Musician": None,
}
PREDICATES = (
    "color", "condition", "tension", "struck_by", "performs_with",
    "part_of", "member_of", "located_in",
)
KINDS = (
    "TrafficLight", "Windshield", "Clock", "Gear", "Spring", "Musician",
    "Orchestra", "ObjectAggregate", "Object", "MaterialEntity", "Entity",
)
TRANSITIONALS = ("turn_green", "turn_yellow", "swap_to_green", "shatter", "run_down")
SLOTS = ("strings", "brass", "percussion", "conductor")
OPAQUE = ("garage", "green", "intact", "wound")


# --- the oracle ------------------------------------------------------------------


def _oracle_match(term, value, result):
    if term.kind == VAR:
        if term.value in result:
            return result[term.value] == value
        result[term.value] = value
        return True
    return term.value == value


def oracle_query(store, pattern, at=None, bindings=None):
    seed = dict(bindings or {})
    rows = []
    live = [t for t in store.records if t.predicate == pattern.predicate and t.live_at(at)]
    for triple in sorted(live, key=lambda t: (t.subject, t.object)):
        result = dict(seed)
        if _oracle_match(pattern.subject, triple.subject, result) and _oracle_match(
            pattern.object, triple.object, result
        ):
            rows.append(result)
    return rows


def oracle_live(store):
    return {(t.subject, t.predicate, t.object) for t in store.records if t.retracted_at is None}


def oracle_live_triples(store):
    return tuple(t for t in store.records if t.live_at(None))


def oracle_alive_of_kind(store, kind):
    return tuple(
        sorted(
            r.id for r in store.instances() if r.alive and store.registry.is_subkind(r.schema, kind)
        )
    )


def oracle_destroy_order(store, root):
    live = oracle_live(store)
    order, queue = [root], [root]
    while queue:
        whole = queue.pop(0)
        children = sorted(
            s for s, p, o in live
            if p == "part_of" and o == whole and store.linkage(s, whole) == "composition"
        )
        for part in children:
            if part not in order:
                order.append(part)
                queue.append(part)
    return order


# --- the random walk -----------------------------------------------------------------


def _alive(world):
    return sorted(r.id for r in world.store.instances() if r.alive)


def _step(world, data):
    store = world.store
    alive = _alive(world)
    ids = sorted(r.id for r in store.instances())
    op = data.draw(
        st.sampled_from(
            ("spawn", "spawn", "assert", "retract", "apply", "apply", "destroy", "aggregate")
        )
    )
    if op == "spawn" or not alive:
        schema = data.draw(st.sampled_from(sorted(SPAWNABLE)))
        quality = SPAWNABLE[schema]
        determinants = {}
        if quality is not None:
            determinants[quality[0]] = data.draw(st.sampled_from(quality[1]))
        world.spawn(schema, determinants)
    elif op == "assert":
        subject = data.draw(st.sampled_from(ids))
        predicate = data.draw(st.sampled_from(PREDICATES))
        obj = data.draw(st.sampled_from(ids + list(OPAQUE)))
        try:
            world.assert_relation(subject, predicate, obj)
        except XfoError:
            pass
    elif op == "retract":
        live = sorted(oracle_live(store))
        if live:
            key = data.draw(st.sampled_from(live))
            if key[1] != "member_of":
                world.retract_relation(*key)
                return
            # Only aggregate slots write member_of: a direct retraction changes nothing.
            before = (world.fingerprint(), world.clock)
            with pytest.raises(SlotTypeMismatchError, match="'member_of'"):
                world.retract_relation(*key)
            assert (world.fingerprint(), world.clock) == before
    elif op == "apply":
        bearer = data.draw(st.sampled_from(alive))
        try:
            world.apply(data.draw(st.sampled_from(TRANSITIONALS)), bearer)
        except XfoError:
            pass
    elif op == "destroy":
        victim = data.draw(st.sampled_from(alive))
        expected = oracle_destroy_order(store, victim)
        assert world.destroy(victim) == expected
        gone = set(expected)
        assert not any(s in gone or o in gone for s, _, o in oracle_live(store))
        for record in store.instances():
            assert not set((record.slots or {}).values()) & gone
    else:
        musicians = [i for i in alive if store.instance(i).schema == "Musician"]
        orchestras = [i for i in alive if store.instance(i).schema == "Orchestra"]
        if not musicians:
            return
        member = data.draw(st.sampled_from(musicians))
        slot = data.draw(st.sampled_from(SLOTS))
        try:
            if orchestras and data.draw(st.booleans()):
                world.bind_member(data.draw(st.sampled_from(orchestras)), slot, member)
            else:
                world.instantiate_aggregate("Orchestra", member, slot)
        except XfoError:
            pass


def _check(world, data):
    store = world.store
    assert store.live_set() == oracle_live(store)
    ids = sorted(r.id for r in store.instances())
    values = ids + list(OPAQUE)
    for predicate in PREDICATES:
        subject = data.draw(st.sampled_from(values))
        obj = data.draw(st.sampled_from(values))
        at = data.draw(st.integers(0, world.clock))
        patterns = (
            (Pattern(predicate, const(subject), var("o")), None),
            (Pattern(predicate, var("s"), const(obj)), None),
            (Pattern(predicate, const(subject), const(obj)), None),
            (Pattern(predicate, var("s"), var("o")), None),
            (Pattern(predicate, var("s"), var("o")), {"s": subject}),
            (Pattern(predicate, var("s"), var("o")), {"o": obj}),
            (Pattern(predicate, var("x"), var("x")), None),
        )
        for pattern, bindings in patterns:
            for when in (None, at):
                assert store.query(pattern, at=when, bindings=bindings) == oracle_query(
                    store, pattern, when, bindings
                ), (pattern, when, bindings)
    for kind in KINDS:
        assert store.alive_of_kind(kind) == oracle_alive_of_kind(store, kind)

    # The functional-conflict verdict, on an alive instance with a quality.
    candidates = [
        (r.id, SPAWNABLE[r.schema]) for r in store.instances()
        if r.alive and SPAWNABLE.get(r.schema) is not None
    ]
    if candidates:
        subject, (determinable, determinants) = data.draw(st.sampled_from(candidates))
        value = data.draw(st.sampled_from(determinants))
        live = oracle_live(store)
        conflict = any(
            s == subject and p == determinable and o != value for s, p, o in live
        )
        try:
            store.check_assert(subject, determinable, value)
            verdict = False
        except FunctionalConflictError:
            verdict = True
        assert verdict == conflict


def _nonempty(index):
    """``index`` without the emptied predicate maps that its writers leave."""
    return {predicate: inner for predicate, inner in index.items() if inner}


def _check_clone(store, tick):
    """The clone equals the store, shares no mutable part with it, and a
    write to it leaves the store as it was."""
    clone = store.clone()
    assert clone._records == store._records
    assert _nonempty(clone._by_subject) == _nonempty(store._by_subject)
    assert _nonempty(clone._by_object) == _nonempty(store._by_object)
    assert clone._alive == store._alive
    assert clone._instances == store._instances
    assert clone._link_meta == store._link_meta
    assert clone.trail is None
    for instance_id, record in clone._instances.items():
        original = store._instances[instance_id]
        assert record is not original
        assert record.slots is None or record.slots is not original.slots
    for side in (store, clone):
        live = side.live_triples()
        assert live == oracle_live_triples(side)
        assert {(t.subject, t.predicate, t.object) for t in live} == oracle_live(side)

    before = store.fingerprint(), len(store.trail or ())
    for record in clone.instances():
        if record.alive:
            clone.destroy_instance(record.id, tick)
    clone.register_instance("clone-probe", "Musician", tick)
    assert (store.fingerprint(), len(store.trail or ())) == before
    assert clone.live_set() == oracle_live(clone)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_indexed_store_agrees_with_brute_force(corpus, data):
    world = Microworld(corpus.registry)
    for _ in range(data.draw(st.integers(1, 25))):
        _step(world, data)
        _check(world, data)
    clone = world.store.clone()
    assert clone.fingerprint() == world.store.fingerprint()
    for predicate in PREDICATES:
        pattern = Pattern(predicate, var("s"), var("o"))
        assert clone.query(pattern) == oracle_query(world.store, pattern)
    for kind in KINDS:
        assert clone.alive_of_kind(kind) == oracle_alive_of_kind(world.store, kind)
    _check_clone(world.store, world.clock + 1)
    # The same with a mark open: the trail the writes push onto is not copied.
    token = world.mark()
    for _ in range(data.draw(st.integers(0, 5))):
        _step(world, data)
    _check_clone(world.store, world.clock + 1)
    world.rewind(token)
