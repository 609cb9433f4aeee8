import pytest
from helpers import compile_ok, world_from

from xfo import RegistryBuilder
from xfo.errors import (
    AlreadyDestroyedError,
    FunctionalConflictError,
    KindMismatchError,
    NoSuchLiveTripleError,
    SlotTypeMismatchError,
    SubjectDestroyedError,
    UndeclaredPredicateError,
)
from xfo.microworld import Microworld
from xfo.relations import RelationStore
from xfo.schemas import (
    Pattern,
    QualityOntology,
    QualitySlot,
    RealizableSchema,
    RelationSchema,
    ThickObjectSchema,
    const,
    var,
)

TOWN = """
quality color { green, yellow, red }

object Person {
  role Superintendent
}

object TrafficLight {
  quality color: color required
}

relation married_to(Person, Person) relational-quality
"""


@pytest.fixture()
def store():
    result = compile_ok({"town": TOWN})
    store = RelationStore(result.registry)
    store.register_instance("p1", "Person", 1)
    store.register_instance("p2", "Person", 1)
    store.register_instance("light1", "TrafficLight", 1)
    return store


def test_assert_relational_quality(store):
    assert store.assert_relation("p1", "married_to", "p2", 3) is True
    (triple,) = store.live_triples()
    assert (triple.subject, triple.predicate, triple.object) == ("p1", "married_to", "p2")
    assert triple.asserted_at == 3 and triple.retracted_at is None


def test_assert_role_triple(store):
    store.assert_relation("p1", "has_role", "Superintendent", 2)
    assert store.matches(Pattern("has_role", const("p1"), const("Superintendent")))


def test_role_bearer_kind_checked(store):
    with pytest.raises(KindMismatchError):
        store.assert_relation("light1", "has_role", "Superintendent", 2)


def test_out_of_ontology_value_is_kind_mismatch(store):
    with pytest.raises(KindMismatchError):
        store.assert_relation("light1", "color", "blue", 2)


def test_relation_kind_mismatch(store):
    with pytest.raises(KindMismatchError):
        store.assert_relation("p1", "married_to", "light1", 2)


def test_undeclared_predicate(store):
    with pytest.raises(UndeclaredPredicateError):
        store.assert_relation("p1", "owns", "p2", 2)


def test_assert_is_noop_when_live(store):
    store.assert_relation("p1", "married_to", "p2", 3)
    assert store.assert_relation("p1", "married_to", "p2", 9) is False
    assert len(store.records) == 1


def test_subject_destroyed(store):
    store.destroy_instance("p1", 4)
    with pytest.raises(SubjectDestroyedError):
        store.assert_relation("p1", "married_to", "p2", 5)


def test_retraction_preserves_history(store):
    store.assert_relation("light1", "color", "red", 2)
    store.retract_relation("light1", "color", "red", 5)
    (record,) = store.records
    assert record.asserted_at == 2
    assert record.retracted_at == 5
    assert store.live_triples() == ()


def test_double_retract_raises(store):
    store.assert_relation("light1", "color", "red", 2)
    store.retract_relation("light1", "color", "red", 5)
    with pytest.raises(NoSuchLiveTripleError):
        store.retract_relation("light1", "color", "red", 6)


def test_retract_never_asserted_raises(store):
    with pytest.raises(NoSuchLiveTripleError):
        store.retract_relation("light1", "color", "red", 5)


def test_functional_conflict_rejected(store):
    store.assert_relation("light1", "color", "red", 2)
    with pytest.raises(FunctionalConflictError):
        store.assert_relation("light1", "color", "green", 3)


def test_query_after_color_move(store):
    store.assert_relation("light1", "color", "red", 2)
    store.retract_relation("light1", "color", "red", 5)
    store.assert_relation("light1", "color", "green", 5)
    assert store.query(Pattern("color", const("light1"), var("c"))) == [
        {"c": "green"}
    ]


def test_query_time_travel(store):
    store.assert_relation("light1", "color", "red", 2)
    store.retract_relation("light1", "color", "red", 5)
    store.assert_relation("light1", "color", "green", 5)
    assert store.query(Pattern("color", const("light1"), var("c")), at=2) == [
        {"c": "red"}
    ]
    assert store.query(Pattern("color", const("light1"), var("c")), at=1) == []


def test_query_empty_store(store):
    assert store.query(Pattern("married_to", var("a"), var("b"))) == []


def test_functional_queries_return_at_most_one_per_tick(store):
    store.assert_relation("light1", "color", "red", 2)
    store.retract_relation("light1", "color", "red", 5)
    store.assert_relation("light1", "color", "green", 5)
    for tick in range(0, 8):
        rows = store.query(Pattern("color", const("light1"), var("c")), at=tick)
        assert len(rows) <= 1


def test_history_append_only(store):
    store.assert_relation("p1", "married_to", "p2", 2)
    before = store.records
    store.assert_relation("light1", "color", "red", 3)
    store.retract_relation("p1", "married_to", "p2", 4)
    after = store.records
    assert len(after) == 2
    # The original record object survives with only retracted_at changed.
    assert after[0].asserted_at == before[0].asserted_at == 2
    assert after[0].retracted_at == 4


class _Reads(dict):
    """A dict that notes each key read from it, by lookup or by iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.keys_read = []

    def __getitem__(self, key):
        self.keys_read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.keys_read.append(key)
        return super().get(key, default)

    def __iter__(self):
        self.keys_read.extend(super().__iter__())
        return super().__iter__()


def test_a_bound_query_reads_only_its_own_index_entries(store):
    # Counted, not timed: a dropped fast path falls through to the whole-predicate scan.
    for i in range(3, 8):
        store.register_instance(f"p{i}", "Person", 1)
    for i in range(1, 7):
        store.assert_relation(f"p{i}", "married_to", f"p{i + 1}", 2)
    store.assert_relation("p1", "married_to", "p3", 2)
    by_subject = store._by_subject["married_to"] = _Reads(store._by_subject["married_to"])
    rows = store.query(Pattern("married_to", var("a"), const("p3")))
    assert rows == [{"a": "p1"}, {"a": "p2"}]
    assert set(by_subject.keys_read) <= {"p1", "p2"}
    del by_subject.keys_read[:]
    assert store.query(Pattern("married_to", const("p1"), var("b"))) == [{"b": "p2"}, {"b": "p3"}]
    assert by_subject.keys_read == ["p1"]


# --- parts, queries in id order, destruction ----------------------------------------

CLOCKWORK = """
quality tension { wound, unwound }

object Gear { }

object Spring { }

object Case { }

object Clock {
  quality tension: tension required
  part main_gear: Gear function "drives the hands" composition
  part escape_gear: Gear function "meters release" composition
  part spring: Spring function "stores energy" composition
  part case: Case function "protects the works" contained
}
"""


@pytest.fixture()
def clock_store():
    result = compile_ok({"clockwork": CLOCKWORK})
    store = RelationStore(result.registry)
    store.register_instance("clock1", "Clock", 1)
    for part, schema in (
        ("gear_a", "Gear"),
        ("gear_b", "Gear"),
        ("spring1", "Spring"),
        ("case1", "Case"),
    ):
        store.register_instance(part, schema, 1)
    store.link_part("gear_a", "clock1", "composition", 1)
    store.link_part("gear_b", "clock1", "composition", 1)
    store.link_part("spring1", "clock1", "composition", 1)
    store.link_part("case1", "clock1", "containment", 1)
    return store


def test_link_part_rejects_an_unknown_linkage(clock_store):
    clock_store.register_instance("cog", "Gear", 2)
    before = clock_store.fingerprint()
    with pytest.raises(KindMismatchError, match="unknown linkage: glued"):
        clock_store.link_part("cog", "clock1", "glued", 2)
    assert clock_store.fingerprint() == before


def test_part_query_in_id_order(clock_store):
    rows = clock_store.query(Pattern("part_of", var("p"), const("clock1")))
    composed = [r["p"] for r in rows]
    assert composed == ["case1", "gear_a", "gear_b", "spring1"]


def test_destroy_clock_destroys_composed_parts(clock_store):
    destroyed = clock_store.destroy_instance("clock1", 9)
    assert destroyed == ["clock1", "gear_a", "gear_b", "spring1"]
    assert clock_store.instance("case1").alive
    assert clock_store.live_triples() == ()  # the containment link retracts too


def test_destroy_closure_matches_independent_traversal(clock_store):
    # Nested composition: a sub-gear inside gear_a.
    clock_store.register_instance("cog", "Gear", 2)
    clock_store.link_part("cog", "gear_a", "composition", 2)

    # Independent oracle: fixpoint expansion over live composition links,
    # read straight off the triple records.
    def closure(root):
        members = {root}
        changed = True
        while changed:
            changed = False
            for triple in clock_store.live_triples():
                if (
                    triple.predicate == "part_of"
                    and triple.object in members
                    and clock_store.linkage(triple.subject, triple.object) == "composition"
                    and triple.subject not in members
                ):
                    members.add(triple.subject)
                    changed = True
        return members

    expected = closure("clock1")
    destroyed = clock_store.destroy_instance("clock1", 9)
    assert set(destroyed) == expected
    for triple in clock_store.live_triples():
        assert triple.subject not in expected and triple.object not in expected


def test_destroy_twice_raises(clock_store):
    clock_store.destroy_instance("clock1", 9)
    with pytest.raises(AlreadyDestroyedError):
        clock_store.destroy_instance("clock1", 10)


# --- aggregates -------------------------------------------------------------------------

ORCHESTRA = """
object Musician { }

object Kiln { }

relation performs_with(Musician, Musician)

aggregate Orchestra {
  member strings: Musician
  member brass: Musician
  member percussion: Musician
  member conductor: Musician
  link performs_with(strings, conductor)
  link performs_with(brass, conductor)
  link performs_with(percussion, conductor)
}
"""


@pytest.fixture()
def orchestra_store():
    result = compile_ok({"orchestra": ORCHESTRA})
    store = RelationStore(result.registry)
    for name in ("violinist", "trumpeter", "timpanist", "maestro"):
        store.register_instance(name, "Musician", 1)
    store.register_instance("kiln1", "Kiln", 1)
    return store


def _aggregate_schema(store):
    return store.registry.aggregate("Orchestra")


def test_instantiate_from_single_member(orchestra_store):
    view = orchestra_store.instantiate_aggregate_from_member(
        _aggregate_schema(orchestra_store), "violinist", "strings", 2, "orch1"
    )
    assert dict(view.slots)["strings"] == "violinist"
    assert [slot for slot, member in view.slots if member is None] == [
        "brass",
        "conductor",
        "percussion",
    ]
    assert dict(view.slot_types) == {
        "strings": "Musician",
        "brass": "Musician",
        "percussion": "Musician",
        "conductor": "Musician",
    }
    assert orchestra_store.matches(Pattern("member_of", const("violinist"), const("orch1")))


def test_wrong_kind_into_slot(orchestra_store):
    with pytest.raises(SlotTypeMismatchError):
        orchestra_store.instantiate_aggregate_from_member(
            _aggregate_schema(orchestra_store), "kiln1", "strings", 2, "orch1"
        )


def test_unknown_slot(orchestra_store):
    with pytest.raises(SlotTypeMismatchError):
        orchestra_store.instantiate_aggregate_from_member(
            _aggregate_schema(orchestra_store), "violinist", "soloists", 2, "orch1"
        )


def test_instantiation_isomorphic_across_entry_members(orchestra_store):
    # Oracle: brute-force over every slot; structures must agree up to which
    # slot is bound.
    schema = _aggregate_schema(orchestra_store)
    members = ["violinist", "trumpeter", "timpanist", "maestro"]
    structures = []
    for index, member in enumerate(members):
        slot = schema.members[index].slot
        view = orchestra_store.instantiate_aggregate_from_member(
            schema, member, slot, 2 + index, f"orch{index}"
        )
        bound = [s for s, m in view.slots if m is not None]
        assert bound == [slot]
        structures.append(view.slot_types)
    assert len(set(structures)) == 1


def test_links_assert_when_both_slots_bound(orchestra_store):
    schema = _aggregate_schema(orchestra_store)
    orchestra_store.instantiate_aggregate_from_member(
        schema, "violinist", "strings", 2, "orch1"
    )
    assert not orchestra_store.matches(
        Pattern("performs_with", var("a"), var("b"))
    )
    orchestra_store.bind_member("orch1", "conductor", "maestro", 3)
    rows = orchestra_store.query(Pattern("performs_with", var("a"), var("b")))
    assert rows == [{"a": "violinist", "b": "maestro"}]


def test_destroy_aggregate_leaves_members_alive(orchestra_store):
    schema = _aggregate_schema(orchestra_store)
    orchestra_store.instantiate_aggregate_from_member(
        schema, "violinist", "strings", 2, "orch1"
    )
    orchestra_store.bind_member("orch1", "conductor", "maestro", 3)
    orchestra_store.destroy_instance("orch1", 9)
    for member in ("violinist", "trumpeter", "timpanist", "maestro"):
        assert orchestra_store.instance(member).alive
    assert not orchestra_store.matches(Pattern("member_of", var("m"), var("a")))


def test_a_rejected_instantiation_draws_no_id(corpus):
    world = world_from(corpus, "workshop")
    world.spawn("Kiln", instance_id="kiln")
    with pytest.raises(SlotTypeMismatchError):
        world.instantiate_aggregate("Orchestra", "kiln", "strings")
    assert world.instantiate_aggregate("Orchestra", "violinist", "strings").id == "orchestra-1"


def test_rebinding_a_slot_retracts_the_member_it_replaces(corpus):
    world = world_from(corpus, "workshop")
    world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id="o")
    world.bind_member("o", "conductor", "maestro")
    world.bind_member("o", "strings", "trumpeter")
    tick = world.clock
    live = world.store.live_set()
    assert ("violinist", "member_of", "o") not in live
    assert ("violinist", "performs_with", "maestro") not in live
    assert {("trumpeter", "member_of", "o"), ("trumpeter", "performs_with", "maestro")} <= live
    retracted = {(t.subject, t.predicate, t.object) for t in world.store.records
                 if t.retracted_at == tick}
    assert retracted == {("violinist", "member_of", "o"), ("violinist", "performs_with", "maestro")}


def test_rebinding_keeps_a_link_another_aggregate_completes(corpus):
    world = world_from(corpus, "workshop")
    for orchestra in ("o1", "o2"):
        world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id=orchestra)
        world.bind_member(orchestra, "conductor", "maestro")
    world.bind_member("o1", "strings", "trumpeter")
    live = world.store.live_set()
    assert ("violinist", "member_of", "o1") not in live
    assert {("violinist", "member_of", "o2"), ("violinist", "performs_with", "maestro")} <= live
    # A destroyed aggregate completes nothing.
    world.destroy("o2")
    world.bind_member("o1", "strings", "violinist")
    world.bind_member("o1", "strings", "timpanist")
    assert ("violinist", "performs_with", "maestro") not in world.store.live_set()


def test_rebinding_keeps_a_member_that_holds_another_slot(corpus):
    world = world_from(corpus, "workshop")
    world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id="o")
    world.bind_member("o", "brass", "violinist")
    world.bind_member("o", "strings", "trumpeter")
    assert ("violinist", "member_of", "o") in world.store.live_set()
    world.bind_member("o", "brass", "timpanist")
    assert ("violinist", "member_of", "o") not in world.store.live_set()


# --- relation endpoints must be live ----------------------------------------------------


def test_destroyed_relation_object_rejected(corpus):
    world = world_from(corpus, "crash_test")
    world.destroy("hammer")
    clock = world.clock
    with pytest.raises(KindMismatchError, match="must be a live Sledgehammer"):
        world.assert_relation("shield", "struck_by", "hammer")
    assert ("shield", "struck_by", "hammer") not in world.store.live_set()
    assert world.clock == clock


def test_destroyed_part_of_target_rejected(corpus):
    world = Microworld(corpus.registry)
    world.spawn("Windshield", {"condition": "intact"}, instance_id="shield")
    world.spawn("Clock", {"tension": "wound"}, instance_id="clock")
    world.destroy("clock")
    with pytest.raises(KindMismatchError, match="must be a live instance"):
        world.assert_relation("shield", "part_of", "clock")
    assert not world.store.matches(Pattern("part_of", const("shield"), var("w")))


def test_destroyed_member_of_target_rejected(orchestra_store):
    schema = _aggregate_schema(orchestra_store)
    orchestra_store.instantiate_aggregate_from_member(schema, "violinist", "strings", 2, "orch1")
    orchestra_store.destroy_instance("orch1", 3)
    # Only slots write member_of; a slot of a destroyed aggregate takes no member.
    with pytest.raises(SlotTypeMismatchError, match="'member_of' is written only by aggregate"):
        orchestra_store.assert_relation("trumpeter", "member_of", "orch1", 4)
    with pytest.raises(KindMismatchError, match="must be a live instance"):
        orchestra_store.bind_member("orch1", "brass", "trumpeter", 4)
    # The rejected binding leaves the slot as it was.
    assert dict(orchestra_store.aggregate_view("orch1").slots)["brass"] is None


def test_destroyed_entry_member_leaves_no_aggregate():
    world = Microworld(compile_ok({"orchestra": ORCHESTRA}).registry)
    world.spawn("Musician", instance_id="violinist")
    world.destroy("violinist")
    clock, events = world.clock, len(world.events)
    with pytest.raises(SubjectDestroyedError):
        world.instantiate_aggregate("Orchestra", "violinist", "strings", instance_id="orch")
    assert not world.store.has_instance("orch")
    assert world.clock == clock
    assert len(world.events) == events


GUILD = """
object Person { }
object Master : Person { }
relation trains(Master, Person)
aggregate Guild {
  member lead: Person
  member aide: Person
  link trains(lead, aide)
}
"""


def test_rejected_binding_link_leaves_world_untouched():
    # member_of and the link the slot completes are one unit, checked whole.
    world = Microworld(compile_ok({"guild": GUILD}).registry)
    world.spawn("Person", instance_id="a")
    world.spawn("Person", instance_id="b")
    world.instantiate_aggregate("Guild", "b", "aide", instance_id="g")
    before = (world.fingerprint(), world.clock, len(world.events))
    with pytest.raises(KindMismatchError, match="not a Master"):
        world.bind_member("g", "lead", "a")
    assert (world.fingerprint(), world.clock, len(world.events)) == before
    assert ("a", "member_of", "g") not in world.store
    assert dict(world.store.aggregate_view("g").slots) == {"aide": "b", "lead": None}


def test_located_in_still_accepts_opaque_values(corpus):
    world = world_from(corpus, "crash_test")
    world.destroy("hammer")
    assert world.assert_relation("shield", "located_in", "garage")
    assert world.assert_relation("shield", "located_in", "hammer")


def test_query_determinism_across_rebuilds():
    def build():
        result = compile_ok({"orchestra": ORCHESTRA})
        store = RelationStore(result.registry)
        for name in ("violinist", "trumpeter", "timpanist", "maestro"):
            store.register_instance(name, "Musician", 1)
        store.assert_relation("violinist", "performs_with", "maestro", 2)
        store.assert_relation("trumpeter", "performs_with", "maestro", 2)
        store.assert_relation("timpanist", "performs_with", "maestro", 2)
        return store.query(Pattern("performs_with", var("a"), var("b")))

    assert build() == build() == [
        {"a": "timpanist", "b": "maestro"},
        {"a": "trumpeter", "b": "maestro"},
        {"a": "violinist", "b": "maestro"},
    ]


def test_clone_isolated(store):
    store.assert_relation("p1", "married_to", "p2", 2)
    copy = store.clone()
    copy.retract_relation("p1", "married_to", "p2", 3)
    assert store.matches(Pattern("married_to", const("p1"), const("p2")))
    assert not copy.matches(Pattern("married_to", const("p1"), const("p2")))
    assert store.fingerprint() != copy.fingerprint()


def test_fingerprint_stable(store):
    store.assert_relation("p1", "married_to", "p2", 2)
    assert store.fingerprint() == store.clone().fingerprint()
