import json
import time

import pytest
from helpers import compile_ok, world_from

from xfo import AppliedTransition, RegistryBuilder, instantiate_chain
from xfo.errors import (
    DispositionCascadeOverflowError,
    DuplicateNameError,
    KindMismatchError,
    MissingRequiredDeterminableError,
    NoIndependentContinuantParticipantError,
    NoOpenIntervalError,
    SnapshotVersionMismatchError,
    UnknownDeterminantError,
)
from xfo.microworld import Microworld, WorldSnapshot, run
from xfo.schemas import (
    BEARER,
    DISPOSITION,
    Pattern,
    QualityOntology,
    QualitySlot,
    RealizableSchema,
    ThickObjectSchema,
    const,
    var,
)


# --- spawning -------------------------------------------------------------------


def test_spawn_dropper_with_two_qualities(corpus):
    world = Microworld(corpus.registry)
    dropper = world.spawn("CeladonDropper", {"shape": "duck", "moisture": "wet"})
    record = world.store.instance(dropper)
    assert record.alive
    quality_triples = [
        t for t in world.store.live_triples() if t.predicate in ("shape", "moisture")
    ]
    assert len(quality_triples) == 2
    (event,) = world.events
    assert event.kind == "spawn" and event.tick == 1


def test_spawn_missing_required_determinable(corpus):
    world = Microworld(corpus.registry)
    with pytest.raises(MissingRequiredDeterminableError):
        world.spawn("TrafficLight")


def test_spawn_unknown_determinant(corpus):
    world = Microworld(corpus.registry)
    with pytest.raises(UnknownDeterminantError):
        world.spawn("TrafficLight", {"color": "blue"})
    with pytest.raises(UnknownDeterminantError):
        world.spawn("TrafficLight", {"color": "red", "brightness": "dim"})


def test_spawn_rejects_non_object(corpus):
    world = Microworld(corpus.registry)
    with pytest.raises(KindMismatchError):
        world.spawn("Orchestra")


def test_spawn_duplicate_id(corpus):
    world = Microworld(corpus.registry)
    world.spawn("Kiln", instance_id="k")
    with pytest.raises(DuplicateNameError):
        world.spawn("Kiln", instance_id="k")


def test_duplicate_spawn_leaves_world_untouched(corpus):
    # The store's instance table rejects the id before anything is written.
    world = Microworld(corpus.registry)
    world.spawn("Clock", {"tension": "wound"}, instance_id="c")
    before = world.fingerprint()
    with pytest.raises(DuplicateNameError):
        world.spawn("Clock", {"tension": "wound"}, instance_id="c")
    assert world.fingerprint() == before
    assert world.spawn("Clock", {"tension": "wound"}) == "clock-1"


def test_failed_spawn_leaves_world_untouched(corpus):
    world = Microworld(corpus.registry)
    clock_before = world.clock
    with pytest.raises(MissingRequiredDeterminableError):
        world.spawn("TrafficLight")
    assert world.clock == clock_before
    assert world.events == []
    assert world.store.instances() == ()


def test_spawn_with_a_taken_part_id_leaves_world_untouched(corpus):
    # The part ids of the whole tree are checked before the root is written.
    world = Microworld(corpus.registry)
    world.spawn("Gear", instance_id="c.main_gear")
    before = (world.fingerprint(), world.clock, len(world.events))
    with pytest.raises(DuplicateNameError, match="'c.main_gear' already exists"):
        world.spawn("Clock", {"tension": "wound"}, instance_id="c")
    assert (world.fingerprint(), world.clock, len(world.events)) == before
    assert not world.store.has_instance("c")


def test_gangjin_region_and_political_entity_pair(corpus):
    world = world_from(corpus, "gangjin")
    region = world.store.instance("county_region")
    seat = world.store.instance("county_seat")
    assert region.schema == "Region" and seat.schema == "PoliticalEntity"
    assert world.store.matches(
        Pattern("located_in", const("county_seat"), const("county_region"))
    )


def test_clock_parts_share_spawn_tick(corpus):
    world = world_from(corpus, "workshop")
    ticks = {record.created_at for record in world.store.instances()
             if record.id.startswith("clock")}
    assert len(ticks) == 1


def test_seeded_ids_deterministic(corpus):
    def ids(seed):
        world = Microworld(corpus.registry, seed=seed)
        return [world.spawn("Kiln") for _ in range(3)]

    assert ids(7) == ids(7)
    assert ids(7) != ids(8)


def test_location_asserts_located_in(corpus):
    world = world_from(corpus, "gangjin")
    kiln = world.spawn("Kiln", location="county_region")
    assert world.store.matches(Pattern("located_in", const(kiln), const("county_region")))


# --- processes ------------------------------------------------------------------------


def test_begin_process_open_interval(corpus):
    world = world_from(corpus, "studio")
    kiln = world.spawn("Kiln", instance_id="kiln1")
    index = world.begin_process("kiln_firing", [kiln, "dropper"])
    event = world.events[index]
    assert event.kind == "process_interval"
    assert event.edit("end") is None
    assert event.participants == ("dropper", "kiln1")


def test_begin_process_requires_continuant(corpus):
    world = world_from(corpus, "studio")
    with pytest.raises(NoIndependentContinuantParticipantError):
        world.begin_process("kiln_firing", [])


def test_end_before_begin(corpus):
    world = world_from(corpus, "studio")
    with pytest.raises(NoOpenIntervalError):
        world.end_process("kiln_firing")


def test_end_closes_interval_at_current_tick(corpus):
    world = world_from(corpus, "studio")
    world.begin_process("kiln_firing", ["dropper"])
    world.apply("throw", "dropper")
    index = world.end_process("kiln_firing")
    event = world.events[index]
    assert event.edit("end") == world.clock
    assert event.tick <= event.edit("end")


# --- run: chain mode -----------------------------------------------------------------


def test_run_mix_ink_trace_ends_at_desired_consistency(corpus):
    world = world_from(corpus, "calligraphy_session")
    chain = instantiate_chain(
        world,
        "mix_ink",
        {"dropper": "dropper", "stone": "stone", "stick": "stick", "brush": "brush"},
    )
    outcome = run(world, chain, max_ticks=100)
    assert outcome.status == "completed"
    last = outcome.applied[-1]
    assert ("stone", "consistency", "desired") in last.creates


def test_run_budget_exhaustion_returns_world(corpus):
    world = world_from(corpus, "studio")
    chain = instantiate_chain(world, "pottery", {"dropper": "dropper"})
    outcome = run(world, chain, max_ticks=1)
    assert outcome.status == "tick_budget_exhausted"
    assert outcome.ticks_used == 1
    assert outcome.world is world


def test_run_rejects_nonpositive_budget(corpus):
    world = world_from(corpus, "studio")
    from xfo.errors import XfoError

    with pytest.raises(XfoError):
        run(world, max_ticks=0)


# --- run: interaction mode --------------------------------------------------------------


def test_interaction_mode_zero_rules_quiescent(corpus):
    world = world_from(corpus, "demo")
    outcome = run(world, max_ticks=10)
    assert outcome.status == "quiescent"
    assert outcome.applied == []
    assert outcome.ticks_used == 0


def test_declaration_order_wins_and_runs_reproducibly(corpus):
    def build_and_run():
        world = world_from(corpus, "demo")
        world.add_interaction_rule(("TrafficLight",), None, "turn_yellow")
        world.add_interaction_rule(("TrafficLight",), None, "turn_green")
        outcome = run(world, max_ticks=10)
        return outcome, world.fingerprint()

    outcome, fingerprint = build_and_run()
    assert outcome.status == "quiescent"
    assert [a.transitional for a in outcome.applied] == ["turn_yellow"]

    # Oracle for determinism: 100 repetitions produce one fingerprint.
    fingerprints = {build_and_run()[1] for _ in range(100)}
    assert fingerprints == {fingerprint}


def test_most_specific_kind_tuple_wins(corpus):
    # A generic Vessel rule declared first loses to a later CeladonDropper
    # rule on the same participant; declaration order only breaks ties.
    world = world_from(corpus, "studio")
    world.add_interaction_rule(("Vessel",), None, "throw")
    world.add_interaction_rule(("CeladonDropper",), None, "fire")
    outcome = run(world, max_ticks=10)
    assert outcome.status == "quiescent"
    assert [a.transitional for a in outcome.applied] == ["fire", "throw"]


def test_guard_pattern_references_participants(corpus):
    world = world_from(corpus, "demo")
    world.add_interaction_rule(
        ("TrafficLight",), Pattern("color", var("p1"), const("red")), "turn_green"
    )
    outcome = run(world, max_ticks=10)
    assert [a.transitional for a in outcome.applied] == ["turn_green"]


def test_quiescence_soundness_oracle(corpus):
    # Independent exhaustive scan over rules and alive tuples with a naive
    # matcher over live triples; after quiescence nothing may match.
    world = world_from(corpus, "demo")
    world.add_interaction_rule(
        ("TrafficLight",), Pattern("color", var("p1"), const("red")), "turn_green"
    )
    outcome = run(world, max_ticks=10)
    assert outcome.status == "quiescent"

    def naive_matches(pattern, participants):
        for triple in world.store.live_triples():
            if triple.predicate != pattern.predicate:
                continue
            ok = True
            for term, value in ((pattern.subject, triple.subject),
                                (pattern.object, triple.object)):
                if term.kind == "var":
                    bound = participants.get(term.value)
                    if bound is not None and bound != value:
                        ok = False
                elif term.value != value:
                    ok = False
            if ok:
                return True
        return False

    alive = [r.id for r in world.store.instances() if r.alive]
    for rule in world.rules:
        for instance in alive:
            record = world.store.instance(instance)
            if not world.registry.is_subkind(record.schema, rule.kinds[0]):
                continue
            if rule.guard is None or naive_matches(rule.guard, {"p1": instance}):
                # The rule may only linger if its transitional cannot apply.
                result = world.apply(rule.transitional, instance)
                assert not isinstance(result, AppliedTransition), (
                    "quiescence reported while a rule could still fire"
                )


# --- dispositions ----------------------------------------------------------------------


def test_windshield_shatters_once(corpus):
    world = world_from(corpus, "crash_test")
    world.assert_relation("shield", "struck_by", "hammer")
    fired = world.fire_dispositions()
    assert [(f.disposition, f.bearer) for f in fired] == [
        ("sure_fire_breakage", "shield")
    ]
    assert world.store.query(Pattern("condition", const("shield"), var("c"))) == [
        {"c": "broken"}
    ]
    trigger = corpus.registry.realizable("sure_fire_breakage").trigger
    assert not world.store.matches(trigger, bindings={"bearer": "shield"})
    assert world.fire_dispositions() == []


def test_a_disposition_without_a_realization_never_fires():
    # The language requires `realize`; a RegistryBuilder disposition may omit it.
    registry = RegistryBuilder().register_all([
        QualityOntology("level", ("low", "high")),
        ThickObjectSchema("Pane", qualities=(QualitySlot("crack", "level"),)),
        RealizableSchema("fragility", DISPOSITION, bearer_kind="Pane",
                         trigger=Pattern("crack", BEARER, const("low"))),
    ]).resolve()
    world = Microworld(registry)
    world.spawn("Pane", {"crack": "low"}, instance_id="p")
    assert world.store.matches(registry.realizable("fragility").trigger, bindings={"bearer": "p"})
    before = world.fingerprint()
    assert world.fire_dispositions() == []
    assert world.fingerprint() == before


def test_no_live_triggers_fire_nothing(corpus):
    world = world_from(corpus, "crash_test")
    assert world.fire_dispositions() == []


def test_two_disposition_cascade_in_one_pass():
    cascade = compile_ok(
        {
            "m": (
                "quality stage { a, b, c }\n"
                "object Widget { quality stage: stage required }\n"
                "transitional advance_ab on Widget {\n"
                "  require stage(bearer, a)\n"
                "  delete stage(bearer, a)\n"
                "  create stage(bearer, b)\n"
                "}\n"
                "transitional advance_bc on Widget {\n"
                "  require stage(bearer, b)\n"
                "  delete stage(bearer, b)\n"
                "  create stage(bearer, c)\n"
                "}\n"
                "disposition starts on Widget when stage(bearer, a) realize advance_ab\n"
                "disposition follows on Widget when stage(bearer, b) realize advance_bc\n"
            )
        }
    )
    world = Microworld(cascade.registry)
    world.spawn("Widget", {"stage": "a"}, instance_id="w")
    fired = world.fire_dispositions()
    # Hand trace: 'starts' fires (a->b), which triggers 'follows' (b->c).
    assert [(f.disposition, f.transitional) for f in fired] == [
        ("starts", "advance_ab"),
        ("follows", "advance_bc"),
    ]
    assert world.store.query(Pattern("stage", const("w"), var("s"))) == [{"s": "c"}]
    # Fixpoint: no trigger still matches.
    for disposition in cascade.registry.dispositions():
        assert not world.store.matches(disposition.trigger, bindings={"bearer": "w"})


# A strike cracks the windshield and a crack mends it; the strike stays.
CRACK_AND_MEND = """
quality condition { intact, broken }
object Windshield { quality condition: condition required }
object Sledgehammer { }
relation struck_by(Windshield, Sledgehammer)
transitional hit on Windshield { create struck_by(bearer, hammer) }
transitional crack on Windshield {
  require condition(bearer, intact)
  delete condition(bearer, intact)
  create condition(bearer, broken)
}
transitional mend on Windshield {
  require condition(bearer, broken)
  delete condition(bearer, broken)
  create condition(bearer, intact)
}
disposition a on Windshield when struck_by(bearer, ?h) realize crack
disposition b on Windshield when condition(bearer, broken) realize mend
chain sequence strike { do hit }
"""


def test_a_blocked_realization_is_skipped_for_the_rest_of_the_call():
    registry = compile_ok({"m": CRACK_AND_MEND}).registry
    world = Microworld(registry)
    world.spawn("Windshield", {"condition": "intact"}, instance_id="shield")
    world.spawn("Sledgehammer", instance_id="hammer")
    outcome = run(world, instantiate_chain(world, "strike", {"shield": "shield"}))
    # a cracks, a blocks (crack needs intact), b mends; a is not tried again
    # in that call, although its trigger holds and crack would apply.
    assert (outcome.status, outcome.ticks_used) == ("completed", 3)
    assert [event.name for event in outcome.events[-3:]] == ["hit", "crack", "mend"]
    trigger = registry.realizable("a").trigger
    assert world.store.matches(trigger, bindings={"bearer": "shield"})
    fired = world.fire_dispositions()
    assert [(f.disposition, f.transitional) for f in fired] == [("a", "crack"), ("b", "mend")]


def test_cascade_overflow_detected():
    churning = compile_ok(
        {
            "m": (
                "quality heat { hot }\n"
                "object Pot { quality heat: heat required }\n"
                "transitional reheat on Pot {\n"
                "  require heat(bearer, hot)\n"
                "  create heat(bearer, hot)\n"
                "}\n"
                "disposition churn on Pot when heat(bearer, hot) realize reheat\n"
            )
        }
    )
    world = Microworld(churning.registry)
    world.disposition_cap = 10
    world.spawn("Pot", {"heat": "hot"}, instance_id="p")
    with pytest.raises(DispositionCascadeOverflowError):
        world.fire_dispositions()


def test_run_fires_dispositions_after_each_transitional(corpus):
    # Driving shatter's precondition via a chain: asserting the strike by
    # hand, then running any chain step, must leave the windshield broken.
    extra = compile_ok(
        {
            "m": (
                "quality condition { intact, broken }\n"
                "quality color { red, green }\n"
                "object Windshield { quality condition: condition required }\n"
                "object Sledgehammer { }\n"
                "object Light { quality color: color required }\n"
                "relation struck_by(Windshield, Sledgehammer)\n"
                "transitional swing on Light {\n"
                "  require color(bearer, red)\n"
                "  delete color(bearer, red)\n"
                "  create color(bearer, green)\n"
                "  create struck_by(shield, hammer)\n"
                "}\n"
                "transitional shatter on Windshield {\n"
                "  require struck_by(bearer, ?h)\n"
                "  require condition(bearer, intact)\n"
                "  delete struck_by(bearer, ?h)\n"
                "  delete condition(bearer, intact)\n"
                "  create condition(bearer, broken)\n"
                "}\n"
                "disposition fragile on Windshield when struck_by(bearer, ?h) realize shatter\n"
                "chain sequence swing_once { do swing }\n"
            )
        }
    )
    world = Microworld(extra.registry)
    world.spawn("Windshield", {"condition": "intact"}, instance_id="shield")
    world.spawn("Sledgehammer", instance_id="hammer")
    world.spawn("Light", {"color": "red"}, instance_id="light")
    chain = instantiate_chain(world, "swing_once", {"light": "light"})
    outcome = run(world, chain, max_ticks=10)
    assert outcome.status == "completed"
    assert world.store.query(Pattern("condition", const("shield"), var("c"))) == [
        {"c": "broken"}
    ]


# --- timeline ------------------------------------------------------------------------


def test_pottery_timeline_shape(corpus):
    world = world_from(corpus, "studio")
    chain = instantiate_chain(world, "pottery", {"dropper": "dropper"})
    run(world, chain, max_ticks=10)
    doc = world.export_timeline()
    kinds = [entry["kind"] for entry in doc]
    assert kinds == ["spawn", "transition", "transition", "transition"]
    ticks = [entry["tick"] for entry in doc]
    assert ticks == sorted(ticks)
    assert len(set(ticks)) == len(ticks)  # strictly increasing here


def test_fresh_world_timeline_empty(corpus):
    world = Microworld(corpus.registry)
    assert world.export_timeline() == []
    assert world.timeline_ndjson() == ""


def test_production_and_museum_events_interleave(corpus):
    world = world_from(corpus, "studio")
    world.begin_process("dropper_production", ["dropper"])
    chain = instantiate_chain(world, "pottery", {"dropper": "dropper"})
    run(world, chain, max_ticks=10)
    world.end_process("dropper_production")
    museum = world.spawn("Kiln", instance_id="museum_store")
    world.begin_process("museum_acquisition", ["dropper", museum])
    world.end_process("museum_acquisition")

    doc = world.export_timeline()
    names = [entry["name"] for entry in doc]
    assert names.index("dropper_production") < names.index("throw")
    assert names.index("glaze") < names.index("museum_acquisition")
    ticks = [entry["tick"] for entry in doc]
    assert ticks == sorted(ticks)
    intervals = [e for e in doc if e["kind"] == "process_interval"]
    assert all(e["edits"]["end"] is not None for e in intervals)


def test_golden_traces_byte_identical(corpus):
    from conftest import GOLDEN_DIR

    cases = [
        ("demo", "cycle", {"light": "light"}, "trafficlight_cycle.ndjson"),
        ("studio", "pottery", {"dropper": "dropper"}, "pottery_sequence.ndjson"),
    ]
    for world_name, chain_name, bindings, golden in cases:
        world = world_from(corpus, world_name)
        chain = instantiate_chain(world, chain_name, bindings)
        run(world, chain, max_ticks=10)
        assert world.timeline_ndjson() == (GOLDEN_DIR / golden).read_text(), golden


def test_ndjson_key_order_and_determinism(corpus):
    world = world_from(corpus, "demo")
    world.apply("turn_green", "light")
    text = world.timeline_ndjson()
    for line in text.splitlines():
        assert list(json.loads(line).keys()) == [
            "tick",
            "kind",
            "name",
            "participants",
            "edits",
        ]
    assert text == world.timeline_ndjson()


def test_every_event_references_alive_independent_continuant(corpus):
    world = world_from(corpus, "calligraphy_session")
    chain = instantiate_chain(
        world,
        "mix_ink",
        {"dropper": "dropper", "stone": "stone", "stick": "stick", "brush": "brush"},
    )
    run(world, chain, max_ticks=100)
    for event in world.events:
        alive_ic = [
            p
            for p in event.participants
            if world.store.has_instance(p)
            and world.store.instance(p).created_at <= event.tick
            and (
                world.store.instance(p).destroyed_at is None
                or world.store.instance(p).destroyed_at >= event.tick
            )
            and world.store.is_independent_continuant(p)
        ]
        assert alive_ic, f"event {event} lacks an alive Independent Continuant"


def test_clock_monotone_and_events_within_clock(corpus):
    world = world_from(corpus, "gangjin")
    world.begin_process("kiln_season", ["master"])
    world.end_process("kiln_season")
    ticks = [event.tick for event in world.events]
    assert ticks == sorted(ticks)
    assert all(tick <= world.clock for tick in ticks)


# --- snapshots ---------------------------------------------------------------------------


def test_snapshot_restore_round_trip(corpus):
    world = world_from(corpus, "calligraphy_session")
    chain = instantiate_chain(
        world,
        "mix_ink",
        {"dropper": "dropper", "stone": "stone", "stick": "stick", "brush": "brush"},
    )
    run(world, chain, max_ticks=100)
    snapshot = world.snapshot()
    restored = Microworld.restore(snapshot)
    assert restored.fingerprint() == world.fingerprint()


def test_restore_then_mutate_then_restore_again(corpus):
    world = world_from(corpus, "demo")
    snapshot = world.snapshot()
    original = world.fingerprint()
    first = Microworld.restore(snapshot)
    first.apply("turn_green", "light")
    assert first.fingerprint() != original
    second = Microworld.restore(snapshot)
    assert second.fingerprint() == original


def test_clone_is_independent_of_its_original(corpus):
    world = world_from(corpus, "workshop")
    world.begin_process("rehearsal", ["violinist", "maestro"])
    clock, events, original = world.clock, list(world.events), world.fingerprint()
    clone = world.clone()
    assert clone.fingerprint() == original

    clone.spawn("Clock", {"tension": "unwound"}, instance_id="spare")
    clone.apply("run_down", "clock")
    clone.destroy("clock")
    clone.end_process("rehearsal")
    clone.add_interaction_rule(("Musician",), None, "run_down")
    drawn = clone.new_id("Gear")

    assert clone.fingerprint() != original
    assert world.fingerprint() == original
    assert (world.clock, world.events, world.rules) == (clock, events, [])
    assert world.store.instance("clock").alive
    assert world.new_id("Gear") == drawn


def test_seeded_clone_draws_the_same_next_id(corpus):
    world = world_from(corpus, "workshop", seed=7)
    world.new_id("Gear")
    clone = world.clone()
    assert clone.new_id("Gear") == world.new_id("Gear")
    assert clone.new_id("Gear") == world.new_id("Gear")


def test_snapshot_version_mismatch(corpus):
    world = world_from(corpus, "demo")
    snapshot = world.snapshot()
    stale = WorldSnapshot(version=99, state=snapshot.state)
    with pytest.raises(SnapshotVersionMismatchError):
        Microworld.restore(stale)


def test_snapshot_10k_triples_under_100ms(corpus):
    world = Microworld(corpus.registry)
    people = [world.spawn("Person") for _ in range(150)]
    count = 0
    for i, a in enumerate(people):
        for b in people[i + 1 :]:
            world.assert_relation(a, "trains", b)
            count += 1
            if count >= 10_000:
                break
        if count >= 10_000:
            break
    assert len(world.store.live_triples()) >= 10_000

    best = min(
        _timed(lambda: Microworld.restore(world.snapshot())) for _ in range(3)
    )
    assert best < 0.1, f"snapshot round trip took {best:.3f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
