import pytest
from helpers import compile_ok, world_from
from hypothesis import given, settings
from hypothesis import strategies as st

from xfo import (
    AppliedTransition,
    BlockedTransition,
    ChainInstance,
    ChainSummary,
    apply_transitional,
    instantiate_chain,
    step_chain,
    thick_chain_summary,
)
from xfo.errors import (
    BearerKindMismatchError,
    ChainAlreadyFinishedError,
    DestroyedBearerError,
    MissingBindingError,
    UnknownChainError,
)
from xfo.microworld import Microworld, run
from xfo.relations import RelationStore
from xfo.schemas import ChainSchema, Pattern, const, var
from xfo.transitions import ABORTED, COMPLETED, LOOP_CAP_REASON, PLANNED, RUNNING


@pytest.fixture()
def light_world(corpus):
    return world_from(corpus, "demo")


def test_turn_green_moves_color(corpus, light_world):
    result = light_world.apply("turn_green", "light")
    assert isinstance(result, AppliedTransition)
    rows = light_world.store.query(Pattern("color", const("light"), var("c")))
    assert rows == [{"c": "green"}]


def test_reapply_blocks_with_identical_store(corpus, light_world):
    light_world.apply("turn_green", "light")
    before = light_world.store.fingerprint()
    result = light_world.apply("turn_green", "light")
    assert isinstance(result, BlockedTransition)
    assert result.failed_guard is not None
    assert light_world.store.fingerprint() == before


def test_fire_changes_moisture(corpus):
    world = world_from(corpus, "studio")
    result = world.apply("fire", "dropper")
    assert isinstance(result, AppliedTransition)
    assert world.store.query(Pattern("moisture", const("dropper"), var("m"))) == [
        {"m": "fired"}
    ]


def test_edit_error_blocks_atomically(corpus):
    # bad_add would give the light a second live color value.
    extra = compile_ok(
        {
            "m": (
                "quality color { green, yellow, red }\n"
                "object TrafficLight { quality color: color required }\n"
                "transitional bad_add on TrafficLight {\n"
                "  require color(bearer, red)\n"
                "  create color(bearer, yellow)\n"
                "}\n"
            )
        }
    )
    world = Microworld(extra.registry)
    world.spawn("TrafficLight", {"color": "red"}, instance_id="light")
    before = world.store.fingerprint()
    result = world.apply("bad_add", "light")
    assert isinstance(result, BlockedTransition)
    assert "color" in result.reason
    assert world.store.fingerprint() == before


def test_all_edits_share_one_tick(corpus, light_world):
    result = light_world.apply("turn_green", "light")
    tick = result.tick
    records = [t for t in light_world.store.records if tick in (t.asserted_at, t.retracted_at)]
    retracted = [t for t in records if t.retracted_at == tick]
    asserted = [t for t in records if t.asserted_at == tick]
    assert [(t.subject, t.predicate, t.object) for t in retracted] == [
        ("light", "color", "red")
    ]
    assert [(t.subject, t.predicate, t.object) for t in asserted] == [
        ("light", "color", "green")
    ]


def test_destroyed_bearer_raises(corpus, light_world):
    light_world.destroy("light")
    with pytest.raises(DestroyedBearerError):
        light_world.apply("turn_green", "light")


def test_bearer_kind_mismatch(corpus):
    world = world_from(corpus, "studio")
    world.spawn("Kiln", instance_id="kiln")
    transitional = corpus.registry.transitional("glaze")
    with pytest.raises(BearerKindMismatchError):
        apply_transitional(world.store, transitional, "kiln", 99)


def test_guard_binding_deterministic(corpus):
    # Two hammers strike the shield; the guard must pick the same one every
    # run: the first in (subject, object) query order.
    def strike_world():
        world = world_from(corpus, "crash_test")
        world.spawn("Sledgehammer", instance_id="aaa_hammer")
        world.assert_relation("shield", "struck_by", "hammer")
        world.assert_relation("shield", "struck_by", "aaa_hammer")
        return world

    choices = set()
    for _ in range(10):
        world = strike_world()
        result = world.apply("shatter", "shield")
        assert isinstance(result, AppliedTransition)
        choices.add(dict(result.bindings)["hammer"])
    assert choices == {"aaa_hammer"}


# --- chains -----------------------------------------------------------------------


def test_instantiate_mix_ink_is_planned(corpus):
    world = world_from(corpus, "calligraphy_session")
    chain = instantiate_chain(
        world,
        "mix_ink",
        {"dropper": "dropper", "stone": "stone", "stick": "stick", "brush": "brush"},
    )
    assert chain.status == PLANNED
    assert chain.log == []
    assert chain.program_counter == (0,)


def test_missing_binding_rejected(corpus):
    world = world_from(corpus, "calligraphy_session")
    with pytest.raises(MissingBindingError) as excinfo:
        instantiate_chain(
            world, "mix_ink", {"dropper": "dropper", "stone": "stone", "stick": "stick"}
        )
    assert "Brush" in str(excinfo.value)


def test_unknown_chain(corpus):
    world = world_from(corpus, "calligraphy_session")
    with pytest.raises(UnknownChainError):
        instantiate_chain(world, "nonesuch", {})


def test_unknown_binding_instance(corpus):
    world = world_from(corpus, "calligraphy_session")
    with pytest.raises(MissingBindingError):
        instantiate_chain(world, "mix_ink", {"dropper": "ghost"})


def test_celadon_procedure_planned_with_empty_log(corpus):
    world = world_from(corpus, "studio")
    chain = instantiate_chain(world, "celadon_production", {"dropper": "dropper"})
    assert chain.status == PLANNED
    assert chain.log == []


def test_pottery_sequence_completes_with_log_of_three(corpus):
    world = world_from(corpus, "studio")
    chain = instantiate_chain(world, "pottery", {"dropper": "dropper"})
    while not chain.finished:
        step_chain(world, chain)
    assert chain.status == COMPLETED
    assert [a.transitional for a in chain.log] == ["throw", "fire", "glaze"]
    assert world.store.query(Pattern("shape", const("dropper"), var("s"))) == [
        {"s": "duck"}
    ]
    assert world.store.query(Pattern("moisture", const("dropper"), var("m"))) == [
        {"m": "fired"}
    ]


def test_while_loop_reaches_fixpoint_within_chain_length(corpus):
    world = world_from(corpus, "calligraphy_session")
    chain = instantiate_chain(
        world,
        "mix_ink",
        {"dropper": "dropper", "stone": "stone", "stick": "stick", "brush": "brush"},
    )
    steps = 0
    while not chain.finished:
        step_chain(world, chain)
        steps += 1
    assert chain.status == COMPLETED
    assert world.store.query(Pattern("consistency", const("stone"), var("c"))) == [
        {"c": "desired"}
    ]
    # The loop may iterate at most the determinant-chain length of the
    # consistency ontology.
    ontology = corpus.registry.quality("consistency")
    applied = len(chain.log)
    assert applied <= 1 + len(ontology.determinants)


def test_blocked_do_aborts_and_rolls_back(corpus):
    world = world_from(corpus, "demo")
    world.apply("turn_green", "light")  # now green: cycle's turn_green will block
    chain = instantiate_chain(world, "cycle", {"light": "light"})
    before = world.store.fingerprint()
    step_chain(world, chain)
    assert chain.status == ABORTED
    assert "blocked" in chain.abort_reason
    assert world.store.fingerprint() == before


def test_aborted_chain_names_the_guard_it_failed_at(corpus):
    world = world_from(corpus, "demo")
    world.apply("turn_green", "light")
    chain = instantiate_chain(world, "cycle", {"light": "light"})
    outcome = run(world, chain)
    assert outcome.status == "aborted"
    assert chain.abort_reason == (
        "transitional 'turn_green' blocked: guard failed at color(bearer, red)"
    )
    assert not chain.abort_reason.startswith(LOOP_CAP_REASON)


def test_an_instance_built_without_frames_starts_at_its_first_step(corpus):
    planned = instantiate_chain(world_from(corpus, "demo"), "cycle", {"light": "light"})
    built = ChainInstance(planned.schema, {"light": "light"}, planned.bearer_map)
    outcomes = []
    for instance in (planned, built):
        world = world_from(corpus, "demo")
        result = run(world, instance)
        outcomes.append((result.status, result.ticks_used, world.fingerprint()))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][:2] == ("completed", 1)


def test_a_chain_with_no_steps_completes_on_its_first_call(light_world):
    instance = ChainInstance(ChainSchema("idle", "sequence"), {}, {})
    step_chain(light_world, instance)
    assert instance.status == COMPLETED
    assert instance.log == []


def test_step_after_finish_raises(corpus, light_world):
    chain = instantiate_chain(light_world, "cycle", {"light": "light"})
    while not chain.finished:
        step_chain(light_world, chain)
    with pytest.raises(ChainAlreadyFinishedError):
        step_chain(light_world, chain)


def test_loop_cap_aborts(corpus):
    # A while whose body applies a no-op transitional never changes the
    # store, so the condition stays true until the cap trips.
    looping = compile_ok(
        {
            "m": (
                "quality color { red, green }\n"
                "object Light { quality color: color required }\n"
                "transitional touch on Light {\n"
                "  require color(bearer, red)\n"
                "  create color(bearer, red)\n"
                "}\n"
                "chain procedure spin {\n"
                "  while color(?x, red) { do touch }\n"
                "}\n"
            )
        }
    )
    world = Microworld(looping.registry)
    world.spawn("Light", {"color": "red"}, instance_id="light")
    chain = instantiate_chain(world, "spin", {"light": "light"}, loop_cap=25)
    while not chain.finished:
        step_chain(world, chain)
    assert chain.status == ABORTED
    assert chain.abort_reason.startswith("NonterminatingChain")


@given(
    start=st.sampled_from(["red", "green", "yellow"]),
    chain_name=st.sampled_from(["cycle", "go_yellow", "go_green_swapped"]),
)
@settings(max_examples=40, deadline=None)
def test_status_monotonicity(corpus, start, chain_name):
    world = Microworld(corpus.registry)
    world.spawn("TrafficLight", {"color": start}, instance_id="light")
    chain = instantiate_chain(world, chain_name, {"light": "light"})
    seen = [chain.status]
    while not chain.finished:
        step_chain(world, chain)
        seen.append(chain.status)
    order = {PLANNED: 0, RUNNING: 1, COMPLETED: 2, ABORTED: 2}
    ranks = [order[s] for s in seen]
    assert ranks == sorted(ranks), f"status regressed: {seen}"
    assert seen[0] == PLANNED
    assert seen[-1] in (COMPLETED, ABORTED)


# --- thick chain summaries ------------------------------------------------------------


def _summary_oracle(module_text, chain_name):
    """Independent AST walk: loop count and structure depth straight off the
    parse tree, bypassing the registry."""
    from xfo.lang import ast, parse_module

    module, diagnostics = parse_module(module_text)
    assert not diagnostics

    def walk(steps):
        loops = 0
        depth = 0
        for step in steps:
            if isinstance(step, ast.DoNode):
                depth = max(depth, 1)
            elif isinstance(step, ast.IfNode):
                then_l, then_d = walk(step.then_steps)
                else_l, else_d = walk(step.else_steps)
                loops += then_l + else_l
                depth = max(depth, 1 + max(then_d, else_d))
            elif isinstance(step, ast.WhileNode):
                inner_l, inner_d = walk(step.body)
                loops += 1 + inner_l
                depth = max(depth, 1 + inner_d)
        return loops, depth

    for decl in module.decls:
        if isinstance(decl, ast.ChainNode) and decl.name == chain_name:
            return walk(decl.steps)
    raise AssertionError(f"no chain {chain_name!r}")


def test_mix_ink_summary(corpus):
    from conftest import MODELS_DIR

    summary = thick_chain_summary(corpus.registry, "mix_ink")
    assert summary.kind == "procedure"
    assert summary.transitionals == ("drip", "rub_to_thin", "finish_mix")
    assert summary.participants == ("Brush", "InkStick", "InkStone", "WaterDropper")
    assert summary.loop_count == 1
    assert summary.depth == 2
    assert summary.interventions == ()

    oracle_loops, oracle_depth = _summary_oracle(
        (MODELS_DIR / "calligraphy.xfo").read_text(), "mix_ink"
    )
    assert (summary.loop_count, summary.depth) == (oracle_loops, oracle_depth)


def test_single_do_summary(corpus):
    summary = thick_chain_summary(corpus.registry, "cycle")
    assert summary.transitionals == ("turn_green",)
    assert summary.depth == 1
    assert summary.loop_count == 0
    assert summary.interventions == ()


def test_intervention_markers_flagged(corpus):
    summary = thick_chain_summary(corpus.registry, "celadon_production")
    assert summary.kind == "procedure"
    assert summary.interventions == ("throw", "glaze")


def test_workflow_intervention_from_source():
    result = compile_ok(
        {
            "m": (
                "quality state { raw, done }\n"
                "object Piece { quality state: state required }\n"
                "transitional finish on Piece {\n"
                "  require state(bearer, raw)\n"
                "  delete state(bearer, raw)\n"
                "  create state(bearer, done)\n"
                "}\n"
                "chain workflow approve {\n"
                "  do finish intervention\n"
                "}\n"
            )
        }
    )
    summary = thick_chain_summary(result.registry, "approve")
    assert summary.interventions == ("finish",)
    assert summary.depth == 1


def test_conditional_summary_from_source():
    source = (
        "quality state { raw, done }\n"
        "object Piece { quality state: state required }\n"
        "transitional finish on Piece {\n"
        "  require state(bearer, raw)\n"
        "  delete state(bearer, raw)\n"
        "  create state(bearer, done)\n"
        "}\n"
        "chain mechanism inspect {\n"
        "  if state(?p, raw) {\n"
        "    do finish\n"
        "  } else {\n"
        "    while state(?p, raw) { do finish }\n"
        "  }\n"
        "}\n"
    )
    summary = thick_chain_summary(compile_ok({"m": source}).registry, "inspect")
    assert (summary.conditional_count, summary.loop_count, summary.depth) == (1, 1, 3)
    assert (summary.loop_count, summary.depth) == _summary_oracle(source, "inspect")
    assert summary.predicates == ("state",)
    assert summary.participants == ("Piece",)


def test_unknown_chain_summary(corpus):
    with pytest.raises(UnknownChainError):
        thick_chain_summary(corpus.registry, "nonesuch")


# (kind, transitionals, participants, predicates, interventions, loops, conditionals, depth)
CORPUS_SUMMARIES = {
    "mix_ink": ("procedure", ("drip", "rub_to_thin", "finish_mix"),
                ("Brush", "InkStick", "InkStone", "WaterDropper"), ("consistency", "mixing"),
                (), 1, 0, 2),
    "unwind": ("mechanism", ("run_down",), ("Clock",), ("tension",), (), 0, 0, 1),
    "cycle": ("sequence", ("turn_green",), ("TrafficLight",), ("color",), (), 0, 0, 1),
    "go_yellow": ("sequence", ("turn_yellow",), ("TrafficLight",), ("color",), (), 0, 0, 1),
    "go_green_swapped": ("sequence", ("swap_to_green",), ("TrafficLight",), ("color",),
                         (), 0, 0, 1),
    "pottery": ("sequence", ("throw", "fire", "glaze"),
                ("CeladonDropper", "Vessel", "WaterDropper"),
                ("glaze_color", "moisture", "shape"), (), 0, 0, 1),
    "celadon_production": ("procedure", ("throw", "fire", "glaze"),
                           ("CeladonDropper", "Vessel", "WaterDropper"),
                           ("glaze_color", "moisture", "shape"), ("throw", "glaze"), 0, 0, 1),
}


def test_every_corpus_chain_summary_is_pinned(corpus):
    assert sorted(chain.name for chain in corpus.registry.chains()) == sorted(CORPUS_SUMMARIES)
    for name, fields in CORPUS_SUMMARIES.items():
        assert thick_chain_summary(corpus.registry, name) == ChainSummary(name, *fields)


def test_run_blocked_transitional_status(corpus):
    world = Microworld(corpus.registry)
    world.spawn("TrafficLight", {"color": "green"}, instance_id="light")
    chain = instantiate_chain(world, "cycle", {"light": "light"})
    outcome = run(world, chain, max_ticks=10)
    assert outcome.status == "aborted"


def test_guard_constant_named_like_a_bound_variable_is_matched_as_written():
    # ?red binds "red" = "green"; the constant red in the next guard must not
    # be read as that variable.
    result = compile_ok({"m": """
quality hue { red, green }
object Light { quality color: hue required }
transitional go on Light {
  require color(bearer, ?red)
  require color(bearer, red)
  delete color(bearer, ?red)
  create color(bearer, green)
}
"""})
    world = Microworld(result.registry)
    light = world.spawn("Light", {"color": "green"})
    before = world.fingerprint()
    blocked = world.apply("go", light)
    assert isinstance(blocked, BlockedTransition)
    assert blocked.failed_guard == Pattern("color", var("bearer"), const("red"))
    assert world.fingerprint() == before


def test_chain_condition_constant_names_a_role():
    # ``if``/``while`` conditions name instances by their role names.
    result = compile_ok({"m": """
quality hue { red, green }
object Light { quality color: hue required }
transitional go on Light {
  require color(bearer, red)
  delete color(bearer, red)
  create color(bearer, green)
}
chain procedure maybe { if color(lamp, red) { do go } }
"""})
    world = Microworld(result.registry)
    world.spawn("Light", {"color": "red"}, instance_id="l-1")
    chain = instantiate_chain(world, "maybe", {"lamp": "l-1"})
    outcome = run(world, chain)
    assert [a.transitional for a in outcome.applied] == ["go"]
