"""The cone-of-influence sweep against the per-state rebuild oracle.

``check_equivalence`` runs the chains only where the axes in their cone of
influence vary; every other axis stays at its first value, and an instance
left with one value per axis is spawned once, before the sweep. On generated
models with variable-subject guards and conditions, role-constant
conditions, parts, dispositions, pinned determinables, fully pinned and
out-of-cone instances around swept ones, and part ids that clash, it must
agree with the oracle of ``test_equiv_sweep`` on the verdict, the number of
states checked, the witness and every error. Counting the runs, the spawns
and the step walks guards the saving.
"""

import math

import pytest
from helpers import compile_ok, count_calls, world_from
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_equiv_sweep import _outcome, oracle

import xfo.equivalence
import xfo.schemas
from xfo import StateSpace, check_equivalence, instantiate_chain
from xfo.equivalence import EquivalenceResult
from xfo.errors import DuplicateNameError
from xfo.microworld import Microworld

# --- generated models ---------------------------------------------------------------------

HEAD = """
quality hue { red, green, blue }
quality mood { ok, broken }
object Knob { }
object Light { quality color: hue required }
object Vase {
  quality state: mood required
  quality tint: hue
  part knob: Knob function "grip"
}
quality grit { fine, coarse }
object Stone { quality grain: grit }
"""
VALUES = {"color": ("red", "green", "blue"), "state": ("ok", "broken"),
          "tint": ("red", "green", "blue")}
DETERMINABLES = {"Light": ("color",), "Vase": ("state", "tint")}
# No chain reads or writes a Knob or a Stone, so they stay out of the cone
# (a Stone with its grain unswept); a pin may still fix a Stone's grain.
PINNABLE = {**DETERMINABLES, "Stone": ("grain",)}
PIN_VALUES = {**VALUES, "grain": ("fine", "coarse")}
STATES = {"Light": 3, "Vase": 6, "Knob": 1, "Stone": 2}
# "b.knob" is the id of the knob part of a Vase named "b".
NAMES = ("a", "b", "b.knob", "c", "d")
LOOP_CAP = 3


def _subject(draw, names, kind) -> str:
    """``bearer`` (in the body of a ``kind``), a name of ``names`` (instance
    or role name -> schema or None) or a variable."""
    return draw(st.sampled_from(sorted(names) + ["?x"] + ["bearer"] * 3 * (kind is not None)))


def _pattern(draw, names, kind=None) -> str:
    """A pattern over a quality, mostly one its subject declares."""
    subject = _subject(draw, names, kind)
    declared = DETERMINABLES.get(kind if subject == "bearer" else names.get(subject), ())
    predicate = draw(st.sampled_from(list(declared) * 3 + sorted(VALUES)))
    obj = draw(st.sampled_from(VALUES[predicate] + ("?v",)))
    return f"{predicate}({subject}, {obj})"


def _transitional(draw, names, name: str, kind: str, *, monotone: bool) -> str:
    """A transitional that only reads, or that moves one quality value,
    guarded by a ``require`` or by its ``delete`` alone. A disposition
    realizes only moves up the ontology, so its cascades end."""
    lines = [f"require {_pattern(draw, names, kind)}" for _ in range(draw(st.integers(0, 1)))]
    if monotone or draw(st.integers(0, 3)):
        predicate = draw(st.sampled_from(DETERMINABLES.get(kind) or sorted(VALUES)))
        values = VALUES[predicate]
        old, new = draw(st.lists(st.sampled_from(values), min_size=2, max_size=2, unique=True))
        if monotone and values.index(old) > values.index(new):
            old, new = new, old
        subject = _subject(draw, names, kind)
        if subject.startswith("?") or draw(st.booleans()):
            lines.append(f"require {predicate}({subject}, {old})")
        lines += [f"delete {predicate}({subject}, {old})", f"create {predicate}({subject}, {new})"]
    body = "\n".join(f"  {line}" for line in lines)
    return f"transitional {name} on {kind} {{\n{body}\n}}\n"


def _steps(draw, names, transitionals, depth: int = 0) -> str:
    out = []
    for _ in range(draw(st.integers(1, 2))):
        form = draw(st.sampled_from(("do", "do", "if", "while") if depth < 2 else ("do",)))
        if form == "do":
            out.append(f"do {draw(st.sampled_from(transitionals))}")
            continue
        condition = _pattern(draw, names)
        inner = _steps(draw, names, transitionals, depth + 1)
        if form == "while":
            out.append(f"while {condition} {{\n{inner}\n}}")
        elif draw(st.booleans()):
            out.append(f"if {condition} {{\n{inner}\n}} else {{\n"
                       f"{_steps(draw, names, transitionals, depth + 1)}\n}}")
        else:
            out.append(f"if {condition} {{\n{inner}\n}}")
    return "\n".join(out)


@st.composite
def models(draw):
    instance = st.tuples(st.sampled_from(NAMES), st.sampled_from(sorted(STATES)))
    instances = draw(st.lists(instance, min_size=2, max_size=4, unique_by=lambda pair: pair[0]))
    kinds = sorted({schema for _, schema in instances} & set(DETERMINABLES))
    assume(kinds and math.prod(STATES[schema] for _, schema in instances) <= 216)
    # Mostly the names of space instances; one more name, absent or present.
    # A pattern spells no dotted name.
    names = {name: schema for name, schema in
             [(draw(st.sampled_from(NAMES)), None), *instances] if "." not in name}
    source = [HEAD]
    transitionals = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    for name in transitionals:
        kind = draw(st.sampled_from(kinds))
        source.append(_transitional(draw, names, name, kind, monotone=False))
    bearer_kinds = kinds + ["Knob"] * ("Vase" in kinds)
    for i in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(bearer_kinds))
        source.append(_transitional(draw, names, f"r{i}", kind, monotone=True))
        trigger = _pattern(draw, names, kind)
        source.append(f"disposition d{i} on {kind} when {trigger} realize r{i}\n")
    chain_a = _steps(draw, names, transitionals)
    chain_b = _steps(draw, names, transitionals) if draw(st.integers(0, 3)) else chain_a
    source.append(f"chain procedure a {{\n{chain_a}\n}}\n")
    source.append(f"chain procedure b {{\n{chain_b}\n}}\n")
    pinned = []
    pinnable = [(name, schema) for name, schema in instances if schema in PINNABLE]
    for name, schema in draw(st.lists(st.sampled_from(pinnable), max_size=2)) if pinnable else ():
        dets = PINNABLE[schema]  # all of them: the instance is fully pinned
        if draw(st.booleans()):
            dets = (draw(st.sampled_from(dets)),)
        pinned += [(name, det, draw(st.sampled_from(PIN_VALUES[det]))) for det in dets]
    return "".join(source), StateSpace(tuple(instances), tuple(pinned))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(model=models())
def test_cone_sweep_agrees_with_per_state_rebuild(model):
    source, space = model
    registry = compile_ok({"m": source}).registry
    expected = _outcome(oracle, registry, "a", "b", space, loop_cap=LOOP_CAP)
    assert _outcome(check_equivalence, registry, "a", "b", space, loop_cap=LOOP_CAP) == expected


# --- the rules one at a time ----------------------------------------------------------------

# A disposition whose trigger no chain writes still fires after any applied
# step: b's step applies on every state, a's only on a green light.
PINNED_TRAP = """
quality hue { red, green }
quality mood { ok, broken }
object Light { quality color: hue required }
object Vase { quality state: mood required }
transitional noop on Light { require color(bearer, green) }
transitional touch_any on Light { }
transitional mend on Vase {
  require state(bearer, broken)
  delete state(bearer, broken)
  create state(bearer, ok)
}
disposition self_mend on Vase when state(bearer, broken) realize mend
chain sequence a { do noop }
chain sequence b { do touch_any }
"""

# One model per rule: each differs only where an axis leaves its first value,
# so a cone that dropped the rule's coordinate would call the pair equivalent.
RULE_HEAD = """
quality hue { green, red }
quality mood { ok, broken }
object Knob { }
object Light { quality color: hue required }
object Vase {
  quality state: mood required
  part knob: Knob function "grip"
}
transitional touch on Light { }
transitional paint on Light {
  require color(bearer, red)
  delete color(bearer, red)
  create color(bearer, green)
}
"""
LIGHTS = StateSpace((("l2", "Light"), ("l1", "Light")))
LIGHT_AND_VASE = StateSpace((("v", "Vase"), ("l", "Light")))
RULES = {
    "a step reads the bearer instantiate_chain binds": (LIGHTS, """
chain sequence a { do paint }
chain sequence b { do touch }
"""),
    "a condition reads the instance its role names": (LIGHTS, """
chain procedure a { if color(l2, green) { do paint } }
chain sequence b { do paint }
"""),
    "a variable subject reads every instance": (LIGHTS, """
transitional paint_any on Light {
  require color(?x, red)
  delete color(?x, red)
  create color(?x, green)
}
chain sequence a { do paint_any }
chain sequence b { do touch }
"""),
    "an edit writes what no guard reads": (LIGHTS, """
transitional paint_l2 on Light {
  delete color(l2, red)
  create color(l2, green)
}
chain sequence a { do paint_l2 }
chain sequence b { do touch }
"""),
    "a trigger reads what its realization does not": (LIGHT_AND_VASE, """
transitional crack on Vase {
  delete state(bearer, ok)
  create state(bearer, broken)
}
transitional check on Vase { require state(bearer, broken) }
disposition alarm on Vase when color(l, red) realize crack
chain sequence a { do touch }
chain sequence b { do check }
"""),
    "a condition's ?bearer is any instance": (LIGHT_AND_VASE, """
transitional crack on Vase {
  delete state(bearer, ok)
  create state(bearer, broken)
}
chain procedure a { if color(?bearer, green) { do crack } }
chain sequence b { do crack }
"""),
    "a disposition on a part's kind reads and writes through constants": (LIGHT_AND_VASE, """
transitional mend_v on Knob {
  delete state(v, broken)
  create state(v, ok)
}
disposition fix on Knob when color(l, green) realize mend_v
chain sequence a { do touch }
chain procedure b { if color(l, red) { do touch } }
"""),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_cone_rule_agrees_with_the_oracle(rule):
    space, chains = RULES[rule]
    registry = compile_ok({"m": RULE_HEAD + chains}).registry
    expected = oracle(registry, "a", "b", space)
    assert not expected.equivalent
    assert check_equivalence(registry, "a", "b", space) == expected


def test_a_disposition_no_chain_triggers_stays_in_the_cone():
    registry = compile_ok({"m": PINNED_TRAP}).registry
    space = StateSpace((("v", "Vase"), ("l", "Light")))
    expected = EquivalenceResult(False, (("l.color", "red"), ("v.state", "broken")), 2)
    assert oracle(registry, "a", "b", space) == expected
    assert check_equivalence(registry, "a", "b", space) == expected


def test_mix_ink_agrees_with_the_oracle(registry):
    space = StateSpace((("d", "WaterDropper"), ("s", "InkStone"), ("t", "InkStick"),
                        ("b", "Brush")))
    expected = oracle(registry, "mix_ink", "mix_ink", space)
    assert expected == EquivalenceResult(True, None, 36)
    assert check_equivalence(registry, "mix_ink", "mix_ink", space) == expected


# Each space has a swept clock "c" and two fixed instances after it, and two
# of its spawns fail. The error is the first in name order, not in spawn
# order; the instances are listed in name order, so the oracle spawns them so.
SPAWN_ERRORS = {
    "two part ids clash": StateSpace(
        (("c", "Clock"), ("c.escape_gear", "Gear"), ("c.main_gear", "Gear"))),
    "a part id clashes before a bad pin": StateSpace(
        (("c", "Clock"), ("c.main_gear", "Gear"), ("c.x", "TrafficLight")),
        (("c.x", "color", "blue"),)),
}


@pytest.mark.parametrize("case", sorted(SPAWN_ERRORS))
def test_a_spawn_error_is_the_first_in_name_order(registry, case):
    space = SPAWN_ERRORS[case]
    expected = _outcome(oracle, registry, "unwind", "unwind", space)
    assert expected[0] is DuplicateNameError
    assert _outcome(check_equivalence, registry, "unwind", "unwind", space) == expected


# --- the saving -----------------------------------------------------------------------------


def _count_runs(monkeypatch) -> list:
    runs = []
    real_run = xfo.equivalence.run

    def counting_run(*args, **kwargs):
        runs.append(None)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(xfo.equivalence, "run", counting_run)
    return runs


def test_chains_run_only_where_the_cone_varies(registry, monkeypatch):
    runs = _count_runs(monkeypatch)
    space = StateSpace(tuple((f"l{i}", "TrafficLight") for i in range(7)))
    result = check_equivalence(registry, "cycle", "go_green_swapped", space)
    assert result == EquivalenceResult(True, None, 3 ** 7)
    assert len(runs) <= 2 * 3


def test_a_whole_cone_runs_both_chains_on_every_state(monkeypatch):
    registry = compile_ok({"m": """
quality hue { red, green }
object Light { quality color: hue required }
transitional paint on Light {
  require color(?x, red)
  delete color(?x, red)
  create color(?x, green)
}
chain sequence a { do paint }
"""}).registry
    runs = _count_runs(monkeypatch)
    space = StateSpace((("l1", "Light"), ("l2", "Light"), ("l3", "Light")))
    assert check_equivalence(registry, "a", "a", space) == EquivalenceResult(True, None, 8)
    assert len(runs) == 2 * 8


def test_out_of_cone_instances_are_spawned_once(registry, monkeypatch):
    spawns = count_calls(monkeypatch, Microworld, "spawn")
    space = StateSpace(tuple((f"l{i}", "TrafficLight") for i in range(7)))
    result = check_equivalence(registry, "cycle", "go_yellow", space)
    assert result.states_checked == 2 * 3 ** 6 + 1
    # Six lights once each, then the first light once per colour up to red.
    assert len(spawns) == 6 + 3


def test_chain_reach_is_read_not_walked(corpus, monkeypatch):
    registry = corpus.registry  # resolved before the count starts: resolution walks each chain
    walks = count_calls(monkeypatch, xfo.schemas, "walk_steps")
    space = StateSpace(tuple((f"l{i}", "TrafficLight") for i in range(7)))
    check_equivalence(registry, "cycle", "go_yellow", space)
    roles = {"dropper": "dropper", "stone": "stone", "stick": "stick", "brush": "brush"}
    instantiate_chain(world_from(corpus, "calligraphy_session"), "mix_ink", roles)
    assert walks == []
