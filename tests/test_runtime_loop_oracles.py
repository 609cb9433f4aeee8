"""Differential tests of the runtime's control loops.

Two oracles are kept here, verbatim: the earlier ``fire_dispositions``, a
restart loop driven by a ``progressed`` flag, and the earlier ``run``, with
one budget loop for chains and one for interaction rules. Generated worlds
over one small model must give the same firing lists, statuses, applied
lists, events, ticks, errors and fingerprints under the current loops as
under those oracles. (Rule dispatch itself is compared with its own oracle
in ``test_unit_dispatch_oracles``.)

The model has a cascade (``warm`` reddens a lamp, which triggers ``fade``,
which triggers ``cool``), realizations that block for some bearers
(``warm`` on a lamp that is not green, ``cool`` on a lamp already off), two
dispositions that refire until the cap (``alarm`` and ``repaint`` realize
transitionals that apply again and again), and bearers of a subkind
(dispositions on ``Thing`` over lamps and rocks).
"""

from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import compile_ok

from xfo import transitions
from xfo.errors import DispositionCascadeOverflowError, XfoError
from xfo.microworld import (
    ABORTED,
    COMPLETED,
    QUIESCENT,
    TICK_BUDGET_EXHAUSTED,
    DispositionFiring,
    Microworld,
    RunResult,
    run,
)
from xfo.schemas import Pattern, const, var

HEAD = """
quality hue { red, green, blue }
quality power { on, off }
quality bell { quiet, ringing }
object Thing {
  quality hue: hue required
  quality bell: bell
}
object Lamp : Thing { quality power: power required }
object Rock : Thing { }
relation struck(Thing, Thing)

transitional redden on Thing {
  require hue(bearer, green)
  delete hue(bearer, green)
  create hue(bearer, red)
}
transitional blue_out on Thing {
  require hue(bearer, red)
  delete hue(bearer, red)
  create hue(bearer, blue)
}
transitional green_up on Thing {
  require hue(bearer, blue)
  delete hue(bearer, blue)
  create hue(bearer, green)
}
transitional switch_on on Lamp {
  require power(bearer, off)
  delete power(bearer, off)
  create power(bearer, on)
}
transitional switch_off on Lamp {
  require power(bearer, on)
  delete power(bearer, on)
  create power(bearer, off)
}
transitional ring on Thing {
  create bell(bearer, ringing)
}
transitional absorb on Thing {
  require struck(bearer, ?other)
  delete struck(bearer, ?other)
}
transitional paint_green on Thing {
  create hue(bearer, green)
}
"""

DISPOSITIONS = (
    "disposition warm on Lamp when power(bearer, on) realize redden",
    "disposition fade on Thing when hue(bearer, red) realize blue_out",
    "disposition cool on Lamp when hue(bearer, blue) realize switch_off",
    "disposition chime on Thing when struck(bearer, ?x) realize absorb",
    "disposition alarm on Thing when struck(?x, bearer) realize ring",
    "disposition settle on Rock when hue(bearer, blue) realize green_up",
    "disposition repaint on Thing when bell(bearer, ringing) realize paint_green",
)
TRANSITIONALS = ("redden", "blue_out", "green_up", "switch_on", "switch_off", "ring",
                 "absorb", "paint_green")
SCHEMAS = ("Lamp", "Lamp", "Rock", "Thing")
IDS = ("a", "b", "c", "d")


@lru_cache(maxsize=None)
def registry_of(dispositions: tuple[str, ...], chain: str):
    source = "\n".join((HEAD, *dispositions, f"chain procedure walk {{\n{chain}\n}}\n"))
    return compile_ok({"loops": source}).registry


# --- the oracles -------------------------------------------------------------------


class OracleWorld(Microworld):
    """A microworld whose ``fire_dispositions`` is the earlier restart loop."""

    def fire_dispositions(self) -> list[DispositionFiring]:
        """Fire every triggered disposition, sure-fire, to fixpoint.

        After each firing the scan restarts so cascades fire in a stable
        order. A (disposition, bearer) pair whose realization blocks is
        skipped for the rest of the call. Raises DispositionCascadeOverflow
        past the cap.
        """
        fired: list[DispositionFiring] = []
        blocked: set[tuple[str, str]] = set()
        progressed = True
        while progressed:
            progressed = False
            for disposition in self.registry.dispositions():
                if disposition.trigger is None or disposition.realization is None:
                    continue
                if disposition.bearer_kind is None:
                    continue
                for bearer in self.store.alive_of_kind(disposition.bearer_kind):
                    if (disposition.name, bearer) in blocked:
                        continue
                    if not self.store.matches(
                        disposition.trigger, bindings={"bearer": bearer}
                    ):
                        continue
                    result = self.apply(disposition.realization, bearer)
                    if isinstance(result, transitions.AppliedTransition):
                        fired.append(
                            DispositionFiring(
                                disposition.name, bearer, result.tick, result.transitional
                            )
                        )
                        if len(fired) > self.disposition_cap:
                            raise DispositionCascadeOverflowError(
                                f"disposition cascade exceeded {self.disposition_cap} firings"
                            )
                        progressed = True
                        break
                    blocked.add((disposition.name, bearer))
                if progressed:
                    break
        return fired


def oracle_run(world: Microworld, chain: transitions.ChainInstance | None = None,
               *, max_ticks: int = 10_000) -> RunResult:
    """Run a chain instance, or (without one) the interaction rules.

    Steps until completion, quiescence, or the tick budget; after every
    applied transitional, dispositions fire to fixpoint. On budget exhaustion
    the world state so far is still returned.
    """
    if max_ticks <= 0:
        raise XfoError(f"the tick budget must be positive, got {max_ticks}")
    start_clock = world.clock
    start_events = len(world.events)
    applied: list = []

    def budget_left() -> bool:
        return world.clock - start_clock < max_ticks

    if chain is not None:
        status = None
        while not chain.finished:
            if not budget_left():
                status = TICK_BUDGET_EXHAUSTED
                break
            before = len(chain.log)
            transitions.step_chain(world, chain)
            if len(chain.log) > before:
                applied.append(chain.log[-1])
                world.fire_dispositions()
        if status is None:
            status = COMPLETED if chain.status == transitions.COMPLETED else ABORTED
    else:
        while True:
            if not budget_left():
                status = TICK_BUDGET_EXHAUSTED
                break
            result = world.fire_one_interaction()
            if result is None:
                status = QUIESCENT
                break
            applied.append(result)
            world.fire_dispositions()

    return RunResult(
        status=status,
        world=world,
        applied=applied,
        events=list(world.events[start_events:]),
        ticks_used=world.clock - start_clock,
    )


# --- generated worlds ------------------------------------------------------------------


def _outcome(call):
    try:
        return call()
    except XfoError as exc:
        return type(exc).__name__, str(exc)


# Variables often, so that ``while`` loops run until the budget or the loop cap.
CONDITIONS = st.builds(
    "{}({}, {})".format,
    st.sampled_from(("hue", "power", "bell", "struck")),
    st.sampled_from((*IDS, "?x", "?x")),
    st.sampled_from(("red", "green", "blue", "on", "off", "ringing", "?y", "?y", "?y", *IDS)),
)


def steps(depth: int = 0):
    """Chain steps: ``do`` (often one that blocks), ``if`` with an optional
    ``else``, and ``while``."""
    do = st.sampled_from(TRANSITIONALS).map("do {}".format)
    if depth == 2:
        return st.lists(do, min_size=1, max_size=2).map("\n".join)
    inner = steps(depth + 1)
    step = do | do | st.builds("if {} {{\n{}\n}}".format, CONDITIONS, inner) | st.builds(
        "if {} {{\n{}\n}} else {{\n{}\n}}".format, CONDITIONS, inner, inner
    ) | st.builds("while {} {{\n{}\n}}".format, CONDITIONS, inner)
    return st.lists(step, min_size=1, max_size=3).map("\n".join)


RULES = st.lists(
    st.tuples(
        st.lists(st.sampled_from(("Thing", "Lamp", "Rock")), min_size=1, max_size=2).map(tuple),
        st.none() | st.builds(
            Pattern, st.sampled_from(("hue", "power", "struck")), st.sampled_from((var("p1"),)),
            st.sampled_from((const("red"), const("green"), const("on"), const("off"),
                             var("p2"), var("free"))),
        ),
        st.sampled_from(TRANSITIONALS),
    ),
    max_size=4,
)


class Logged:
    """Keeps the firing list of every ``fire_dispositions`` call, the ones
    ``run`` makes included."""

    def fire_dispositions(self):
        fired = super().fire_dispositions()
        self.firings.append(fired)
        return fired


class LoggedWorld(Logged, Microworld):
    pass


class LoggedOracle(Logged, OracleWorld):
    pass


def build(registry, instances, strikes, cap, cls):
    world = cls(registry, name="loops")
    for instance_id, (schema, hue, power) in zip(IDS, instances):
        determinants = {"hue": hue, **({"power": power} if schema == "Lamp" else {})}
        world.spawn(schema, determinants, instance_id=instance_id)
    for a, b in strikes:
        if a < len(instances) and b < len(instances):
            world.assert_relation(IDS[a], "struck", IDS[b])
    world.disposition_cap = cap
    world.firings = []
    return world


def results(world, chain_mode, rules, max_ticks):
    """The firing list of a first ``fire_dispositions`` (build-time triggers
    never fire on their own), then the run's fields; errors as values."""
    drive = oracle_run if isinstance(world, OracleWorld) else run
    fired = _outcome(world.fire_dispositions)
    if isinstance(fired, tuple):
        return fired, None
    if chain_mode:
        bindings = {instance_id: instance_id for instance_id in world.store.alive_of_kind("Thing")}
        chain = _outcome(lambda: transitions.instantiate_chain(world, "walk", bindings, loop_cap=6))
        if isinstance(chain, tuple):
            return fired, chain
    else:
        chain = None
        for rule in rules:
            world.add_interaction_rule(*rule)
    outcome = _outcome(lambda: drive(world, chain, max_ticks=max_ticks))
    if isinstance(outcome, tuple):
        return fired, outcome
    return fired, (outcome.status, outcome.applied, outcome.events, outcome.ticks_used)


@settings(max_examples=300, deadline=None)
@example(  # a chain whose last step spends the budget
    dispositions=[], chain="do switch_on\ndo redden", chain_mode=True, rules=[],
    instances=[("Lamp", "green", "off")], strikes=[], cap=5, max_ticks=2,
)
@example(  # the cascade warm -> fade -> cool, with warm blocked on the red lamp
    dispositions=list(DISPOSITIONS[:3]), chain="do switch_on", chain_mode=True, rules=[],
    instances=[("Lamp", "green", "off"), ("Lamp", "red", "on")], strikes=[], cap=10,
    max_ticks=8,
)
@example(  # a rule creates a trigger whose disposition refires past a small cap
    dispositions=[DISPOSITIONS[6]], chain="do ring", chain_mode=False,
    rules=[(("Thing",), None, "ring")], instances=[("Thing", "green", "on")], strikes=[],
    cap=2, max_ticks=3,
)
@given(
    dispositions=st.lists(st.sampled_from(DISPOSITIONS), unique=True, max_size=5),
    chain=steps(),
    chain_mode=st.booleans(),
    rules=RULES,
    instances=st.lists(
        st.tuples(st.sampled_from(SCHEMAS), st.sampled_from(("red", "green", "blue")),
                  st.sampled_from(("on", "off"))),
        min_size=1, max_size=4,
    ),
    strikes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3),
    cap=st.integers(1, 6),
    max_ticks=st.integers(1, 8),
)
def test_loops_match_the_flag_loop_oracles(dispositions, chain, chain_mode, rules, instances,
                                           strikes, cap, max_ticks):
    registry = registry_of(tuple(dispositions), chain)
    world = build(registry, instances, strikes, cap, LoggedWorld)
    oracle = build(registry, instances, strikes, cap, LoggedOracle)

    got = results(world, chain_mode, rules, max_ticks)
    want = results(oracle, chain_mode, rules, max_ticks)

    assert got == want
    assert world.firings == oracle.firings
    assert world.fingerprint() == oracle.fingerprint()


def test_the_model_reaches_each_status_and_the_cap():
    """Each run status and the cascade cap are reachable, so the comparison
    above is not vacuous."""
    redden_green = [(("Lamp",), Pattern("hue", var("p1"), const("green")), "redden")]
    # A chain completes with the step that leaves no step to run, so a chain
    # whose last step spends the budget completes; one with a step left over
    # is exhausted.
    cases = [  # (chain, chain mode, rules, max_ticks) -> (status, steps applied, ticks)
        (("do switch_on\ndo redden", True, [], 3), (COMPLETED, 2, 2)),
        (("do switch_on\ndo redden", True, [], 2), (COMPLETED, 2, 2)),
        (("do switch_on\ndo redden", True, [], 1), (TICK_BUDGET_EXHAUSTED, 1, 1)),
        (("do switch_off", True, [], 8), (ABORTED, 0, 0)),
        (("do ring", False, redden_green, 8), (QUIESCENT, 1, 1)),
    ]
    for (chain, chain_mode, rules, max_ticks), expected in cases:
        world = build(registry_of((), chain), [("Lamp", "green", "off")], [], 5, Microworld)
        _, (status, applied, _, ticks) = results(world, chain_mode, rules, max_ticks)
        assert (status, len(applied), ticks) == expected
    registry = registry_of((DISPOSITIONS[4],), "do ring")
    world = build(registry, [("Rock", "green", "on"), ("Thing", "red", "on")], [(0, 1)], 2,
                  Microworld)
    fired = _outcome(world.fire_dispositions)
    assert fired == ("DispositionCascadeOverflowError", "disposition cascade exceeded 2 firings")
