"""Differential tests of the atomic unit and of interaction-rule dispatch.

Two oracles are kept here: the earlier ``apply_transitional``, which checked
every delete and create itself before asking the store to retract and assert
them, and the earlier dispatch, which first collected every (rule, tuple)
candidate and then rescanned every rule against each tuple. Random units and
random rule sets must give the same results, block reasons, statuses,
applied lists and fingerprints as those oracles.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import compile_ok

from xfo import transitions
from xfo.errors import BearerKindMismatchError, DestroyedBearerError, XfoError
from xfo.microworld import Microworld, run
from xfo.schemas import Edit, Pattern, TransitionalSchema, const, var

UNIT_MODEL = """
quality hue { red, green, blue }
object Lamp {
  quality color: hue
  quality shade: hue
  quality tint: hue
}
object Rock { }
relation facing(Lamp, Lamp)
relation near(Lamp, Rock)
"""

DISPATCH_MODEL = """
quality hue { red, green, blue }
quality power { on, off }
object Thing { quality hue: hue required }
object Lamp : Thing { quality power: power required }
object Spot : Lamp { }
object Rock : Thing { }
relation near(Thing, Thing)

transitional redden on Thing {
  require hue(bearer, green)
  delete hue(bearer, green)
  create hue(bearer, red)
}
transitional blue_out on Spot {
  require hue(bearer, red)
  delete hue(bearer, red)
  create hue(bearer, blue)
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
transitional force_green on Thing {
  create hue(bearer, green)
}
transitional unnear on Thing {
  require near(bearer, ?other)
  delete near(bearer, ?other)
}
"""

UNIT_REGISTRY = compile_ok({"units": UNIT_MODEL}).registry
DISPATCH_REGISTRY = compile_ok({"dispatch": DISPATCH_MODEL}).registry


def _outcome(call):
    try:
        return call()
    except XfoError as exc:
        return type(exc).__name__, str(exc)


# --- the unit oracle ---------------------------------------------------------------


def oracle_apply_transitional(store, transitional, bearer, tick):
    """The earlier apply_transitional: validation in the caller, then the
    store's retract and assert, which checked each create again."""
    record = store.instance(bearer)
    if not record.alive:
        raise DestroyedBearerError(f"bearer {bearer!r} is destroyed")
    if transitional.bearer_kind is None or not store.registry.is_subkind(
        record.schema, transitional.bearer_kind
    ):
        raise BearerKindMismatchError(
            f"{bearer!r} is a {record.schema}, not a {transitional.bearer_kind}: "
            f"cannot bear {transitional.name!r}"
        )
    bindings, deepest = transitions.solve_guards(
        store, transitional.guards, {"bearer": bearer}
    )
    if bindings is None:
        return transitions.BlockedTransition(
            transitional.name,
            bearer,
            transitional.guards[deepest] if transitional.guards else None,
            "guard failed",
        )

    def value(term):
        return bindings[term.value] if term.kind == "var" else term.value

    deletes, creates = [], []
    for patterns, out in ((transitional.deletes, deletes), (transitional.creates, creates)):
        for pattern in patterns:
            ground = (value(pattern.subject), pattern.predicate, value(pattern.object))
            if ground not in out:
                out.append(ground)
    # Only aggregate slots write member_of: a unit that edits it blocks unchecked.
    if any(predicate == "member_of" for _, predicate, _ in deletes + creates):
        return transitions.BlockedTransition(
            transitional.name, bearer, None, "'member_of' is written only by aggregate slots"
        )
    for ground in deletes:
        if ground not in store:
            return transitions.BlockedTransition(
                transitional.name, bearer, None, f"delete target not live: {ground}"
            )
    pending = frozenset(deletes)
    placed = set()
    for ground in creates:
        subject, predicate, obj = ground
        if ground in store and ground not in pending:
            continue
        try:
            store.check_assert(subject, predicate, obj, pending_deletes=pending)
        except XfoError as exc:
            return transitions.BlockedTransition(transitional.name, bearer, None, str(exc))
        for prior in placed:
            if prior[0] == subject and prior[1] == predicate and prior[2] != obj:
                if store.registry.determinable_slot(store.instance(subject).schema, predicate):
                    return transitions.BlockedTransition(
                        transitional.name, bearer, None,
                        f"conflicting creates for functional {predicate!r}",
                    )
        placed.add(ground)
    for subject, predicate, obj in deletes:
        store.retract_relation(subject, predicate, obj, tick)
    for subject, predicate, obj in creates:
        store.assert_relation(subject, predicate, obj, tick)
    return transitions.AppliedTransition(
        transitional.name, bearer, tick, tuple(sorted(bindings.items())),
        tuple(deletes), tuple(creates),
    )


SUBJECTS = (var("bearer"), const("l1"), const("l2"), const("r1"), const("dead"),
            const("ghost"))
PREDICATES = ("color", "shade", "tint", "facing", "near", "located_in", "part_of", "member_of",
              "has_role", "undeclared")
OBJECTS = (const("red"), const("green"), const("blue"), const("l1"), const("l2"),
           const("r1"), const("dead"), const("ghost"), var("x"))
HUES = (const("red"), const("green"), const("blue"))
LAMPS = (const("l1"), const("l2"))
SEED_TRIPLES = (
    ("l1", "shade", "blue"), ("l2", "shade", "red"), ("l1", "facing", "l2"),
    ("l2", "facing", "l1"), ("l1", "near", "r1"), ("l2", "near", "r1"),
    ("l1", "located_in", "garage"), ("r1", "part_of", "l1"),
)


def _p(predicate, subject, obj):
    """A pattern from names; a leading ``?`` marks a variable."""
    def term(name):
        return var(name[1:]) if name.startswith("?") else const(name)
    return Pattern(predicate, term(subject), term(obj))


COLOR_X = _p("color", "?bearer", "?x")

# Mostly edits that can apply (on the bearer, a seeded triple, a valid value),
# so units also reach the no-op, re-create and conflicting-create cases.
likely = st.sampled_from((
    COLOR_X, _p("shade", "l1", "blue"), _p("facing", "l1", "l2"), _p("near", "l1", "r1"),
    _p("located_in", "l1", "garage"), _p("part_of", "r1", "l1"),
)) | st.builds(
    Pattern, st.sampled_from(("color", "shade", "tint", "facing")), st.just(var("bearer")),
    st.sampled_from((const("red"), const("green"), const("l1"), const("l2"), var("x"))),
)
patterns = likely | likely | likely | st.builds(
    Pattern, st.sampled_from(PREDICATES), st.sampled_from(SUBJECTS), st.sampled_from(OBJECTS)
)


@st.composite
def units(draw):
    """(deletes, creates); often a create of the same subject and predicate
    as an earlier create, with another value."""
    deletes = draw(st.lists(st.just(COLOR_X) | patterns, max_size=2))
    creates = draw(st.lists(patterns, min_size=1, max_size=3))
    if draw(st.booleans()):
        first = draw(st.sampled_from(creates))
        values = {"color": HUES, "shade": HUES, "tint": HUES, "facing": LAMPS}.get(
            first.predicate, OBJECTS
        )
        other = draw(st.sampled_from(values))
        creates.insert(draw(st.integers(0, len(creates))),
                       Pattern(first.predicate, first.subject, other))
    return deletes, creates


def unit_world(colors, seeded):
    world = Microworld(UNIT_REGISTRY, name="units")
    for instance_id, color in zip(("l1", "l2", "dead"), colors):
        world.spawn("Lamp", {"color": color} if color else {}, instance_id=instance_id)
    world.spawn("Rock", instance_id="r1")
    for triple in seeded:
        _outcome(lambda: world.assert_relation(*triple))
    world.destroy("dead")
    return world


@settings(max_examples=300, deadline=None)
@example(["red", None, None], set(), True,  # two new values for a deleted colour
         ([COLOR_X], [_p("color", "?bearer", "green"), _p("color", "?bearer", "blue")]), "l1")
@example(["red", None, None], set(), True,  # the unit re-creates what it deletes
         ([COLOR_X], [_p("shade", "l1", "blue"), COLOR_X]), "l1")
@example(["red", None, "red"], set(), False,  # a delete of a destroyed subject's triple
         ([_p("color", "dead", "red")], [_p("shade", "?bearer", "red")]), "l2")
@given(
    colors=st.lists(st.sampled_from((None, "red", "green", "blue")), min_size=3, max_size=3),
    unseeded=st.sets(st.sampled_from(SEED_TRIPLES)),
    guarded=st.booleans(),
    unit=units(),
    bearer=st.sampled_from(("l1", "l2", "l1", "l2", "dead", "r1")),
)
def test_unit_matches_caller_side_validation(colors, unseeded, guarded, unit, bearer):
    deletes, creates = unit
    # ?x is bound by the one guard, so an edit naming it needs the guard.
    guards = (COLOR_X,) if guarded or any(p.object == var("x") for p in deletes + creates) else ()
    edits = tuple(Edit("delete", p) for p in deletes) + tuple(Edit("create", p) for p in creates)
    transitional = TransitionalSchema("unit", "Lamp", guards, edits)
    world = unit_world(colors, [t for t in SEED_TRIPLES if t not in unseeded])
    oracle = world.clone()
    tick = world.clock + 1

    got = _outcome(lambda: transitions.apply_transitional(world.store, transitional, bearer, tick))
    want = _outcome(lambda: oracle_apply_transitional(oracle.store, transitional, bearer, tick))

    assert got == want
    assert world.store.fingerprint() == oracle.store.fingerprint()


# --- the dispatch oracle -------------------------------------------------------------


class OracleWorld(Microworld):
    """A microworld whose ``fire_one_interaction`` is the earlier two-pass scan."""

    def _rule_specificity(self, rule):
        return sum(len(self.registry.kinds.path_to_entity(k)) for k in rule.kinds)

    def _rule_candidates(self):
        for index, rule in enumerate(self.rules):
            pools = [self.store.alive_of_kind(kind) for kind in rule.kinds]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                if len(set(combo)) != len(combo):
                    continue
                if rule.guard is not None:
                    bindings = {f"p{i + 1}": inst for i, inst in enumerate(combo)}
                    if not self.store.matches(rule.guard, bindings=bindings):
                        continue
                yield index, combo

    def _rule_bearer(self, rule, combo):
        transitional = self.registry.transitional(rule.transitional)
        if transitional is None or transitional.bearer_kind is None:
            return None
        for instance_id in combo:
            record = self.store.instance(instance_id)
            if self.registry.is_subkind(record.schema, transitional.bearer_kind):
                return instance_id
        return None

    def _rules_matching(self, combo):
        matching = []
        for index, rule in enumerate(self.rules):
            if len(rule.kinds) != len(combo):
                continue
            if not all(
                self.registry.is_subkind(self.store.instance(inst).schema, kind)
                for inst, kind in zip(combo, rule.kinds)
            ):
                continue
            if rule.guard is not None:
                bindings = {f"p{i + 1}": inst for i, inst in enumerate(combo)}
                if not self.store.matches(rule.guard, bindings=bindings):
                    continue
            matching.append((index, rule))
        matching.sort(key=lambda pair: (-self._rule_specificity(pair[1]), pair[0]))
        return matching

    def fire_one_interaction(self):
        attempted = set()
        for _, combo in self._rule_candidates():
            if combo in attempted:
                continue
            attempted.add(combo)
            for _, rule in self._rules_matching(combo):
                bearer = self._rule_bearer(rule, combo)
                if bearer is None:
                    continue
                result = self.apply(rule.transitional, bearer)
                if isinstance(result, transitions.AppliedTransition):
                    return result
        return None


KINDS = ("Thing", "Lamp", "Spot", "Rock", "Entity", "Ghost")
RULE_TRANSITIONALS = ("redden", "blue_out", "switch_on", "switch_off", "force_green",
                      "unnear", "missing")
GUARD_TERMS = (var("p1"), var("p2"), const("red"), const("green"), const("on"),
               const("off"), var("free"))
SPAWNS = {"Lamp": True, "Spot": True, "Rock": False}


@st.composite
def rule_sets(draw):
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        arity = draw(st.integers(1, 2))
        kinds = tuple(draw(st.sampled_from(KINDS)) for _ in range(arity))
        guard = draw(st.none() | st.none() | st.builds(
            Pattern,
            st.sampled_from(("hue", "power", "near", "hue", "power", "near", "undeclared")),
            st.sampled_from((var("p1"), var("p2"))[:arity]),
            st.sampled_from(GUARD_TERMS),
        ))
        rules.append((kinds, guard, draw(st.sampled_from(RULE_TRANSITIONALS))))
    return rules


def dispatch_world(instances, nears):
    world = Microworld(DISPATCH_REGISTRY, name="dispatch")
    ids = []
    for index, (schema, hue, power) in enumerate(instances):
        determinants = {"hue": hue, "power": power} if SPAWNS[schema] else {"hue": hue}
        ids.append(world.spawn(schema, determinants, instance_id=f"i{index}"))
    for a, b in nears:
        if a < len(ids) and b < len(ids) and a != b:
            world.assert_relation(ids[a], "near", ids[b])
    return world


@settings(max_examples=300, deadline=None)
@example(  # a later, more specific rule whose guard fails must not fire
    [("Spot", "red", "on")], [],
    [(("Thing",), None, "redden"), (("Spot",), _p("hue", "?p1", "green"), "blue_out")], 4,
)
@given(
    instances=st.lists(
        st.tuples(st.sampled_from(tuple(SPAWNS)), st.sampled_from(("green", "red", "blue")),
                  st.sampled_from(("on", "off"))),
        min_size=1, max_size=5,
    ),
    nears=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3),
    rules=rule_sets(),
    max_ticks=st.integers(1, 8),
)
def test_single_pass_dispatch_matches_two_pass_scan(instances, nears, rules, max_ticks):
    world = dispatch_world(instances, nears)
    for rule in rules:
        world.add_interaction_rule(*rule)
    oracle = world.clone()
    oracle.__class__ = OracleWorld

    got = _outcome(lambda: run(world, max_ticks=max_ticks))
    want = _outcome(lambda: run(oracle, max_ticks=max_ticks))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.status, got.applied, got.events, got.ticks_used) == (
            want.status, want.applied, want.events, want.ticks_used
        )
    assert world.fingerprint() == oracle.fingerprint()
