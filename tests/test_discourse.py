import itertools
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfo import CausalField, ClaimLedger, InusVerdict, check_inus
from xfo.errors import (
    DanglingEvidenceRefError,
    DuplicateNameError,
    UnknownClaimError,
    UnknownConditionError,
    XfoError,
)

# --- claims and evidence ---------------------------------------------------------


def test_claim_supported_by_validated_evidence():
    ledger = ClaimLedger()
    ledger.add_claim("austerity", "The later style reflects a turn toward restraint")
    ledger.attach_evidence("austerity", "doc:museum-record", "catalog entry", validated=True)
    assert ledger.supported("austerity")


def test_unvalidated_evidence_leaves_claim_unsupported():
    ledger = ClaimLedger()
    ledger.add_claim("austerity", "statement")
    ledger.attach_evidence("austerity", "doc:museum-record", "catalog entry")
    assert not ledger.supported("austerity")


def test_dangling_instance_ref_rejected():
    known = {"dropper", "kiln"}
    ledger = ClaimLedger(instance_lookup=lambda ref: ref in known)
    ledger.add_claim("c", "statement")
    with pytest.raises(DanglingEvidenceRefError):
        ledger.attach_evidence("c", "never_existed", "bad ref")


def test_destroyed_instance_still_citable():
    # Lookup covers alive and destroyed instances; document refs pass through.
    known = {"dropper"}
    ledger = ClaimLedger(instance_lookup=lambda ref: ref in known)
    ledger.add_claim("c", "statement")
    ledger.attach_evidence("c", "dropper", "the artifact itself")
    ledger.attach_evidence("c", "doc:survey", "opaque document ref")
    assert len(ledger.claim("c").evidence) == 2


def test_support_is_pure_function_of_validated_flags():
    ledger = ClaimLedger()
    ledger.add_claim("c", "statement")
    ledger.attach_evidence("c", "doc:a", "first")
    ledger.attach_evidence("c", "doc:b", "second")
    assert not ledger.supported("c")
    ledger.validate_evidence("c", "doc:b")
    assert ledger.supported("c")
    ledger.claim("c").evidence[1].validated = False
    assert not ledger.supported("c")


def test_unknown_claim_and_duplicates():
    ledger = ClaimLedger()
    ledger.add_claim("c", "statement")
    with pytest.raises(DuplicateNameError):
        ledger.add_claim("c", "statement again")
    with pytest.raises(UnknownClaimError):
        ledger.attach_evidence("nope", "doc:x", "")
    with pytest.raises(DanglingEvidenceRefError):
        ledger.validate_evidence("c", "doc:x")


def test_corpus_claim_compiles_into_defs(corpus):
    (claim,) = corpus.claims
    assert claim.name == "austere_turn"
    assert len(claim.evidence) == 2
    ledger = ClaimLedger()
    ledger.add_claim(claim.name, claim.statement)
    for item in claim.evidence:
        ledger.attach_evidence(claim.name, item.ref, item.note)
    assert not ledger.supported(claim.name)
    ledger.validate_evidence(claim.name, claim.evidence[0].ref)
    assert ledger.supported(claim.name)


# --- INUS ----------------------------------------------------------------------------


def oracle_inus(field, condition):
    """Independent subset-enumeration oracle.

    Derived sufficiency is decided by direct subset inclusion per clause,
    with no shared table against the implementation under test.
    """

    def sufficient(subset):
        return any(declared <= frozenset(subset) for declared in field.sufficient)

    for candidate in field.sufficient:
        if condition not in candidate:
            continue
        insufficient = not sufficient({condition})
        necessary = not sufficient(candidate - {condition})
        unnecessary = any(condition not in other for other in field.sufficient)
        if insufficient and necessary and unnecessary:
            return True, candidate
    return False, None


FIRE = CausalField(
    "house_fire",
    ("short_circuit", "flammable_material", "arson"),
    (frozenset({"short_circuit", "flammable_material"}), frozenset({"arson"})),
)


def test_short_circuit_is_inus():
    verdict = check_inus(FIRE, "short_circuit")
    assert verdict.inus
    assert verdict.witness == frozenset({"short_circuit", "flammable_material"})
    assert oracle_inus(FIRE, "short_circuit") == (True, verdict.witness)


def test_arson_alone_is_not_inus():
    field = CausalField("fire", ("arson",), (frozenset({"arson"}),))
    verdict = check_inus(field, "arson")
    assert not verdict.inus
    assert oracle_inus(field, "arson") == (False, None)


def test_sufficient_condition_with_alternatives_not_inus():
    verdict = check_inus(FIRE, "arson")
    assert not verdict.inus


def test_condition_absent_from_every_set_is_false():
    field = CausalField("fire", ("a", "b", "c"), (frozenset({"a"}),))
    assert not check_inus(field, "b").inus


def test_unknown_condition_rejected():
    with pytest.raises(UnknownConditionError):
        check_inus(FIRE, "lightning")
    with pytest.raises(UnknownConditionError):
        CausalField("fire", ("a",), (frozenset({"ghost"}),))


def test_no_sufficient_sets_rejected():
    field = CausalField("fire", ("a",), ())
    with pytest.raises(XfoError):
        check_inus(field, "a")


def test_exhaustive_sweep_agrees_with_oracle():
    # Every causal field with at most 4 conditions and at most 3 declared
    # sufficient sets, every condition checked: thousands of cases.
    names = ("c1", "c2", "c3", "c4")
    started = time.perf_counter()
    cases = 0
    for width in range(1, 5):
        universe = names[:width]
        subsets = [
            frozenset(combo)
            for size in range(1, width + 1)
            for combo in itertools.combinations(universe, size)
        ]
        for count in range(1, 4):
            for declared in itertools.combinations(subsets, count):
                field = CausalField("outcome", universe, tuple(declared))
                for condition in universe:
                    verdict = check_inus(field, condition)
                    expected, _ = oracle_inus(field, condition)
                    assert verdict.inus == expected, (declared, condition)
                    if verdict.inus:
                        ok, _ = oracle_inus(field, condition)
                        assert ok
                    cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 2000
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s over {cases} cases"


_conditions = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e", "f"]), min_size=1, max_size=6, unique=True
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_random_fields_agree_with_oracle(data):
    universe = tuple(data.draw(_conditions))
    subsets = st.frozensets(st.sampled_from(universe), min_size=1, max_size=len(universe))
    declared = tuple(data.draw(st.lists(subsets, min_size=1, max_size=4)))
    field = CausalField("outcome", universe, declared)
    condition = data.draw(st.sampled_from(universe))
    assert check_inus(field, condition).inus == oracle_inus(field, condition)[0]


def powerset_inus(field, condition):
    """The table-based checker: derived sufficiency of every subset of the
    universe, read at the entries the INUS definition names."""
    universe = tuple(field.universe)
    table = {}
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            subset = frozenset(combo)
            table[subset] = any(s <= subset for s in field.sufficient)
    for candidate in field.sufficient:
        if condition not in candidate:
            continue
        insufficient = not table[frozenset({condition})]
        necessary = not table[candidate - {condition}]
        unnecessary = any(condition not in other for other in field.sufficient)
        if insufficient and necessary and unnecessary:
            return InusVerdict(condition, True, candidate)
    return InusVerdict(condition, False, None)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_verdicts_and_witnesses_agree_with_the_powerset_table(data):
    names = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
    universe = tuple(data.draw(st.lists(names, min_size=1, max_size=8, unique=True)))
    subsets = st.frozensets(st.sampled_from(universe), min_size=1, max_size=len(universe))
    declared = tuple(data.draw(st.lists(subsets, min_size=1, max_size=5)))
    field = CausalField("outcome", universe, declared)
    condition = data.draw(st.sampled_from(universe))
    assert check_inus(field, condition) == powerset_inus(field, condition)


def test_forty_conditions_decide_within_a_second():
    universe = tuple(f"c{i}" for i in range(40))
    field = CausalField("outcome", universe,
                        (frozenset(universe[:20]), frozenset(universe[20:])))

    def too_slow(signum, frame):
        raise TimeoutError("check_inus took over 1 s on 40 conditions")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        verdict = check_inus(field, "c0")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert verdict == InusVerdict("c0", True, frozenset(universe[:20]))


def test_alternative_addition_keeps_witness_valid():
    # Adding a genuinely alternative sufficient set (one that makes neither
    # {condition} nor witness-minus-condition sufficient) preserves the
    # verdict and its witness.
    base = CausalField(
        "fire",
        ("short_circuit", "flammable_material", "arson", "lightning"),
        (frozenset({"short_circuit", "flammable_material"}), frozenset({"arson"})),
    )
    before = check_inus(base, "short_circuit")
    assert before.inus
    extended = CausalField(
        base.outcome,
        base.universe,
        base.sufficient + (frozenset({"lightning"}),),
    )
    after = check_inus(extended, "short_circuit")
    assert after.inus
    assert after.witness == before.witness


def test_degenerate_addition_flips_verdict():
    # Declaring the condition sufficient on its own destroys clause (i): it
    # is no longer an *insufficient* part, so the INUS verdict must flip.
    # This bounds how far the addition-stability property can reach.
    extended = CausalField(
        FIRE.outcome, FIRE.universe, FIRE.sufficient + (frozenset({"short_circuit"}),)
    )
    assert not check_inus(extended, "short_circuit").inus
    assert oracle_inus(extended, "short_circuit") == (False, None)
