import pytest

from xfo import RegistryBuilder, validate_registry
from xfo.diagnostics import DANGLING_REFERENCE
from xfo.errors import (
    DanglingReferenceError,
    DuplicateNameError,
    InheritanceCycleError,
    InvalidChainError,
    RecursiveAggregateError,
    RecursiveCompositionError,
    ReservedUpperTaxonomyNameError,
    UnboundVariableError,
)
from xfo.registry import BUILTIN_PREDICATES
from xfo.schemas import (
    BEARER,
    DISPOSITION,
    AggregateLink,
    AggregateMember,
    AggregateSchema,
    ChainSchema,
    DoStep,
    Edit,
    IfStep,
    Need,
    Pattern,
    PartSlot,
    ProcessSchema,
    QualityOntology,
    QualitySlot,
    RealizableSchema,
    RelationSchema,
    ThickObjectSchema,
    TransitionalSchema,
    WhileStep,
    const,
    var,
)


def light_schema():
    return ThickObjectSchema(
        "TrafficLight", qualities=(QualitySlot("color", "color", required=True),)
    )


def test_register_traffic_light():
    builder = RegistryBuilder()
    builder.register(light_schema())
    assert len(builder) == 1
    assert "TrafficLight" in builder


def test_resolve_rejects_a_relation_named_like_a_quality_slot():
    builder = RegistryBuilder().register_all([
        QualityOntology("hue", ("red", "green")),
        ThickObjectSchema("Lamp", qualities=(QualitySlot("color", "hue"),)),
        RelationSchema("color", "Lamp", "Lamp"),
    ])
    with pytest.raises(DuplicateNameError, match="relation 'color' is also a quality slot"):
        builder.resolve()


def test_duplicate_name_rejected():
    builder = RegistryBuilder()
    builder.register(light_schema())
    with pytest.raises(DuplicateNameError):
        builder.register(light_schema())


def test_reserved_upper_name_rejected():
    builder = RegistryBuilder()
    with pytest.raises(ReservedUpperTaxonomyNameError):
        builder.register(ThickObjectSchema("Object"))


def dropper_builder():
    builder = RegistryBuilder()
    builder.register(QualityOntology("moisture", ("wet", "fired")))
    builder.register(QualityOntology("glaze", ("green", "clear")))
    builder.register(
        ThickObjectSchema(
            "WaterDropper", qualities=(QualitySlot("moisture", "moisture", required=True),)
        )
    )
    builder.register(
        ThickObjectSchema(
            "CeladonDropper",
            parent="WaterDropper",
            qualities=(QualitySlot("glaze", "glaze"),),
        )
    )
    return builder


def test_resolve_flattens_child_over_parent():
    registry = dropper_builder().resolve()
    child = registry.object_schema("CeladonDropper")
    # Hand-flattened expectation: parent slots first, child additions after.
    assert child.qualities == (
        QualitySlot("moisture", "moisture", required=True),
        QualitySlot("glaze", "glaze", required=False),
    )
    assert child.parent == "WaterDropper"


def test_child_override_appears_exactly_once():
    builder = RegistryBuilder()
    builder.register(QualityOntology("moisture", ("wet", "fired")))
    builder.register(
        ThickObjectSchema(
            "WaterDropper", qualities=(QualitySlot("moisture", "moisture", required=True),)
        )
    )
    builder.register(
        ThickObjectSchema(
            "CeladonDropper",
            parent="WaterDropper",
            qualities=(QualitySlot("moisture", "moisture", required=False),),
        )
    )
    child = builder.resolve().object_schema("CeladonDropper")
    slots = [s for s in child.qualities if s.determinable == "moisture"]
    assert slots == [QualitySlot("moisture", "moisture", required=False)]


def test_a_child_part_slot_overrides_its_parents_in_place():
    builder = RegistryBuilder().register_all([
        ThickObjectSchema("Gear"),
        ThickObjectSchema("Spring"),
        ThickObjectSchema("Clock", parts=(
            PartSlot("drive", "Gear", "turns"), PartSlot("mainspring", "Spring", "stores"),
        )),
        ThickObjectSchema("Watch", parent="Clock", parts=(
            PartSlot("crown", "Gear", "winds"), PartSlot("drive", "Spring", "unwinds"),
        )),
    ])
    assert builder.resolve().object_schema("Watch").parts == (
        PartSlot("drive", "Spring", "unwinds"),
        PartSlot("mainspring", "Spring", "stores"),
        PartSlot("crown", "Gear", "winds"),
    )


def test_a_child_appends_its_own_realizables_after_its_parents():
    builder = RegistryBuilder().register_all([
        ThickObjectSchema("Vessel", realizables=("holds", "pours")),
        RealizableSchema("holds", "Function", bearer_kind="Vessel"),
        RealizableSchema("pours", "Function", bearer_kind="Vessel"),
        RealizableSchema("heats", "Function", bearer_kind="Kettle"),
        ThickObjectSchema("Kettle", parent="Vessel", realizables=("heats", "pours")),
    ])
    assert builder.resolve().object_schema("Kettle").realizables == ("holds", "pours", "heats")


def test_dangling_reference_reported():
    builder = RegistryBuilder()
    builder.register(
        ThickObjectSchema("Ghost", qualities=(QualitySlot("color", "nocolors"),))
    )
    with pytest.raises(DanglingReferenceError) as excinfo:
        builder.resolve()
    assert any("nocolors" in ref for _, ref in excinfo.value.references)


def test_all_dangling_references_collected():
    builder = RegistryBuilder()
    builder.register(
        ThickObjectSchema(
            "Ghost",
            parent="Missing",
            qualities=(QualitySlot("color", "nocolors"),),
            parts=(PartSlot("lid", "NoSchema", "covers"),),
        )
    )
    with pytest.raises(DanglingReferenceError) as excinfo:
        builder.resolve()
    assert len(excinfo.value.references) == 3


# One undeclared reference of each kind that the front end reports as an
# undeclared name first, so only a RegistryBuilder reaches it.
DANGLING_CASES = {
    "realizable": (
        [ThickObjectSchema("Pot", realizables=("glaze",))],
        ("Pot", "Pot: realizable 'glaze' not found", "glaze"),
    ),
    "realizable bearer kind": (
        [RealizableSchema("pour", "Function", bearer_kind="Jug")],
        ("pour", "pour: bearer kind 'Jug' not found", "Jug"),
    ),
    "transitional bearer kind": (
        [TransitionalSchema("tip", "Jug")],
        ("tip", "tip: bearer kind 'Jug' not found", "Jug"),
    ),
    "member schema": (
        [AggregateSchema("Band", members=(AggregateMember("lead", "Singer"),))],
        ("Band", "Band: member schema 'Singer' not found", "Singer"),
    ),
    "link slot": (
        [
            ThickObjectSchema("Pane"),
            RelationSchema("leans_on", "Pane", "Pane"),
            AggregateSchema(
                "Frame",
                members=(AggregateMember("a", "Pane"),),
                links=(AggregateLink("leans_on", "a", "b"),),
            ),
        ],
        ("Frame", "Frame: link slot 'b' not found", None),
    ),
    "chain transitional": (
        [ChainSchema("ritual", "mechanism", steps=(DoStep("bow"),))],
        ("ritual", "ritual: transitional 'bow' not found", "bow"),
    ),
    "participant kind": (
        [ProcessSchema("brewing", participants=("Jug",))],
        ("brewing", "brewing: participant kind 'Jug' not found", "Jug"),
    ),
    "relation kind, at both ends": (
        [RelationSchema("r", "Nope", "Nope")],
        ("r", "r: kind 'Nope' not found", "Nope"),
    ),
}


@pytest.mark.parametrize("case", DANGLING_CASES)
def test_each_undeclared_reference_is_one_dangling_finding(case):
    declared, (owner, message, name) = DANGLING_CASES[case]
    registry, findings = RegistryBuilder().register_all(declared).resolve_with_findings()
    assert registry is None
    assert findings == [(DANGLING_REFERENCE, owner, message, name)]


def test_unknown_chain_kind_rejected():
    builder = RegistryBuilder().register(ChainSchema("ritual", "dance"))
    with pytest.raises(InvalidChainError, match="chain 'ritual' has unknown kind 'dance'"):
        builder.resolve()


def test_inheritance_cycle_detected():
    builder = RegistryBuilder()
    builder.register(ThickObjectSchema("A", parent="B"))
    builder.register(ThickObjectSchema("B", parent="A"))
    with pytest.raises(InheritanceCycleError):
        builder.resolve()


def test_fingerprint_deterministic_and_registration_order_free():
    a = dropper_builder().resolve()
    b = dropper_builder().resolve()
    assert a.fingerprint == b.fingerprint

    shuffled = RegistryBuilder()
    shuffled.register(
        ThickObjectSchema(
            "CeladonDropper", parent="WaterDropper", qualities=(QualitySlot("glaze", "glaze"),)
        )
    )
    shuffled.register(QualityOntology("glaze", ("green", "clear")))
    shuffled.register(
        ThickObjectSchema(
            "WaterDropper", qualities=(QualitySlot("moisture", "moisture", required=True),)
        )
    )
    shuffled.register(QualityOntology("moisture", ("wet", "fired")))
    assert shuffled.resolve().fingerprint == a.fingerprint


def test_fingerprint_pinned_across_platforms():
    # Frozen value, recomputed independently as the first 16 hex chars of
    # sha256 over the canonical sorted-key JSON of this one-schema registry.
    # Catches accidental canonicalization drift between runs and platforms.
    builder = RegistryBuilder()
    builder.register(QualityOntology("color", ("green", "yellow", "red")))
    assert builder.resolve().fingerprint == "4f61d07ac14343fd"


def test_fingerprint_differs_for_different_content():
    a = dropper_builder().resolve()
    builder = dropper_builder()
    builder.register(QualityOntology("extra", ("x",)))
    assert builder.resolve().fingerprint != a.fingerprint


def test_flattening_idempotent():
    first = dropper_builder().resolve()
    rebuilt = RegistryBuilder()
    for schema in first.schemas.values():
        rebuilt.register(schema)
    second = rebuilt.resolve()
    assert second.fingerprint == first.fingerprint
    assert second.object_schema("CeladonDropper") == first.object_schema("CeladonDropper")


def test_unbound_edit_variable_rejected():
    builder = RegistryBuilder()
    builder.register(QualityOntology("color", ("red", "green")))
    builder.register(
        ThickObjectSchema("Light", qualities=(QualitySlot("color", "color"),))
    )
    builder.register(
        TransitionalSchema(
            "leak",
            "Light",
            guards=(),
            edits=(Edit("create", Pattern("color", var("someone"), const("red"))),),
        )
    )
    with pytest.raises(UnboundVariableError):
        builder.resolve()


def test_sequence_admits_no_control_flow():
    builder = RegistryBuilder()
    builder.register(QualityOntology("color", ("red", "green")))
    builder.register(ThickObjectSchema("Light", qualities=(QualitySlot("color", "color"),)))
    builder.register(
        TransitionalSchema(
            "go", "Light",
            guards=(Pattern("color", var("bearer"), const("red")),),
            edits=(
                Edit("delete", Pattern("color", var("bearer"), const("red"))),
                Edit("create", Pattern("color", var("bearer"), const("green"))),
            ),
        )
    )
    builder.register(
        ChainSchema(
            "bad",
            "sequence",
            steps=(WhileStep(Pattern("color", var("x"), const("red")), (DoStep("go"),)),),
        )
    )
    with pytest.raises(InvalidChainError):
        builder.resolve()


def test_recursive_aggregate_rejected():
    builder = RegistryBuilder()
    builder.register(
        AggregateSchema("Family", members=(AggregateMember("kin", "Family"),))
    )
    with pytest.raises(RecursiveAggregateError):
        builder.resolve()


def test_recursive_composition_rejected():
    builder = RegistryBuilder()
    builder.register(
        ThickObjectSchema("Box", parts=(PartSlot("inner", "Box", "holds itself"),))
    )
    with pytest.raises(RecursiveCompositionError):
        builder.resolve()


def test_role_context_must_name_registered_aggregate():
    builder = RegistryBuilder()
    builder.register(ThickObjectSchema("Person"))
    builder.register(
        RealizableSchema(
            "conductor", "Role", bearer_kind="Person", context="Orchestra"
        )
    )
    with pytest.raises(DanglingReferenceError):
        builder.resolve()

    with_aggregate = RegistryBuilder()
    with_aggregate.register(ThickObjectSchema("Person"))
    with_aggregate.register(
        AggregateSchema("Orchestra", members=(AggregateMember("lead", "Person"),))
    )
    with_aggregate.register(
        RealizableSchema(
            "conductor", "Role", bearer_kind="Person", context="Orchestra"
        )
    )
    registry = with_aggregate.resolve()
    assert registry.realizable("conductor").context == "Orchestra"


def test_needs_autoregistered_from_serves():
    builder = RegistryBuilder()
    builder.register(ThickObjectSchema("Pencil"))
    builder.register(
        RealizableSchema(
            "write", "Function", bearer_kind="Pencil", serves="communication"
        )
    )
    registry = builder.resolve()
    assert registry.need("communication") is not None


def test_a_function_may_serve_only_a_need():
    # A name names one thing: what a Function serves is a Need, so serving a
    # declared object is a clash. Two Functions may serve one Need.
    builder = RegistryBuilder().register_all([
        ThickObjectSchema("Kiln"),
        RealizableSchema("bakes", "Function", bearer_kind="Kiln", serves="Kiln"),
    ])
    with pytest.raises(DuplicateNameError, match="'bakes' serves 'Kiln', which is not a need"):
        builder.resolve()
    registry = RegistryBuilder().register_all([
        ThickObjectSchema("Kiln"),
        Need("firing", "declared by hand"),
        RealizableSchema("bakes", "Function", bearer_kind="Kiln", serves="firing"),
        RealizableSchema("warms", "Function", bearer_kind="Kiln", serves="firing"),
    ]).resolve()
    assert registry.need("firing") == Need("firing", "declared by hand")


# --- validate_registry -------------------------------------------------------


def test_validator_flags_unbound_transitional():
    builder = RegistryBuilder()
    builder.register(TransitionalSchema("orphan", None))
    diagnostics = validate_registry(builder.resolve())
    assert [d.code for d in diagnostics] == ["UnboundOccurrent"]


def test_validator_flags_non_continuant_bearer():
    builder = RegistryBuilder()
    builder.register(TransitionalSchema("ghostly", "Quality"))
    diagnostics = validate_registry(builder.resolve())
    assert [d.code for d in diagnostics] == ["UnboundOccurrent"]


def test_validator_flags_process_without_continuant():
    builder = RegistryBuilder()
    builder.register(ProcessSchema("drift", participants=("Process",)))
    diagnostics = validate_registry(builder.resolve())
    assert [d.code for d in diagnostics] == ["UnboundOccurrent"]


def test_validator_flags_part_without_function():
    builder = RegistryBuilder()
    builder.register(ThickObjectSchema("Gear"))
    builder.register(
        ThickObjectSchema("Engine", parts=(PartSlot("crankshaft", "Gear", "   "),))
    )
    diagnostics = validate_registry(builder.resolve())
    assert [d.code for d in diagnostics] == ["PartWithoutFunction"]


def test_validator_flags_incomplete_disposition():
    builder = RegistryBuilder()
    builder.register(ThickObjectSchema("Glass"))
    builder.register(RealizableSchema("fragility", "Disposition", bearer_kind="Glass"))
    diagnostics = validate_registry(builder.resolve())
    assert [d.code for d in diagnostics] == ["DispositionIncomplete"]


def test_validator_clean_on_corpus(registry):
    assert validate_registry(registry) == []


# --- the schema index against a scan of the whole table -----------------------

# (schema type, typed getter, iterator); Needs have no iterator.
TYPED_LOOKUPS = (
    (ThickObjectSchema, "object_schema", "objects"),
    (QualityOntology, "quality", "qualities"),
    (RelationSchema, "relation", "relations"),
    (AggregateSchema, "aggregate", "aggregates"),
    (RealizableSchema, "realizable", "realizables"),
    (TransitionalSchema, "transitional", "transitionals"),
    (ChainSchema, "chain", "chains"),
    (ProcessSchema, "process", "processes"),
    (Need, "need", None),
)


def assert_lookups_match_table_scan(registry):
    """Every typed lookup and name set equals a brute-force scan of the table.

    A child introduces a determinable when its slot differs from the one it
    inherits; the cases below override slots only with a changed slot.
    """
    table = registry.schemas
    for cls, getter, iterator in TYPED_LOOKUPS:
        for name in (*table, "Nowhere"):
            expected = table[name] if isinstance(table.get(name), cls) else None
            assert getattr(registry, getter)(name) is expected, (getter, name)
        if iterator is not None:
            scanned = [s for s in table.values() if isinstance(s, cls)]
            assert list(getattr(registry, iterator)()) == scanned, iterator
    assert list(registry.dispositions()) == [
        s for s in table.values()
        if isinstance(s, RealizableSchema) and s.variant == DISPOSITION
    ]
    objects = [s for s in table.values() if isinstance(s, ThickObjectSchema)]
    determinables = {slot.determinable for s in objects for slot in s.qualities}
    for name in (*table, *determinables, *BUILTIN_PREDICATES, "nowhere"):
        assert registry.is_determinable(name) == (name in determinables), name
        assert registry.predicate_declared(name) == (
            name in BUILTIN_PREDICATES
            or isinstance(table.get(name), RelationSchema)
            or name in determinables
        ), name
        assert registry.determinable_declarers(name) == tuple(
            s.name for s in objects
            if s.quality_slot(name) is not None
            and (s.parent is None or table[s.parent].quality_slot(name) != s.quality_slot(name))
        ), name


def parent_determinable_schemas():
    # ``fill`` is declared only on Vessel and used through a Jug bearer.
    fill = Pattern("fill", BEARER, const("low"))
    return [
        QualityOntology("level", ("low", "high")),
        ThickObjectSchema("Vessel", qualities=(QualitySlot("fill", "level"),)),
        ThickObjectSchema("Jug", parent="Vessel"),
        TransitionalSchema(
            "top_up", "Jug",
            guards=(fill,),
            edits=(
                Edit("delete", fill),
                Edit("create", Pattern("fill", BEARER, const("high"))),
            ),
        ),
        ChainSchema("refill", "mechanism", steps=(WhileStep(fill, (DoStep("top_up"),)),)),
        RealizableSchema("pour", "Function", bearer_kind="Jug", serves="drinking"),
        ProcessSchema("brewing", participants=("Jug",)),
    ]


def overridden_slot_schemas():
    # Beacon redeclares ``shade`` over another ontology; ``dull`` is a
    # determinant of the override only.
    return [
        QualityOntology("level", ("low", "high")),
        QualityOntology("tone", ("dull", "bright")),
        ThickObjectSchema("Lamp", qualities=(QualitySlot("shade", "level"),)),
        ThickObjectSchema(
            "Beacon", parent="Lamp",
            qualities=(QualitySlot("shade", "tone", required=True), QualitySlot("lit", "level")),
        ),
        TransitionalSchema(
            "brighten", "Beacon",
            guards=(Pattern("shade", BEARER, const("dull")),),
            edits=(
                Edit("delete", Pattern("shade", BEARER, const("dull"))),
                Edit("create", Pattern("shade", BEARER, const("bright"))),
            ),
        ),
    ]


def undeclared_predicate_schemas():
    # ``struck``, ``hit``, ``cracked`` and ``touches`` are declared nowhere;
    # ``crack``, ``leans_on`` and ``part_of`` are declared next to them.
    return [
        QualityOntology("level", ("low", "high")),
        ThickObjectSchema("Pane", qualities=(QualitySlot("crack", "level"),)),
        RelationSchema("leans_on", "Pane", "Pane"),
        TransitionalSchema(
            "shatter", "Pane",
            guards=(Pattern("crack", BEARER, const("low")), Pattern("struck", BEARER, var("by"))),
            edits=(Edit("create", Pattern("crack", BEARER, const("high"))),),
        ),
        RealizableSchema(
            "fragility", "Disposition", bearer_kind="Pane",
            trigger=Pattern("hit", BEARER, var("x")), realization="shatter",
        ),
        ChainSchema(
            "inspect", "mechanism",
            steps=(
                IfStep(Pattern("cracked", var("p"), const("yes")), (DoStep("shatter"),)),
                WhileStep(Pattern("part_of", var("p"), var("q")), (DoStep("shatter"),)),
            ),
        ),
        AggregateSchema(
            "Frame",
            members=(AggregateMember("a", "Pane"), AggregateMember("b", "Pane")),
            links=(AggregateLink("leans_on", "a", "b"), AggregateLink("touches", "b", "a")),
        ),
    ]


INDEX_CASES = {
    "parent-determinable": (parent_determinable_schemas, []),
    "overridden-slot": (overridden_slot_schemas, []),
    "undeclared-predicates": (
        undeclared_predicate_schemas,
        [
            ("shatter", "shatter: predicate 'struck' not found"),
            ("fragility", "fragility: predicate 'hit' not found"),
            ("inspect", "inspect: predicate 'cracked' not found"),
            ("Frame", "Frame: link relation 'touches' not found"),
        ],
    ),
}


@pytest.mark.parametrize("case", INDEX_CASES)
def test_index_rejects_exactly_undeclared_predicates_and_matches_scan(case):
    make_schemas, expected = INDEX_CASES[case]
    registry, findings = RegistryBuilder().register_all(make_schemas()).resolve_with_findings()
    # Each finding carries the undeclared predicate its message quotes.
    missing = [message.split("'")[1] for _, message in expected]
    assert findings == [
        (DANGLING_REFERENCE, owner, message, name)
        for (owner, message), name in zip(expected, missing)
    ]
    if expected:
        # Declaring each missing predicate as a relation makes the set resolve.
        builder = RegistryBuilder().register_all(make_schemas())
        builder.register_all(RelationSchema(name, "Pane", "Pane") for name in missing)
        registry, findings = builder.resolve_with_findings()
        assert findings == []
    assert_lookups_match_table_scan(registry)


def test_corpus_index_matches_scan(registry):
    rebuilt, findings = RegistryBuilder().register_all(
        registry.schemas.values()
    ).resolve_with_findings()
    assert findings == []
    assert rebuilt.fingerprint == registry.fingerprint
    assert_lookups_match_table_scan(registry)
