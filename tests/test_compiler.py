from conftest import CORPUS_FILES, MODELS_DIR, load_corpus_modules
from helpers import compile_ok, compile_sources

from xfo import compile_modules, parse_module
from xfo.lang import ast

COMMON = "quality heat { low, high }\nobject Kiln { quality heat: heat }\n"


def test_trafficlight_counts_match_ast_oracle(corpus):
    # Oracle: count declaration nodes in the bundled corpus file itself.
    text = (MODELS_DIR / "trafficlight.xfo").read_text()
    module, diagnostics = parse_module(text, name="trafficlight")
    assert diagnostics == []
    counts = {
        ast.QualityNode: 0,
        ast.ObjectNode: 0,
        ast.TransitionalNode: 0,
        ast.ChainNode: 0,
        ast.WorldNode: 0,
    }
    for decl in module.decls:
        counts[type(decl)] += 1

    result = compile_modules([module])
    assert result.ok
    registry = result.registry
    assert len(list(registry.qualities())) == counts[ast.QualityNode] == 1
    assert len(list(registry.objects())) == counts[ast.ObjectNode] == 1
    assert len(list(registry.transitionals())) == counts[ast.TransitionalNode] == 3
    assert len(list(registry.chains())) == counts[ast.ChainNode] == 3
    assert len(result.worlds) == counts[ast.WorldNode] == 1


def test_corpus_compiles_clean(corpus):
    assert corpus.ok
    assert corpus.diagnostics == []
    assert len(corpus.modules) == len(CORPUS_FILES)


def test_import_makes_names_visible():
    result = compile_ok(
        {
            "common": COMMON,
            "user": "import common\nobject Bench { part oven: Kiln function \"bakes\" }\n",
        }
    )
    assert result.registry.object_schema("Bench").parts[0].schema == "Kiln"


def test_shared_import_registers_once():
    result = compile_ok(
        {
            "common": COMMON,
            "a": "import common\nrelation tends(Kiln, Kiln)\n",
            "b": "import common\nrelation feeds(Kiln, Kiln)\n",
        }
    )
    kilns = [s for s in result.registry.objects() if s.name == "Kiln"]
    assert len(kilns) == 1


def test_same_module_supplied_twice_deduplicates():
    module_a, _ = parse_module(COMMON, name="common")
    module_b, _ = parse_module(COMMON, name="common")
    result = compile_modules([module_a, module_b])
    assert result.ok
    assert len(result.modules) == 1


def test_same_name_different_content_rejected():
    module_a, _ = parse_module(COMMON, name="common")
    module_b, _ = parse_module("quality heat { low }", name="common")
    result = compile_modules([module_a, module_b])
    assert not result.ok
    assert any(d.code == "DuplicateModule" for d in result.diagnostics)


def test_unimported_reference_is_dangling_with_span():
    result = compile_sources(
        {
            "common": COMMON,
            "user": "object Bench { part oven: Kiln function \"bakes\" }\n",
        }
    )
    assert not result.ok
    (diag,) = [d for d in result.diagnostics if d.code == "DanglingReference"]
    assert "Kiln" in diag.message
    assert diag.file == "user.xfo"
    assert diag.span is not None and diag.span.line >= 1


def test_qualified_reference_without_import_is_dangling():
    result = compile_sources(
        {
            "common": COMMON,
            "user": "object Bench : common.Kiln { }\n",
        }
    )
    assert not result.ok
    assert any(
        d.code == "DanglingReference" and "common.Kiln" in d.message
        for d in result.diagnostics
    )


def test_qualified_reference_with_import_resolves():
    result = compile_ok(
        {
            "common": COMMON,
            "user": "import common\nobject Bench : common.Kiln { }\n",
        }
    )
    assert result.registry.object_schema("Bench").parent == "Kiln"


def test_missing_import_module_reported():
    result = compile_sources({"user": "import nowhere\n"})
    assert not result.ok
    assert any(
        d.code == "DanglingReference" and "nowhere" in d.message
        for d in result.diagnostics
    )


def test_duplicate_schema_across_modules_reported():
    result = compile_sources(
        {
            "a": "quality heat { low }",
            "b": "quality heat { low, high }",
        }
    )
    assert not result.ok
    assert any(d.code == "DuplicateName" for d in result.diagnostics)


def test_world_assert_must_be_ground():
    result = compile_sources(
        {
            "m": COMMON + "world w { spawn k: Kiln assert heat(k, ?v) }\n",
        }
    )
    assert not result.ok
    assert any(d.code == "UnboundVariable" for d in result.diagnostics)


def test_compilation_pure_function_of_source():
    first = compile_modules(load_corpus_modules())
    second = compile_modules(load_corpus_modules())
    assert first.registry.fingerprint == second.registry.fingerprint

    # Whitespace-only differences canonicalize to the same module fingerprint.
    a, _ = parse_module("quality heat { low, high }", name="m")
    b, _ = parse_module("quality heat {\n  low,\n  high\n}\n", name="m")
    ra = compile_modules([a])
    rb = compile_modules([b])
    assert ra.modules[0].fingerprint == rb.modules[0].fingerprint
    assert ra.registry.fingerprint == rb.registry.fingerprint


def test_validator_diagnostics_carry_spans():
    result = compile_sources(
        {
            "m": (
                "quality heat { low, high }\n"
                "object Kiln { quality heat: heat }\n"
                "disposition halfbaked on Kiln when heat(bearer, low) realize heat\n"
            )
        }
    )
    # 'heat' is not a transitional: dangling realization, anchored in m.xfo.
    assert not result.ok
    diag = [d for d in result.diagnostics if d.code == "DanglingReference"][0]
    assert diag.file == "m.xfo"


def test_module_infos_carry_facets_and_terms(corpus):
    by_name = {info.name: info for info in corpus.modules}
    assert by_name["village-gangjin"].facet == "social-structure"
    assert by_name["trafficlight"].facet == "physical"
    assert "calligrapher" in by_name["village-gangjin"].terms
    assert "glaze_color" in by_name["waterdropper-goryeo"].terms


def test_determinable_predicate_visible_through_import():
    result = compile_ok(
        {
            "common": COMMON,
            "user": (
                "import common\n"
                "transitional cool on Kiln {\n"
                "  require heat(bearer, high)\n"
                "  delete heat(bearer, high)\n"
                "  create heat(bearer, low)\n"
                "}\n"
            ),
        }
    )
    assert result.registry.transitional("cool") is not None


def test_unknown_determinant_in_transitional_fails_compile():
    result = compile_sources(
        {
            "m": (
                COMMON
                + "transitional melt on Kiln {\n"
                "  require heat(bearer, volcanic)\n"
                "  delete heat(bearer, volcanic)\n"
                "  create heat(bearer, high)\n"
                "}\n"
            )
        }
    )
    assert not result.ok
    assert any("volcanic" in d.message for d in result.diagnostics)


def test_one_compile_reports_every_resolve_error_with_position():
    result = compile_sources(
        {
            "m": (
                COMMON
                + "transitional leak on Kiln {\n"
                "  create heat(?someone, high)\n"
                "}\n"
                "chain sequence bad { while heat(?k, low) { do leak } }\n"
                "aggregate Family { member kin: Family }\n"
                "disposition halfbaked on Kiln when heat(bearer, low) realize heat\n"
            )
        }
    )
    assert not result.ok
    assert all(d.file == "m.xfo" and d.span is not None for d in result.diagnostics)
    assert sorted((d.span.line, d.code) for d in result.diagnostics) == [
        (3, "UnboundVariable"),
        (6, "InvalidChain"),
        (7, "RecursiveAggregate"),
        (8, "DanglingReference"),
    ]


def test_part_without_function_anchors_at_owning_object():
    result = compile_sources(
        {
            "m": (
                "object Lid { }\n"
                "object Pot {\n"
                "  part Lid: Lid function \"\"\n"
                "}\n"
            )
        }
    )
    (diag,) = result.diagnostics
    assert diag.code == "PartWithoutFunction"
    assert (diag.file, diag.span.line) == ("m.xfo", 2)


def test_inheritance_cycle_reported_once_at_its_declaration():
    result = compile_sources(
        {"m": "object Cup : Mug { }\nobject Mug : Cup { }\nobject Tea : Cup { }\n"}
    )
    assert [(d.code, d.file, d.span.line) for d in result.diagnostics] == [
        ("InheritanceCycle", "m.xfo", 1)
    ]


def test_resolution_runs_after_lowering_reports_a_dangling_reference():
    # The undeclared part schema is reported once, where it is written, and
    # the unbound edit variable of another declaration still shows.
    result = compile_sources(
        {
            "m": (
                "quality level { low, high }\n"
                "object Kiln {\n"
                "  quality heat: level\n"
                "  part oven: Oven function \"holds the fire\"\n"
                "}\n"
                "transitional fire on Kiln { create heat(?someone, high) }\n"
            )
        }
    )
    assert not result.ok
    assert [(d.code, d.file, d.span.line) for d in result.diagnostics] == [
        ("DanglingReference", "m.xfo", 4),
        ("UnboundVariable", "m.xfo", 6),
    ]
    assert sum("Oven" in d.message for d in result.diagnostics) == 1


def test_a_reported_name_hides_only_findings_that_reference_it():
    # 'Oven' is an undeclared part schema, reported once by lowering. The
    # transitional's determinant 'Oven' is a different fault and still shows.
    text = (
        "quality level { low, high }\n"
        "object Stove { quality level: level  part oven: Oven function \"bake\" }\n"
        "transitional warm on Stove { create level(bearer, Oven) }\n"
    )
    result = compile_sources({"m": text})
    assert [(d.code, d.span.line, d.message) for d in result.diagnostics] == [
        ("DanglingReference", 2, "'Oven' is not declared in this module or its imports"),
        ("DanglingReference", 3, "warm: determinant 'Oven' not in quality 'level' not found"),
    ]


def test_corpus_fingerprint_is_pinned(corpus):
    assert corpus.registry.fingerprint == "387a3353570b14a8"


def test_declaration_dropped_by_the_parser_is_reported_once():
    # The quality's syntax error is its one report: the slot that names it
    # is not also dangling, while an undeclared ontology next to it still is.
    result = compile_sources(
        {"m": "quality hue { }\nobject Lamp { quality hue: hue required }\n"}
    )
    assert [(d.code, d.span.line) for d in result.diagnostics] == [("SyntaxError", 1)]
    result = compile_sources(
        {
            "m": (
                "quality hue { }\n"
                "object Lamp {\n"
                "  quality hue: hue required\n"
                "  quality size: size\n"
                "}\n"
            )
        }
    )
    assert [(d.code, d.span.line) for d in result.diagnostics] == [
        ("SyntaxError", 1),
        ("DanglingReference", 4),
    ]
    assert "'size'" in result.diagnostics[1].message
    assert not result.ok
