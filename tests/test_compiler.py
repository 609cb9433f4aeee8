import pytest
from conftest import CORPUS_FILES, MODELS_DIR, load_corpus_modules
from helpers import compile_ok, compile_sources, count_calls

import xfo.lang.compiler
import xfo.registry
from xfo import compile_modules, parse_module, schemas
from xfo.cli import main
from xfo.errors import DuplicateNameError
from xfo.lang import ast
from xfo.lang.compiler import module_fingerprint

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
    module_b, _ = parse_module(COMMON.replace(" ", "  ").replace("\n", "\n\n"), name="common")
    result = compile_modules([module_a, module_b])
    assert result.ok
    assert len(result.modules) == 1
    assert result.modules[0].fingerprint == module_fingerprint(module_a)
    assert [s.name for s in result.registry.objects()] == ["Kiln"]


def test_same_name_different_content_rejected():
    module_a, _ = parse_module(COMMON, name="common")
    module_b, _ = parse_module("quality heat { low }", name="common")
    result = compile_modules([module_a, module_b])
    assert not result.ok
    assert result.registry is None
    assert [d.code for d in result.diagnostics] == ["DuplicateModule"]


def test_distinct_module_names_are_not_fingerprinted(monkeypatch):
    calls = count_calls(monkeypatch, xfo.lang.compiler, "module_fingerprint")
    result = compile_modules(load_corpus_modules())
    assert result.ok
    assert calls == []
    info = result.modules[0]
    assert info.fingerprint == info.fingerprint == module_fingerprint(info.module)
    assert len(calls) == 1


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


def test_a_name_dangling_twice_at_one_span_is_reported_once():
    result = compile_sources({"m": "object Box { }\nrelation lit(b, b)\nrelation on(b, c)\n"})
    assert [(d.span.line, d.message) for d in result.diagnostics] == [
        (2, "'b' is not declared in this module or its imports"),
        (3, "'b' is not declared in this module or its imports"),
        (3, "'c' is not declared in this module or its imports"),
    ]


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


def test_fingerprints_are_encoded_on_first_read_only(monkeypatch, capsys):
    encodings = [
        count_calls(monkeypatch, owner, "stable_fingerprint")
        for owner in (xfo.registry, xfo.lang.compiler)
    ]
    path = str(MODELS_DIR / "trafficlight.xfo")
    assert main(["run", path, "--world", "demo", "--chain", "cycle"]) == 0
    assert capsys.readouterr().out.startswith("status=completed ticks=1 ")
    assert encodings == [[], []]

    registry = compile_modules(load_corpus_modules()).registry
    assert registry.fingerprint == registry.fingerprint == "387a3353570b14a8"
    assert [len(calls) for calls in encodings] == [1, 0]


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


def test_a_predicate_name_means_one_thing():
    # A relation may not share its name with a quality slot or a built-in
    # predicate, nor a quality slot with a built-in; each clash is reported
    # once, at the declaration that makes it.
    cases = {
        "quality hue { green, red }\nobject Lamp { quality color: hue required }\n"
        "relation color(Lamp, Lamp)\n": (3, "relation 'color' is also a quality slot"),
        "object Box { }\nrelation part_of(Box, Box)\n": (
            2, "relation 'part_of' is also a built-in predicate"
        ),
        "quality place { here }\nobject Box { quality located_in: place }\n": (
            2, "quality slot 'located_in' of 'Box' is a built-in predicate"
        ),
    }
    for source, (line, message) in cases.items():
        result = compile_sources({"m": source})
        assert [(d.code, d.span.line, d.message) for d in result.diagnostics] == [
            ("DuplicateName", line, message)
        ]
        assert not result.ok
    # A quality ontology may share its name with the slot that uses it.
    compile_ok({"m": "quality hue { red }\nobject Lamp { quality hue: hue }\n"})


def test_a_repeated_object_slot_is_one_diagnostic_at_the_repeat():
    result = compile_sources({"m": (
        "quality hue { a }\nobject Gear { }\n"
        "object Lamp {\n"
        "  quality color: hue\n  part a: Gear function \"x\"\n  quality color: hue required\n"
        "  part a: Gear function \"y\"\n  part color: Gear function \"z\"\n}\n"
    )})
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
        ("DuplicateName", 6, 3, "object 'Lamp' repeats quality slot 'color'"),
        ("DuplicateName", 7, 3, "object 'Lamp' repeats part slot 'a'"),
    ]
    assert not result.ok


def test_repeated_determinant_is_one_diagnostic():
    result = compile_sources(
        {"m": "quality hue { a, a }\nobject Lamp { quality hue: hue required }\n"}
    )
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
        ("DuplicateName", 1, 1, "quality 'hue' repeats a determinant")
    ]
    assert not result.ok


def test_function_items_lower_to_realizables_and_their_needs():
    result = compile_ok({"m": COMMON + (
        "object Oven { function bakes serves firing  function warms  role host }\n"
    )})
    registry = result.registry
    assert registry.object_schema("Oven").realizables == ("bakes", "warms", "host")
    assert registry.realizable("bakes") == schemas.RealizableSchema(
        "bakes", schemas.FUNCTION, bearer_kind="Oven", serves="firing"
    )
    assert registry.realizable("warms") == schemas.RealizableSchema(
        "warms", schemas.FUNCTION, bearer_kind="Oven"
    )
    assert registry.realizable("host") == schemas.RealizableSchema(
        "host", schemas.ROLE, bearer_kind="Oven"
    )
    assert registry.need("firing") == schemas.Need("firing")
    assert [need.name for need in registry.schemas.values() if type(need) is schemas.Need] == [
        "firing"
    ]


def test_a_repeated_world_or_claim_keeps_the_first_and_is_reported_at_the_repeat():
    result = compile_sources({"m": COMMON + (
        "world w { spawn k: Kiln }\nworld w { spawn j: Kiln }\n"
        'claim c "first" evidence Kiln "a note"\nclaim c "second"\n'
    )})
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
        ("DuplicateName", 4, 1, "world 'w' is already defined"),
        ("DuplicateName", 6, 1, "claim 'c' is already defined"),
    ]
    assert not result.ok
    assert result.worlds == {"w": schemas.WorldDef("w", (schemas.SpawnDef("k", "Kiln", ()),), ())}
    assert result.claims == (
        schemas.ClaimDef("c", "first", (schemas.EvidenceDef("Kiln", "a note"),)),
    )


def test_a_declaration_named_after_an_upper_taxonomy_kind_is_reported_at_it():
    for source in ("object Entity { }\n", "quality Entity { a }\n"):
        result = compile_sources({"m": source})
        assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
            ("ReservedUpperTaxonomyName", 1, 1,
             "'Entity' is an upper-taxonomy name and cannot be redeclared"),
        ]
        assert not result.ok


def test_a_string_term_in_a_guard_lowers_to_a_text_term():
    result = compile_ok({"m": (
        "quality tag { x }\nobject Pot { quality label: tag }\n"
        "transitional t on Pot {\n"
        '  require label(bearer, "x")\n  delete label(bearer, "x")\n  create label(bearer, x)\n'
        "}\n"
    )})
    text = schemas.Pattern("label", schemas.BEARER, schemas.text("x"))
    const = schemas.Pattern("label", schemas.BEARER, schemas.const("x"))
    assert result.registry.transitional("t") == schemas.TransitionalSchema(
        "t", "Pot", (text,),
        (schemas.Edit(schemas.DELETE, text), schemas.Edit(schemas.CREATE, const)),
    )


def test_a_function_that_serves_a_declared_schema_is_reported_at_the_function():
    source = COMMON + "object Oven {\n  function bakes serves Kiln\n}\n"
    result = compile_sources({"m": source})
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
        ("DuplicateName", 4, 3, "function 'bakes' serves 'Kiln', which is not a need"),
    ]
    assert not result.ok


def test_a_function_that_serves_an_upper_taxonomy_name_is_reported_and_registers_no_need():
    result = compile_sources({"oven": "object Oven { function bakes serves Entity }\n"})
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
        ("DuplicateName", 1, 15, "function 'bakes' serves 'Entity', which is not a need"),
    ]
    builder = xfo.registry.RegistryBuilder().register_all([
        schemas.ThickObjectSchema("Oven", realizables=("bakes",)),
        schemas.RealizableSchema("bakes", schemas.FUNCTION, bearer_kind="Oven", serves="Entity"),
    ])
    with pytest.raises(DuplicateNameError, match="serves 'Entity', which is not a need"):
        builder.resolve()
