import string

from hypothesis import given, settings
from hypothesis import strategies as st

from xfo import module_to_source, parse_module
from xfo.lang import ast
from xfo.lang.lexer import EOF, IDENT, STRING, tokenize

from conftest import CORPUS_FILES, MODELS_DIR
from helpers import compile_sources


def test_quality_parses_with_three_determinants():
    module, diagnostics = parse_module("quality color { green, yellow, red }")
    assert diagnostics == []
    (decl,) = module.decls
    assert isinstance(decl, ast.QualityNode)
    assert decl.name == "color"
    assert decl.determinants == ("green", "yellow", "red")


def test_empty_file_is_empty_module():
    module, diagnostics = parse_module("")
    assert diagnostics == []
    assert module.decls == ()
    assert module.imports == ()


def test_missing_object_name_reports_and_recovers():
    module, diagnostics = parse_module("object { }\nquality ok { a }")
    assert len(diagnostics) == 1
    diag = diagnostics[0]
    assert diag.code == "SyntaxError"
    assert (diag.span.line, diag.span.column) == (1, 8)
    # Recovery at the next declaration keyword: the quality still parsed.
    assert [type(d) for d in module.decls] == [ast.QualityNode]


def test_unterminated_string_reported():
    _, diagnostics = parse_module('claim c "no closing quote')
    assert any("unterminated" in d.message for d in diagnostics)


def test_unexpected_character_reported():
    _, diagnostics = parse_module("quality a { b } %")
    assert any("unexpected character" in d.message for d in diagnostics)


def test_end_of_file_after_a_trailing_comment_is_positioned_after_it():
    _, diagnostics = parse_module("object A {  # open")
    assert [(d.span.line, d.span.column, d.message) for d in diagnostics] == [
        (1, 19, "expected '}', found 'end of file'")
    ]


def test_escaped_newline_in_a_string_counts_as_a_line():
    text = (
        "quality q { a }\n"
        "object B { }\n"
        'object A { part p: B function "x\\\n'
        'y" }\n'
        "object C { quality q: nope }\n"
    )
    module, diagnostics = parse_module(text)
    assert diagnostics == []
    assert module.decls[2].items[0].function == "x\ny"
    result = compile_sources({"m": text})
    assert [(d.span.line, d.span.column) for d in result.diagnostics] == [(5, 12)]
    assert "'nope'" in result.diagnostics[0].message


def test_facet_pragma_and_comments():
    module, diagnostics = parse_module("# facet: social-structure\n# plain note\nquality a { b }\n")
    assert diagnostics == []
    assert module.facet == "social-structure"
    assert len(module.decls) == 1


def test_qualified_reference_parses():
    module, diagnostics = parse_module("object Oven : common.Appliance { }")
    assert diagnostics == []
    (decl,) = module.decls
    assert decl.parent == "common.Appliance"


def test_transitional_edit_order_preserved():
    text = (
        "transitional swap on Light {\n"
        "  require color(bearer, red)\n"
        "  create color(bearer, green)\n"
        "  delete color(bearer, red)\n"
        "}\n"
    )
    module, diagnostics = parse_module(text)
    assert diagnostics == []
    (decl,) = module.decls
    assert [e.op for e in decl.edits] == ["create", "delete"]


def test_chain_kinds_and_intervention_marker():
    text = (
        "chain workflow w {\n"
        "  do prepare intervention\n"
        "  if ready(?x, yes) { do go } else { do wait }\n"
        "  while busy(?x, yes) { do spin }\n"
        "}\n"
    )
    module, diagnostics = parse_module(text)
    assert diagnostics == []
    (decl,) = module.decls
    assert decl.kind == "workflow"
    do, if_, while_ = decl.steps
    assert do.intervention is True
    assert if_.then_steps[0].transitional == "go"
    assert if_.else_steps[0].transitional == "wait"
    assert while_.body[0].transitional == "spin"


def test_bad_chain_kind_rejected():
    _, diagnostics = parse_module("chain loop l { do x }")
    assert any("chain kind" in d.message for d in diagnostics)


def test_world_spawn_assignment_lookahead():
    text = (
        "world w {\n"
        "  spawn light: TrafficLight color = red\n"
        "  spawn other: TrafficLight\n"
        "  assert near(light, other)\n"
        "}\n"
    )
    module, diagnostics = parse_module(text)
    assert diagnostics == []
    (decl,) = module.decls
    assert len(decl.spawns) == 2
    assert decl.spawns[0].assignments[0].determinable == "color"
    assert decl.spawns[1].assignments == ()
    assert len(decl.asserts) == 1


def test_claim_with_evidence():
    module, diagnostics = parse_module(
        'claim c1 "a statement" evidence doc1 "why it matters" evidence doc2 "more"'
    )
    assert diagnostics == []
    (decl,) = module.decls
    assert decl.statement == "a statement"
    assert [e.ref for e in decl.evidence] == ["doc1", "doc2"]


def test_string_escapes_round_trip():
    module, diagnostics = parse_module('claim c "line\\nbreak \\"quoted\\" back\\\\slash"')
    assert diagnostics == []
    (decl,) = module.decls
    assert decl.statement == 'line\nbreak "quoted" back\\slash'
    reparsed, rediag = parse_module(module_to_source(module))
    assert rediag == []
    assert reparsed.decls == module.decls


def test_spans_cover_all_tokens_in_corpus():
    for filename in CORPUS_FILES:
        text = (MODELS_DIR / filename).read_text()
        tokens, lex_diags = tokenize(text)
        assert lex_diags == []
        module, diagnostics = parse_module(text, name=filename[:-4], file=filename)
        assert diagnostics == []
        spans = [node.span for node in (*module.imports, *module.decls)]
        for token in tokens:
            if token.kind == EOF:
                continue
            covered = any(
                s.offset <= token.span.offset
                and token.span.offset + token.span.length <= s.offset + s.length
                for s in spans
            )
            assert covered, f"{filename}: token {token.text!r} at {token.span} uncovered"


def test_corpus_round_trips():
    for filename in CORPUS_FILES:
        text = (MODELS_DIR / filename).read_text()
        module, diagnostics = parse_module(text, name=filename[:-4], file=filename)
        assert diagnostics == []
        printed = module_to_source(module)
        reparsed, rediag = parse_module(printed, name=module.name)
        assert rediag == [], f"{filename} reparse: {rediag}"
        assert reparsed.decls == module.decls
        assert reparsed.imports == module.imports
        assert reparsed.facet == module.facet


# --- generated round-trip property ------------------------------------------------

_names = st.from_regex(r"n[a-z0-9]{1,6}", fullmatch=True)
_texts = st.text(
    alphabet=string.ascii_letters + string.digits + ' .,;:!"\\\n\t-_',
    min_size=0,
    max_size=20,
)


def _term():
    return st.one_of(
        st.builds(lambda v: ast.TermNode("var", v), _names),
        st.builds(lambda v: ast.TermNode("ident", v), _names),
        st.builds(lambda v: ast.TermNode("string", v), _texts),
    )


def _pattern():
    return st.builds(lambda p, s, o: ast.PatternNode(p, s, o), _names, _term(), _term())


def _steps(depth=2):
    do = st.builds(lambda t, i: ast.DoNode(t, i), _names, st.booleans())
    if depth == 0:
        return st.lists(do, max_size=3).map(tuple)
    inner = _steps(depth - 1)
    step = st.one_of(
        do,
        st.builds(lambda c, t, e: ast.IfNode(c, t, e), _pattern(), inner, inner),
        st.builds(lambda c, b: ast.WhileNode(c, b), _pattern(), inner),
    )
    return st.lists(step, max_size=3).map(tuple)


def _object_items():
    return st.lists(
        st.one_of(
            st.builds(
                lambda d, o, r: ast.QualitySlotNode(d, o, r), _names, _names, st.booleans()
            ),
            st.builds(
                lambda s, sc, f, l: ast.PartNode(s, sc, f, l),
                _names,
                _names,
                _texts,
                st.sampled_from([None, "composition", "contained"]),
            ),
            st.builds(
                lambda n, s: ast.FunctionNode(n, s), _names, st.none() | _names
            ),
            st.builds(lambda n: ast.RoleNode(n), _names),
        ),
        max_size=4,
    ).map(tuple)


def _decl():
    return st.one_of(
        st.builds(
            lambda n, d: ast.QualityNode(n, tuple(d)),
            _names,
            st.lists(_names, min_size=1, max_size=4, unique=True),
        ),
        st.builds(
            lambda n, p, items: ast.ObjectNode(n, p, items),
            _names,
            st.none() | _names,
            _object_items(),
        ),
        st.builds(
            lambda n, s, o, r: ast.RelationNode(n, s, o, r),
            _names,
            _names,
            _names,
            st.booleans(),
        ),
        st.builds(
            lambda n, b, req, edits: ast.TransitionalNode(n, b, tuple(req), tuple(edits)),
            _names,
            _names,
            st.lists(_pattern(), max_size=3),
            st.lists(
                st.builds(
                    lambda op, p: ast.EditNode(op, p),
                    st.sampled_from(["delete", "create"]),
                    _pattern(),
                ),
                max_size=3,
            ),
        ),
        st.builds(
            lambda n, k, s: ast.ChainNode(n, k, s),
            _names,
            st.sampled_from(["sequence", "mechanism", "procedure", "workflow"]),
            _steps(),
        ),
        st.builds(
            lambda n, b, t, r: ast.DispositionNode(n, b, t, r),
            _names,
            _names,
            _pattern(),
            _names,
        ),
        st.builds(
            lambda n, spawns, asserts: ast.WorldNode(n, tuple(spawns), tuple(asserts)),
            _names,
            st.lists(
                st.builds(
                    lambda i, s, assigns: ast.SpawnNode(i, s, tuple(assigns)),
                    _names,
                    _names,
                    st.lists(
                        st.builds(lambda d, v: ast.AssignNode(d, v), _names, _term()),
                        max_size=2,
                    ),
                ),
                max_size=2,
            ),
            st.lists(_pattern(), max_size=2),
        ),
        st.builds(
            lambda n, s, ev: ast.ClaimNode(n, s, tuple(ev)),
            _names,
            _texts,
            st.lists(
                st.builds(lambda r, note: ast.EvidenceNode(r, note), _names, _texts),
                max_size=2,
            ),
        ),
    )


_modules = st.builds(
    lambda name, facet, imports, decls: ast.SourceModule(
        name, facet, tuple(imports), tuple(decls)
    ),
    _names,
    st.none() | _names,
    st.lists(st.builds(lambda m: ast.ImportNode(m), _names), max_size=2),
    st.lists(_decl(), max_size=5),
)


@given(_modules)
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(module):
    printed = module_to_source(module)
    reparsed, diagnostics = parse_module(printed, name=module.name)
    assert diagnostics == []
    assert reparsed.decls == module.decls
    assert reparsed.imports == module.imports
    assert reparsed.facet == module.facet
