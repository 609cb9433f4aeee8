import copy
import dataclasses
import gc
import importlib
import inspect
import pickle
import pkgutil
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfo
from xfo import microworld, module_to_source, parse_module
from xfo.diagnostics import Span
from xfo.lang import ast
from xfo.lang.lexer import EOF, KIND, TEXT, span, tokenize
from xfo.microworld import TimelineEvent
from xfo.records import record
from xfo.schemas import CREATE, Edit, Pattern, QualityOntology, TransitionalSchema, const, var
from xfo.transitions import AppliedTransition

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


def test_a_string_token_is_named_by_its_source_text_not_as_end_of_file():
    _, diagnostics = parse_module('quality "" { a }')
    assert [d.message for d in diagnostics] == ["expected quality name, found '\"\"'"]
    _, diagnostics = parse_module('quality "a\\"b" { a }\nobject')
    assert [d.message for d in diagnostics] == [
        "expected quality name, found '\"a\\\\\"b\"'",
        "expected object name after 'object', found 'end of file'",
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
            if token[KIND] == EOF:
                continue
            t = span(token)
            covered = any(
                s.offset <= t.offset and t.offset + t.length <= s.offset + s.length for s in spans
            )
            assert covered, f"{filename}: token {token[TEXT]!r} at {t} uncovered"


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


# --- one malformed input per parser error site ----------------------------------------

# (one-line source, column of its one diagnostic, the message, the dropped names): every
# ``expect``, keyword, name, reference and unexpected-token site of the parser.
PARSE_ERRORS = [
    ("bogus", 1, "expected a declaration keyword, found 'bogus'", ()),
    ("import", 7, "expected module name after 'import', found 'end of file'", ()),
    ("quality", 8, "expected quality name, found 'end of file'", ()),
    ("quality q a }", 11, "expected '{', found 'a'", ("q",)),
    ("quality q { }", 13, "expected determinant, found '}'", ("q",)),
    ("quality q { a, }", 16, "expected determinant, found '}'", ("q",)),
    ("quality q { a b }", 15, "expected '}', found 'b'", ("q",)),
    ("object", 7, "expected object name after 'object', found 'end of file'", ()),
    ("object A : { }", 12, "expected parent name after ':', found '{'", ("A",)),
    ("object A : m. { }", 15, "expected name after '.', found '{'", ("A",)),
    ("object A B", 10, "expected '{', found 'B'", ("A",)),
    ("object A { quality }", 20, "expected determinable name, found '}'", ("A",)),
    ("object A { quality a hue }", 22, "expected ':', found 'hue'", ("A",)),
    ("object A { quality a: }", 23, "expected quality ontology name, found '}'", ("A",)),
    ("object A { part }", 17, "expected part slot name, found '}'", ("A",)),
    ("object A { part p B }", 19, "expected ':', found 'B'", ("A",)),
    ("object A { part p: }", 20, "expected part schema name, found '}'", ("A",)),
    ("object A { part p: B }", 22, "expected 'function', found '}'", ("A",)),
    ("object A { part p: B function x }", 31, "expected function text, found 'x'", ("A",)),
    ("object A { function }", 21, "expected function name, found '}'", ("A",)),
    ("object A { function f serves }", 30, "expected need name after 'serves', found '}'", ("A",)),
    ("object A { role }", 17, "expected role name, found '}'", ("A",)),
    ("object A { bogus }", 12,
     "expected an object item (quality/part/function/role), found 'bogus'", ("A",)),
    ("object A {", 11, "expected '}', found 'end of file'", ("A",)),
    ("aggregate", 10, "expected aggregate name, found 'end of file'", ()),
    ("aggregate G member", 13, "expected '{', found 'member'", ("G",)),
    ("aggregate G { member }", 22, "expected member slot name, found '}'", ("G",)),
    ("aggregate G { member m B }", 24, "expected ':', found 'B'", ("G",)),
    ("aggregate G { member m: }", 25, "expected member schema name, found '}'", ("G",)),
    ("aggregate G { link }", 20, "expected link relation name, found '}'", ("G",)),
    ("aggregate G { link r a, b) }", 22, "expected '(', found 'a'", ("G",)),
    ("aggregate G { link r( }", 23, "expected slot name, found '}'", ("G",)),
    ("aggregate G { link r(a b) }", 24, "expected ',', found 'b'", ("G",)),
    ("aggregate G { link r(a, ) }", 25, "expected slot name, found ')'", ("G",)),
    ("aggregate G { link r(a, b }", 27, "expected ')', found '}'", ("G",)),
    ("aggregate G { bogus }", 15, "expected 'member' or 'link', found 'bogus'", ("G",)),
    ("aggregate G { member m: B", 26, "expected '}', found 'end of file'", ("G",)),
    ("relation", 9, "expected relation name, found 'end of file'", ()),
    ("relation r a, b)", 12, "expected '(', found 'a'", ("r",)),
    ("relation r( , b)", 13, "expected subject kind, found ','", ("r",)),
    ("relation r(a b)", 14, "expected ',', found 'b'", ("r",)),
    ("relation r(a, )", 15, "expected object kind, found ')'", ("r",)),
    ("relation r(a, b", 16, "expected ')', found 'end of file'", ("r",)),
    ("transitional", 13, "expected transitional name, found 'end of file'", ()),
    ("transitional t A { }", 16, "expected 'on', found 'A'", ("t",)),
    ("transitional t on { }", 19, "expected bearer kind after 'on', found '{'", ("t",)),
    ("transitional t on A", 20, "expected '{', found 'end of file'", ("t",)),
    ("transitional t on A { require }", 31, "expected predicate name, found '}'", ("t",)),
    ("transitional t on A { require p a, b) }", 33, "expected '(', found 'a'", ("t",)),
    ("transitional t on A { require p(, b) }", 33, "expected term, found ','", ("t",)),
    ("transitional t on A { require p(? , b) }", 35,
     "expected variable name after '?', found ','", ("t",)),
    ("transitional t on A { require p(a b) }", 35, "expected ',', found 'b'", ("t",)),
    ("transitional t on A { require p(a, b }", 38, "expected ')', found '}'", ("t",)),
    ("transitional t on A { create p(a, b) require p(a, b) }", 38,
     "expected '}', found 'require'", ("t",)),
    ("chain", 6,
     "expected chain kind (sequence/mechanism/procedure/workflow), found 'end of file'", ()),
    ("chain loop c { }", 7, "expected a chain kind, found 'loop'", ()),
    ("chain sequence", 15, "expected chain name, found 'end of file'", ()),
    ("chain sequence c do x", 18, "expected '{', found 'do'", ("c",)),
    ("chain sequence c { do }", 23, "expected transitional name after 'do', found '}'", ("c",)),
    ("chain sequence c { bogus }", 20, "expected a step (do/if/while), found 'bogus'", ("c",)),
    ("chain sequence c { if p(a, b) do x }", 31, "expected '{', found 'do'", ("c",)),
    ("chain sequence c { do x", 24, "expected '}', found 'end of file'", ("c",)),
    ("disposition", 12, "expected disposition name, found 'end of file'", ()),
    ("disposition d A", 15, "expected 'on', found 'A'", ("d",)),
    ("disposition d on when p(a, b) realize t", 23, "expected 'when', found 'p'", ("d",)),
    ("disposition d on A p(a, b)", 20, "expected 'when', found 'p'", ("d",)),
    ("disposition d on A when p(a, b) t", 33, "expected 'realize', found 't'", ("d",)),
    ("disposition d on A when p(a, b) realize", 40,
     "expected transitional name after 'realize', found 'end of file'", ("d",)),
    ("world", 6, "expected world name, found 'end of file'", ()),
    ("world w spawn", 9, "expected '{', found 'spawn'", ()),
    ("world w { spawn }", 17, "expected instance name, found '}'", ()),
    ("world w { spawn l A }", 19, "expected ':', found 'A'", ()),
    ("world w { spawn l: }", 20, "expected schema name, found '}'", ()),
    ("world w { spawn l: A color = }", 30, "expected term, found '}'", ()),
    ("world w { assert }", 18, "expected predicate name, found '}'", ()),
    ("world w { bogus }", 11, "expected 'spawn' or 'assert', found 'bogus'", ()),
    ("world w {", 10, "expected '}', found 'end of file'", ()),
    ("claim", 6, "expected claim name, found 'end of file'", ()),
    ("claim c", 8, "expected claim statement, found 'end of file'", ()),
    ('claim c "s" evidence', 21, "expected evidence artifact, found 'end of file'", ()),
    ('claim c "s" evidence e', 23, "expected evidence note, found 'end of file'", ()),
]


@pytest.mark.parametrize("text, column, message, dropped", PARSE_ERRORS,
                         ids=[row[0] for row in PARSE_ERRORS])
def test_each_parse_error_site_reports_one_positioned_diagnostic(text, column, message, dropped):
    module, diagnostics = parse_module(text)
    assert [(d.span.line, d.span.column, d.message) for d in diagnostics] == [(1, column, message)]
    assert module.dropped == dropped


PHANTOM = """quality hue { red }
object Lamp {
  quality a: hue
  bogus
  quality b: hue
}
relation lit(b, b)
"""


def test_resync_skips_a_quality_slot_of_the_body_it_leaves():
    module, diagnostics = parse_module(PHANTOM)
    assert [(d.span.line, d.span.column, d.message) for d in diagnostics] == [
        (4, 3, "expected an object item (quality/part/function/role), found 'bogus'")
    ]
    assert module.dropped == ("Lamp",)  # not "b": "quality b: hue" declares nothing
    assert [decl.name for decl in module.decls] == ["hue", "lit"]
    result = compile_sources({"m": PHANTOM})
    assert [(d.span.line, d.span.column, d.code, d.message) for d in result.diagnostics] == [
        (4, 3, "SyntaxError",
         "expected an object item (quality/part/function/role), found 'bogus'"),
        (7, 1, "DanglingReference", "'b' is not declared in this module or its imports"),
    ]


def test_an_unclosed_body_resyncs_at_the_next_declaration():
    module, diagnostics = parse_module(
        "quality hue { red }\nobject Lamp {\n  quality a: hue\nobject B { }\n"
    )
    assert [(d.span.line, d.span.column, d.message) for d in diagnostics] == [
        (4, 1, "expected an object item (quality/part/function/role), found 'object'")
    ]
    assert module.dropped == ("Lamp",)
    assert [decl.name for decl in module.decls] == ["hue", "B"]


def test_resync_passes_over_a_keyword_used_as_a_name_in_the_body_it_leaves():
    module, diagnostics = parse_module(
        'object world { }\nobject A {\n  bogus\n  part q: world function "y"\n}\n'
    )
    assert [(d.span.line, d.span.column, d.message) for d in diagnostics] == [
        (3, 3, "expected an object item (quality/part/function/role), found 'bogus'")
    ]
    assert module.dropped == ("A",)
    assert [decl.name for decl in module.decls] == ["world"]


def test_resync_resumes_after_the_brace_that_closes_the_body_on_one_line():
    module, diagnostics = parse_module("object A { bogus } object B { }")
    assert [(d.span.line, d.span.column, d.message) for d in diagnostics] == [
        (1, 12, "expected an object item (quality/part/function/role), found 'bogus'")
    ]
    assert module.dropped == ("A",)
    assert [decl.name for decl in module.decls] == ["B"]


# --- records the cyclic collector skips or walks cheaply ------------------------------

def test_tokens_are_untracked_and_bulk_records_are_slotted():
    tokens = [t for f in CORPUS_FILES for t in tokenize((MODELS_DIR / f).read_text())[0]]
    gc.collect()
    assert tokens and not any(gc.is_tracked(t) for t in tokens)

    pattern = Pattern("hue", var("bearer"), const("red"))
    module, _ = parse_module("quality hue { red }")
    records = [
        Span(1, 2, 3, 4),
        module.decls[0],
        pattern,
        TransitionalSchema("redden", "Lamp", (pattern,), (Edit(CREATE, pattern),)),
        AppliedTransition("redden", "l1", 3, (("x", "l2"),), (), (("l1", "hue", "red"),)),
    ]
    for record in records:
        twin = copy.deepcopy(record)
        assert twin is not record and twin == record and hash(twin) == hash(record)
        first = dataclasses.fields(record)[0].name
        changed = dataclasses.replace(record, **{first: 0})
        assert getattr(changed, first) == 0 and changed != record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, 0)
        assert not hasattr(record, "__dict__")


def _frozen_slotted_records():
    """Every frozen, slotted dataclass that a module of the xfo package defines."""
    found = []
    for info in pkgutil.walk_packages(xfo.__path__, "xfo."):
        module = importlib.import_module(info.name)
        found += [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen
            and "__slots__" in vars(value)
        ]
    return found


RECORDS = _frozen_slotted_records()


def test_records_are_found_in_every_module_and_post_init_still_runs():
    assert {cls.__module__ for cls in RECORDS} == {
        "xfo.diagnostics", "xfo.lang.ast", "xfo.microworld", "xfo.relations",
        "xfo.schemas", "xfo.transitions",
    }
    with pytest.raises(ValueError):
        QualityOntology("q", ())  # __post_init__ still runs


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def test_every_frozen_slotted_record_is_built_by_record(cls):
    fields = dataclasses.fields(cls)
    values = {f.name: (f.name,) for f in fields}
    if cls is TimelineEvent:  # its own __init__ takes edits and calls the record's slot writer
        writer = microworld._write_event
        assert writer.__code__.co_filename == "<record xfo.microworld.TimelineEvent>"
        assert list(inspect.signature(writer).parameters) == ["self", *values]
        instance = TimelineEvent(0, "spawn", "l1", ("l1",), (("member", "a1"),))
        assert instance.edits == (("member", "a1"),)
        writer(instance, *values.values())
    else:
        assert cls.__init__.__code__.co_filename == f"<record {cls.__module__}.{cls.__qualname__}>"
        plain = dataclasses.make_dataclass(cls.__name__, [
            (f.name, f.type, dataclasses.field(default=f.default, kw_only=f.kw_only))
            for f in fields
        ], frozen=True, slots=True)
        assert inspect.signature(cls.__init__) == inspect.signature(plain.__init__)
        instance = cls(**values)
        assert dataclasses.replace(instance) == instance
    assert {f.name: getattr(instance, f.name) for f in fields} == values
    assert not hasattr(instance, "__dict__")
    for twin in (copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
        assert twin is not instance and twin == instance and hash(twin) == hash(instance)
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)


@pytest.mark.parametrize("shape", [
    dataclasses.field(init=False, default=0),
    dataclasses.field(default_factory=tuple),
])
def test_record_rejects_a_field_its_init_does_not_take_as_given(shape):
    with pytest.raises(TypeError):
        record(type("Shaped", (), {"__annotations__": {"value": "int"}, "value": shape}))


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
