"""Differential tests of the compile front end against the code it replaced.

``reference_tokenize`` is the per-character lexer that built one token object
and one Span per token, kept here as the oracle with two position fixes applied:
a comment advances the column, and an escaped newline inside a string
starts a new line. ``asdict_fingerprint`` is the registry fingerprint as
``dataclasses.asdict`` of every schema plus its ``__type__``. ``PARSE_DIGEST``
is a SHA-256 of everything ``parse_module`` returned on the corpus, generated
modules and seeded token mutations, taken before the front end was last
rewritten for speed.
"""

import dataclasses
import hashlib
import json
import random
import runpy
from pathlib import Path

import pytest
from conftest import CORPUS_FILES, MODELS_DIR
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfo import compile_modules, parse_module
from xfo.diagnostics import ERROR, SYNTAX, Diagnostic, Span
from xfo.lang.lexer import _PUNCT, EOF, IDENT, KIND, STRING, TEXT, span, tokenize
from xfo.lang.parser import DECL_KEYWORDS

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


def reference_tokenize(source, file="<input>"):
    """(kind, text, span) triples and diagnostics, one character at a time."""
    tokens = []
    diagnostics = []
    pos, line, col, n = 0, 1, 1, len(source)

    def span(start_pos, start_line, start_col):
        return Span(start_line, start_col, pos - start_pos, start_pos)

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            pos, line, col = pos + 1, line + 1, 1
            continue
        if ch in " \t\r":
            pos, col = pos + 1, col + 1
            continue
        if ch == "#":
            while pos < n and source[pos] != "\n":
                pos, col = pos + 1, col + 1
            continue
        start = (pos, line, col)
        if ch in _PUNCT:
            pos, col = pos + 1, col + 1
            tokens.append((_PUNCT[ch], ch, span(*start)))
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            while pos < n and source[pos].isascii() and (
                source[pos].isalnum() or source[pos] in "_-"
            ):
                pos, col = pos + 1, col + 1
            tokens.append((IDENT, source[start[0]:pos], span(*start)))
            continue
        if ch == '"':
            pos, col = pos + 1, col + 1
            value = []
            closed = False
            while pos < n:
                ch = source[pos]
                if ch == "\n":
                    break
                pos, col = pos + 1, col + 1
                if ch == '"':
                    closed = True
                    break
                if ch == "\\" and pos < n:
                    escape = source[pos]
                    pos, col = pos + 1, col + 1
                    if escape == "\n":
                        line, col = line + 1, 1
                    value.append(_ESCAPES.get(escape, escape))
                else:
                    value.append(ch)
            if not closed:
                diagnostics.append(
                    Diagnostic(ERROR, SYNTAX, "unterminated string literal", file, span(*start))
                )
            tokens.append((STRING, "".join(value), span(*start)))
            continue
        pos, col = pos + 1, col + 1
        diagnostics.append(
            Diagnostic(ERROR, SYNTAX, f"unexpected character {ch!r}", file, span(*start))
        )
    tokens.append((EOF, "", Span(line, col, 0, pos)))
    return tokens, diagnostics


def assert_same_as_reference(source):
    tokens, diagnostics = tokenize(source, "t.xfo")
    assert all(type(t) is tuple and len(t) == 6 for t in tokens)
    assert ([(t[KIND], t[TEXT], span(t)) for t in tokens], diagnostics) == reference_tokenize(
        source, "t.xfo"
    )


# Identifiers, every punctuation mark, comments, strings with escapes, the
# whitespace the lexer skips, and characters it rejects: a non-ASCII letter,
# a vertical tab and a percent sign.
FRAGMENTS = (
    "a", "Z", "_", "-", "7", "object", "q-1", *_PUNCT, "#", "# note", '"', '"x"',
    "\\", '\\"', "\\n", "\\t", "\\\n", "\r", "\t", " ", "  ", "\n", "\r\n", "é", "\x0b", "%",
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@example('claim c "ends in a backslash\\')
@example('object A {  # open')
@example('a "x\\\ny" b')
def test_tokenize_matches_reference_lexer(source):
    assert_same_as_reference(source)


# The compile workload's seeded module generator, at a small size.
generate = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "gen_modules.py")
)["generate"]
GENERATED_SETS = {seed: generate(seed, 6, 3) for seed in (3, 7, 11)}


def test_tokenize_matches_reference_lexer_on_corpus_and_generated_sets():
    for filename in CORPUS_FILES:
        assert_same_as_reference((MODELS_DIR / filename).read_text())
    for module_set in GENERATED_SETS.values():
        for _, text in module_set.sources:
            assert_same_as_reference(text)


def asdict_fingerprint(registry):
    payload = {
        name: {**dataclasses.asdict(schema), "__type__": type(schema).__name__}
        for name, schema in sorted(registry.schemas.items())
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_corpus_fingerprint_matches_asdict_payload(registry):
    assert registry.fingerprint == asdict_fingerprint(registry)


@pytest.mark.parametrize("seed", sorted(GENERATED_SETS))
def test_generated_fingerprint_matches_asdict_payload(seed):
    modules = [parse_module(text, name=name)[0] for name, text in GENERATED_SETS[seed].sources]
    result = compile_modules(modules)
    assert result.ok, result.diagnostics
    assert result.registry.fingerprint == asdict_fingerprint(result.registry)


# Words the mutations insert: every punctuation mark and the keywords the
# parser branches on.
INSERTED_WORDS = (*_PUNCT, *sorted(DECL_KEYWORDS), "part", "function", "required",
                  "member", "link", "require", "delete", "create", "do", "if", "else",
                  "while", "on", "when", "realize", "spawn", "assert", "evidence", '"s"')


def mutations(source, rng, count):
    """``count`` token-level edits of ``source``: a token deleted, a word inserted
    before a token, or one token's text copied before another."""
    tokens = [(s.offset, s.offset + s.length) for _, _, s in reference_tokenize(source)[0][:-1]]
    for _ in range(count):
        at, _ = rng.choice(tokens)
        op = rng.randrange(3)
        if op == 0:
            start, end = rng.choice(tokens)
            yield source[:start] + source[end:]
        elif op == 1:
            yield f"{source[:at]}{rng.choice(INSERTED_WORDS)} {source[at:]}"
        else:
            start, end = rng.choice(tokens)
            yield f"{source[:at]}{source[start:end]} {source[at:]}"


def parse_inputs():
    """(name, text) of the corpus, small generated sets and seeded mutations of the corpus."""
    corpus = [(Path(f).stem, (MODELS_DIR / f).read_text()) for f in CORPUS_FILES]
    yield from corpus
    for seed in range(8):
        yield from generate(seed, 3, 2).sources
    rng = random.Random(0)
    for name, text in corpus:
        for index, mutant in enumerate(mutations(text, rng, 500)):
            yield f"{name}-{index}", mutant


PARSE_DIGEST = "ab5680585435ce70dae74ae71d696dc6e5c9cc65b5c4dde9d281a3c89228e22a"


def test_parse_module_matches_pinned_digest(corpus):
    """Every module, span and diagnostic the parser gives on these inputs, then
    the corpus registry fingerprint, hash to the value they had before the
    lexer, parser and lowering were last sped up."""
    digest = hashlib.sha256()
    for name, text in parse_inputs():
        module, diagnostics = parse_module(text, name=name)
        digest.update(repr((module, module.file, module.dropped, diagnostics)).encode())
    digest.update(corpus.registry.fingerprint.encode())
    assert digest.hexdigest() == PARSE_DIGEST

