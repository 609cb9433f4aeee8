"""Recursive-descent parser for .xfo modules.

The parse is total: on a syntax error it records a positioned diagnostic and
resumes at the next top-level declaration keyword, so one typo does not hide
later errors.
"""

from __future__ import annotations

import re

from ..diagnostics import ERROR, SYNTAX, Diagnostic, Span
from ..schemas import CHAIN_KINDS
from . import ast
from .lexer import (
    COLON,
    COMMA,
    DOT,
    EOF,
    EQUALS,
    IDENT,
    LBRACE,
    LPAREN,
    QUESTION,
    RBRACE,
    RPAREN,
    STRING,
    Token,
    tokenize,
)

DECL_KEYWORDS = frozenset(
    {
        "import",
        "quality",
        "object",
        "aggregate",
        "relation",
        "transitional",
        "chain",
        "disposition",
        "world",
        "claim",
    }
)

_FACET_RE = re.compile(r"^\s*#\s*facet\s*:\s*([A-Za-z_][A-Za-z0-9_\-]*)\s*$", re.MULTILINE)


class _ParseError(Exception):
    pass


class Parser:
    def __init__(self, tokens: list[Token], file: str, source: str):
        self.tokens = tokens
        self.file = file
        self.source = source
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.declaring: str | None = None  # name of the declaration being parsed

    # -- token plumbing -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]  # ``advance`` stops at EOF, the last token

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def at_word(self, word: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind == IDENT and token.text == word

    def error(self, message: str, token: Token | None = None) -> _ParseError:
        token = token or self.peek()
        self.diagnostics.append(Diagnostic(ERROR, SYNTAX, message, self.file, token.span))
        return _ParseError(message)

    def unexpected(self, what: str) -> _ParseError:
        token = self.peek()
        end = token.offset + token.length
        found = "end of file" if token.kind == EOF else self.source[token.offset : end]
        return self.error(f"expected {what}, found {found!r}")

    def expect(self, kind: str, what: str) -> Token:
        if self.at(kind):
            return self.advance()
        raise self.unexpected(what)

    def expect_word(self, word: str) -> Token:
        if self.at_word(word):
            return self.advance()
        raise self.unexpected(repr(word))

    def ident(self, what: str) -> Token:
        return self.expect(IDENT, what)

    def decl_name(self, what: str) -> str:
        """The name of a schema declaration; it stays declared even if the
        rest of the declaration fails to parse."""
        self.declaring = self.ident(what).text
        return self.declaring

    def ref(self, what: str) -> str:
        """A possibly module-qualified name: IDENT { '.' IDENT }."""
        parts = [self.ident(what).text]
        while self.at(DOT):
            self.advance()
            parts.append(self.ident("name after '.'").text)
        return ".".join(parts)

    def span_from(self, start_index: int) -> Span:
        start = self.tokens[start_index]
        last = self.tokens[max(start_index, self.pos - 1)]
        length = max(last.offset + last.length - start.offset, 0)
        return Span(start.line, start.column, length, start.offset)

    def sync(self) -> None:
        depth = 0
        while not self.at(EOF):
            token = self.peek()
            if token.kind == LBRACE:
                depth += 1
            elif token.kind == RBRACE:
                depth = max(depth - 1, 0)
            elif depth == 0 and token.kind == IDENT and token.text in DECL_KEYWORDS:
                return
            self.advance()

    # -- module ----------------------------------------------------------------

    def parse_module(self, name: str, facet: str | None) -> ast.SourceModule:
        imports: list[ast.ImportNode] = []
        decls: list = []
        dropped: list[str] = []
        while not self.at(EOF):
            start = self.pos
            self.declaring = None
            try:
                token = self.peek()
                if token.kind != IDENT or token.text not in DECL_KEYWORDS:
                    raise self.unexpected("a declaration keyword")
                word = token.text
                if word == "import":
                    self.advance()
                    module = self.ident("module name after 'import'")
                    imports.append(
                        ast.ImportNode(module.text, span=self.span_from(start))
                    )
                elif word == "quality":
                    decls.append(self.quality_decl(start))
                elif word == "object":
                    decls.append(self.object_decl(start))
                elif word == "aggregate":
                    decls.append(self.aggregate_decl(start))
                elif word == "relation":
                    decls.append(self.relation_decl(start))
                elif word == "transitional":
                    decls.append(self.transitional_decl(start))
                elif word == "chain":
                    decls.append(self.chain_decl(start))
                elif word == "disposition":
                    decls.append(self.disposition_decl(start))
                elif word == "world":
                    decls.append(self.world_decl(start))
                elif word == "claim":
                    decls.append(self.claim_decl(start))
            except _ParseError:
                if self.declaring is not None:
                    dropped.append(self.declaring)
                self.sync()
        end = self.tokens[-1].offset  # EOF offset == source length
        return ast.SourceModule(
            name, facet, tuple(imports), tuple(decls), span=Span(1, 1, end, 0), file=self.file,
            dropped=tuple(dropped),
        )

    # -- declarations -------------------------------------------------------------

    def quality_decl(self, start: int) -> ast.QualityNode:
        self.expect_word("quality")
        name = self.decl_name("quality name")
        self.expect(LBRACE, "'{'")
        determinants = [self.ident("determinant").text]
        while self.at(COMMA):
            self.advance()
            determinants.append(self.ident("determinant").text)
        self.expect(RBRACE, "'}'")
        return ast.QualityNode(name, tuple(determinants), span=self.span_from(start))

    def object_decl(self, start: int) -> ast.ObjectNode:
        self.expect_word("object")
        name = self.decl_name("object name after 'object'")
        parent = None
        if self.at(COLON):
            self.advance()
            parent = self.ref("parent name after ':'")
        self.expect(LBRACE, "'{'")
        items: list = []
        while not self.at(RBRACE) and not self.at(EOF):
            items.append(self.object_item())
        self.expect(RBRACE, "'}'")
        return ast.ObjectNode(name, parent, tuple(items), span=self.span_from(start))

    def object_item(self):
        start = self.pos
        if self.at_word("quality"):
            self.advance()
            determinable = self.ident("determinable name").text
            self.expect(COLON, "':'")
            ontology = self.ref("quality ontology name")
            required = False
            if self.at_word("required"):
                self.advance()
                required = True
            return ast.QualitySlotNode(
                determinable, ontology, required, span=self.span_from(start)
            )
        if self.at_word("part"):
            self.advance()
            slot = self.ident("part slot name").text
            self.expect(COLON, "':'")
            schema = self.ref("part schema name")
            self.expect_word("function")
            function = self.expect(STRING, "function text").text
            linkage = None
            if self.at_word("composition"):
                self.advance()
                linkage = "composition"
            elif self.at_word("contained"):
                self.advance()
                linkage = "contained"
            return ast.PartNode(slot, schema, function, linkage, span=self.span_from(start))
        if self.at_word("function"):
            self.advance()
            name = self.ident("function name").text
            serves = None
            if self.at_word("serves"):
                self.advance()
                serves = self.ident("need name after 'serves'").text
            return ast.FunctionNode(name, serves, span=self.span_from(start))
        if self.at_word("role"):
            self.advance()
            name = self.ident("role name").text
            return ast.RoleNode(name, span=self.span_from(start))
        raise self.unexpected("an object item (quality/part/function/role)")

    def aggregate_decl(self, start: int) -> ast.AggregateNode:
        self.expect_word("aggregate")
        name = self.decl_name("aggregate name")
        self.expect(LBRACE, "'{'")
        members: list[ast.MemberNode] = []
        links: list[ast.LinkNode] = []
        while not self.at(RBRACE) and not self.at(EOF):
            item_start = self.pos
            if self.at_word("member"):
                self.advance()
                slot = self.ident("member slot name").text
                self.expect(COLON, "':'")
                schema = self.ref("member schema name")
                members.append(
                    ast.MemberNode(slot, schema, span=self.span_from(item_start))
                )
            elif self.at_word("link"):
                self.advance()
                relation = self.ref("link relation name")
                self.expect(LPAREN, "'('")
                subject = self.ident("slot name").text
                self.expect(COMMA, "','")
                obj = self.ident("slot name").text
                self.expect(RPAREN, "')'")
                links.append(
                    ast.LinkNode(relation, subject, obj, span=self.span_from(item_start))
                )
            else:
                raise self.unexpected("'member' or 'link'")
        self.expect(RBRACE, "'}'")
        return ast.AggregateNode(name, tuple(members), tuple(links), span=self.span_from(start))

    def relation_decl(self, start: int) -> ast.RelationNode:
        self.expect_word("relation")
        name = self.decl_name("relation name")
        self.expect(LPAREN, "'('")
        subject = self.ref("subject kind")
        self.expect(COMMA, "','")
        obj = self.ref("object kind")
        self.expect(RPAREN, "')'")
        relational = False
        if self.at_word("relational-quality"):
            self.advance()
            relational = True
        return ast.RelationNode(name, subject, obj, relational, span=self.span_from(start))

    def pattern(self) -> ast.PatternNode:
        start = self.pos
        predicate = self.ref("predicate name")
        self.expect(LPAREN, "'('")
        subject = self.term()
        self.expect(COMMA, "','")
        obj = self.term()
        self.expect(RPAREN, "')'")
        return ast.PatternNode(predicate, subject, obj, span=self.span_from(start))

    def term(self) -> ast.TermNode:
        start = self.pos
        if self.at(QUESTION):
            self.advance()
            name = self.ident("variable name after '?'").text
            return ast.TermNode("var", name, span=self.span_from(start))
        if self.at(STRING):
            token = self.advance()
            return ast.TermNode("string", token.text, span=self.span_from(start))
        value = self.ref("term")
        return ast.TermNode("ident", value, span=self.span_from(start))

    def transitional_decl(self, start: int) -> ast.TransitionalNode:
        self.expect_word("transitional")
        name = self.decl_name("transitional name")
        self.expect_word("on")
        bearer = self.ref("bearer kind after 'on'")
        self.expect(LBRACE, "'{'")
        requires: list[ast.PatternNode] = []
        while self.at_word("require"):
            self.advance()
            requires.append(self.pattern())
        edits: list[ast.EditNode] = []
        while self.at_word("delete") or self.at_word("create"):
            edit_start = self.pos
            op = self.advance().text
            edits.append(ast.EditNode(op, self.pattern(), span=self.span_from(edit_start)))
        self.expect(RBRACE, "'}'")
        return ast.TransitionalNode(
            name, bearer, tuple(requires), tuple(edits), span=self.span_from(start)
        )

    def chain_decl(self, start: int) -> ast.ChainNode:
        self.expect_word("chain")
        kind_token = self.ident("chain kind (sequence/mechanism/procedure/workflow)")
        if kind_token.text not in CHAIN_KINDS:
            raise self.error(
                f"expected a chain kind, found {kind_token.text!r}", kind_token
            )
        name = self.decl_name("chain name")
        steps = self.step_block()
        return ast.ChainNode(name, kind_token.text, steps, span=self.span_from(start))

    def step_block(self) -> tuple:
        self.expect(LBRACE, "'{'")
        steps: list = []
        while not self.at(RBRACE) and not self.at(EOF):
            steps.append(self.step())
        self.expect(RBRACE, "'}'")
        return tuple(steps)

    def step(self):
        start = self.pos
        if self.at_word("do"):
            self.advance()
            transitional = self.ref("transitional name after 'do'")
            intervention = False
            if self.at_word("intervention"):
                self.advance()
                intervention = True
            return ast.DoNode(transitional, intervention, span=self.span_from(start))
        if self.at_word("if"):
            self.advance()
            condition = self.pattern()
            then_steps = self.step_block()
            else_steps: tuple = ()
            if self.at_word("else"):
                self.advance()
                else_steps = self.step_block()
            return ast.IfNode(condition, then_steps, else_steps, span=self.span_from(start))
        if self.at_word("while"):
            self.advance()
            condition = self.pattern()
            body = self.step_block()
            return ast.WhileNode(condition, body, span=self.span_from(start))
        raise self.unexpected("a step (do/if/while)")

    def disposition_decl(self, start: int) -> ast.DispositionNode:
        self.expect_word("disposition")
        name = self.decl_name("disposition name")
        self.expect_word("on")
        bearer = self.ref("bearer kind after 'on'")
        self.expect_word("when")
        trigger = self.pattern()
        self.expect_word("realize")
        realization = self.ref("transitional name after 'realize'")
        return ast.DispositionNode(name, bearer, trigger, realization, span=self.span_from(start))

    def world_decl(self, start: int) -> ast.WorldNode:
        self.expect_word("world")
        name = self.ident("world name").text
        self.expect(LBRACE, "'{'")
        spawns: list[ast.SpawnNode] = []
        asserts: list[ast.PatternNode] = []
        while not self.at(RBRACE) and not self.at(EOF):
            item_start = self.pos
            if self.at_word("spawn"):
                self.advance()
                instance = self.ident("instance name").text
                self.expect(COLON, "':'")
                schema = self.ref("schema name")
                assignments: list[ast.AssignNode] = []
                # Assignments are IDENT '=' term; anything else ends the spawn.
                # An IDENT is never the last token, so pos + 1 is in range.
                while self.at(IDENT) and self.tokens[self.pos + 1].kind == EQUALS:
                    assign_start = self.pos
                    determinable = self.advance().text
                    self.advance()  # '='
                    assignments.append(
                        ast.AssignNode(
                            determinable, self.term(), span=self.span_from(assign_start)
                        )
                    )
                spawns.append(
                    ast.SpawnNode(
                        instance, schema, tuple(assignments), span=self.span_from(item_start)
                    )
                )
            elif self.at_word("assert"):
                self.advance()
                asserts.append(self.pattern())
            else:
                raise self.unexpected("'spawn' or 'assert'")
        self.expect(RBRACE, "'}'")
        return ast.WorldNode(name, tuple(spawns), tuple(asserts), span=self.span_from(start))

    def claim_decl(self, start: int) -> ast.ClaimNode:
        self.expect_word("claim")
        name = self.ident("claim name").text
        statement = self.expect(STRING, "claim statement").text
        evidence: list[ast.EvidenceNode] = []
        while self.at_word("evidence"):
            item_start = self.pos
            self.advance()
            ref = self.ref("evidence artifact")
            note = self.expect(STRING, "evidence note").text
            evidence.append(ast.EvidenceNode(ref, note, span=self.span_from(item_start)))
        return ast.ClaimNode(name, statement, tuple(evidence), span=self.span_from(start))


def parse_module(
    text: str, name: str = "module", file: str | None = None
) -> tuple[ast.SourceModule, list[Diagnostic]]:
    """Parse one module. Always returns a module (possibly partial) plus
    diagnostics; errors never abort the parse."""
    file = file or f"{name}.xfo"
    facet_match = _FACET_RE.search(text)
    facet = facet_match.group(1) if facet_match else None
    tokens, lex_diagnostics = tokenize(text, file)
    parser = Parser(tokens, file, text)
    module = parser.parse_module(name, facet)
    return module, lex_diagnostics + parser.diagnostics
