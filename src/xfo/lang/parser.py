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
from .lexer import COLON, EOF, EQUALS, IDENT, STRING, Token, tokenize

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

    def at(self, word: str) -> bool:
        """Whether the next token is the keyword or punctuation mark ``word``."""
        token = self.tokens[self.pos]
        return token.text == word and token.kind != STRING

    def accept(self, word: str) -> bool:
        """Consume the next token if it is ``word``; say whether it was."""
        if self.at(word):
            self.pos += 1
            return True
        return False

    def error(self, message: str, token: Token | None = None) -> _ParseError:
        token = token or self.peek()
        self.diagnostics.append(Diagnostic(ERROR, SYNTAX, message, self.file, token.span))
        return _ParseError(message)

    def unexpected(self, what: str) -> _ParseError:
        token = self.peek()
        end = token.offset + token.length
        found = "end of file" if token.kind == EOF else self.source[token.offset : end]
        return self.error(f"expected {what}, found {found!r}")

    def expect(self, word: str) -> None:
        if not self.accept(word):
            raise self.unexpected(repr(word))

    def take(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise self.unexpected(what)
        self.pos += 1
        return token.text

    def ident(self, what: str) -> str:
        return self.take(IDENT, what)

    def decl_name(self, what: str) -> str:
        """The name of a schema declaration; it stays declared even if the
        rest of the declaration fails to parse."""
        self.declaring = self.ident(what)
        return self.declaring

    def ref(self, what: str) -> str:
        """A possibly module-qualified name: IDENT { '.' IDENT }."""
        parts = [self.ident(what)]
        while self.accept("."):
            parts.append(self.ident("name after '.'"))
        return ".".join(parts)

    def span_from(self, start_index: int) -> Span:
        start = self.tokens[start_index]
        last = self.tokens[max(start_index, self.pos - 1)]
        length = max(last.offset + last.length - start.offset, 0)
        return Span(start.line, start.column, length, start.offset)

    def block(self, item) -> tuple:
        """``{ item* }``: the items parsed up to the closing brace."""
        self.expect("{")
        items = []
        while not self.at("}") and self.peek().kind != EOF:
            items.append(item())
        self.expect("}")
        return tuple(items)

    def sync(self) -> None:
        """Skip to the next declaration keyword outside braces. ``quality NAME :``
        is a quality slot of the object body the error left, not a declaration."""
        depth = 0
        while (token := self.peek()).kind != EOF:
            if not depth and token.kind == IDENT and token.text in DECL_KEYWORDS:
                after = [t.kind for t in self.tokens[self.pos + 1 : self.pos + 3]]
                if token.text != "quality" or after != [IDENT, COLON]:
                    return
            if self.at("{"):
                depth += 1
            elif self.at("}"):
                depth = max(depth - 1, 0)
            self.advance()

    # -- module ----------------------------------------------------------------

    def parse_module(self, name: str, facet: str | None) -> ast.SourceModule:
        imports: list[ast.ImportNode] = []
        decls: list = []
        dropped: list[str] = []
        while self.peek().kind != EOF:
            start = self.pos
            self.declaring = None
            try:
                token = self.peek()
                parse = _DECLS.get(token.text) if token.kind == IDENT else None
                if parse is None:
                    raise self.unexpected("a declaration keyword")
                self.advance()
                node = parse(self, start)
                (imports if isinstance(node, ast.ImportNode) else decls).append(node)
            except _ParseError:
                if self.declaring is not None:
                    dropped.append(self.declaring)
                self.sync()
        end = self.tokens[-1].offset  # EOF offset == source length
        return ast.SourceModule(
            name, facet, tuple(imports), tuple(decls), span=Span(1, 1, end, 0), file=self.file,
            dropped=tuple(dropped),
        )

    # -- declarations: each starts just past its keyword ------------------------

    def import_decl(self, start: int) -> ast.ImportNode:
        module = self.ident("module name after 'import'")
        return ast.ImportNode(module, span=self.span_from(start))

    def quality_decl(self, start: int) -> ast.QualityNode:
        name = self.decl_name("quality name")
        self.expect("{")
        determinants = [self.ident("determinant")]
        while self.accept(","):
            determinants.append(self.ident("determinant"))
        self.expect("}")
        return ast.QualityNode(name, tuple(determinants), span=self.span_from(start))

    def object_decl(self, start: int) -> ast.ObjectNode:
        name = self.decl_name("object name after 'object'")
        parent = self.ref("parent name after ':'") if self.accept(":") else None
        items = self.block(self.object_item)
        return ast.ObjectNode(name, parent, items, span=self.span_from(start))

    def object_item(self):
        start = self.pos
        if self.accept("quality"):
            determinable = self.ident("determinable name")
            self.expect(":")
            ontology = self.ref("quality ontology name")
            required = self.accept("required")
            return ast.QualitySlotNode(
                determinable, ontology, required, span=self.span_from(start)
            )
        if self.accept("part"):
            slot = self.ident("part slot name")
            self.expect(":")
            schema = self.ref("part schema name")
            self.expect("function")
            function = self.take(STRING, "function text")
            linkage = (
                "composition" if self.accept("composition")
                else "contained" if self.accept("contained") else None
            )
            return ast.PartNode(slot, schema, function, linkage, span=self.span_from(start))
        if self.accept("function"):
            name = self.ident("function name")
            serves = self.ident("need name after 'serves'") if self.accept("serves") else None
            return ast.FunctionNode(name, serves, span=self.span_from(start))
        if self.accept("role"):
            return ast.RoleNode(self.ident("role name"), span=self.span_from(start))
        raise self.unexpected("an object item (quality/part/function/role)")

    def aggregate_decl(self, start: int) -> ast.AggregateNode:
        name = self.decl_name("aggregate name")
        items = self.block(self.aggregate_item)
        members = tuple(item for item in items if isinstance(item, ast.MemberNode))
        links = tuple(item for item in items if isinstance(item, ast.LinkNode))
        return ast.AggregateNode(name, members, links, span=self.span_from(start))

    def aggregate_item(self) -> ast.MemberNode | ast.LinkNode:
        start = self.pos
        if self.accept("member"):
            slot = self.ident("member slot name")
            self.expect(":")
            schema = self.ref("member schema name")
            return ast.MemberNode(slot, schema, span=self.span_from(start))
        if self.accept("link"):
            relation = self.ref("link relation name")
            self.expect("(")
            subject = self.ident("slot name")
            self.expect(",")
            obj = self.ident("slot name")
            self.expect(")")
            return ast.LinkNode(relation, subject, obj, span=self.span_from(start))
        raise self.unexpected("'member' or 'link'")

    def relation_decl(self, start: int) -> ast.RelationNode:
        name = self.decl_name("relation name")
        self.expect("(")
        subject = self.ref("subject kind")
        self.expect(",")
        obj = self.ref("object kind")
        self.expect(")")
        relational = self.accept("relational-quality")
        return ast.RelationNode(name, subject, obj, relational, span=self.span_from(start))

    def pattern(self) -> ast.PatternNode:
        start = self.pos
        predicate = self.ref("predicate name")
        self.expect("(")
        subject = self.term()
        self.expect(",")
        obj = self.term()
        self.expect(")")
        return ast.PatternNode(predicate, subject, obj, span=self.span_from(start))

    def term(self) -> ast.TermNode:
        start = self.pos
        if self.accept("?"):
            name = self.ident("variable name after '?'")
            return ast.TermNode("var", name, span=self.span_from(start))
        if self.peek().kind == STRING:
            value = self.advance().text
            return ast.TermNode("string", value, span=self.span_from(start))
        value = self.ref("term")
        return ast.TermNode("ident", value, span=self.span_from(start))

    def transitional_decl(self, start: int) -> ast.TransitionalNode:
        name = self.decl_name("transitional name")
        self.expect("on")
        bearer = self.ref("bearer kind after 'on'")
        self.expect("{")
        requires: list[ast.PatternNode] = []
        while self.accept("require"):
            requires.append(self.pattern())
        edits: list[ast.EditNode] = []
        while self.at("delete") or self.at("create"):
            edit_start = self.pos
            op = self.advance().text
            edits.append(ast.EditNode(op, self.pattern(), span=self.span_from(edit_start)))
        self.expect("}")
        return ast.TransitionalNode(
            name, bearer, tuple(requires), tuple(edits), span=self.span_from(start)
        )

    def chain_decl(self, start: int) -> ast.ChainNode:
        kind_token = self.peek()
        kind = self.ident("chain kind (sequence/mechanism/procedure/workflow)")
        if kind not in CHAIN_KINDS:
            raise self.error(f"expected a chain kind, found {kind!r}", kind_token)
        name = self.decl_name("chain name")
        steps = self.block(self.step)
        return ast.ChainNode(name, kind, steps, span=self.span_from(start))

    def step(self):
        start = self.pos
        if self.accept("do"):
            transitional = self.ref("transitional name after 'do'")
            intervention = self.accept("intervention")
            return ast.DoNode(transitional, intervention, span=self.span_from(start))
        if self.accept("if"):
            condition = self.pattern()
            then_steps = self.block(self.step)
            else_steps = self.block(self.step) if self.accept("else") else ()
            return ast.IfNode(condition, then_steps, else_steps, span=self.span_from(start))
        if self.accept("while"):
            condition = self.pattern()
            body = self.block(self.step)
            return ast.WhileNode(condition, body, span=self.span_from(start))
        raise self.unexpected("a step (do/if/while)")

    def disposition_decl(self, start: int) -> ast.DispositionNode:
        name = self.decl_name("disposition name")
        self.expect("on")
        bearer = self.ref("bearer kind after 'on'")
        self.expect("when")
        trigger = self.pattern()
        self.expect("realize")
        realization = self.ref("transitional name after 'realize'")
        return ast.DispositionNode(name, bearer, trigger, realization, span=self.span_from(start))

    def world_decl(self, start: int) -> ast.WorldNode:
        name = self.ident("world name")
        items = self.block(self.world_item)
        spawns = tuple(item for item in items if isinstance(item, ast.SpawnNode))
        asserts = tuple(item for item in items if isinstance(item, ast.PatternNode))
        return ast.WorldNode(name, spawns, asserts, span=self.span_from(start))

    def world_item(self) -> ast.SpawnNode | ast.PatternNode:
        start = self.pos
        if self.accept("spawn"):
            instance = self.ident("instance name")
            self.expect(":")
            schema = self.ref("schema name")
            assignments: list[ast.AssignNode] = []
            # Assignments are IDENT '=' term; anything else ends the spawn.
            # An IDENT is never the last token, so pos + 1 is in range.
            while self.peek().kind == IDENT and self.tokens[self.pos + 1].kind == EQUALS:
                assign_start = self.pos
                determinable = self.advance().text
                self.advance()  # '='
                assignments.append(
                    ast.AssignNode(determinable, self.term(), span=self.span_from(assign_start))
                )
            return ast.SpawnNode(instance, schema, tuple(assignments), span=self.span_from(start))
        if self.accept("assert"):
            return self.pattern()
        raise self.unexpected("'spawn' or 'assert'")

    def claim_decl(self, start: int) -> ast.ClaimNode:
        name = self.ident("claim name")
        statement = self.take(STRING, "claim statement")
        evidence: list[ast.EvidenceNode] = []
        while self.at("evidence"):
            item_start = self.pos
            self.advance()
            ref = self.ref("evidence artifact")
            note = self.take(STRING, "evidence note")
            evidence.append(ast.EvidenceNode(ref, note, span=self.span_from(item_start)))
        return ast.ClaimNode(name, statement, tuple(evidence), span=self.span_from(start))


# Declaration keyword -> the Parser method that parses the rest of the declaration.
_DECLS = {
    "import": Parser.import_decl,
    "quality": Parser.quality_decl,
    "object": Parser.object_decl,
    "aggregate": Parser.aggregate_decl,
    "relation": Parser.relation_decl,
    "transitional": Parser.transitional_decl,
    "chain": Parser.chain_decl,
    "disposition": Parser.disposition_decl,
    "world": Parser.world_decl,
    "claim": Parser.claim_decl,
}
DECL_KEYWORDS = frozenset(_DECLS)


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
