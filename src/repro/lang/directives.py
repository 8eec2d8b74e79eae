"""Parsing of ``!HPF$`` directive bodies.

The main lexer emits each directive line as one DIRECTIVE token; this
module re-lexes and parses the body into the directive AST nodes of
:mod:`repro.lang.ast_nodes`.

Supported forms (everything the paper's programs use)::

    PROCESSORS P(4, 4)
    DISTRIBUTE (BLOCK, *) [ONTO P] :: A, B
    DISTRIBUTE A(BLOCK, CYCLIC) [ONTO P]
    ALIGN B(i) WITH A(i, *)
    ALIGN (i) WITH A(i) :: B, C, D
    INDEPENDENT [, NEW(c)] [, REDUCTION(s)]
"""

from __future__ import annotations

from ..errors import DirectiveError
from .ast_nodes import (
    AlignDirective,
    AlignSubscript,
    BinOp,
    DistFormat,
    DistributeDirective,
    Directive,
    Expr,
    IndependentDirective,
    IntLit,
    Name,
    ProcessorsDirective,
    UnOp,
)
from .lexer import tokenize
from .tokens import Token, TokenKind


class _DirectiveParser:
    def __init__(self, body: str, line: int):
        self.tokens = tokenize(body, directive_mode=True)
        self.pos = 0
        self.line = line

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._next()
        if tok.kind is not kind:
            raise DirectiveError(
                f"expected {kind.value!r}, found {tok.value!r}", self.line
            )
        return tok

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._peek().kind is kind:
            return self._next()
        return None

    def _ident(self) -> str:
        return self._expect(TokenKind.IDENT).value

    # -- entry point -------------------------------------------------------

    def parse(self) -> Directive:
        head = self._ident()
        if head == "PROCESSORS":
            return self._processors()
        if head == "DISTRIBUTE":
            return self._distribute()
        if head == "ALIGN":
            return self._align()
        if head == "INDEPENDENT":
            return self._independent()
        raise DirectiveError(f"unknown HPF directive {head!r}", self.line)

    # -- individual directives ----------------------------------------------

    def _processors(self) -> ProcessorsDirective:
        name = self._ident()
        shape: list[Expr] = []
        if self._accept(TokenKind.LPAREN):
            shape.append(self._simple_expr())
            while self._accept(TokenKind.COMMA):
                shape.append(self._simple_expr())
            self._expect(TokenKind.RPAREN)
        return ProcessorsDirective(name=name, shape=shape, line=self.line)

    def _dist_format(self) -> DistFormat:
        if self._accept(TokenKind.STAR):
            return DistFormat(kind="*", line=self.line)
        name = self._ident()
        if name not in ("BLOCK", "CYCLIC"):
            raise DirectiveError(f"bad distribution format {name!r}", self.line)
        arg = None
        if self._accept(TokenKind.LPAREN):
            arg = self._simple_expr()
            self._expect(TokenKind.RPAREN)
        return DistFormat(kind=name, arg=arg, line=self.line)

    def _dist_format_list(self) -> list[DistFormat]:
        formats = [self._dist_format()]
        while self._accept(TokenKind.COMMA):
            formats.append(self._dist_format())
        return formats

    def _distribute(self) -> DistributeDirective:
        formats: list[DistFormat] = []
        targets: list[str] = []
        if self._peek().kind is TokenKind.LPAREN:
            # DISTRIBUTE (fmt, ...) :: names
            self._next()
            formats = self._dist_format_list()
            self._expect(TokenKind.RPAREN)
        else:
            # DISTRIBUTE A(fmt, ...)
            targets.append(self._ident())
            self._expect(TokenKind.LPAREN)
            formats = self._dist_format_list()
            self._expect(TokenKind.RPAREN)
        onto = None
        if self._peek().is_ident("ONTO"):
            self._next()
            onto = self._ident()
        if self._accept(TokenKind.DCOLON):
            targets.append(self._ident())
            while self._accept(TokenKind.COMMA):
                targets.append(self._ident())
        if not targets:
            raise DirectiveError("DISTRIBUTE names no arrays", self.line)
        return DistributeDirective(
            formats=formats, targets=targets, onto=onto, line=self.line
        )

    def _align(self) -> AlignDirective:
        source_name: str | None = None
        source_subs: list[AlignSubscript] = []
        if self._peek().kind is TokenKind.LPAREN:
            # ALIGN (i, j) WITH A(i, j) :: B, C
            self._next()
            source_subs = self._align_source_subs()
            self._expect(TokenKind.RPAREN)
        else:
            source_name = self._ident()
            self._expect(TokenKind.LPAREN)
            source_subs = self._align_source_subs()
            self._expect(TokenKind.RPAREN)
        if not self._peek().is_ident("WITH"):
            raise DirectiveError("ALIGN missing WITH", self.line)
        self._next()
        target_name = self._ident()
        target_subs: list[Expr | None] = []
        self._expect(TokenKind.LPAREN)
        target_subs.append(self._align_target_sub())
        while self._accept(TokenKind.COMMA):
            target_subs.append(self._align_target_sub())
        self._expect(TokenKind.RPAREN)
        extra: list[str] = []
        if self._accept(TokenKind.DCOLON):
            extra.append(self._ident())
            while self._accept(TokenKind.COMMA):
                extra.append(self._ident())
        if source_name is None and not extra:
            raise DirectiveError(
                "ALIGN (dummies) WITH ... form requires a '::' target list",
                self.line,
            )
        return AlignDirective(
            source_name=source_name,
            source_subs=source_subs,
            target_name=target_name,
            target_subs=target_subs,
            extra_targets=extra,
            line=self.line,
        )

    def _align_source_subs(self) -> list[AlignSubscript]:
        subs = [self._align_source_sub()]
        while self._accept(TokenKind.COMMA):
            subs.append(self._align_source_sub())
        return subs

    def _align_source_sub(self) -> AlignSubscript:
        if self._accept(TokenKind.STAR):
            return AlignSubscript(dummy=None, line=self.line)
        if self._accept(TokenKind.COLON):
            # ':' in the source is an anonymous identity dummy.
            return AlignSubscript(dummy=":", line=self.line)
        return AlignSubscript(dummy=self._ident(), line=self.line)

    def _align_target_sub(self) -> Expr | None:
        if self._accept(TokenKind.STAR):
            return None
        if self._accept(TokenKind.COLON):
            return Name(ident=":", line=self.line)
        return self._simple_expr()

    def _independent(self) -> IndependentDirective:
        new_vars: list[str] = []
        reduction_vars: list[str] = []
        while self._accept(TokenKind.COMMA):
            clause = self._ident()
            names = self._paren_name_list()
            if clause == "NEW":
                new_vars.extend(names)
            elif clause == "REDUCTION":
                reduction_vars.extend(names)
            else:
                raise DirectiveError(
                    f"unknown INDEPENDENT clause {clause!r}", self.line
                )
        return IndependentDirective(
            new_vars=new_vars, reduction_vars=reduction_vars, line=self.line
        )

    def _paren_name_list(self) -> list[str]:
        self._expect(TokenKind.LPAREN)
        names = [self._ident()]
        while self._accept(TokenKind.COMMA):
            names.append(self._ident())
        self._expect(TokenKind.RPAREN)
        return names

    # -- expressions --------------------------------------------------------
    # Directive expressions are restricted to affine combinations of
    # dummies and integer literals: enough for 'A(i+1, 2*j)'.

    def _simple_expr(self) -> Expr:
        expr = self._term()
        while self._peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self._next().value
            expr = BinOp(op=op, left=expr, right=self._term(), line=self.line)
        return expr

    def _term(self) -> Expr:
        expr = self._factor()
        while self._peek().kind is TokenKind.STAR:
            # Disambiguate multiplication from a bare '*' replication
            # marker: '*' as a factor start was handled by the caller.
            self._next()
            expr = BinOp(op="*", left=expr, right=self._factor(), line=self.line)
        return expr

    def _factor(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.MINUS:
            self._next()
            return UnOp(op="-", operand=self._factor(), line=self.line)
        if tok.kind is TokenKind.INT:
            self._next()
            return IntLit(value=int(tok.value), line=self.line)
        if tok.kind is TokenKind.IDENT:
            self._next()
            return Name(ident=tok.value, line=self.line)
        if tok.kind is TokenKind.LPAREN:
            self._next()
            expr = self._simple_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        raise DirectiveError(
            f"unexpected token {tok.value!r} in directive expression", self.line
        )


def parse_directive(body: str, line: int = 0) -> Directive:
    """Parse the body of one ``!HPF$`` line into a directive node."""
    return _DirectiveParser(body, line).parse()
