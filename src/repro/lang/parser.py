"""Recursive-descent parser for the mini-HPF language.

The grammar is a Fortran-90 subset::

    program   := PROGRAM name NEWLINE decl* stmt* END [PROGRAM [name]]
    decl      := type-decl | PARAMETER (...) | !HPF$ directive
    stmt      := [label] ( assign | do | if | goto | continue | stop | call )
    do        := DO [label] var = e, e [, e] NEWLINE stmt* (END DO | labeled-stmt)
    if        := IF (e) THEN ... [ELSE ...] (END IF | ENDIF)
               | IF (e) one-line-stmt

``!HPF$ INDEPENDENT`` directives attach to the DO statement that
follows; PROCESSORS / DISTRIBUTE / ALIGN directives are collected on the
program node.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast_nodes as ast
from .directives import parse_directive
from .lexer import tokenize
from .tokens import Token, TokenKind

_ONE_LINE_IF_HEADS = ("GOTO", "GO", "CONTINUE", "STOP", "CALL", "EXIT")

_REL_OPS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "/=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}


class Parser:
    """Parse mini-HPF source text into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self._next()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {what or kind.value!r}, found {tok.value!r}",
                tok.line,
                tok.col,
            )
        return tok

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._peek().kind is kind:
            return self._next()
        return None

    def _accept_ident(self, name: str) -> Token | None:
        if self._peek().is_ident(name):
            return self._next()
        return None

    def _expect_ident(self, name: str) -> Token:
        tok = self._next()
        if not (tok.kind is TokenKind.IDENT and tok.value == name.upper()):
            raise ParseError(
                f"expected {name!r}, found {tok.value!r}", tok.line, tok.col
            )
        return tok

    def _skip_newlines(self) -> None:
        while self._peek().kind is TokenKind.NEWLINE:
            self._next()

    def _end_of_stmt(self) -> None:
        tok = self._peek()
        if tok.kind in (TokenKind.NEWLINE, TokenKind.EOF):
            self._skip_newlines()
            return
        raise ParseError(
            f"unexpected {tok.value!r} at end of statement", tok.line, tok.col
        )

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, tok.line, tok.col)

    # -- program structure ----------------------------------------------------

    def parse_program(self) -> ast.Program:
        self._skip_newlines()
        line = self._peek().line
        self._expect_ident("PROGRAM")
        name = self._expect(TokenKind.IDENT, "program name").value
        self._end_of_stmt()

        program = ast.Program(name=name, line=line)
        self._parse_decl_section(program)
        pending: ast.IndependentDirective | None = None
        while not self._at_program_end():
            stmt, pending = self._parse_stmt(pending)
            if stmt is not None:
                program.body.append(stmt)
        if pending is not None:
            raise self._error("INDEPENDENT directive not followed by a DO loop")
        self._parse_program_end(name)
        while self._peek().is_ident("SUBROUTINE"):
            program.subroutines.append(self._parse_subroutine())
        return program

    def _parse_subroutine(self) -> ast.Subroutine:
        tok = self._expect_ident("SUBROUTINE")
        name = self._expect(TokenKind.IDENT, "subroutine name").value
        params: list[str] = []
        if self._accept(TokenKind.LPAREN):
            if self._peek().kind is not TokenKind.RPAREN:
                params.append(self._expect(TokenKind.IDENT, "parameter").value)
                while self._accept(TokenKind.COMMA):
                    params.append(self._expect(TokenKind.IDENT, "parameter").value)
            self._expect(TokenKind.RPAREN)
        self._end_of_stmt()

        sub = ast.Subroutine(name=name, params=params, line=tok.line)
        shell = ast.Program(name=name)
        self._parse_decl_section(shell)
        if shell.directives:
            raise ParseError(
                "HPF mapping directives are not allowed inside subroutines "
                "(mappings travel with the actual arguments at inlining)",
                tok.line,
                tok.col,
            )
        sub.decls = shell.decls
        pending: ast.IndependentDirective | None = None
        while not self._at_program_end():
            stmt, pending = self._parse_stmt(pending)
            if stmt is not None:
                sub.body.append(stmt)
        if pending is not None:
            raise self._error("INDEPENDENT directive not followed by a DO loop")
        end_tok = self._next()
        if not end_tok.is_ident("END"):
            raise ParseError("expected END", end_tok.line, end_tok.col)
        if self._accept_ident("SUBROUTINE"):
            self._accept(TokenKind.IDENT)
        self._skip_newlines()
        return sub

    def _at_program_end(self) -> bool:
        tok = self._peek()
        if tok.kind is TokenKind.EOF:
            return True
        # 'END' not followed by DO/IF terminates the program.
        if tok.is_ident("END"):
            nxt = self._peek(1)
            if not (nxt.is_ident("DO") or nxt.is_ident("IF")):
                return True
        return False

    def _parse_program_end(self, name: str) -> None:
        tok = self._next()
        if not tok.is_ident("END"):
            raise ParseError("expected END", tok.line, tok.col)
        if self._accept_ident("PROGRAM"):
            tok = self._accept(TokenKind.IDENT)
            if tok is not None and tok.value != name:
                raise ParseError(
                    f"END PROGRAM name {tok.value!r} does not match {name!r}",
                    tok.line,
                    tok.col,
                )
        self._skip_newlines()

    # -- declaration section ----------------------------------------------------

    def _parse_decl_section(self, program: ast.Program) -> None:
        while True:
            self._skip_newlines()
            tok = self._peek()
            if tok.kind is TokenKind.DIRECTIVE:
                directive = parse_directive(tok.value, tok.line)
                if isinstance(directive, ast.IndependentDirective):
                    return  # belongs to the executable section
                self._next()
                program.directives.append(directive)
            elif tok.is_ident("REAL") or tok.is_ident("INTEGER") or tok.is_ident("LOGICAL"):
                # 'REAL' could also start 'REAL(x)' intrinsic in an
                # assignment, but an assignment never starts a line with
                # a type keyword in this subset.
                program.decls.append(self._parse_type_decl())
            elif tok.is_ident("PARAMETER"):
                program.decls.append(self._parse_parameter_decl())
            elif tok.is_ident("DIMENSION"):
                program.decls.append(self._parse_dimension_decl())
            else:
                return

    def _parse_type_decl(self) -> ast.TypeDecl:
        tok = self._next()
        decl = ast.TypeDecl(type_name=tok.value, line=tok.line)
        self._accept(TokenKind.DCOLON)
        decl.entities.append(self._parse_entity())
        while self._accept(TokenKind.COMMA):
            decl.entities.append(self._parse_entity())
        self._end_of_stmt()
        return decl

    def _parse_dimension_decl(self) -> ast.TypeDecl:
        """``DIMENSION A(n)`` declares REAL arrays (F77 habit)."""
        tok = self._next()
        decl = ast.TypeDecl(type_name="REAL", line=tok.line)
        decl.entities.append(self._parse_entity())
        while self._accept(TokenKind.COMMA):
            decl.entities.append(self._parse_entity())
        self._end_of_stmt()
        return decl

    def _parse_entity(self) -> ast.EntityDecl:
        tok = self._expect(TokenKind.IDENT, "declared name")
        entity = ast.EntityDecl(name=tok.value, line=tok.line)
        if self._accept(TokenKind.LPAREN):
            entity.dims.append(self._parse_dim_spec())
            while self._accept(TokenKind.COMMA):
                entity.dims.append(self._parse_dim_spec())
            self._expect(TokenKind.RPAREN)
        return entity

    def _parse_dim_spec(self) -> ast.DimSpec:
        line = self._peek().line
        first = self.parse_expr()
        if self._accept(TokenKind.COLON):
            return ast.DimSpec(low=first, high=self.parse_expr(), line=line)
        return ast.DimSpec(low=ast.IntLit(value=1, line=line), high=first, line=line)

    def _parse_parameter_decl(self) -> ast.ParameterDecl:
        tok = self._next()
        decl = ast.ParameterDecl(line=tok.line)
        self._expect(TokenKind.LPAREN)
        while True:
            name = self._expect(TokenKind.IDENT, "parameter name").value
            self._expect(TokenKind.ASSIGN)
            decl.bindings.append((name, self.parse_expr()))
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        self._end_of_stmt()
        return decl

    # -- statements -------------------------------------------------------------

    def _parse_stmt(
        self, pending: ast.IndependentDirective | None
    ) -> tuple[ast.Stmt | None, ast.IndependentDirective | None]:
        """Parse one statement; returns (stmt, pending-INDEPENDENT)."""
        self._skip_newlines()
        tok = self._peek()

        if tok.kind is TokenKind.DIRECTIVE:
            directive = parse_directive(tok.value, tok.line)
            self._next()
            self._skip_newlines()
            if isinstance(directive, ast.IndependentDirective):
                if pending is not None:
                    raise ParseError(
                        "two INDEPENDENT directives for one loop", tok.line, tok.col
                    )
                return None, directive
            raise ParseError(
                "only INDEPENDENT directives may appear between statements",
                tok.line,
                tok.col,
            )

        label: int | None = None
        if tok.kind is TokenKind.INT:
            label = int(self._next().value)
            tok = self._peek()

        stmt = self._parse_bare_stmt(pending)
        pending = None
        if stmt is not None:
            stmt.label = label
        elif label is not None:
            raise self._error("label attached to nothing")
        return stmt, pending

    def _parse_bare_stmt(
        self, pending: ast.IndependentDirective | None
    ) -> ast.Stmt | None:
        tok = self._peek()
        if tok.is_ident("DO"):
            return self._parse_do(pending)
        if pending is not None:
            raise ParseError(
                "INDEPENDENT directive must be followed by a DO loop",
                tok.line,
                tok.col,
            )
        if tok.is_ident("IF"):
            return self._parse_if()
        if tok.is_ident("GOTO") or (tok.is_ident("GO") and self._peek(1).is_ident("TO")):
            return self._parse_goto()
        if tok.is_ident("CONTINUE"):
            self._next()
            self._end_of_stmt()
            return ast.Continue(line=tok.line)
        if tok.is_ident("STOP"):
            self._next()
            self._end_of_stmt()
            return ast.Stop(line=tok.line)
        if tok.is_ident("CALL"):
            return self._parse_call()
        if tok.kind is TokenKind.IDENT:
            return self._parse_assign()
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def _parse_assign(self) -> ast.Assign:
        line = self._peek().line
        target = self._parse_designator()
        self._expect(TokenKind.ASSIGN)
        value = self.parse_expr()
        self._end_of_stmt()
        return ast.Assign(target=target, value=value, line=line)

    def _parse_designator(self) -> ast.Expr:
        tok = self._expect(TokenKind.IDENT, "variable name")
        if self._accept(TokenKind.LPAREN):
            subs = [self.parse_expr()]
            while self._accept(TokenKind.COMMA):
                subs.append(self.parse_expr())
            self._expect(TokenKind.RPAREN)
            return ast.ArrayRef(ident=tok.value, subscripts=subs, line=tok.line)
        return ast.Name(ident=tok.value, line=tok.line)

    def _parse_do(self, pending: ast.IndependentDirective | None) -> ast.Do:
        tok = self._expect_ident("DO")
        term_label: int | None = None
        if self._peek().kind is TokenKind.INT:
            term_label = int(self._next().value)
        var = self._expect(TokenKind.IDENT, "loop variable").value
        self._expect(TokenKind.ASSIGN)
        low = self.parse_expr()
        self._expect(TokenKind.COMMA)
        high = self.parse_expr()
        step = None
        if self._accept(TokenKind.COMMA):
            step = self.parse_expr()
        self._end_of_stmt()

        loop = ast.Do(
            var=var, low=low, high=high, step=step, directive=pending, line=tok.line
        )
        inner_pending: ast.IndependentDirective | None = None
        while True:
            self._skip_newlines()
            nxt = self._peek()
            if nxt.kind is TokenKind.EOF:
                raise ParseError("unterminated DO loop", tok.line, tok.col)
            if term_label is None and nxt.is_ident("END") and self._peek(1).is_ident("DO"):
                self._next()
                self._next()
                self._end_of_stmt()
                break
            if term_label is None and nxt.is_ident("ENDDO"):
                self._next()
                self._end_of_stmt()
                break
            stmt, inner_pending = self._parse_stmt(inner_pending)
            if stmt is None:
                continue
            loop.body.append(stmt)
            if term_label is not None and stmt.label == term_label:
                break
        if inner_pending is not None:
            raise ParseError(
                "INDEPENDENT directive not followed by a DO loop", tok.line, tok.col
            )
        return loop

    def _parse_if(self) -> ast.If:
        tok = self._expect_ident("IF")
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        if self._accept_ident("THEN"):
            self._end_of_stmt()
            return self._parse_if_block(cond, tok)
        # one-line logical IF
        body = self._parse_bare_stmt(None)
        return ast.If(cond=cond, then_body=[body], line=tok.line)

    def _parse_if_block(self, cond: ast.Expr, tok: Token) -> ast.If:
        node = ast.If(cond=cond, line=tok.line)
        branch = node.then_body
        pending: ast.IndependentDirective | None = None
        while True:
            self._skip_newlines()
            nxt = self._peek()
            if nxt.kind is TokenKind.EOF:
                raise ParseError("unterminated IF block", tok.line, tok.col)
            if nxt.is_ident("END") and self._peek(1).is_ident("IF"):
                self._next()
                self._next()
                self._end_of_stmt()
                break
            if nxt.is_ident("ENDIF"):
                self._next()
                self._end_of_stmt()
                break
            if nxt.is_ident("ELSE"):
                self._next()
                if self._accept_ident("IF"):
                    # ELSE IF (cond) THEN -> nested If in the else branch
                    self._expect(TokenKind.LPAREN)
                    inner_cond = self.parse_expr()
                    self._expect(TokenKind.RPAREN)
                    self._expect_ident("THEN")
                    self._end_of_stmt()
                    inner = self._parse_if_block(inner_cond, nxt)
                    node.else_body.append(inner)
                    return node
                self._end_of_stmt()
                branch = node.else_body
                continue
            stmt, pending = self._parse_stmt(pending)
            if stmt is not None:
                branch.append(stmt)
        if pending is not None:
            raise ParseError(
                "INDEPENDENT directive not followed by a DO loop", tok.line, tok.col
            )
        return node

    def _parse_goto(self) -> ast.Goto:
        tok = self._next()  # GOTO or GO
        if tok.is_ident("GO"):
            self._expect_ident("TO")
        target = int(self._expect(TokenKind.INT, "statement label").value)
        self._end_of_stmt()
        return ast.Goto(target_label=target, line=tok.line)

    def _parse_call(self) -> ast.Call:
        tok = self._expect_ident("CALL")
        name = self._expect(TokenKind.IDENT, "subroutine name").value
        args: list[ast.Expr] = []
        if self._accept(TokenKind.LPAREN):
            if self._peek().kind is not TokenKind.RPAREN:
                args.append(self.parse_expr())
                while self._accept(TokenKind.COMMA):
                    args.append(self.parse_expr())
            self._expect(TokenKind.RPAREN)
        self._end_of_stmt()
        return ast.Call(name=name, args=args, line=tok.line)

    # -- expressions --------------------------------------------------------
    # Precedence (low to high): .OR. < .AND. < .NOT. < relational
    # < additive < multiplicative < unary +- < ** (right assoc).

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        expr = self._parse_and()
        while self._peek().kind is TokenKind.OR:
            line = self._next().line
            expr = ast.BinOp(op=".OR.", left=expr, right=self._parse_and(), line=line)
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self._peek().kind is TokenKind.AND:
            line = self._next().line
            expr = ast.BinOp(op=".AND.", left=expr, right=self._parse_not(), line=line)
        return expr

    def _parse_not(self) -> ast.Expr:
        if self._peek().kind is TokenKind.NOT:
            line = self._next().line
            return ast.UnOp(op=".NOT.", operand=self._parse_not(), line=line)
        return self._parse_rel()

    def _parse_rel(self) -> ast.Expr:
        expr = self._parse_add()
        if self._peek().kind in _REL_OPS:
            tok = self._next()
            expr = ast.BinOp(
                op=_REL_OPS[tok.kind], left=expr, right=self._parse_add(), line=tok.line
            )
        return expr

    def _parse_add(self) -> ast.Expr:
        expr = self._parse_mul()
        while self._peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            tok = self._next()
            expr = ast.BinOp(
                op=tok.value, left=expr, right=self._parse_mul(), line=tok.line
            )
        return expr

    def _parse_mul(self) -> ast.Expr:
        expr = self._parse_unary()
        while self._peek().kind in (TokenKind.STAR, TokenKind.SLASH):
            tok = self._next()
            expr = ast.BinOp(
                op=tok.value, left=expr, right=self._parse_unary(), line=tok.line
            )
        return expr

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind in (TokenKind.PLUS, TokenKind.MINUS):
            self._next()
            operand = self._parse_unary()
            if tok.kind is TokenKind.PLUS:
                return operand
            return ast.UnOp(op="-", operand=operand, line=tok.line)
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_primary()
        if self._peek().kind is TokenKind.POWER:
            tok = self._next()
            # '**' is right-associative and binds tighter than unary
            # minus on its right: 2 ** -x is not legal Fortran, but
            # 2 ** (-x) is; we accept a unary expression here.
            exponent = self._parse_unary()
            return ast.BinOp(op="**", left=base, right=exponent, line=tok.line)
        return base

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._next()
            return ast.IntLit(value=int(tok.value), line=tok.line)
        if tok.kind is TokenKind.REAL:
            self._next()
            return ast.RealLit(value=float(tok.value), line=tok.line)
        if tok.kind is TokenKind.TRUE:
            self._next()
            return ast.LogicalLit(value=True, line=tok.line)
        if tok.kind is TokenKind.FALSE:
            self._next()
            return ast.LogicalLit(value=False, line=tok.line)
        if tok.kind is TokenKind.LPAREN:
            self._next()
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        if tok.kind is TokenKind.IDENT:
            return self._parse_designator()
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)


def parse_program(source: str) -> ast.Program:
    """Parse a full mini-HPF program."""
    parser = Parser(source)
    try:
        return parser.parse_program()
    except RecursionError:
        # (every nesting level of an expression is ten parser frames)
        raise parser._error("expression nested too deeply") from None


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone expression (used by tests)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    tok = parser._peek()
    if tok.kind not in (TokenKind.EOF, TokenKind.NEWLINE):
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return expr
