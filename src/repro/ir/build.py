"""AST → IR lowering.

Responsibilities:

* build the symbol table from declarations (PARAMETER constants are
  evaluated here; array bounds must reduce to integers),
* resolve names in expressions, distinguishing intrinsic calls from
  array references,
* lower statements, attaching INDEPENDENT directive info onto loops,
* resolve ALIGN / DISTRIBUTE / PROCESSORS directives against the symbol
  table into the static specs of :mod:`repro.ir.program`.
"""

from __future__ import annotations

from ..errors import DirectiveError, SemanticError
from ..lang import ast_nodes as ast
from ..lang.tokens import INTRINSICS
from . import expr as ir
from . import stmt as irs
from .program import AlignSpec, DistributeSpec, Procedure, ProcessorsSpec
from .symbols import ScalarType, Symbol, SymbolKind, SymbolTable


def _is_integer(expr: ir.Expr) -> bool:
    """Whether the static type of ``expr`` is INTEGER."""
    if isinstance(expr, ir.Const):
        return type(expr.value) is int
    if isinstance(expr, ir.Ref):
        return expr.symbol.type is ScalarType.INT
    if isinstance(expr, ir.IntrinsicCall):
        keeps = expr.name in ("ABS", "MAX", "MIN", "MOD")
        return expr.name == "INT" or keeps and all(map(_is_integer, expr.args))
    if isinstance(expr, ir.BinOp):
        arithmetic = expr.op in ("+", "-", "*", "/", "**")
        return arithmetic and _is_integer(expr.left) and _is_integer(expr.right)
    return isinstance(expr, ir.UnOp) and expr.op == "-" and _is_integer(expr.operand)


class IRBuilder:
    """Single-use builder: ``IRBuilder().build(program_ast)``."""

    def __init__(self) -> None:
        self.symbols = SymbolTable()
        self.params: dict[str, int | float] = {}

    # -- entry ------------------------------------------------------------

    def build(self, program: ast.Program) -> Procedure:
        for decl in program.decls:
            if isinstance(decl, ast.ParameterDecl):
                self._bind_parameters(decl)
            elif isinstance(decl, ast.TypeDecl):
                self._declare_entities(decl)
        proc = Procedure(name=program.name, symbols=self.symbols)
        for directive in program.directives:
            self._lower_directive(directive, proc)
        proc.body = [self._lower_stmt(s) for s in program.body]
        proc.finalize()
        proc.check_gotos()
        return proc

    # -- declarations ---------------------------------------------------------

    def _bind_parameters(self, decl: ast.ParameterDecl) -> None:
        for name, expr in decl.bindings:
            value = self._const_eval(expr)
            key = name.upper()
            self.params[key] = value
            symbol_type = (
                ScalarType.INT if isinstance(value, int) else ScalarType.REAL
            )
            self.symbols.declare(
                Symbol(name=key, kind=SymbolKind.PARAM, type=symbol_type, value=value)
            )

    def _declare_entities(self, decl: ast.TypeDecl) -> None:
        scalar_type = ScalarType[
            {"REAL": "REAL", "INTEGER": "INT", "LOGICAL": "LOGICAL"}[decl.type_name]
        ]
        for entity in decl.entities:
            if entity.dims:
                dims = tuple(
                    (self._const_int(d.low), self._const_int(d.high))
                    for d in entity.dims
                )
                for low, high in dims:
                    if high < low:
                        raise SemanticError(
                            f"array {entity.name}: bound {low}:{high} is empty"
                        )
                self.symbols.declare(
                    Symbol(
                        name=entity.name,
                        kind=SymbolKind.ARRAY,
                        type=scalar_type,
                        dims=dims,
                    )
                )
            else:
                self.symbols.declare(
                    Symbol(name=entity.name, kind=SymbolKind.SCALAR, type=scalar_type)
                )

    def _const_eval(self, expr: ast.Expr) -> int | float:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.Name):
            key = expr.ident.upper()
            if key in self.params:
                return self.params[key]
            raise SemanticError(f"{expr.ident!r} is not a PARAMETER constant")
        if isinstance(expr, ast.UnOp) and expr.op == "-":
            return -self._const_eval(expr.operand)
        if isinstance(expr, ast.BinOp):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return left // right
                return left / right
            if expr.op == "**":
                return left**right
        raise SemanticError(f"expression is not a compile-time constant: {expr}")

    def _const_int(self, expr: ast.Expr) -> int:
        value = self._const_eval(expr)
        if not isinstance(value, int):
            raise SemanticError(f"expected integer constant, got {value!r}")
        return value

    # -- expressions ---------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> ir.Expr:
        if isinstance(expr, ast.IntLit):
            return ir.Const(value=expr.value)
        if isinstance(expr, ast.RealLit):
            return ir.Const(value=expr.value)
        if isinstance(expr, ast.LogicalLit):
            return ir.Const(value=expr.value)
        if isinstance(expr, ast.Name):
            key = expr.ident.upper()
            if key in self.params:
                return ir.Const(value=self.params[key])
            symbol = self.symbols.resolve_scalar(key)
            if symbol.is_array:
                raise SemanticError(f"array {key!r} used without subscripts")
            return ir.ScalarRef(symbol=symbol)
        if isinstance(expr, ast.ArrayRef):
            key = expr.ident.upper()
            symbol = self.symbols.lookup(key)
            if (symbol is None or not symbol.is_array) and key in INTRINSICS:
                return ir.IntrinsicCall(
                    name=key, args=[self.lower_expr(a) for a in expr.subscripts]
                )
            if symbol is None or symbol.kind is SymbolKind.PARAM:
                raise SemanticError(f"unknown array or intrinsic {key!r}")
            if not symbol.is_array:
                raise SemanticError(f"scalar {key!r} used with subscripts")
            if len(expr.subscripts) != symbol.rank:
                raise SemanticError(
                    f"array {key!r} has rank {symbol.rank}, "
                    f"referenced with {len(expr.subscripts)} subscripts"
                )
            subscripts = [self.lower_expr(s) for s in expr.subscripts]
            for dim, sub in enumerate(subscripts, 1):
                if not _is_integer(sub):
                    raise SemanticError(
                        f"subscript {dim} of array {key!r} is not INTEGER: {sub}"
                    )
            return ir.ArrayElemRef(symbol=symbol, subscripts=subscripts)
        if isinstance(expr, ast.BinOp):
            return ir.BinOp(
                op=expr.op,
                left=self.lower_expr(expr.left),
                right=self.lower_expr(expr.right),
            )
        if isinstance(expr, ast.UnOp):
            return ir.UnOp(op=expr.op, operand=self.lower_expr(expr.operand))
        raise SemanticError(f"cannot lower expression {expr!r}")

    # -- statements -------------------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> irs.Stmt:
        lowered = self._lower_bare(stmt)
        lowered.label = stmt.label
        lowered.line = stmt.line
        return lowered

    def _lower_bare(self, stmt: ast.Stmt) -> irs.Stmt:
        if isinstance(stmt, ast.Assign):
            lhs = self.lower_expr(stmt.target)
            if not isinstance(lhs, (ir.ScalarRef, ir.ArrayElemRef)):
                raise SemanticError(f"invalid assignment target {stmt.target!r}")
            return irs.AssignStmt(lhs=lhs, rhs=self.lower_expr(stmt.value))
        if isinstance(stmt, ast.Do):
            var = self.symbols.resolve_scalar(stmt.var)
            if var.type is not ScalarType.INT:
                raise SemanticError(f"loop variable {var.name!r} must be INTEGER")
            var.is_loop_var = True
            loop = irs.LoopStmt(
                var=var,
                low=self.lower_expr(stmt.low),
                high=self.lower_expr(stmt.high),
                step=self.lower_expr(stmt.step) if stmt.step is not None else None,
                body=[self._lower_stmt(s) for s in stmt.body],
            )
            if stmt.directive is not None:
                loop.independent = True
                loop.new_vars = tuple(v.upper() for v in stmt.directive.new_vars)
                loop.reduction_vars = tuple(
                    v.upper() for v in stmt.directive.reduction_vars
                )
            return loop
        if isinstance(stmt, ast.If):
            return irs.IfStmt(
                cond=self.lower_expr(stmt.cond),
                then_body=[self._lower_stmt(s) for s in stmt.then_body],
                else_body=[self._lower_stmt(s) for s in stmt.else_body],
            )
        if isinstance(stmt, ast.Goto):
            return irs.GotoStmt(target_label=stmt.target_label)
        if isinstance(stmt, ast.Continue):
            return irs.ContinueStmt()
        if isinstance(stmt, ast.Stop):
            return irs.StopStmt()
        if isinstance(stmt, ast.Call):
            return irs.CallStmt(
                name=stmt.name, args=[self.lower_expr(a) for a in stmt.args]
            )
        raise SemanticError(f"cannot lower statement {stmt!r}")

    # -- directives ----------------------------------------------------------------------

    def _lower_directive(self, directive: ast.Directive, proc: Procedure) -> None:
        if isinstance(directive, ast.ProcessorsDirective):
            shape = tuple(self._const_int(e) for e in directive.shape)
            if proc.processors is not None:
                raise DirectiveError("multiple PROCESSORS directives", directive.line)
            proc.processors = ProcessorsSpec(name=directive.name, shape=shape)
        elif isinstance(directive, ast.DistributeDirective):
            formats = tuple(
                (f.kind, self._const_int(f.arg) if f.arg is not None else None)
                for f in directive.formats
            )
            for target in directive.targets:
                array = self.symbols.require(target)
                if not array.is_array:
                    raise DirectiveError(
                        f"DISTRIBUTE target {target!r} is not an array", directive.line
                    )
                if len(formats) != array.rank:
                    raise DirectiveError(
                        f"DISTRIBUTE format rank {len(formats)} does not match "
                        f"array {target!r} rank {array.rank}",
                        directive.line,
                    )
                proc.distributes.append(
                    DistributeSpec(array=array, formats=formats, onto=directive.onto)
                )
        elif isinstance(directive, ast.AlignDirective):
            self._lower_align(directive, proc)
        else:
            raise DirectiveError(
                f"directive {type(directive).__name__} not allowed here",
                directive.line,
            )

    def _lower_align(self, directive: ast.AlignDirective, proc: Procedure) -> None:
        target = self.symbols.require(directive.target_name)
        if not target.is_array:
            raise DirectiveError(
                f"ALIGN target {directive.target_name!r} is not an array",
                directive.line,
            )
        if len(directive.target_subs) != target.rank:
            raise DirectiveError(
                f"ALIGN target subscript count does not match rank of "
                f"{target.name!r}",
                directive.line,
            )
        sources = []
        if directive.source_name is not None:
            sources.append(directive.source_name)
        sources.extend(directive.extra_targets)

        # Positional ':' dummies get synthetic names.
        dummies: list[str | None] = []
        for k, sub in enumerate(directive.source_subs):
            if sub.dummy is None:
                dummies.append(None)
            elif sub.dummy == ":":
                dummies.append(f"%DIM{k}")
            else:
                dummies.append(sub.dummy.upper())

        # Analyze each target subscript as stride*dummy + offset, ':'
        # (positional identity), '*' (replication), or constant.
        target_info: list[tuple[str, object]] = []
        for pos, sub in enumerate(directive.target_subs):
            if sub is None:
                target_info.append(("*", None))
            elif isinstance(sub, ast.Name) and sub.ident == ":":
                target_info.append((":", pos))
            else:
                target_info.append(("expr", sub))

        for source_name in sources:
            array = self.symbols.require(source_name)
            if not array.is_array:
                raise DirectiveError(
                    f"ALIGN source {source_name!r} is not an array", directive.line
                )
            if len(dummies) != array.rank:
                raise DirectiveError(
                    f"ALIGN source subscript count does not match rank of "
                    f"{source_name!r}",
                    directive.line,
                )
            axis_map: list[tuple[int, int, int] | None] = [None] * array.rank
            used_target_dims: set[int] = set()
            colon_positions = [k for k, d in enumerate(dummies) if d is not None and d.startswith("%DIM")]
            for t_dim, (kind, payload) in enumerate(target_info):
                if kind == "*":
                    continue
                if kind == ":":
                    # Positional: match the next ':' source dim.
                    if not colon_positions:
                        raise DirectiveError(
                            "':' in ALIGN target without matching ':' source dim",
                            directive.line,
                        )
                    s_dim = colon_positions.pop(0)
                    axis_map[s_dim] = (t_dim, 1, 0)
                    used_target_dims.add(t_dim)
                    continue
                stride_off = self._affine_in_dummies(payload, dummies)
                if stride_off is None:
                    raise DirectiveError(
                        f"unsupported ALIGN target subscript {payload!r}",
                        directive.line,
                    )
                s_dim, stride, offset = stride_off
                if s_dim is None:
                    # Constant subscript: source collapsed onto a fixed
                    # coordinate of this target dim — not needed by the
                    # paper's programs.
                    raise DirectiveError(
                        "constant ALIGN target subscripts are unsupported",
                        directive.line,
                    )
                axis_map[s_dim] = (t_dim, stride, offset)
                used_target_dims.add(t_dim)
            replicated = tuple(
                t_dim
                for t_dim, (kind, _) in enumerate(target_info)
                if kind == "*"
            )
            proc.aligns.append(
                AlignSpec(
                    array=array,
                    target=target,
                    axis_map=tuple(axis_map),
                    replicated_target_dims=replicated,
                )
            )

    def _affine_in_dummies(
        self, expr: ast.Expr, dummies: list[str | None]
    ) -> tuple[int | None, int, int] | None:
        """Decompose ``expr`` as stride*dummy + offset. Returns
        (source_dim or None-for-constant, stride, offset)."""
        coeffs: dict[str, int] = {}
        const = self._align_affine(expr, coeffs)
        if const is None:
            return None
        live = [(name, c) for name, c in coeffs.items() if c != 0]
        if not live:
            return None, 0, const
        if len(live) > 1:
            return None
        name, stride = live[0]
        upper = name.upper()
        for s_dim, dummy in enumerate(dummies):
            if dummy == upper:
                return s_dim, stride, const
        return None

    def _align_affine(self, expr: ast.Expr, coeffs: dict[str, int]) -> int | None:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Name):
            key = expr.ident.upper()
            if key in self.params:
                value = self.params[key]
                return value if isinstance(value, int) else None
            coeffs[key] = coeffs.get(key, 0) + 1
            return 0
        if isinstance(expr, ast.UnOp) and expr.op == "-":
            inner: dict[str, int] = {}
            const = self._align_affine(expr.operand, inner)
            if const is None:
                return None
            for key, c in inner.items():
                coeffs[key] = coeffs.get(key, 0) - c
            return -const
        if isinstance(expr, ast.BinOp) and expr.op in ("+", "-"):
            left = self._align_affine(expr.left, coeffs)
            if left is None:
                return None
            inner: dict[str, int] = {}
            right = self._align_affine(expr.right, inner)
            if right is None:
                return None
            sign = 1 if expr.op == "+" else -1
            for key, c in inner.items():
                coeffs[key] = coeffs.get(key, 0) + sign * c
            return left + sign * right
        if isinstance(expr, ast.BinOp) and expr.op == "*":
            # stride * dummy (one side must be constant)
            try:
                factor = self._const_int(expr.left)
                other = expr.right
            except SemanticError:
                try:
                    factor = self._const_int(expr.right)
                    other = expr.left
                except SemanticError:
                    return None
            inner: dict[str, int] = {}
            const = self._align_affine(other, inner)
            if const is None:
                return None
            for key, c in inner.items():
                coeffs[key] = coeffs.get(key, 0) + factor * c
            return factor * const
        return None


def build_procedure(program: ast.Program) -> Procedure:
    """Lower a parsed program to IR (inlining subroutine calls first —
    in a copy: ``program`` is left as parsed, and may be built again)."""
    if program.subroutines:
        import copy

        from ..lang.inline import inline_calls

        program = inline_calls(copy.deepcopy(program))
    return IRBuilder().build(program)


def parse_and_build(source: str) -> Procedure:
    """Parse mini-HPF source and lower it to IR in one step."""
    from ..lang import parse_program

    return build_procedure(parse_program(source))
