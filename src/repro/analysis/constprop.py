"""Sparse constant propagation over SSA form.

The paper's analysis phase "performs constant propagation and induction
variable recognition" before mapping decisions. We propagate constants
through real defs and phis; the result annotates SSA definitions with
known values and lets loop bounds be evaluated where possible (used by
the performance estimator and the AlignLevel machinery).
"""

from __future__ import annotations

from ..ir.expr import (
    ArrayElemRef,
    BinOp,
    Const,
    Expr,
    IntrinsicCall,
    ScalarRef,
    UnOp,
)
from ..ir.stmt import AssignStmt
from .ssa import SSADef, SSAInfo

#: lattice: "top" (unknown yet) > constant > "bottom" (not constant)
_TOP = object()
_BOTTOM = object()


class ConstPropInfo:
    """Maps SSA definitions to compile-time constant values where known."""

    def __init__(self, ssa: SSAInfo):
        self.ssa = ssa
        self.values: dict[int, object] = {d: _TOP for d in ssa.defs}
        self._run()

    # -- solver -------------------------------------------------------------

    def _run(self) -> None:
        changed = True
        while changed:
            changed = False
            for d in self.ssa.defs.values():
                new = self._evaluate_def(d)
                old = self.values[d.def_id]
                if not self._same(old, new):
                    self.values[d.def_id] = new
                    changed = True

    @staticmethod
    def _same(a: object, b: object) -> bool:
        if a is b:
            return True
        if a in (_TOP, _BOTTOM) or b in (_TOP, _BOTTOM):
            return False
        return a == b

    def _evaluate_def(self, d: SSADef) -> object:
        if d.kind == "entry":
            return _BOTTOM  # uninitialized: unknown value
        if d.kind == "loop":
            return _BOTTOM  # loop index varies
        if d.kind == "phi":
            value: object = _TOP
            for op in d.operands:
                op_value = self.values[op]
                if op_value is _TOP:
                    continue
                if op_value is _BOTTOM:
                    return _BOTTOM
                if value is _TOP:
                    value = op_value
                elif value != op_value:
                    return _BOTTOM
            return value
        # real def
        stmt = d.stmt
        if isinstance(stmt, AssignStmt):
            return self._evaluate_expr(stmt.rhs)
        return _BOTTOM

    def _evaluate_expr(self, expr: Expr) -> object:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, ScalarRef):
            if expr.symbol.value is not None:
                return expr.symbol.value
            def_id = self.ssa.use_def.get(expr.ref_id)
            if def_id is None:
                return _BOTTOM
            return self.values[def_id]
        if isinstance(expr, ArrayElemRef):
            return _BOTTOM
        if isinstance(expr, UnOp):
            value = self._evaluate_expr(expr.operand)
            if value in (_TOP, _BOTTOM):
                return value
            if expr.op == "-":
                return -value
            if expr.op == ".NOT.":
                return not value
            return _BOTTOM
        if isinstance(expr, BinOp):
            left = self._evaluate_expr(expr.left)
            right = self._evaluate_expr(expr.right)
            for v in (left, right):
                if v is _TOP:
                    return _TOP
                if v is _BOTTOM:
                    return _BOTTOM
            return self._fold(expr.op, left, right)
        if isinstance(expr, IntrinsicCall):
            args = [self._evaluate_expr(a) for a in expr.args]
            if any(a is _TOP for a in args):
                return _TOP
            if any(a is _BOTTOM for a in args):
                return _BOTTOM
            return self._fold_intrinsic(expr.name, args)
        return _BOTTOM

    @staticmethod
    def _fold(op: str, left, right) -> object:
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return _BOTTOM
                if isinstance(left, int) and isinstance(right, int):
                    return int(left / right)  # Fortran truncates toward zero
                return left / right
            if op == "**":
                return left**right
            if op == "==":
                return left == right
            if op == "/=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == ".AND.":
                return bool(left) and bool(right)
            if op == ".OR.":
                return bool(left) or bool(right)
        except (TypeError, OverflowError):
            return _BOTTOM
        return _BOTTOM

    @staticmethod
    def _fold_intrinsic(name: str, args: list) -> object:
        try:
            if name == "ABS":
                return abs(args[0])
            if name == "MAX":
                return max(args)
            if name == "MIN":
                return min(args)
            if name == "MOD":
                return args[0] % args[1]
            if name in ("INT",):
                return int(args[0])
            if name in ("REAL", "FLOAT", "DBLE"):
                return float(args[0])
        except (TypeError, ValueError, ZeroDivisionError):
            return _BOTTOM
        return _BOTTOM

    # -- queries -----------------------------------------------------------------

    def const_of_def(self, d: SSADef):
        """The constant value of a definition, or None."""
        value = self.values.get(d.def_id)
        if value in (_TOP, _BOTTOM):
            return None
        return value

    def eval_expr(self, expr: Expr):
        """Evaluate an expression to a constant using current SSA facts,
        or None."""
        value = self._evaluate_expr(expr)
        if value in (_TOP, _BOTTOM):
            return None
        return value


def propagate_constants(ssa: SSAInfo) -> ConstPropInfo:
    return ConstPropInfo(ssa)
