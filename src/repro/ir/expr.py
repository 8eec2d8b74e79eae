"""IR expressions.

Unlike AST expressions, IR expressions resolve names to
:class:`~repro.ir.symbols.Symbol` objects, and every *reference* (scalar
read/write, array element access) has an identity (``ref_id``) so the
paper's algorithms can talk about "the reference B(i) on statement S2".

The module also provides affine-form extraction
(:func:`affine_form`), the workhorse of subscript analysis:
``A(2*i + j - 1)`` ⇒ ``{i: 2, j: 1}, const=-1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .symbols import ScalarType, Symbol

_ref_counter = itertools.count(1)


def _next_ref_id() -> int:
    return next(_ref_counter)


@dataclass
class Expr:
    """Base class of IR expressions."""

    def refs(self):
        """Yield every Ref (scalar or array) in this expression tree,
        including subscript references, pre-order."""
        return
        yield  # pragma: no cover


@dataclass
class Const(Expr):
    value: int | float | bool

    def refs(self):
        return iter(())

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class Ref(Expr):
    """Base of scalar and array references."""

    symbol: Symbol
    ref_id: int = field(default_factory=_next_ref_id)
    #: Statement that contains this reference; set by the IR builder.
    stmt_id: int | None = field(default=None, compare=False)

    @property
    def is_array(self) -> bool:
        return False


@dataclass
class ScalarRef(Ref):
    def refs(self):
        yield self

    def __str__(self) -> str:
        return self.symbol.name


@dataclass
class ArrayElemRef(Ref):
    subscripts: list[Expr] = field(default_factory=list)
    #: :func:`affine_form` of each subscript, stamped by
    #: ``Procedure.finalize()`` (None on a reference outside a
    #: finalized tree, e.g. one a transform has just built)
    forms: tuple[AffineForm | None, ...] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_array(self) -> bool:
        return True

    def refs(self):
        yield self
        for sub in self.subscripts:
            yield from sub.refs()

    def __str__(self) -> str:
        subs = ",".join(str(s) for s in self.subscripts)
        return f"{self.symbol.name}({subs})"


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def refs(self):
        yield from self.left.refs()
        yield from self.right.refs()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class UnOp(Expr):
    op: str
    operand: Expr

    def refs(self):
        yield from self.operand.refs()

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class IntrinsicCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)

    def refs(self):
        for arg in self.args:
            yield from arg.refs()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# --------------------------------------------------------------------------
# Affine analysis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineForm:
    """``sum(coeffs[sym] * sym) + const`` with integer coefficients.

    ``coeffs`` maps Symbol → int and contains no zero entries.
    """

    coeffs: tuple[tuple[Symbol, int], ...]
    const: int

    def coeff(self, symbol: Symbol) -> int:
        for sym, c in self.coeffs:
            if sym is symbol or sym.name == symbol.name:
                return c
        return 0

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(sym for sym, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        parts = [f"{c}*{s.name}" for s, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _make_affine(coeffs: dict[str, tuple[Symbol, int]], const: int) -> AffineForm:
    items = tuple(
        (sym, c) for _, (sym, c) in sorted(coeffs.items()) if c != 0
    )
    return AffineForm(coeffs=items, const=const)


def affine_form(expr: Expr) -> AffineForm | None:
    """Extract the affine form of an integer expression, or None if the
    expression is not affine in scalar symbols (e.g. ``i*j``, ``A(i)``,
    non-integer constants)."""
    result = _affine(expr)
    if result is None:
        return None
    coeffs, const = result
    return _make_affine(coeffs, const)


def _affine(expr: Expr) -> tuple[dict[str, tuple[Symbol, int]], int] | None:
    if isinstance(expr, Const):
        if isinstance(expr.value, bool) or not isinstance(expr.value, int):
            return None
        return {}, expr.value
    if isinstance(expr, ScalarRef):
        if expr.symbol.type is not ScalarType.INT:
            return None
        return {expr.symbol.name: (expr.symbol, 1)}, 0
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _affine(expr.operand)
        if inner is None:
            return None
        coeffs, const = inner
        return {k: (s, -c) for k, (s, c) in coeffs.items()}, -const
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            left = _affine(expr.left)
            right = _affine(expr.right)
            if left is None or right is None:
                return None
            lcoeffs, lconst = left
            rcoeffs, rconst = right
            sign = 1 if expr.op == "+" else -1
            merged = dict(lcoeffs)
            for key, (sym, c) in rcoeffs.items():
                old = merged.get(key, (sym, 0))[1]
                merged[key] = (sym, old + sign * c)
            return merged, lconst + sign * rconst
        if expr.op == "*":
            left = _affine(expr.left)
            right = _affine(expr.right)
            if left is None or right is None:
                return None
            lcoeffs, lconst = left
            rcoeffs, rconst = right
            if lcoeffs and rcoeffs:
                return None  # bilinear: i*j
            if not lcoeffs:
                factor, coeffs, const = lconst, rcoeffs, rconst
            else:
                factor, coeffs, const = rconst, lcoeffs, lconst
            return (
                {k: (s, c * factor) for k, (s, c) in coeffs.items()},
                const * factor,
            )
        if expr.op == "/":
            # Integer division is affine only when exact & divisor const.
            left = _affine(expr.left)
            right = _affine(expr.right)
            if left is None or right is None:
                return None
            lcoeffs, lconst = left
            rcoeffs, rconst = right
            if rcoeffs or rconst == 0:
                return None
            if all(c % rconst == 0 for _, (_, c) in lcoeffs.items()) and (
                lconst % rconst == 0
            ):
                return (
                    {k: (s, c // rconst) for k, (s, c) in lcoeffs.items()},
                    lconst // rconst,
                )
            return None
    return None


def expr_symbols(expr: Expr):
    """Yield each distinct Symbol referenced anywhere in ``expr``."""
    seen: set[str] = set()
    for ref in expr.refs():
        if ref.symbol.name not in seen:
            seen.add(ref.symbol.name)
            yield ref.symbol


def substitute_scalar(expr: Expr, symbol: Symbol, replacement: Expr) -> Expr:
    """Return a copy of ``expr`` with every ScalarRef to ``symbol``
    replaced by a (shared-structure) copy of ``replacement``.

    Used by induction-variable closed-form substitution. Replacement
    sub-expressions are cloned so that every inserted reference keeps a
    unique ``ref_id``.
    """
    if isinstance(expr, ScalarRef):
        if expr.symbol.name == symbol.name:
            return clone_expr(replacement)
        return expr
    if isinstance(expr, ArrayElemRef):
        return ArrayElemRef(
            symbol=expr.symbol,
            subscripts=[substitute_scalar(s, symbol, replacement) for s in expr.subscripts],
            stmt_id=expr.stmt_id,
        )
    if isinstance(expr, BinOp):
        return BinOp(
            op=expr.op,
            left=substitute_scalar(expr.left, symbol, replacement),
            right=substitute_scalar(expr.right, symbol, replacement),
        )
    if isinstance(expr, UnOp):
        return UnOp(op=expr.op, operand=substitute_scalar(expr.operand, symbol, replacement))
    if isinstance(expr, IntrinsicCall):
        return IntrinsicCall(
            name=expr.name,
            args=[substitute_scalar(a, symbol, replacement) for a in expr.args],
        )
    return expr


def clone_expr(expr: Expr) -> Expr:
    """Deep-copy an expression, assigning fresh ref_ids to references."""
    if isinstance(expr, Const):
        return Const(value=expr.value)
    if isinstance(expr, ScalarRef):
        return ScalarRef(symbol=expr.symbol, stmt_id=expr.stmt_id)
    if isinstance(expr, ArrayElemRef):
        return ArrayElemRef(
            symbol=expr.symbol,
            subscripts=[clone_expr(s) for s in expr.subscripts],
            stmt_id=expr.stmt_id,
        )
    if isinstance(expr, BinOp):
        return BinOp(op=expr.op, left=clone_expr(expr.left), right=clone_expr(expr.right))
    if isinstance(expr, UnOp):
        return UnOp(op=expr.op, operand=clone_expr(expr.operand))
    if isinstance(expr, IntrinsicCall):
        return IntrinsicCall(name=expr.name, args=[clone_expr(a) for a in expr.args])
    raise TypeError(f"cannot clone {expr!r}")
