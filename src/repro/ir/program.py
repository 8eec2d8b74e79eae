"""Procedure container: symbol table, structured body, directive records,
and navigation helpers (loop nests, labels, statement/reference lookup).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import SemanticError
from ..model import flops_of_expr
from .expr import AffineForm, ArrayElemRef, Ref, affine_form
from .stmt import AssignStmt, GotoStmt, IfStmt, LoopStmt, Stmt
from .symbols import Symbol, SymbolTable

#: process-local source of Procedure.uid values; also consulted when a
#: pickled procedure is revived so imported uids never collide with
#: locally created ones
_UID_COUNTER = itertools.count(1)


@dataclass
class AlignSpec:
    """Resolved static ALIGN directive: ``array`` is aligned with
    ``target``; ``axis_map[k]`` tells which target dimension the k-th
    source dimension maps to (with stride/offset), or None when the
    source dim is collapsed. ``replicated_target_dims`` are target dims
    carrying no source dim that were given '*' (replication)."""

    array: Symbol
    target: Symbol
    #: per source dim: (target_dim, stride, offset) or None
    axis_map: tuple[tuple[int, int, int] | None, ...]
    #: target dims onto which the source is replicated
    replicated_target_dims: tuple[int, ...] = ()


@dataclass
class DistributeSpec:
    """Resolved static DISTRIBUTE directive."""

    array: Symbol
    #: per dim: ("BLOCK", None) | ("CYCLIC", k or None) | ("*", None)
    formats: tuple[tuple[str, int | None], ...]
    onto: str | None = None


@dataclass
class ProcessorsSpec:
    name: str
    shape: tuple[int, ...]


@dataclass
class Procedure:
    """A lowered mini-HPF program."""

    name: str
    symbols: SymbolTable
    body: list[Stmt] = field(default_factory=list)
    aligns: list[AlignSpec] = field(default_factory=list)
    distributes: list[DistributeSpec] = field(default_factory=list)
    processors: ProcessorsSpec | None = None

    #: process-unique identity, part of the keys a PassManager memoizes on
    #: (ids of garbage-collected procedures can be reused; this cannot)
    uid: int = field(
        default_factory=_UID_COUNTER.__next__, repr=False, compare=False
    )
    #: bumped by every finalize(); cached analyses keyed on an older
    #: epoch are stale, since finalize() must follow any tree change
    ir_epoch: int = field(default=0, repr=False, compare=False)

    # filled by finalize()
    _stmts_by_id: dict[int, Stmt] = field(default_factory=dict, repr=False)
    _stmts_by_label: dict[int, Stmt] = field(default_factory=dict, repr=False)
    _ref_to_stmt: dict[int, Stmt] = field(default_factory=dict, repr=False)
    #: every statement, pre-order (``_stmts_by_id`` is filled in walk
    #: order): what :meth:`all_stmts` returns
    _stmt_order: tuple[Stmt, ...] = field(default=(), repr=False)

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        # A pickled uid is only unique in the *originating* process.  A
        # procedure revived here (process pool result, persistent
        # compile cache) must not alias a locally created one in any
        # uid-keyed memo (a PassManager's), so it gets a fresh local
        # identity.
        self.__dict__.update(state)
        self.uid = next(_UID_COUNTER)

    # -- structure ------------------------------------------------------------

    def finalize(self) -> "Procedure":
        """Compute parent-loop links, loop levels, and lookup tables,
        and stamp the facts every pass reads on the nodes: the affine
        form of each array subscript (``ref.forms``) and loop bound
        (``loop.low_form`` / ``high_form`` / ``step_form``), and the
        flops of each assignment's rhs and IF's condition
        (``stmt.flops``).  Equal forms are one object, so a pickled
        tree stores each once.  Must be called whenever the statement
        tree changes; it is the one place those facts are (re)derived."""
        self.ir_epoch += 1
        self._stmts_by_id.clear()
        self._stmts_by_label.clear()
        self._ref_to_stmt.clear()
        self._link(self.body, None, {})
        self._stmt_order = tuple(self._stmts_by_id.values())
        return self

    @staticmethod
    def _form(expr, forms: dict) -> AffineForm | None:
        """``affine_form(expr)`` (None for no ``expr``), as the object
        ``forms`` already holds for an equal form (keyed on symbol
        identity: ``Symbol`` is unhashable)."""
        form = affine_form(expr) if expr is not None else None
        if form is None:
            return None
        key = (form.const, tuple((id(sym), c) for sym, c in form.coeffs))
        return forms.setdefault(key, form)

    def _link(
        self, stmts: list[Stmt], loop: LoopStmt | None, forms: dict
    ) -> None:
        for stmt in stmts:
            stmt.loop = loop
            self._stmts_by_id[stmt.stmt_id] = stmt
            if stmt.label is not None:
                if stmt.label in self._stmts_by_label:
                    raise SemanticError(f"duplicate label {stmt.label}")
                self._stmts_by_label[stmt.label] = stmt
            for ref in list(stmt.uses()) + list(stmt.defs()):
                ref.stmt_id = stmt.stmt_id
                self._ref_to_stmt[ref.ref_id] = stmt
                if isinstance(ref, ArrayElemRef):
                    ref.forms = tuple(
                        self._form(s, forms) for s in ref.subscripts
                    )
            if isinstance(stmt, AssignStmt):
                stmt.flops = flops_of_expr(stmt.rhs)
            elif isinstance(stmt, LoopStmt):
                stmt.level = (loop.level + 1) if loop is not None else 1
                stmt.low_form = self._form(stmt.low, forms)
                stmt.high_form = self._form(stmt.high, forms)
                stmt.step_form = self._form(stmt.step, forms)
                self._link(stmt.body, stmt, forms)
            elif isinstance(stmt, IfStmt):
                stmt.flops = flops_of_expr(stmt.cond)
                self._link(stmt.then_body, loop, forms)
                self._link(stmt.else_body, loop, forms)

    # -- lookup -----------------------------------------------------------------

    def stmt(self, stmt_id: int) -> Stmt:
        return self._stmts_by_id[stmt_id]

    def stmt_at_label(self, label: int) -> Stmt | None:
        return self._stmts_by_label.get(label)

    def stmt_of_ref(self, ref: Ref) -> Stmt:
        return self._ref_to_stmt[ref.ref_id]

    def all_stmts(self) -> tuple[Stmt, ...]:
        """Every statement, pre-order (the order of ``walk()``), as of
        the last :meth:`finalize`."""
        return self._stmt_order

    def assignments(self):
        for stmt in self.all_stmts():
            if isinstance(stmt, AssignStmt):
                yield stmt

    def loops(self):
        for stmt in self.all_stmts():
            if isinstance(stmt, LoopStmt):
                yield stmt

    # -- loop-nest queries --------------------------------------------------------

    def common_loops(self, a: Stmt, b: Stmt) -> list[LoopStmt]:
        """Loops enclosing both ``a`` and ``b``, outermost first."""
        loops_a = a.loops_enclosing()
        loops_b = set(id(l) for l in b.loops_enclosing())
        return [l for l in loops_a if id(l) in loops_b]

    def encloses(self, loop: LoopStmt, stmt: Stmt) -> bool:
        return any(l is loop for l in stmt.loops_enclosing())

    # -- directive access -----------------------------------------------------------

    def align_of(self, array: Symbol) -> AlignSpec | None:
        for spec in self.aligns:
            if spec.array.name == array.name:
                return spec
        return None

    def distribute_of(self, array: Symbol) -> DistributeSpec | None:
        for spec in self.distributes:
            if spec.array.name == array.name:
                return spec
        return None

    # -- validation -------------------------------------------------------------------

    def check_gotos(self) -> None:
        """Validate every GOTO target exists."""
        for stmt in self.all_stmts():
            if isinstance(stmt, GotoStmt):
                if self.stmt_at_label(stmt.target_label) is None:
                    raise SemanticError(
                        f"GOTO target label {stmt.target_label} not found"
                    )

    def dump(self) -> str:
        """Readable dump of the statement tree (debugging / golden tests)."""
        lines: list[str] = [f"PROCEDURE {self.name}"]

        def emit(stmts: list[Stmt], depth: int) -> None:
            pad = "  " * depth
            for stmt in stmts:
                lines.append(pad + str(stmt))
                if isinstance(stmt, LoopStmt):
                    emit(stmt.body, depth + 1)
                elif isinstance(stmt, IfStmt):
                    emit(stmt.then_body, depth + 1)
                    if stmt.else_body:
                        lines.append(pad + "ELSE")
                        emit(stmt.else_body, depth + 1)

        emit(self.body, 1)
        return "\n".join(lines)
