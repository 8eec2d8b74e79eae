"""Array section analysis and automatic array privatizability.

The paper's conclusion: "In the future, we plan to integrate our
mapping techniques with automatic array privatization." This module
implements that integration in the style of Tu & Padua ("Automatic
array privatization", LCPC'93, the paper's reference [18]):

an array ``C`` is *automatically privatizable* with respect to loop
``L`` when

1. every read of ``C`` inside ``L`` is **covered** by a write that
   executes earlier in the same iteration of ``L`` and whose written
   section (per dimension, as symbolic affine bounds over the inner
   loop ranges) contains the read section,
2. the covering writes are unconditional (not nested under an IF), and
3. ``C`` is not live at ``L``'s exit.

Sections are rectangular (per-dimension affine bounds) — the classical
sufficient approximation; anything it cannot prove stays
non-privatizable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import CFG
from ..ir.expr import AffineForm, ArrayElemRef
from ..ir.program import Procedure
from ..ir.stmt import IfStmt, LoopStmt, Stmt
from ..ir.symbols import Symbol
from .dataflow import LivenessInfo


# --------------------------------------------------------------------------
# Symbolic affine bounds
# --------------------------------------------------------------------------


def _form_add(a: AffineForm, b: AffineForm, sign: int = 1) -> AffineForm:
    coeffs: dict[str, tuple] = {}
    for s, c in a.coeffs:
        coeffs[s.name] = (s, c)
    for s, c in b.coeffs:
        prev = coeffs.get(s.name, (s, 0))[1]
        coeffs[s.name] = (s, prev + sign * c)
    items = tuple((s, c) for _, (s, c) in sorted(coeffs.items()) if c != 0)
    return AffineForm(coeffs=items, const=a.const + sign * b.const)


def _substitute_extreme(
    form: AffineForm,
    inner: dict[str, tuple[AffineForm | None, AffineForm | None]],
    want_max: bool,
    depth: int = 0,
) -> AffineForm | None:
    """Replace every *inner* loop variable of ``form`` by the bound that
    extremizes its term, leaving outer symbols in place. Returns None
    when a needed bound is unavailable or the recursion cannot settle."""
    if depth > 8:
        return None
    for symbol, coeff in form.coeffs:
        if symbol.name not in inner:
            continue
        lo, hi = inner[symbol.name]
        pick = hi if (coeff > 0) == want_max else lo
        if pick is None:
            return None
        rest = AffineForm(
            coeffs=tuple((s, c) for s, c in form.coeffs if s.name != symbol.name),
            const=form.const,
        )
        scaled = AffineForm(
            coeffs=tuple((s, c * coeff) for s, c in pick.coeffs),
            const=pick.const * coeff,
        )
        return _substitute_extreme(_form_add(rest, scaled), inner, want_max, depth + 1)
    return form


@dataclass(frozen=True)
class SectionDim:
    """Per-dimension symbolic bounds (inclusive); None = unknown."""

    lo: AffineForm | None
    hi: AffineForm | None

    def contains(self, other: "SectionDim") -> bool:
        """Provably self.lo <= other.lo and other.hi <= self.hi."""
        if self.lo is None or self.hi is None or other.lo is None or other.hi is None:
            return False
        lo_diff = _form_add(other.lo, self.lo, sign=-1)
        hi_diff = _form_add(self.hi, other.hi, sign=-1)
        return (
            lo_diff.is_constant
            and lo_diff.const >= 0
            and hi_diff.is_constant
            and hi_diff.const >= 0
        )


def _inner_loop_bounds(
    ref_stmt: Stmt, loop: LoopStmt
) -> dict[str, tuple[AffineForm | None, AffineForm | None]]:
    """Bounds of the loops between ``loop`` (exclusive) and the
    reference's statement (inclusive)."""
    bounds: dict[str, tuple[AffineForm | None, AffineForm | None]] = {}
    for l in ref_stmt.loops_enclosing():
        if l.level <= loop.level:
            continue
        step_ok = l.step is None or (
            (sf := l.step_form) is not None and sf.is_constant and sf.const > 0
        )
        if not step_ok:
            bounds[l.var.name] = (None, None)
            continue
        bounds[l.var.name] = (l.low_form, l.high_form)
    return bounds


def ref_section(proc: Procedure, ref: ArrayElemRef, loop: LoopStmt) -> list[SectionDim]:
    """The rectangular section of ``ref`` touched during one iteration
    of ``loop``, as symbolic bounds over loop-invariant symbols."""
    stmt = proc.stmt_of_ref(ref)
    inner = _inner_loop_bounds(stmt, loop)
    section: list[SectionDim] = []
    for form in ref.forms:
        if form is None:
            section.append(SectionDim(lo=None, hi=None))
            continue
        lo = _substitute_extreme(form, inner, want_max=False)
        hi = _substitute_extreme(form, inner, want_max=True)
        section.append(SectionDim(lo=lo, hi=hi))
    return section


# --------------------------------------------------------------------------
# Coverage / privatizability
# --------------------------------------------------------------------------


def _collect_refs(loop: LoopStmt, array: Symbol):
    writes: list[tuple[ArrayElemRef, Stmt]] = []
    reads: list[tuple[ArrayElemRef, Stmt]] = []
    for stmt in loop.walk():
        if stmt is loop:
            continue
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == array.name:
                writes.append((ref, stmt))
        for ref in stmt.uses():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == array.name:
                reads.append((ref, stmt))
    return writes, reads


def _top_level_position(loop: LoopStmt, stmt: Stmt) -> int | None:
    """Index of the direct child of ``loop`` containing ``stmt``."""
    for k, child in enumerate(loop.body):
        if any(s is stmt for s in child.walk()):
            return k
    return None


def _under_condition(loop: LoopStmt, stmt: Stmt) -> bool:
    """Is ``stmt`` nested under an IF inside ``loop``?"""
    def search(body: list[Stmt], conditional: bool) -> bool | None:
        for child in body:
            if child is stmt:
                return conditional
            if isinstance(child, IfStmt):
                found = search(child.then_body, True)
                if found is None:
                    found = search(child.else_body, True)
                if found is not None:
                    return found
            elif isinstance(child, LoopStmt):
                found = search(child.body, conditional)
                if found is not None:
                    return found
        return None

    result = search(loop.body, False)
    return bool(result)


def _write_covers_read(
    proc: Procedure,
    loop: LoopStmt,
    write: tuple[ArrayElemRef, Stmt],
    read: tuple[ArrayElemRef, Stmt],
) -> bool:
    write_ref, write_stmt = write
    read_ref, read_stmt = read
    if _under_condition(loop, write_stmt):
        return False
    w_pos = _top_level_position(loop, write_stmt)
    r_pos = _top_level_position(loop, read_stmt)
    if w_pos is None or r_pos is None:
        return False
    if w_pos < r_pos:
        # The write sub-nest completes before the read sub-nest starts:
        # section containment decides.
        w_section = ref_section(proc, write_ref, loop)
        r_section = ref_section(proc, read_ref, loop)
        return all(w.contains(r) for w, r in zip(w_section, r_section))
    if w_pos == r_pos:
        # Same sub-nest: sound only for the identical element written
        # earlier in the same innermost iteration.
        if write_stmt is read_stmt:
            return False
        order = {id(s): k for k, s in enumerate(loop.walk())}
        if order.get(id(write_stmt), 1 << 30) >= order.get(id(read_stmt), 0):
            return False
        return [str(s) for s in write_ref.subscripts] == [
            str(s) for s in read_ref.subscripts
        ]
    return False


def auto_privatizable(
    proc: Procedure,
    cfg: CFG,
    liveness: LivenessInfo,
    array: Symbol,
    loop: LoopStmt,
) -> bool:
    """Can ``array`` be privatized w.r.t. ``loop`` without a NEW clause?
    (See module docstring for the three conditions.)

    The not-live-out condition is discharged by the stronger (and
    easily checkable) requirement that *every* read of the array in the
    procedure is lexically inside ``loop`` — each such read is covered
    by its own iteration's writes, so no value escapes. (Whole-array
    may-liveness is useless here: array element stores never kill the
    array, so a loop that rewrites its work array every iteration still
    looks 'live' around the back edge.)"""
    writes, reads = _collect_refs(loop, array)
    if not writes:
        return False
    for read in reads:
        if not any(_write_covers_read(proc, loop, w, read) for w in writes):
            return False
    # No read of the array anywhere outside the loop.
    inside = {id(s) for s in loop.walk()}
    for stmt in proc.all_stmts():
        if id(stmt) in inside:
            continue
        for ref in stmt.uses():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == array.name:
                return False
    return True


def auto_privatizable_arrays(
    proc: Procedure, cfg: CFG, liveness: LivenessInfo, loop: LoopStmt
) -> list[Symbol]:
    """All arrays automatically privatizable w.r.t. ``loop``."""
    names = set()
    for stmt in loop.walk():
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef):
                names.add(ref.symbol.name)
    result = []
    for name in sorted(names):
        symbol = proc.symbols.require(name)
        if auto_privatizable(proc, cfg, liveness, symbol, loop):
            result.append(symbol)
    return result
