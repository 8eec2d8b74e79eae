"""Array data-dependence testing on affine subscripts.

Used for:

* detecting the memory-based (anti/output) dependences that
  privatization eliminates (paper Section 3.1),
* deciding communication placement: a read of an array that is written
  inside the same loop cannot have its communication vectorized out of
  that loop (see :mod:`repro.comm.placement`).

Tests implemented: ZIV, strong/weak SIV with distance extraction, and a
GCD feasibility test for MIV subscripts (conservatively assuming
dependence when feasible). This is the classical portfolio of a 1990s
HPF compiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ir.expr import ArrayElemRef, AffineForm
from ..ir.program import Procedure
from ..ir.stmt import LoopStmt
from ..ir.symbols import Symbol


@dataclass(frozen=True)
class Dependence:
    """A (possible) data dependence between two array references."""

    array: Symbol
    source: ArrayElemRef  # the write
    sink: ArrayElemRef
    kind: str  # "flow" | "anti" | "output"
    #: distance per common loop (outermost first); None entry = unknown
    distances: tuple[int | None, ...]
    loop_carried: bool

    @property
    def loop_independent(self) -> bool:
        return not self.loop_carried


def _trip_count(loop: LoopStmt) -> int | None:
    """Constant trip count if bounds are constant."""
    low = loop.low_form
    high = loop.high_form
    step = loop.step_form
    if low is None or high is None or not low.is_constant or not high.is_constant:
        return None
    step_value = 1 if step is None else (step.const if step.is_constant else None)
    if step_value in (None, 0):
        return None
    count = (high.const - low.const + step_value) // step_value
    return max(count, 0)


def _bounds_of_loops(*stmts) -> dict[str, tuple[AffineForm | None, AffineForm | None]]:
    """Loop-variable bounds (as affine forms) for every loop enclosing
    any of the given statements."""
    bounds: dict[str, tuple[AffineForm | None, AffineForm | None]] = {}
    for stmt in stmts:
        for loop in stmt.loops_enclosing():
            step_ok = loop.step is None or (
                (sf := loop.step_form) is not None
                and sf.is_constant
                and sf.const > 0
            )
            if not step_ok:
                bounds[loop.var.name] = (None, None)
                continue
            bounds[loop.var.name] = (loop.low_form, loop.high_form)
    return bounds


def _form_sub(f1: AffineForm, f2: AffineForm) -> AffineForm:
    coeffs: dict[str, tuple] = {}
    for s, c in f1.coeffs:
        coeffs[s.name] = (s, c)
    for s, c in f2.coeffs:
        prev = coeffs.get(s.name, (s, 0))[1]
        coeffs[s.name] = (s, prev - c)
    items = tuple((s, c) for _, (s, c) in sorted(coeffs.items()) if c != 0)
    return AffineForm(coeffs=items, const=f1.const - f2.const)


def _extreme_of_form(
    form: AffineForm,
    bounds: dict[str, tuple[AffineForm | None, AffineForm | None]],
    want_max: bool,
    depth: int = 0,
) -> int | None:
    """Banerjee-style bound: the max (or min) of an affine form over the
    loop ranges, by substituting each loop variable with the bound that
    extremizes its term. Returns None when not derivable."""
    if depth > 8:
        return None
    if form.is_constant:
        return form.const
    for symbol, coeff in form.coeffs:
        lo_hi = bounds.get(symbol.name)
        if lo_hi is None:
            return None
        lo, hi = lo_hi
        pick = hi if (coeff > 0) == want_max else lo
        if pick is None:
            return None
        # substitute: form' = form - coeff*symbol + coeff*pick
        rest = AffineForm(
            coeffs=tuple((s, c) for s, c in form.coeffs if s.name != symbol.name),
            const=form.const,
        )
        scaled = AffineForm(
            coeffs=tuple((s, c * coeff) for s, c in pick.coeffs),
            const=pick.const * coeff,
        )
        merged: dict[str, tuple] = {}
        for s, c in rest.coeffs + scaled.coeffs:
            prev = merged.get(s.name, (s, 0))[1]
            merged[s.name] = (s, prev + c)
        combined = AffineForm(
            coeffs=tuple(
                (s, c) for _, (s, c) in sorted(merged.items()) if c != 0
            ),
            const=rest.const + scaled.const,
        )
        return _extreme_of_form(combined, bounds, want_max, depth + 1)
    return None


def _banerjee_independent(
    f1: AffineForm,
    f2: AffineForm,
    bounds: dict[str, tuple[AffineForm | None, AffineForm | None]],
) -> bool:
    """True when f1 - f2 is provably always > 0 or always < 0 over the
    loop ranges — the subscripts can never be equal."""
    diff = _form_sub(f1, f2)
    low = _extreme_of_form(diff, bounds, want_max=False)
    if low is not None and low > 0:
        return True
    high = _extreme_of_form(diff, bounds, want_max=True)
    return high is not None and high < 0


def _subscript_pair_test(
    f1: AffineForm | None,
    f2: AffineForm | None,
    common: list[LoopStmt],
    bounds: dict[str, tuple[AffineForm | None, AffineForm | None]] | None = None,
) -> tuple[bool, dict[str, int | None]]:
    """Test one subscript dimension; returns (feasible, distances) where
    distances maps loop-var name -> dependence distance (i2 - i1) when
    determinable."""
    if f1 is None or f2 is None:
        return True, {}  # non-affine: assume dependence, unknown distance
    if bounds is not None:
        # Bounds-based disproof is only sound here for the
        # *loop-independent* (same-iteration) interpretation, which is
        # what shared symbols encode; the loop-carried variant with
        # per-side renaming lives in may_depend_within_loop().
        common_names = {l.var.name for l in common}
        if not any(s.name in common_names for s in (*f1.symbols, *f2.symbols)):
            if _banerjee_independent(f1, f2, bounds):
                return False, {}
    common_vars = {l.var.name for l in common}
    # Difference form: f2 - f1 = sum (a2 - a1)*i_common terms only when
    # coefficients match variable-wise; otherwise fall back to GCD.
    vars1 = {s.name for s in f1.symbols}
    vars2 = {s.name for s in f2.symbols}
    all_vars = vars1 | vars2
    if not all_vars:
        # ZIV
        return f1.const == f2.const, {}
    if all_vars <= common_vars:
        coeff_pairs = {}
        for name in all_vars:
            c1 = next((c for s, c in f1.coeffs if s.name == name), 0)
            c2 = next((c for s, c in f2.coeffs if s.name == name), 0)
            coeff_pairs[name] = (c1, c2)
        if all(c1 == c2 for c1, c2 in coeff_pairs.values()):
            # Strong SIV/MIV with equal coefficients:
            # sum c*(i2 - i1) = const1 - const2.
            diff = f1.const - f2.const
            nonzero = [(n, c1) for n, (c1, _) in coeff_pairs.items() if c1 != 0]
            if len(nonzero) == 1:
                name, coeff = nonzero[0]
                if diff % coeff != 0:
                    return False, {}
                return True, {name: diff // coeff}
            if not nonzero:
                return diff == 0, {}
            gcd = math.gcd(*(abs(c) for _, c in nonzero))
            if diff % gcd != 0:
                return False, {}
            return True, {}
        # Unequal coefficients: GCD feasibility on all coefficients.
        coeffs = []
        for name, (c1, c2) in coeff_pairs.items():
            coeffs.extend([c1, -c2])
        coeffs = [c for c in coeffs if c != 0]
        if not coeffs:
            return f1.const == f2.const, {}
        gcd = math.gcd(*(abs(c) for c in coeffs))
        if (f2.const - f1.const) % gcd != 0:
            return False, {}
        return True, {}
    # Variables outside the common nest (inner loops, free symbols):
    # conservative.
    return True, {}


def test_dependence(
    proc: Procedure,
    write: ArrayElemRef,
    other: ArrayElemRef,
    kind: str,
) -> Dependence | None:
    """Dependence from ``write`` to ``other`` (same array), or None when
    disproven. ``kind`` names the dependence type from the caller's
    perspective (flow if other is a read after write, etc.)."""
    if write.symbol.name != other.symbol.name:
        return None
    stmt1 = proc.stmt_of_ref(write)
    stmt2 = proc.stmt_of_ref(other)
    common = proc.common_loops(stmt1, stmt2)
    bounds = _bounds_of_loops(stmt1, stmt2)
    distances: dict[str, int | None] = {l.var.name: None for l in common}
    for form1, form2 in zip(write.forms, other.forms):
        feasible, dim_distances = _subscript_pair_test(
            form1, form2, common, bounds
        )
        if not feasible:
            return None
        for name, dist in dim_distances.items():
            prev = distances.get(name)
            if prev is None:
                distances[name] = dist
            elif dist is not None and prev != dist:
                return None  # inconsistent distances: no dependence
    # Check distances against trip counts.
    dist_vector: list[int | None] = []
    carried = False
    for loop in common:
        dist = distances.get(loop.var.name)
        if dist is not None:
            trip = _trip_count(loop)
            if trip is not None and abs(dist) >= trip:
                return None
            if dist != 0:
                carried = True
        else:
            carried = True  # unknown distance: may be carried
        dist_vector.append(dist)
    return Dependence(
        array=write.symbol,
        source=write,
        sink=other,
        kind=kind,
        distances=tuple(dist_vector),
        loop_carried=carried,
    )


def _writes_and_reads(proc: Procedure, loop: LoopStmt | None = None):
    """(writes, reads) array references within ``loop`` (or the whole
    procedure)."""
    writes: list[ArrayElemRef] = []
    reads: list[ArrayElemRef] = []
    stmts = loop.walk() if loop is not None else proc.all_stmts()
    for stmt in stmts:
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef):
                writes.append(ref)
        for ref in stmt.uses():
            if isinstance(ref, ArrayElemRef):
                reads.append(ref)
    return writes, reads


def array_dependences(proc: Procedure, loop: LoopStmt | None = None) -> list[Dependence]:
    """All (possible) array dependences within ``loop``."""
    writes, reads = _writes_and_reads(proc, loop)
    result: list[Dependence] = []
    for w in writes:
        for r in reads:
            if r.symbol.name != w.symbol.name:
                continue
            dep = test_dependence(proc, w, r, "flow")
            if dep is not None:
                result.append(dep)
        for w2 in writes:
            if w2.symbol.name != w.symbol.name:
                continue
            dep = test_dependence(proc, w, w2, "output")
            if dep is None:
                continue
            if w2 is w and not dep.loop_carried:
                continue  # a write trivially "overlapping" itself
            result.append(dep)
    return result


def array_written_in(proc: Procedure, array: Symbol, loop: LoopStmt) -> bool:
    """Is any element of ``array`` written inside ``loop``?"""
    for stmt in loop.walk():
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == array.name:
                return True
    return False


def _rename_form(
    form: AffineForm, deep_names: set[str], suffix: str
) -> AffineForm:
    """Rename variables in ``deep_names`` by appending ``suffix`` —
    fresh Symbol clones so the two sides of a carried-dependence test
    iterate independently."""
    from ..ir.symbols import Symbol as _Symbol, SymbolKind as _Kind

    coeffs = []
    for s, c in form.coeffs:
        if s.name in deep_names:
            coeffs.append(
                (_Symbol(name=s.name + suffix, kind=_Kind.SCALAR, type=s.type), c)
            )
        else:
            coeffs.append((s, c))
    return AffineForm(coeffs=tuple(coeffs), const=form.const)


def _side_bounds(
    stmt, loop: LoopStmt, suffix: str
) -> dict[str, tuple[AffineForm | None, AffineForm | None]]:
    """Bounds for one side of a carried test: loops at or inside
    ``loop`` get suffixed names; loops outside stay shared."""
    deep_names = {
        l.var.name for l in stmt.loops_enclosing() if l.level >= loop.level
    }
    bounds: dict[str, tuple[AffineForm | None, AffineForm | None]] = {}
    for l in stmt.loops_enclosing():
        name = l.var.name + (suffix if l.var.name in deep_names else "")
        lo = l.low_form
        hi = l.high_form
        if lo is not None:
            lo = _rename_form(lo, deep_names, suffix)
        if hi is not None:
            hi = _rename_form(hi, deep_names, suffix)
        step_ok = l.step is None or (
            (sf := l.step_form) is not None
            and sf.is_constant
            and sf.const > 0
        )
        bounds[name] = (lo, hi) if step_ok else (None, None)
    return bounds


def may_depend_within_loop(
    proc: Procedure,
    write: ArrayElemRef,
    read: ArrayElemRef,
    loop: LoopStmt,
) -> bool:
    """Can a value written by ``write`` during some iteration of
    ``loop`` be observed by ``read`` (same or later iteration)?

    Variables of ``loop`` and deeper loops iterate *independently* on
    the two sides (renamed); variables of loops strictly enclosing
    ``loop`` are shared (same iteration). A dimension whose subscript
    difference is provably sign-definite over those ranges disproves
    the dependence.
    """
    if write.symbol.name != read.symbol.name:
        return False
    write_stmt = proc.stmt_of_ref(write)
    read_stmt = proc.stmt_of_ref(read)
    write_deep = {
        l.var.name for l in write_stmt.loops_enclosing() if l.level >= loop.level
    }
    read_deep = {
        l.var.name for l in read_stmt.loops_enclosing() if l.level >= loop.level
    }
    bounds = {}
    bounds.update(_side_bounds(write_stmt, loop, "%W"))
    bounds.update(_side_bounds(read_stmt, loop, "%R"))
    for f_w, f_r in zip(write.forms, read.forms):
        if f_w is None or f_r is None:
            continue  # unknown: cannot disprove via this dimension
        f_w = _rename_form(f_w, write_deep, "%W")
        f_r = _rename_form(f_r, read_deep, "%R")
        if _banerjee_independent(f_w, f_r, bounds):
            return False
    return True


def read_may_see_loop_write(
    proc: Procedure, read: ArrayElemRef, loop: LoopStmt
) -> bool:
    """Can ``read`` observe a value written inside ``loop``? If so,
    communication for ``read`` cannot be hoisted out of ``loop``.

    Disproven only when every write in the loop provably never overlaps
    the read (bounds-aware, with per-side iteration renaming).
    """
    for stmt in loop.walk():
        for ref in stmt.defs():
            if isinstance(ref, ArrayElemRef) and ref.symbol.name == read.symbol.name:
                if may_depend_within_loop(proc, ref, read, loop):
                    return True
    return False
