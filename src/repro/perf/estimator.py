"""Analytic performance estimator.

Walks the compiled program's loop nest and prices, per processor:

* **computation** — statement instances × flops ÷ the statement's
  parallel factor (1 for replicated execution: everybody does all the
  work, which is the paper's "loss of parallelism");
* **communication** — each :class:`~repro.comm.events.CommEvent` costs
  its per-instance transfer time × the number of instances at its
  placement level. Message vectorization shows up as fewer, larger
  messages (placement hoisted outward); inner-loop communication as
  many small ones — the paper's two-orders-of-magnitude TOMCATV gap.

Triangular loops (DGEFA) are handled by evaluating affine bounds at the
midpoint of the enclosing ranges, i.e. average trip counts.

This estimator prices full problem sizes (n = 513 / 1000 / 64³)
instantly; bit-exact semantics are validated separately by the SPMD
simulator at small sizes (see ``repro.machine`` / ``repro.codegen``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.reductions import match_maxloc
from ..comm.events import CommEvent, ReduceEvent
from ..core.driver import CompiledProgram
from ..core.locality import Position
from ..errors import AnalysisError
from ..ir.expr import AffineForm, ArrayElemRef, Expr, ScalarRef
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt, Stmt
from ..model import MachineModel


def _power_sum(p: int, m: int) -> int:
    """Faulhaber: Σ_{t=1}^{m} t^p for p ≤ 4."""
    if m <= 0:
        return 0
    if p == 0:
        return m
    if p == 1:
        return m * (m + 1) // 2
    if p == 2:
        return m * (m + 1) * (2 * m + 1) // 6
    if p == 3:
        return (m * (m + 1) // 2) ** 2
    if p == 4:
        return m * (m + 1) * (2 * m + 1) * (3 * m * m + 3 * m - 1) // 30
    raise ValueError(f"no power-sum formula for p={p}")


def _clamped_poly_sum(
    factors: list[tuple[int, int]], n: int
) -> int | None:
    """Σ_{t=0}^{n-1} Π_i max(0, m0_i + q_i·t), exactly.

    Each factor is a trip count clamped at zero; a factor's zero range
    zeroes the whole product (no iterations → no inner instances), so
    the sum runs over the intersection of the positive ranges, where
    the product is a plain polynomial summed by Faulhaber's formulas.
    ``None`` when the degree exceeds the table (≥ 5 correlated loops).
    """
    tlo, thi = 0, n - 1
    coeffs = [1]  # polynomial in t, ascending powers
    for m0, q in factors:
        if q == 0:
            if m0 <= 0:
                return 0
            coeffs = [c * m0 for c in coeffs]
            continue
        if len(coeffs) > 4:
            return None
        if q > 0:
            tlo = max(tlo, -((m0 - 1) // q))  # ceil((1 - m0) / q)
        else:
            thi = min(thi, (1 - m0) // q)
        prod = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            prod[p] += c * m0
            prod[p + 1] += c * q
        coeffs = prod
    if tlo > thi:
        return 0
    total = coeffs[0] * (thi - tlo + 1)
    for p in range(1, len(coeffs)):
        if coeffs[p]:
            total += coeffs[p] * (_power_sum(p, thi) - _power_sum(p, tlo - 1))
    return total


@dataclass
class StmtCost:
    stmt: Stmt
    instances: float
    flops: int
    parallel_factor: float
    time: float


@dataclass
class EventCost:
    event: CommEvent | ReduceEvent
    instances: float
    elements: float
    time_per_instance: float
    time: float


@dataclass
class NestCost:
    """Predicted host-side execution time of one loop nest under the
    tier-2 lowered interpreter vs the tier-3 slab engine (see
    docs/COSTMODEL.md: the per-nest inequality ``tier="auto"``
    decides with).  The slab classification prices each plan with it
    (``NestPlan.cost``)."""

    loop_id: int
    #: dynamic statement instances inside the nest, whole program run
    instances: float
    #: times the nest's header is entered (prepare attempts)
    entries: float
    #: assignment statements in the nest body
    stmts: int
    tier2_time: float
    tier3_time: float

    @property
    def slab_wins(self) -> bool:
        return self.tier3_time < self.tier2_time


@dataclass
class PerfEstimate:
    compute_time: float
    comm_time: float
    stmt_costs: list[StmtCost] = field(default_factory=list)
    event_costs: list[EventCost] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time

    def speedup(self, serial_time: float) -> float:
        """Speedup over a serial execution time (see
        :meth:`PerfEstimator.estimate_serial`)."""
        if self.total_time <= 0:
            return float("inf")
        return serial_time / self.total_time

    def summary(self) -> str:
        return (
            f"total {self.total_time:.4f}s = compute {self.compute_time:.4f}s "
            f"+ comm {self.comm_time:.4f}s"
        )


class PerfEstimator:
    def __init__(
        self,
        compiled: CompiledProgram,
        machine: MachineModel | None = None,
        pipelined_shifts: bool = False,
    ):
        self.compiled = compiled
        self.machine = machine or compiled.options.machine
        self.ctx = compiled.ctx
        self.grid = compiled.grid
        #: pricing semantics for inner-loop shifts: False (default)
        #: charges a collective per iteration instance — the 1997
        #: compiled-code behaviour behind the paper's catastrophic
        #: inner-loop-communication columns; True charges only the
        #: block-boundary iterations (lazy point-to-point, matching the
        #: executing simulator). See docs/COSTMODEL.md.
        self.pipelined_shifts = pipelined_shifts
        self._trip_cache: dict[int, float] = {}
        self._midpoint_cache: dict[str, float] = {}
        #: var name -> (first value, step, trip count) of its loop —
        #: the arithmetic progression a triangular bound sums over
        self._range_cache: dict[str, tuple[float, float, float]] = {}
        #: loop id -> (driving var, m0, q): the loop's per-iteration
        #: trips are max(0, m0 + q·t) over the driver's t-th iteration
        self._tri_cache: dict[int, tuple[str, int, int]] = {}

    # ==================================================================
    # Trip counts
    # ==================================================================

    def _eval_bound(self, expr: Expr, form: AffineForm | None) -> float:
        """Evaluate a loop bound, whose affine form is ``form``,
        substituting midpoints for enclosing loop indices (average-trip
        model for triangular nests)."""
        value = self.ctx.const.eval_expr(expr)
        if isinstance(value, (int, float)):
            return float(value)
        if form is None:
            raise AnalysisError(f"cannot estimate non-affine loop bound {expr}")
        total = float(form.const)
        for symbol, coeff in form.coeffs:
            mid = self._midpoint_cache.get(symbol.name)
            if mid is None:
                raise AnalysisError(
                    f"loop bound depends on {symbol.name} with unknown range"
                )
            total += coeff * mid
        return total

    def trip_count(self, loop: LoopStmt) -> float:
        cached = self._trip_cache.get(loop.stmt_id)
        if cached is not None:
            return cached
        # Ensure enclosing loops' midpoints exist (triangular bounds).
        for outer in loop.loops_enclosing():
            if outer.var.name not in self._midpoint_cache:
                self.trip_count(outer)
        low = self._eval_bound(loop.low, loop.low_form)
        high = self._eval_bound(loop.high, loop.high_form)
        step = 1.0
        if loop.step is not None:
            step = self._eval_bound(loop.step, loop.step_form)
            if step == 0:
                raise AnalysisError("loop step of zero")
        trip = max(0.0, math.floor((high - low + step) / step))
        tri = self._triangular_terms(loop, step)
        if tri is not None:
            vname, m0, q, mean = tri
            trip = mean
            self._tri_cache[loop.stmt_id] = (vname, m0, q)
        self._trip_cache[loop.stmt_id] = trip
        self._midpoint_cache[loop.var.name] = (low + high) / 2.0
        self._range_cache[loop.var.name] = (low, step, trip)
        return trip

    def _triangular_terms(self, loop: LoopStmt, step: float):
        """Exact trips when the bounds are affine in exactly one
        enclosing loop variable (DGEFA's ``DO i = k+1, n``): the
        per-iteration trips form a clamped arithmetic progression
        max(0, m0 + q·t) over the driver's t-th iteration, so the
        n(n±1)/2 closed form replaces the midpoint approximation —
        which floors the *average* bound and so drifts by up to half an
        iteration per level.  Returns ``(driver, m0, q, mean)``, or
        ``None`` when the shape (or non-integral bounds) demands the
        midpoint fallback."""
        low_form = loop.low_form
        high_form = loop.high_form
        if low_form is None or high_form is None:
            return None
        # high - low + step, split into a·v + b over the one unresolved
        # variable v
        coeffs: dict[str, float] = {}
        b = step
        for form, sign in ((high_form, 1.0), (low_form, -1.0)):
            b += sign * form.const
            for sym, coeff in form.coeffs:
                if sym.value is not None:
                    b += sign * coeff * sym.value
                else:
                    coeffs[sym.name] = coeffs.get(sym.name, 0.0) + sign * coeff
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        if len(coeffs) != 1:
            return None  # rectangular (exact already) or too entangled
        ((vname, a),) = coeffs.items()
        if vname not in (o.var.name for o in loop.loops_enclosing()):
            # the variable is some finished loop's leftover value, not a
            # range this loop sweeps over — midpoint is all we have
            return None
        rng = self._range_cache.get(vname)
        if rng is None:
            return None
        vlow, vstep, vtrip = rng
        values = (a, b, vlow, vstep, vtrip, step)
        if any(x != int(x) for x in values) or vtrip <= 0:
            return None
        a, b, vlow, vstep, vtrip, step = (int(x) for x in values)
        # trips(t) = max(0, (a·(vlow + vstep·t) + b) // step) for
        # t = 0..vtrip-1 — arithmetic in t only if step divides a·vstep
        if (a * vstep) % step != 0:
            return None
        q = (a * vstep) // step
        m0 = (a * vlow + b) // step
        total = _clamped_poly_sum([(m0, q)], vtrip)
        if total is None:
            return None
        return vname, m0, q, total / vtrip

    def _instances(self, stmt: Stmt, up_to_level: int | None = None) -> float:
        enclosing = []
        for loop in stmt.loops_enclosing():
            if up_to_level is not None and loop.level > up_to_level:
                break
            self.trip_count(loop)  # populate the triangular caches
            enclosing.append(loop)
        # Triangular trips driven by the same variable are correlated
        # (DGEFA's update nest: both J and I sweep n−k elements), so a
        # product of their means undercounts; sum the product of their
        # arithmetic progressions over the driver's range instead.
        groups: dict[str, list[LoopStmt]] = {}
        plain: list[LoopStmt] = []
        for loop in enclosing:
            tri = self._tri_cache.get(loop.stmt_id)
            if tri is not None:
                groups.setdefault(tri[0], []).append(loop)
            else:
                plain.append(loop)
        total = 1.0
        for loop in plain:
            members = groups.pop(loop.var.name, None)
            exact = None
            if members is not None:
                _vlow, _vstep, vtrip = self._range_cache[loop.var.name]
                if vtrip == int(vtrip) and vtrip > 0:
                    factors = [
                        self._tri_cache[m.stmt_id][1:] for m in members
                    ]
                    exact = _clamped_poly_sum(factors, int(vtrip))
            if exact is not None:
                total *= exact
            else:
                total *= self.trip_count(loop)
                for m in members or ():
                    total *= self.trip_count(m)
        # groups whose driver is itself triangular (or out of scope):
        # correlation is beyond the closed forms, use mean trips
        for members in groups.values():
            for m in members:
                total *= self.trip_count(m)
        return total

    # ==================================================================
    # Per-nest tier costs
    # ==================================================================

    #: host-side cost constants (seconds), measured once against the
    #: executing simulator and fixed, like the machine's prices — only
    #: their *ratios* steer the tier choice, so rough is fine
    C_T2_STMT = 4e-6  #: one lowered-closure statement dispatch
    C_PREP = 6e-5  #: one slab prepare/commit attempt (fixed overhead)
    C_VEC = 2e-5  #: one vectorized statement evaluation (ufunc setup)
    C_ELEM = 1.5e-8  #: one slab lane of one statement

    def nest_cost(self, loop: LoopStmt) -> NestCost:
        """Predict tier-2 vs tier-3 time for one takeover-candidate
        nest.  Tier 2 dispatches a closure per statement instance; tier
        3 pays a fixed prepare/commit per entry of ``loop``, a ufunc
        setup per statement per entry, and a per-lane cost.  Both sides
        use the estimator's (triangular-exact) trip counts, so the
        comparison is between the same instance totals.  The branch of
        a guarded MAXLOC/MINLOC fold runs where a lane beats every lane
        before it: over ``m`` lanes in random order that is ``H(m) =
        1 + 1/2 + ... + 1/m`` times (the expected number of running
        maxima), with ``m`` the mean lanes per entry of the fold's
        loop.  Any other ``IF``'s branch is counted on every instance."""
        body = [
            stmt
            for stmt in loop.walk()
            if isinstance(stmt, (AssignStmt, IfStmt))
        ]
        runs: dict[int, float] = {}
        for guard in body:
            if isinstance(guard, IfStmt) and (
                match_maxloc(guard, guard.loop) is not None
            ):
                entries = self._instances(guard.loop)
                lanes = round(self._instances(guard) / entries) if entries else 0
                runs.update(dict.fromkeys(
                    [t.stmt_id for t in guard.then_body],
                    entries * sum(1 / k for k in range(1, lanes + 1)),
                ))
        instances = sum(
            runs[stmt.stmt_id] if stmt.stmt_id in runs
            else self._instances(stmt)
            for stmt in body
        )
        entries = self._instances(loop)
        stmts = len(body)
        tier2 = self.C_T2_STMT * instances
        tier3 = (
            self.C_PREP * entries
            + self.C_VEC * stmts * entries
            + self.C_ELEM * instances
        )
        return NestCost(
            loop_id=loop.stmt_id,
            instances=instances,
            entries=entries,
            stmts=stmts,
            tier2_time=tier2,
            tier3_time=tier3,
        )

    # ==================================================================
    # Computation
    # ==================================================================

    def _flops_of_stmt(self, stmt: Stmt) -> int:
        if isinstance(stmt, AssignStmt):
            flops = stmt.flops
            if isinstance(stmt.lhs, ArrayElemRef):
                # addressing: one flop per lhs subscript, which neither
                # simulator engine charges (docs/COSTMODEL.md, "Computation")
                flops += len(stmt.lhs.subscripts)
            return max(flops, 1)
        if isinstance(stmt, IfStmt):
            return max(stmt.flops, 1)
        return 0

    def _position_varies_with(self, position: Position, loop: LoopStmt) -> bool:
        for dim in position:
            if dim.kind == "pos" and dim.form is not None:
                if dim.form.coeff(loop.var) != 0:
                    return True
        return False

    def _parallel_factor(self, stmt: Stmt) -> float:
        """How many processors share this statement's instances."""
        executor = self.compiled.executors[stmt.stmt_id]
        if executor.kind == "all":
            return 1.0
        if executor.kind == "union" and all(
            p.kind == "any" for p in executor.position
        ):
            return self._sibling_parallel_factor(stmt)
        factor = 1.0
        enclosing = stmt.loops_enclosing()
        for g, dim in enumerate(executor.position):
            if dim.kind != "pos" or dim.form is None:
                continue
            driving = [
                loop for loop in enclosing if dim.form.coeff(loop.var) != 0
            ]
            if not driving:
                continue  # fixed position: serialized along this dim
            extent = 1.0
            for loop in driving:
                extent *= self.trip_count(loop)
            factor *= min(float(self.grid.shape[g]), max(extent, 1.0))
        return max(factor, 1.0)

    def _sibling_parallel_factor(self, stmt: Stmt) -> float:
        """Privatized (no-guard) statements execute with the union of
        the iteration's executors: inherit the best parallel factor of
        a sibling statement in the same innermost loop."""
        loop = stmt.loop
        if loop is None:
            return 1.0
        best = 1.0
        for sibling in loop.walk():
            if sibling is stmt:
                continue
            executor = self.compiled.executors.get(sibling.stmt_id)
            if executor is None or executor.kind != "owner":
                continue
            best = max(best, self._parallel_factor(sibling))
        return best

    # ==================================================================
    # Communication
    # ==================================================================

    def _ref_varies_with(self, ref, loop: LoopStmt) -> bool:
        if isinstance(ref, ArrayElemRef):
            for form in ref.forms:
                if form is None:
                    return True  # unknown: assume it varies
                if form.coeff(loop.var) != 0:
                    return True
            return False
        if isinstance(ref, ScalarRef):
            # One scalar value per transfer instance.
            return False
        return False

    def _elements_of(self, event: CommEvent) -> float:
        """Elements this transfer aggregates per placement instance
        (message vectorization), with the shift-boundary reduction."""
        stmt = event.stmt
        p = event.placement_level
        elements = 1.0
        shift_dim_trip = 1.0
        for loop in stmt.loops_enclosing():
            if loop.level <= p:
                continue
            if self._ref_varies_with(event.ref, loop):
                elements *= self.trip_count(loop)
                if self._position_varies_with(event.data_position, loop):
                    shift_dim_trip *= self.trip_count(loop)
        if event.pattern.kind == "shift":
            # Only the boundary planes cross processors.
            delta = max((abs(d) for d in event.pattern.offsets), default=1)
            if shift_dim_trip > 1.0:
                elements = elements / shift_dim_trip * min(delta, shift_dim_trip)
        return elements

    def _boundary_fraction(self, event: CommEvent) -> float:
        """Fraction of placement instances of a shift that actually
        cross a processor boundary (lazy point-to-point semantics):
        (P_g − 1)·|δ| boundary iterations out of the driving loop's
        trip, per grid dimension the shift spans."""
        stmt = event.stmt
        p = event.placement_level
        fraction = 1.0
        for loop in stmt.loops_enclosing():
            if loop.level > p:
                continue
            for g, dim in enumerate(event.data_position):
                if (
                    dim.kind == "pos"
                    and dim.form is not None
                    and dim.form.coeff(loop.var) != 0
                ):
                    trip = self.trip_count(loop)
                    if trip <= 0:
                        continue
                    delta = max(
                        (abs(d) for d in event.pattern.offsets), default=1
                    )
                    boundaries = max(self.grid.shape[g] - 1, 0) * delta
                    fraction *= min(1.0, boundaries / trip)
                    break
        return fraction

    def _event_cost(self, event: CommEvent) -> EventCost:
        stmt = event.stmt
        p = event.placement_level
        instances = self._instances(stmt, up_to_level=p)
        if self.pipelined_shifts and event.pattern.kind == "shift":
            instances *= self._boundary_fraction(event)
        # Message combining: one startup per instance, summed payload of
        # the merged transfers (duplicates are free — same data).
        elements = self._elements_of(event)
        for member in event.combined_with:
            elements += self._elements_of(member)
        span = 1
        if event.pattern.kind == "broadcast":
            for g in event.pattern.bcast_dims:
                span *= self.grid.shape[g]
        elif event.pattern.kind == "general":
            span = self.grid.size
        if event.pattern.kind == "general":
            # Distinguish two 'general' shapes at this placement:
            #  * the data position is FIXED within one instance (only
            #    the destinations vary) -> one value multicast to many:
            #    broadcast pricing (e.g. DGEFA's pivot column);
            #  * the data position varies across the inner iterations ->
            #    personalized all-to-all: transpose pricing (e.g. the
            #    APPSP sweepz redistribution).
            data_varies_below = any(
                self._position_varies_with(event.data_position, loop)
                for loop in stmt.loops_enclosing()
                if loop.level > p
            )
            if data_varies_below:
                per_instance = self.machine.alltoall_time(
                    int(math.ceil(elements)), span
                )
            else:
                per_instance = self.machine.broadcast_time(
                    int(math.ceil(elements)), span
                )
        else:
            per_instance = self.machine.transfer_time(
                event.pattern, int(math.ceil(elements)), span
            )
        return EventCost(
            event=event,
            instances=instances,
            elements=elements,
            time_per_instance=per_instance,
            time=instances * per_instance,
        )

    def _reduce_cost(self, event: ReduceEvent) -> EventCost:
        # One combine per iteration of the loops enclosing the
        # reduction loop.
        instances = self._instances(event.stmt, up_to_level=event.loop_level - 1)
        span = 1
        for g in event.grid_dims:
            span *= self.grid.shape[g]
        per_instance = self.machine.reduce_time(event.elements, span)
        return EventCost(
            event=event,
            instances=instances,
            elements=float(event.elements),
            time_per_instance=per_instance,
            time=instances * per_instance,
        )

    # ==================================================================
    # Entry points
    # ==================================================================

    def estimate(self) -> PerfEstimate:
        stmt_costs: list[StmtCost] = []
        compute = 0.0
        for stmt in self.compiled.proc.all_stmts():
            flops = self._flops_of_stmt(stmt)
            if flops == 0:
                continue
            instances = self._instances(stmt)
            factor = self._parallel_factor(stmt)
            time = self.machine.compute_time(flops, 1) * instances / factor
            stmt_costs.append(
                StmtCost(
                    stmt=stmt,
                    instances=instances,
                    flops=flops,
                    parallel_factor=factor,
                    time=time,
                )
            )
            compute += time
        event_costs: list[EventCost] = []
        comm = 0.0
        for event in self.compiled.comm.events:
            cost = self._event_cost(event)
            event_costs.append(cost)
            comm += cost.time
        for reduce_event in self.compiled.comm.reduces:
            cost = self._reduce_cost(reduce_event)
            event_costs.append(cost)
            comm += cost.time
        return PerfEstimate(
            compute_time=compute,
            comm_time=comm,
            stmt_costs=stmt_costs,
            event_costs=event_costs,
        )

    def estimate_serial(self) -> float:
        """Single-processor execution time (no communication, no
        parallelism) — the speedup baseline."""
        total = 0.0
        for stmt in self.compiled.proc.all_stmts():
            flops = self._flops_of_stmt(stmt)
            if flops == 0:
                continue
            total += self.machine.compute_time(flops, 1) * self._instances(stmt)
        return total
