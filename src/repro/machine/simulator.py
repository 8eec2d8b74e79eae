"""SPMD execution on the simulated distributed-memory machine.

Runs a compiled program on P virtual processors with per-node memory,
validity tracking, and virtual clocks:

* each assignment executes only on its executor ranks (owner-computes
  guards, privatized/no-guard statements, replicated execution);
* a rank reading an element it does not hold triggers a modeled message
  from a valid owner, coalesced per the static communication analysis's
  placement level (message vectorization: one startup per vectorized
  instance, per-element bandwidth afterwards);
* reduction scalars accumulate privately per rank and are combined by a
  log-tree collective at the reduction loop's exit, exactly as the
  paper's code generation does with its privatized temporary copy;
* control-flow statements privatized by Section 4 are evaluated only by
  the processors that need them.

The simulator is the semantic referee: its gathered results must match
the sequential interpreter bit-for-bit, for every strategy — that is
what the integration tests assert. Its virtual time is also reported,
but large problem sizes are priced by ``repro.perf`` instead.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..codegen.evalexpr import ValueReader, coerce_store, eval_expr, eval_subscripts
from ..codegen.walker import ExecutionHooks, Walker
from ..comm.analysis import hoisted_loop_vars
from ..comm.costmodel import MachineModel, flops_of_expr
from ..comm.events import CommEvent
from ..core.driver import CompiledProgram
from ..core.mapping_kinds import (
    FullyReplicatedReduction,
    ReductionMapping,
)
from ..errors import SimulationError
from ..ir.expr import AffineForm, ArrayElemRef, ScalarRef
from ..ir.stmt import AssignStmt, IfStmt, LoopStmt, Stmt
from ..obs import Metrics, NULL_TRACER, Tracer
from .lowering import FastHooks, FastPath
from .memory import ArrayStore, NodeMemory, initialize_array, ownership_masks
from .stats import Clocks, TrafficStats


class _FetchingReader(ValueReader):
    """Reads through one rank's memory, fetching remote data on demand."""

    def __init__(self, sim: "SPMDSimulator", rank: int, stmt: Stmt):
        self.sim = sim
        self.rank = rank
        self.stmt = stmt

    def read_scalar(self, ref: ScalarRef, env):
        name = ref.symbol.name
        if name in env:
            return env[name]
        memory = self.sim.memories[self.rank]
        if memory.scalar_is_valid(name):
            return memory.scalar_value(name)
        return self.sim.fetch_scalar(self.rank, ref, self.stmt, env)

    def read_array(self, ref: ArrayElemRef, index, env):
        name = ref.symbol.name
        memory = self.sim.memories[self.rank]
        if memory.array_is_valid(name, index):
            return memory.array_value(name, index)
        return self.sim.fetch_array(self.rank, ref, index, self.stmt, env)


class _AuthoritativeReader(ValueReader):
    """Reads the authoritative value (any valid copy) without charging —
    used for guard evaluation and loop bounds, whose data is replicated
    by construction (dummy-replicated consumers / loop-bound events)."""

    def __init__(self, sim: "SPMDSimulator"):
        self.sim = sim

    def read_scalar(self, ref: ScalarRef, env):
        name = ref.symbol.name
        if name in env:
            return env[name]
        return self.sim.authoritative_scalar(name)

    def read_array(self, ref: ArrayElemRef, index, env):
        return self.sim.authoritative_array(ref.symbol.name, index)


class _SPMDHooks(ExecutionHooks):
    def __init__(self, sim: "SPMDSimulator"):
        self.sim = sim

    def assign(self, stmt: AssignStmt, env):
        self.sim.interp_instances += 1
        self.sim.exec_assign(stmt, env)

    def eval_condition(self, stmt: IfStmt, env) -> bool:
        self.sim.interp_instances += 1
        return self.sim.exec_condition(stmt, env)

    def eval_bound(self, expr, env) -> int:
        return int(eval_expr(expr, self.sim.authoritative, env))

    def loop_enter(self, stmt: LoopStmt, env):
        self.sim.on_loop_enter(stmt, env)

    def loop_exit(self, stmt: LoopStmt, env):
        self.sim.on_loop_exit(stmt, env)


#: the engine switch's values: the three forced tiers, then the
#: TierPlan-driven per-nest choice
TIERS = ("interpreted", "lowered", "slab", "auto")


class SPMDSimulator:
    def __init__(
        self,
        compiled: CompiledProgram,
        machine: MachineModel | None = None,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
        tier: str = "slab",
    ):
        self.compiled = compiled
        if tier not in TIERS:
            raise ValueError(f"tier must be {'|'.join(TIERS)}, got {tier!r}")
        #: the engine switch: "interpreted" runs the tree-walking
        #: executor (the parity tests' reference), "lowered" the
        #: compiled closures alone, "slab" additionally takes every
        #: eligible nest over as vectorized slab kernels, and "auto"
        #: does so only where the compiled TierPlan predicts a win —
        #: cost-driven selection that never regresses below "lowered"
        self.tier = tier
        #: structured tracing (repro.obs); the disabled NULL_TRACER by
        #: default, so hot paths pay one attribute load and one branch
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: metrics registry filled by :meth:`collect_metrics` at the end
        #: of :meth:`run` (None: no collection)
        self.metrics = metrics
        self._fast: FastPath | None = None
        #: dynamic statement instances executed as slabs vs one at a
        #: time — the bench's eligibility-coverage metric
        self.slab_instances = 0
        self.interp_instances = 0
        #: loop ids the TierPlan approved for slab takeover (None: no
        #: plan consulted — every eligible nest may be taken)
        self._tier_approved: set[int] | None = None
        if tier == "auto":
            self._tier_approved = compiled.tierplan.slab_loops()
        #: runtime record, loop id -> engine that actually ran the nest
        #: ("slab" | "lowered"), exported via canonical_stats()/metrics
        self.tier_decisions: dict[int, str] = {}
        self.proc = compiled.proc
        self.grid = compiled.grid
        self.machine = machine or compiled.options.machine
        #: every rank's arrays; a rank's memory is its row of each
        self.store = ArrayStore(self.proc, self.grid.size)
        self.memories = [
            NodeMemory(r, self.proc, self.store) for r in self.grid.all_ranks()
        ]
        # float clocks over a MachineModel; over a VectorMachine
        # (repro.machine.batchexec) one lane per swept machine variant,
        # all charged in this one run
        self.clocks = Clocks(self.grid.size, self.machine)
        self.stats = TrafficStats()
        self.authoritative = _AuthoritativeReader(self)
        #: (stmt_id, ref_id) -> CommEvent, for fetch coalescing; when
        #: message combining merged/deduped events, every absorbed
        #: (stmt, ref) pair still resolves to the combined event
        self._events: dict[tuple[int, int], CommEvent] = {}
        for e in compiled.comm.events:
            self._events[(e.stmt.stmt_id, e.ref.ref_id)] = e
            for absorbed in list(e.aliases) + list(e.combined_with):
                self._events[(absorbed.stmt.stmt_id, absorbed.ref.ref_id)] = e
        # Hand-built reports (tests, custom pipelines) may not have run
        # CommAnalysis; give any unassigned event a deterministic
        # ordinal from the report's own order so coalescing keys never
        # fall back to object identity.
        next_ordinal = (
            max((e.ordinal for e in compiled.comm.events), default=-1) + 1
        )
        for e in compiled.comm.events:
            if e.ordinal < 0:
                e.ordinal = next_ordinal
                next_ordinal += 1
        #: (stmt_id, ref_id) -> (event or None, its hoisted loop vars)
        self._fetch_meta_of: dict[tuple[int, int], tuple] = {}
        #: the coalescing keys of every message sent so far — all three
        #: tiers build them with :meth:`_coalesce_key`
        self._fetch_keys_seen: set = set()
        #: loop indices currently iterating (a position form referencing
        #: an inactive loop's index spans the whole dimension)
        self._active_loop_vars: dict[str, int] = {}
        #: reduction bookkeeping
        self._reduction_updates: dict[int, tuple] = {}
        self._reductions_by_loop: dict[int, list] = {}
        #: (loop, name) at loop entry: rank -> scalar, or the array buffer's copy
        self._reduction_snapshots: dict[tuple, dict | np.ndarray] = {}
        #: executor-set caches: per-statement "runs everywhere" flag and
        #: position-form-value -> rank list (satellite: stop rebuilding
        #: the itertools product on every statement instance)
        self._all_ranks = list(self.grid.all_ranks())
        self._exec_everywhere: dict[int, bool] = {}
        self._ranks_cache: dict[tuple, list[int]] = {}
        self._index_reductions()
        # Every array starts zero-filled (matching the sequential
        # interpreter's global store) and valid where the rank owns it;
        # set_array overwrites the contents afterwards.
        for name, valid in self.store.valid.items():
            valid[...] = ownership_masks(self.compiled.mappings[name])

    # ==================================================================
    # Setup
    # ==================================================================

    def _index_reductions(self) -> None:
        array_reductions = getattr(
            self.compiled.scalar_pass, "array_reductions", {}
        )
        for reduction in self.compiled.ctx.reductions:
            update = reduction.update_stmts[0]
            if reduction.is_array_reduction:
                entry = array_reductions.get(update.stmt_id)
                if entry is None:
                    continue
                _, mapping = entry
                self._reduction_updates[update.stmt_id] = (reduction, mapping)
                self._reductions_by_loop.setdefault(
                    reduction.loop.stmt_id, []
                ).append((reduction, mapping))
                continue
            d = self.compiled.ctx.ssa.def_of_assignment(update)
            mapping = (
                self.compiled.scalar_pass.decisions.get(d.def_id) if d else None
            )
            if not isinstance(mapping, (ReductionMapping, FullyReplicatedReduction)):
                continue
            for stmt in reduction.update_stmts:
                self._reduction_updates[stmt.stmt_id] = (reduction, mapping)
            if isinstance(mapping, ReductionMapping):
                self._reductions_by_loop.setdefault(
                    reduction.loop.stmt_id, []
                ).append((reduction, mapping))

    def set_array(self, name: str, values: np.ndarray) -> None:
        initialize_array(self.memories, self._mapping_of(name), values)

    def run(self):
        if self.tier == "interpreted":
            hooks: ExecutionHooks = _SPMDHooks(self)
            engines = "interpreted"
        else:
            if self._fast is None:
                self._fast = FastPath(self)
            hooks = FastHooks(self._fast)
            engines = "lowered" if self.tier == "lowered" else "lowered+slab"
        walker = Walker(self.proc, hooks)
        with self.tracer.span(
            f"simulate[{engines}]", cat="sim", procs=self.grid.size
        ) as span:
            result = walker.run()
            span.add(
                messages=self.stats.messages,
                slab_instances=self.slab_instances,
                interp_instances=self.interp_instances,
            )
        if self.metrics is not None:
            self.collect_metrics(self.metrics)
        return result

    # ==================================================================
    # Authoritative lookups
    # ==================================================================

    def authoritative_scalar(self, name: str):
        for memory in self.memories:
            if memory.scalar_is_valid(name):
                return memory.scalar_value(name)
        raise SimulationError(f"no valid copy of scalar {name} anywhere")

    def authoritative_array(self, name: str, index: tuple[int, ...]):
        mapping = self.compiled.mappings[name]
        for rank in mapping.owner_ranks(index):
            if self.memories[rank].array_is_valid(name, index):
                return self.memories[rank].array_value(name, index)
        for memory in self.memories:
            if memory.array_is_valid(name, index):
                return memory.array_value(name, index)
        raise SimulationError(f"no valid copy of {name}{index} anywhere")

    # ==================================================================
    # Fetch (modeled communication)
    # ==================================================================

    def _fetch_meta(self, stmt: Stmt, ref_id: int) -> tuple:
        """``(event, hoisted loop variables)`` of a fetching reference:
        the communication event that places its transfer (None when the
        static analysis placed none) and the loops the event is hoisted
        out of — one lookup per reference, then memoized."""
        ref_key = (stmt.stmt_id, ref_id)
        meta = self._fetch_meta_of.get(ref_key)
        if meta is None:
            event = self._events.get(ref_key)
            meta = self._fetch_meta_of[ref_key] = (
                event, () if event is None else hoisted_loop_vars(event, stmt)
            )
        return meta

    def _coalesce_key(self, stmt: Stmt, ref_id: int, src: int, dst: int,
                      env) -> tuple:
        """The message a fetch belongs to — message vectorization's one
        startup per placement instance.  Every tier builds its keys
        here, so the shapes in ``_fetch_keys_seen`` cannot differ."""
        event, outer = self._fetch_meta(stmt, ref_id)
        if event is None:
            return ("raw", stmt.stmt_id, ref_id, src, dst, tuple(sorted(env.items())))
        # Keyed by the event's stable ordinal so transfers merged by
        # message combining share one startup per placement instance
        # and charging is identical across runs and pickle round-trips.
        return (
            "evt", event.ordinal, src, dst,
            tuple(env.get(name, 0) for name in outer),
        )

    def _charge_fetch(self, stmt: Stmt, ref_id: int, src: int, dst: int,
                      env) -> None:
        """Charge the fetch of one element: its bandwidth, and the
        startup if it opens its message."""
        event, _outer = self._fetch_meta(stmt, ref_id)
        key = self._coalesce_key(stmt, ref_id, src, dst, env)
        startup = key not in self._fetch_keys_seen
        self._fetch_keys_seen.add(key)
        self.clocks.charge_message_amortized(src, dst, 1, startup)
        if startup:
            self.stats.messages += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "msg.startup",
                    cat="comm",
                    src=src,
                    dst=dst,
                    stmt=stmt.stmt_id,
                    event=-1 if event is None else event.ordinal,
                )
        self.stats.record_fetch(
            (stmt.stmt_id, ref_id) if event is not None else None
        )

    def fetch_array(self, rank: int, ref: ArrayElemRef, index, stmt: Stmt, env):
        name = ref.symbol.name
        mapping = self.compiled.mappings[name]
        src = None
        for owner in mapping.owner_ranks(index):
            if self.memories[owner].array_is_valid(name, index):
                src = owner
                break
        if src is None:
            for r, memory in enumerate(self.memories):
                if memory.array_is_valid(name, index):
                    src = r
                    break
        if src is None:
            raise SimulationError(
                f"rank {rank}: {name}{index} requested but no rank holds it "
                f"(statement S{stmt.stmt_id})"
            )
        value = self.memories[src].array_value(name, index)
        self.memories[rank].array_store(name, index, value)
        self._charge_fetch(stmt, ref.ref_id, src, rank, env)
        return value

    def fetch_scalar(self, rank: int, ref: ScalarRef, stmt: Stmt, env):
        name = ref.symbol.name
        src = None
        for r, memory in enumerate(self.memories):
            if memory.scalar_is_valid(name):
                src = r
                break
        if src is None:
            raise SimulationError(
                f"rank {rank}: scalar {name} requested but no rank holds it "
                f"(statement S{stmt.stmt_id})"
            )
        value = self.memories[src].scalar_value(name)
        self.memories[rank].scalar_store(name, value)
        self._charge_fetch(stmt, ref.ref_id, src, rank, env)
        return value

    # ==================================================================
    # Executor sets
    # ==================================================================

    def _eval_form(self, form: AffineForm, env) -> int | None:
        """Evaluate an affine position form; None when some variable has
        no value yet (e.g. the index of a loop that has not started —
        the position then spans the whole dimension)."""
        total = form.const
        for symbol, coeff in form.coeffs:
            if symbol.is_loop_var and symbol.name not in self._active_loop_vars:
                return None  # inactive loop index: spans the dimension
            if symbol.name in env:
                value = env[symbol.name]
            elif symbol.value is not None:
                value = symbol.value
            else:
                value = None
                for memory in self.memories:
                    if memory.scalar_is_valid(symbol.name):
                        value = memory.scalar_value(symbol.name)
                        break
                if value is None:
                    return None
            total += coeff * int(value)
        return total

    def _position_form_values(self, position, env) -> tuple[int | None, ...]:
        return tuple(
            self._eval_form(dim.form, env)
            if dim.kind == "pos" and dim.form is not None and dim.fmt is not None
            else None
            for dim in position
        )

    def _position_ranks(
        self, position, values: tuple[int | None, ...]
    ) -> list[int]:
        axes: list[list[int]] = []
        for g, dim in enumerate(position):
            pos = values[g]
            if pos is not None:
                axes.append([dim.fmt.owner(pos)])
            else:
                axes.append(list(range(self.grid.shape[g])))
        return [self.grid.rank_of(c) for c in itertools.product(*axes)]

    def _ranks_of_position(self, position, env) -> list[int]:
        return self._position_ranks(position, self._position_form_values(position, env))

    def _runs_everywhere(self, stmt: Stmt) -> bool:
        """Reduction-variable statements outside the update set (the
        initialization of the privatized temporary) run everywhere;
        static per statement, so computed once."""
        cached = self._exec_everywhere.get(stmt.stmt_id)
        if cached is not None:
            return cached
        everywhere = False
        if (
            isinstance(stmt, AssignStmt)
            and isinstance(stmt.lhs, ScalarRef)
            and stmt.stmt_id not in self._reduction_updates
        ):
            d = self.compiled.ctx.ssa.def_of_lhs.get(stmt.lhs.ref_id)
            mapping = (
                self.compiled.scalar_pass.decisions.get(d) if d is not None else None
            )
            everywhere = isinstance(mapping, ReductionMapping)
        self._exec_everywhere[stmt.stmt_id] = everywhere
        return everywhere

    def executor_ranks(self, stmt: Stmt, env) -> list[int]:
        info = self.compiled.executors[stmt.stmt_id]
        if self._runs_everywhere(stmt) or info.kind == "all":
            return self._all_ranks
        # Cache on the evaluated position forms: statement instances in
        # different iterations of hoisted-out loops share one entry.
        values = self._position_form_values(info.position, env)
        key = (stmt.stmt_id, values)
        ranks = self._ranks_cache.get(key)
        if ranks is None:
            ranks = self._position_ranks(info.position, values)
            self._ranks_cache[key] = ranks
        return ranks

    # ==================================================================
    # Statement execution
    # ==================================================================

    def _flops(self, stmt: Stmt) -> int:
        if isinstance(stmt, AssignStmt):
            return max(flops_of_expr(stmt.rhs), 1)
        if isinstance(stmt, IfStmt):
            return max(flops_of_expr(stmt.cond), 1)
        return 0

    def exec_assign(self, stmt: AssignStmt, env) -> None:
        ranks = self.executor_ranks(stmt, env)
        if not ranks:
            raise SimulationError(f"S{stmt.stmt_id}: empty executor set")
        reduction_entry = self._reduction_updates.get(stmt.stmt_id)
        is_private_accumulation = reduction_entry is not None

        if isinstance(stmt.lhs, ArrayElemRef):
            name = stmt.lhs.symbol.name
            written_index = None
            for rank in ranks:
                reader = _FetchingReader(self, rank, stmt)
                index = eval_subscripts(stmt.lhs, reader, env)
                value = eval_expr(stmt.rhs, reader, env)
                value = coerce_store(value, stmt.lhs.symbol.type)
                self.memories[rank].array_store(name, index, value)
                self.clocks.charge_compute(rank, self._flops(stmt))
                written_index = index
            if written_index is not None and not is_private_accumulation:
                # Batched invalidation: one offset computation and a
                # direct mask write per non-executor rank, instead of
                # per-element accessor calls.
                executing = set(ranks)
                off = self.memories[0].offset(name, written_index)
                for rank in self._all_ranks:
                    if rank not in executing:
                        self.memories[rank].valid[name][off] = False
        else:
            name = stmt.lhs.symbol.name
            for rank in ranks:
                reader = _FetchingReader(self, rank, stmt)
                value = eval_expr(stmt.rhs, reader, env)
                value = coerce_store(value, stmt.lhs.symbol.type)
                self.memories[rank].scalar_store(name, value)
                self.clocks.charge_compute(rank, self._flops(stmt))
            if not is_private_accumulation and len(ranks) < self.grid.size:
                executing = set(ranks)
                for rank in self._all_ranks:
                    if rank not in executing:
                        self.memories[rank].scalar_invalidate(name)

    def exec_condition(self, stmt: IfStmt, env) -> bool:
        decision = self.compiled.cf_decisions.get(stmt.stmt_id)
        if decision is not None and decision.privatized:
            ranks = self._dependent_ranks(decision, env)
        else:
            ranks = list(self.grid.all_ranks())
        if not ranks:
            # Nobody depends on the outcome; evaluate for control flow
            # only (free).
            return bool(eval_expr(stmt.cond, self.authoritative, env))
        results = set()
        for rank in ranks:
            reader = _FetchingReader(self, rank, stmt)
            value = bool(eval_expr(stmt.cond, reader, env))
            self.clocks.charge_compute(rank, self._flops(stmt))
            results.add(value)
        if len(results) != 1:
            raise SimulationError(
                f"S{stmt.stmt_id}: predicate disagrees across processors"
            )
        return results.pop()

    def _dependent_ranks(self, decision, env) -> list[int]:
        ranks: set[int] = set()
        for ref in decision.dependent_refs:
            dep_stmt = self.proc.stmt_of_ref(ref)
            ranks.update(self.executor_ranks(dep_stmt, env))
        return sorted(ranks)

    # ==================================================================
    # Reductions
    # ==================================================================

    def _participant_groups(self, mapping: ReductionMapping, env):
        """Groups of ranks combining together: the aligned (non-reduced)
        coordinates are fixed by the target's position; the reduction
        dims span all coordinates."""
        target_mapping = self.compiled.mappings[mapping.target.symbol.name]
        axes: list[list[int]] = []
        for g in range(self.grid.rank):
            if g in mapping.replicated_grid_dims:
                axes.append(list(range(self.grid.shape[g])))
                continue
            role = target_mapping.roles[g]
            if role.kind != "dist":
                axes.append(list(range(self.grid.shape[g])))
                continue
            sub = mapping.target.subscripts[role.array_dim]
            from ..ir.expr import affine_form

            form = affine_form(sub)
            if form is None:
                axes.append(list(range(self.grid.shape[g])))
                continue
            pos = role.stride * self._eval_form(form, env) + role.norm_offset
            axes.append([role.fmt.owner(pos)])
        ranks = [self.grid.rank_of(c) for c in itertools.product(*axes)]
        return [sorted(ranks)]

    def on_loop_enter(self, stmt: LoopStmt, env) -> None:
        var_name = stmt.var.name
        self._active_loop_vars[var_name] = (
            self._active_loop_vars.get(var_name, 0) + 1
        )
        for reduction, mapping in self._reductions_by_loop.get(stmt.stmt_id, ()):
            key = (stmt.stmt_id, reduction.symbol.name)
            name = reduction.symbol.name
            if reduction.is_array_reduction:
                self._reduction_snapshots[key] = self.store.data[name].copy()
            else:
                snapshot: dict[int, float] = {}
                for memory in self.memories:
                    if memory.scalar_is_valid(name):
                        snapshot[memory.rank] = memory.scalar_value(name)
                self._reduction_snapshots[key] = snapshot

    def on_loop_exit(self, stmt: LoopStmt, env) -> None:
        var_name = stmt.var.name
        count = self._active_loop_vars.get(var_name, 0) - 1
        if count <= 0:
            self._active_loop_vars.pop(var_name, None)
        else:
            self._active_loop_vars[var_name] = count
        for reduction, mapping in self._reductions_by_loop.get(stmt.stmt_id, ()):
            if reduction.is_array_reduction:
                self._combine_array(reduction, mapping, stmt, env)
            else:
                self._combine(reduction, mapping, stmt, env)

    def _combine_array(
        self, reduction, mapping: ReductionMapping, loop: LoopStmt, env
    ) -> None:
        """Element-wise combine of an array-valued reduction at the
        reduction loop's exit (paper Section 3.1): for each accumulator
        element, merge the partials held by its owner group."""
        name = reduction.symbol.name
        acc_mapping = self.compiled.mappings[name]
        symbol = acc_mapping.array
        snapshots = self._reduction_snapshots.get((loop.stmt_id, name))
        group_elements: dict[tuple[int, ...], int] = {}
        ranges = [range(lo, hi + 1) for lo, hi in symbol.dims]
        for index in itertools.product(*ranges):
            group = tuple(sorted(acc_mapping.owner_ranks(index)))
            if len(group) <= 1:
                continue
            offset = self.memories[group[0]].offset(name, index)
            partials = []
            for rank in group:
                base = 0.0 if snapshots is None else snapshots[rank][offset]
                value = self.memories[rank].arrays[name][offset]
                partials.append((rank, float(value), float(base)))
            if all(v == b for _, v, b in partials):
                continue  # untouched element
            if reduction.op == "+":
                combined = partials[0][2] + sum(v - b for _, v, b in partials)
            elif reduction.op == "*":
                combined = partials[0][2]
                for _, v, b in partials:
                    if b == 0:
                        raise SimulationError(
                            "array product reduction from zero base"
                        )
                    combined *= v / b
            elif reduction.op == "MAX":
                combined = max(v for _, v, _ in partials)
            elif reduction.op == "MIN":
                combined = min(v for _, v, _ in partials)
            else:
                raise SimulationError(
                    f"unknown array reduction op {reduction.op}"
                )
            for rank in group:
                self.memories[rank].array_store(name, index, combined)
            group_elements[group] = group_elements.get(group, 0) + 1
        for group, elements in group_elements.items():
            self.clocks.charge_collective(list(group), elements, "reduce")
            self.stats.reductions += 1

    def _combine(self, reduction, mapping: ReductionMapping, loop: LoopStmt, env) -> None:
        name = reduction.symbol.name
        snapshot = self._reduction_snapshots.get((loop.stmt_id, name), {})
        for group in self._participant_groups(mapping, env):
            partials = []
            for rank in group:
                memory = self.memories[rank]
                if memory.scalar_is_valid(name):
                    partials.append((rank, memory.scalar_value(name)))
            if not partials:
                continue
            if reduction.op == "+":
                base = snapshot.get(partials[0][0], 0.0)
                combined = base + sum(v - snapshot.get(r, base) for r, v in partials)
                loc_value = None
            elif reduction.op == "*":
                base = snapshot.get(partials[0][0], 1.0)
                combined = base
                for r, v in partials:
                    prev = snapshot.get(r, base)
                    if prev == 0:
                        raise SimulationError("product reduction from zero base")
                    combined *= v / prev
                loc_value = None
            elif reduction.op in ("MAX", "MAXLOC"):
                best_rank, combined = max(partials, key=lambda t: t[1])
                loc_value = self._location_of(reduction, best_rank)
            elif reduction.op in ("MIN", "MINLOC"):
                best_rank, combined = min(partials, key=lambda t: t[1])
                loc_value = self._location_of(reduction, best_rank)
            else:
                raise SimulationError(f"unknown reduction op {reduction.op}")
            if len(group) > 1:
                self.clocks.charge_collective(group, 1, "reduce")
                self.stats.reductions += 1
            for rank in self.grid.all_ranks():
                memory = self.memories[rank]
                if rank in group:
                    memory.scalar_store(name, combined)
                    if loc_value is not None and reduction.location_symbol is not None:
                        memory.scalar_store(reduction.location_symbol.name, loc_value)
                else:
                    memory.scalar_invalidate(name)
                    if reduction.location_symbol is not None:
                        memory.scalar_invalidate(reduction.location_symbol.name)

    def _location_of(self, reduction, rank: int):
        if reduction.location_symbol is None:
            return None
        memory = self.memories[rank]
        loc_name = reduction.location_symbol.name
        if memory.scalar_is_valid(loc_name):
            return memory.scalar_value(loc_name)
        return None

    # ==================================================================
    # Results
    # ==================================================================

    def _mapping_of(self, name: str):
        mapping = self.compiled.mappings.get(name.upper())
        if mapping is None:
            raise SimulationError(
                f"no array {name!r}: the program declares "
                f"{sorted(self.compiled.mappings)}"
            )
        return mapping

    def gather(self, name: str) -> np.ndarray:
        """Reassemble the global array (vectorized
        ``authoritative_array`` over the whole index space: each element
        comes from its lowest-ranked valid owner, else from the
        lowest-ranked valid copy anywhere — the interpreted element-wise
        lookup order, so the result is bit-identical)."""
        mapping = self._mapping_of(name)
        symbol = mapping.array
        data = self.store.data[symbol.name]
        valid = self.store.valid[symbol.name]
        # argmax over the rank axis is the first rank with the best
        # score: 2 a valid owner, 1 a valid copy
        score = valid.view(np.int8) + (valid & ownership_masks(mapping))
        source = score.argmax(axis=0)
        held = valid.any(axis=0)
        if not held.all():
            offset = np.unravel_index(int(np.argmin(held)), held.shape)
            index = tuple(int(o) + lo for o, (lo, _) in zip(offset, symbol.dims))
            raise SimulationError(f"no valid copy of {symbol.name}{index} anywhere")
        return np.take_along_axis(data, source[None], axis=0)[0]

    def gather_scalar(self, name: str):
        return self.authoritative_scalar(name.upper())

    @property
    def elapsed(self) -> float:
        return self.clocks.elapsed

    @property
    def slab_coverage(self) -> float:
        """Fraction of dynamic statement instances executed as slabs."""
        total = self.slab_instances + self.interp_instances
        return self.slab_instances / total if total else 0.0

    def canonical_stats(self) -> dict:
        """Clocks + traffic stats as a JSON payload whose keys are
        stable across *compiles* of the same source: per-event fetch
        counts are grouped on the stable event ordinal instead of the
        process-global stmt/ref ids (which drift when one process
        parses the program twice).  The CI determinism gate
        byte-compares two of these."""
        stats = self.stats.as_dict()
        per_event: dict[str, int] = {}
        for (sid, rid), count in sorted(self.stats.per_event_fetches.items()):
            event = self._events.get((sid, rid))
            key = "unplaced" if event is None else f"evt{event.ordinal:04d}"
            per_event[key] = per_event.get(key, 0) + count
        stats["per_event_fetches"] = dict(sorted(per_event.items()))
        # Tier decisions keyed on the loop's pre-order ordinal — like
        # the event ordinals, stable across compiles of one source
        # (stmt ids are process-global and drift).
        ordinals = {
            s.stmt_id: i
            for i, s in enumerate(
                s for s in self.proc.all_stmts() if isinstance(s, LoopStmt)
            )
        }
        tiers = {
            f"L{ordinals[sid]:02d}": choice
            for sid, choice in self.tier_decisions.items()
            if sid in ordinals
        }
        return {
            "procs": self.grid.size,
            "clocks": self.clocks.snapshot(),
            "stats": stats,
            "tiers": dict(sorted(tiers.items())),
        }

    def collect_metrics(self, metrics: Metrics | None = None) -> Metrics:
        """Fill ``metrics`` from the run's accumulated state.

        Batch collection, not hot-path recording: everything here is
        derived from statistics the simulator keeps anyway (the
        coalescing key set, ``TrafficStats``, the tier counters), so a
        metrics-enabled run charges exactly like a plain one.
        Idempotent — totals land in gauges and the per-event
        distributions are rebuilt, so calling it twice (or after a
        second ``run``) never double-counts.
        """
        m = metrics if metrics is not None else (self.metrics or Metrics())
        m.gauge("sim.procs", self.grid.size)
        m.gauge("sim.elapsed", self.elapsed)
        m.gauge("sim.slab_instances", self.slab_instances)
        m.gauge("sim.interp_instances", self.interp_instances)
        m.gauge("sim.slab_coverage", round(self.slab_coverage, 6))
        m.gauge(f"tier.mode[{self.tier}]", 1)
        for sid, choice in sorted(self.tier_decisions.items()):
            m.gauge(f"tier.decision[loop=S{sid},choice={choice}]", 1)
        for name, value in self.stats.as_dict().items():
            if isinstance(value, (int, float)):
                m.gauge(f"sim.{name}", value)
        # One physical message (one startup) per distinct coalescing
        # key; group them by event ordinal for the per-placement-
        # instance distribution.
        per_event_messages: dict[int, int] = {}
        for key in self._fetch_keys_seen:
            if key[0] == "evt":
                ordinal = key[1]
                per_event_messages[ordinal] = (
                    per_event_messages.get(ordinal, 0) + 1
                )
        m.histograms.pop("sim.messages_per_event", None)
        for ordinal in sorted(per_event_messages):
            m.observe("sim.messages_per_event", per_event_messages[ordinal])
        m.histograms.pop("sim.elements_per_event", None)
        for key in sorted(self.stats.per_event_fetches):
            m.observe(
                "sim.elements_per_event", self.stats.per_event_fetches[key]
            )
        return m


def simulate(
    compiled: CompiledProgram,
    inputs: dict[str, np.ndarray] | None = None,
    machine: MachineModel | None = None,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    tier: str = "slab",
) -> SPMDSimulator:
    sim = SPMDSimulator(
        compiled, machine, tracer=tracer, metrics=metrics, tier=tier
    )
    for name, values in (inputs or {}).items():
        sim.set_array(name, values)
    sim.run()
    return sim
