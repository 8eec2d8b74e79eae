"""SPMD execution on the simulated distributed-memory machine.

Runs a compiled program on P virtual processors with one store of
every rank's copies, validity tracking, and virtual clocks:

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

Two engines execute the statements, picked by ``tier=``: the lowered
closures of :mod:`repro.machine.lowering` run one statement instance
at a time on its executor ranks (``"lowered"``), and the slab plans of
:mod:`repro.machine.slabexec` additionally take whole nests at once
(``"slab"``, or ``"auto"`` where the plan's price predicts a win).  Both
charge through this module's fetch, executor tables and reduction
combine.

The simulator is the semantic referee: its gathered results must match
the sequential interpreter bit-for-bit, for every strategy — that is
what the integration tests assert. Its virtual time is also reported,
but large problem sizes are priced by ``repro.perf`` instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..codegen.evalexpr import ValueReader
from ..codegen.walker import Walker
from ..comm.analysis import hoisted_loop_vars
from ..comm.events import CommEvent
from ..core.driver import CompiledProgram
from ..core.locality import position_of_array_ref
from ..core.mapping_kinds import (
    FullyReplicatedReduction,
    ReductionMapping,
)
from ..errors import SimulationError
from ..ir.expr import ArrayElemRef, ScalarRef
from ..ir.stmt import LoopStmt, Stmt
from ..model import MachineModel
from ..obs import Metrics, NULL_TRACER, Tracer
from .lowering import ExecutorTables, FastPath
from .memory import Store
from .stats import Clocks, TrafficStats


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


#: the engine switch's values: the two forced tiers, then the
#: price-driven per-nest choice
TIERS = ("lowered", "slab", "auto")


class ReductionIndex:
    """The recognized reductions of a compiled program, by statement
    and loop id — a function of the program alone, read alike by the
    simulator, its executor tables and the slab classifier."""

    def __init__(self, compiled: CompiledProgram):
        #: update statement ids of every recognized reduction
        self.recognized = {
            s.stmt_id for red in compiled.ctx.reductions for s in red.update_stmts
        }
        #: update statement id -> (reduction, mapping) of the privatized
        #: ones, and combining loop id -> those it combines at exit
        self.updates: dict[int, tuple] = {}
        self.by_loop: dict[int, list] = {}
        scalar_pass = compiled.scalar_pass
        array_reductions = getattr(scalar_pass, "array_reductions", {})
        for reduction in compiled.ctx.reductions:
            update = reduction.update_stmts[0]
            if reduction.is_array_reduction:
                entry = array_reductions.get(update.stmt_id)
                if entry is None:
                    continue
                _, mapping = entry
                self.updates[update.stmt_id] = (reduction, mapping)
                self.by_loop.setdefault(reduction.loop.stmt_id, []).append(
                    (reduction, mapping)
                )
                continue
            d = compiled.ctx.ssa.def_of_assignment(update)
            mapping = scalar_pass.decisions.get(d.def_id) if d else None
            if not isinstance(mapping, (ReductionMapping, FullyReplicatedReduction)):
                continue
            for stmt in reduction.update_stmts:
                self.updates[stmt.stmt_id] = (reduction, mapping)
            if isinstance(mapping, ReductionMapping):
                self.by_loop.setdefault(reduction.loop.stmt_id, []).append(
                    (reduction, mapping)
                )
        #: reduction-variable statements outside the update set (the
        #: initialization of the privatized temporary) run everywhere
        def_of_lhs = compiled.ctx.ssa.def_of_lhs
        self.everywhere = {
            s.stmt_id
            for s in compiled.proc.assignments()
            if isinstance(s.lhs, ScalarRef)
            and s.stmt_id not in self.updates
            and isinstance(
                scalar_pass.decisions.get(def_of_lhs.get(s.lhs.ref_id)),
                ReductionMapping,
            )
        }

    def runs_everywhere(self, sid: int, info) -> bool:
        """Whether statement ``sid``, of executor ``info``, runs on
        every rank: replicated, or a reduction variable's statement
        outside its update set."""
        return sid in self.everywhere or info.kind == "all"


class SPMDSimulator:
    def __init__(
        self,
        compiled: CompiledProgram,
        machine: MachineModel | None = None,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
        tier: str = "auto",
    ):
        self.compiled = compiled
        if tier not in TIERS:
            raise ValueError(f"tier must be {'|'.join(TIERS)}, got {tier!r}")
        #: the engine switch: "lowered" runs the compiled closures
        #: alone, "slab" additionally takes every eligible nest over as
        #: vectorized slab kernels, and "auto" does so only where the
        #: nest's priced plan predicts a win (``compiled.slabs``) —
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
        #: time by the lowered closures (the second keeps the name it
        #: had when a per-statement interpreter ran them) — the bench's
        #: eligibility-coverage metric
        self.slab_instances = 0
        self.interp_instances = 0
        #: runtime record, loop id -> engine that actually ran the nest
        #: ("slab" | "lowered"), exported via canonical_stats()/metrics
        self.tier_decisions: dict[int, str] = {}
        self.proc = compiled.proc
        self.grid = compiled.grid
        self.machine = machine or compiled.options.machine
        #: every rank's copy of every variable: zero-filled arrays
        #: (matching the sequential interpreter's global store), valid
        #: where the rank owns them; set_array overwrites the contents
        self.store = Store(compiled)
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
        #: the coalescing keys of every message sent so far — every
        #: tier builds them with :meth:`_coalesce_key`
        self._fetch_keys_seen: set = set()
        #: loop indices currently iterating (a position form referencing
        #: an inactive loop's index spans the whole dimension)
        self._active_loop_vars: dict[str, int] = {}
        #: reduction bookkeeping
        self.reductions = ReductionIndex(compiled)
        #: (loop, name) at loop entry: rank -> scalar, or the array buffer's copy
        self._reduction_snapshots: dict[tuple, dict | np.ndarray] = {}
        #: every statement's executor closure and every reduction's
        #: combining group, built at its first request
        self.etables = ExecutorTables(self)
        #: first update statement id -> the reduction's combining group
        self._groups: dict[int, Callable] = {}

    # ==================================================================
    # Setup
    # ==================================================================

    def set_array(self, name: str, values: np.ndarray) -> None:
        self.store.set_array(self._array_name(name), values)

    def run(self):
        if self._fast is None:
            self._fast = FastPath(self)
        engines = "lowered" if self.tier == "lowered" else "lowered+slab"
        walker = Walker(self.proc, self._fast)
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
        rank = self.store.holder(name)
        if rank is None:
            raise SimulationError(f"no valid copy of scalar {name} anywhere")
        return self.store.scalars[name][rank]

    def authoritative_array(self, name: str, index: tuple[int, ...]):
        rank = self.store.source(name, index)
        if rank is None:
            raise SimulationError(f"no valid copy of {name}{index} anywhere")
        return self.store.data[name][self.store.at(name, rank, index)].item()

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
        src = self.store.source(name, index)
        if src is None:
            raise SimulationError(
                f"rank {rank}: {name}{index} requested but no rank holds it "
                f"(statement S{stmt.stmt_id})"
            )
        store = self.store
        data, at = store.data[name], store.at(name, rank, index)
        value = data[store.at(name, src, index)].item()
        data[at] = value
        store.valid[name][at] = True
        self._charge_fetch(stmt, ref.ref_id, src, rank, env)
        return value

    def fetch_scalar(self, rank: int, ref: ScalarRef, stmt: Stmt, env):
        name = ref.symbol.name
        src = self.store.holder(name)
        if src is None:
            raise SimulationError(
                f"rank {rank}: scalar {name} requested but no rank holds it "
                f"(statement S{stmt.stmt_id})"
            )
        values = self.store.scalars[name]
        value = values[rank] = values[src]
        self.store.scalar_valid[name][rank] = True
        self._charge_fetch(stmt, ref.ref_id, src, rank, env)
        return value

    # ==================================================================
    # Reductions
    # ==================================================================

    def _participant_groups(self, reduction, mapping: ReductionMapping,
                            env) -> list[int]:
        """The ranks combining ``reduction``'s partials, ascending: the
        owners of the target's subscripts in the grid dimensions it is
        aligned in, every coordinate in those it spans (paper Fig. 5) —
        the target's forms taken once per reduction."""
        sid = reduction.update_stmts[0].stmt_id
        fn = self._groups.get(sid)
        if fn is None:
            target = mapping.target
            fn = self._groups[sid] = self.etables.closure(
                position_of_array_ref(
                    target, self.compiled.mappings[target.symbol.name]
                ),
                mapping.replicated_grid_dims,
            )
        return fn(env)

    def on_loop_enter(self, stmt: LoopStmt, env) -> None:
        var_name = stmt.var.name
        self._active_loop_vars[var_name] = (
            self._active_loop_vars.get(var_name, 0) + 1
        )
        store = self.store
        for reduction, mapping in self.reductions.by_loop.get(stmt.stmt_id, ()):
            key = (stmt.stmt_id, reduction.symbol.name)
            name = reduction.symbol.name
            if reduction.is_array_reduction:
                self._reduction_snapshots[key] = store.data[name].copy()
            else:
                ok = store.scalar_valid[name]
                self._reduction_snapshots[key] = {
                    r: v for r, v in enumerate(store.scalars[name]) if ok[r]
                }

    def on_loop_exit(self, stmt: LoopStmt, env) -> None:
        var_name = stmt.var.name
        count = self._active_loop_vars.get(var_name, 0) - 1
        if count <= 0:
            self._active_loop_vars.pop(var_name, None)
        else:
            self._active_loop_vars[var_name] = count
        for reduction, mapping in self.reductions.by_loop.get(stmt.stmt_id, ()):
            if reduction.is_array_reduction:
                self._combine_array(reduction, mapping, stmt, env)
            else:
                self._combine(reduction, mapping, stmt, env)

    def _combine_array(
        self, reduction, mapping: ReductionMapping, loop: LoopStmt, env
    ) -> None:
        """Element-wise combine of an array-valued reduction at the
        reduction loop's exit (paper Section 3.1): for each accumulator
        element, merge the partials held by its owner group, element by
        element in array order."""
        name = reduction.symbol.name
        data, valid, size = self.store.flat[name]
        elem = np.arange(size)
        groups = self.store.owner_rows(name, elem)
        if len(groups) <= 1:
            return  # one owner per element: nothing to merge
        at = groups * size + elem
        values = data[at].astype(np.float64)
        snapshot = self._reduction_snapshots.get((loop.stmt_id, name))
        bases = (
            np.zeros_like(values) if snapshot is None
            else snapshot.reshape(-1)[at].astype(np.float64)
        )
        group_elements: dict[tuple[int, ...], int] = {}
        # an element whose every partial equals its base is untouched
        for e in np.flatnonzero((values != bases).any(axis=0)).tolist():
            group = tuple(groups[:, e].tolist())
            partials = list(
                zip(group, values[:, e].tolist(), bases[:, e].tolist())
            )
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
            data[at[:, e]] = combined
            valid[at[:, e]] = True
            group_elements[group] = group_elements.get(group, 0) + 1
        for group, elements in group_elements.items():
            self.clocks.charge_collective(list(group), elements, "reduce")
            self.stats.reductions += 1

    def _combine(self, reduction, mapping: ReductionMapping, loop: LoopStmt, env) -> None:
        name = reduction.symbol.name
        store = self.store
        values, valid = store.scalars[name], store.scalar_valid[name]
        location = reduction.location_symbol
        snapshot = self._reduction_snapshots.get((loop.stmt_id, name), {})
        group = self._participant_groups(reduction, mapping, env)
        partials = [(rank, values[rank]) for rank in group if valid[rank]]
        if not partials:
            return
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
        for rank in group:
            values[rank] = combined
            valid[rank] = True
        store.scalar_keep(name, group)
        if location is not None:
            if loc_value is not None:
                for rank in group:
                    store.scalars[location.name][rank] = loc_value
                    store.scalar_valid[location.name][rank] = True
            store.scalar_keep(location.name, group)

    def _location_of(self, reduction, rank: int):
        if reduction.location_symbol is None:
            return None
        loc_name = reduction.location_symbol.name
        if self.store.scalar_valid[loc_name][rank]:
            return self.store.scalars[loc_name][rank]
        return None

    # ==================================================================
    # Results
    # ==================================================================

    def _array_name(self, name: str) -> str:
        if name.upper() not in self.store.data:
            raise SimulationError(
                f"no array {name!r}: the program declares "
                f"{sorted(self.store.data)}"
            )
        return name.upper()

    def gather(self, name: str) -> np.ndarray:
        """Reassemble the global array: ``authoritative_array`` over the
        whole index space, every element from the store's source of a
        read of it."""
        name = self._array_name(name)
        store = self.store
        data, _valid, size = store.flat[name]
        shape = store.data[name].shape[1:]
        elem = np.arange(size)
        src, _owners = store.sources(name, elem)
        if (src < 0).any():
            offset = np.unravel_index(int(np.argmax(src < 0)), shape)
            index = tuple(int(o) + lo for o, lo in zip(offset, store.lows[name]))
            raise SimulationError(f"no valid copy of {name}{index} anywhere")
        return data.take(src * size + elem).reshape(shape)

    def gather_scalar(self, name: str):
        if name.upper() not in self.store.scalars:
            raise SimulationError(
                f"no scalar {name!r}: the program declares "
                f"{sorted(self.store.scalars)}"
            )
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
    tier: str = "auto",
) -> SPMDSimulator:
    sim = SPMDSimulator(
        compiled, machine, tracer=tracer, metrics=metrics, tier=tier
    )
    for name, values in (inputs or {}).items():
        sim.set_array(name, values)
    sim.run()
    return sim
