"""The batched sweep fast path: one evaluation per *batch* of points.

A sweep grid typically varies three kinds of axis:

* **machine parameters** (alpha/beta/flop rate ablations) — these
  never influence execution, only the ``dt`` values charged to the
  virtual clocks, so all such points share one instruction stream;
* **processor count** — this changes the compiled program (and hence
  the instruction stream), but the per-procs runs of one program are
  the *same experiment* at different widths: they become *procs
  sub-groups* of one batch, sharing planning and compile dedup;
* **other compiler options / measurement mode** — these change the
  experiment itself; compile-mode points never batch at all.

:func:`plan_batches` partitions a job list accordingly: jobs that
simulate (or estimate) the same ``(program, seed,
options-minus-machine-minus-procs)`` point form one *batch*.  Within a
batch, lanes split into procs sub-groups — runs sharing one compiled
program — whose lanes differ only in ``options.machine``.
:func:`run_batched` compiles each sub-group once, evaluates
all its machine lanes in a single lane-vector simulation, reads each
lane's payload straight off that sub-simulation's
:class:`~repro.machine.stats.Clocks`, and stitches per-lane
:class:`~repro.sweep.spec.SweepResult` records back in grid order —
byte-identical to what a dedicated per-point run would have produced.
An estimate-mode sub-group is one
:class:`~repro.perf.estimator.PerfEstimator` pass over the
:class:`~repro.machine.batchexec.VectorMachine` of its machine lanes:
the mapping is chosen per processor grid, so the compile — and the
estimate that walks it — is per grid.

Jobs that cannot batch (compile-mode points) are returned to the
caller untouched; :func:`repro.sweep.engine.run_sweep` sends them down
the ordinary per-job path.  The degrade ladder
never loses a grid point: a sub-group whose compile or vectorized
evaluation fails runs its lanes per-lane in-process.
"""

from __future__ import annotations

import copy
import dataclasses
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from ..core.diskcache import CompileCache, options_signature
from ..core.driver import CompiledProgram, compile_cached
from ..core.passes import PassManager
from ..model import SP2
from ..obs import Metrics, Tracer
from .spec import SweepJob, SweepResult

#: job modes the batched evaluator understands
BATCHABLE_MODES = ("simulate", "estimate")


def _active_failure(rung: str) -> str:
    """``"<rung>: <exception summary> at <file:line>"`` for the
    exception currently being handled — the ``fallback_reason`` carried
    on every :class:`SweepResult` a degrade rung touches."""
    import sys

    etype, exc, tb = sys.exc_info()
    summary = traceback.format_exception_only(etype, exc)[-1].strip()
    frames = traceback.extract_tb(tb)
    where = ""
    if frames:
        last = frames[-1]
        where = f" at {last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
    return f"{rung}: {summary}{where}"


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """One vectorized evaluation unit: jobs of one experiment whose
    lanes differ only in ``options.machine`` and the processor count,
    with their positions in the original job list."""

    indices: list[int]
    jobs: list[SweepJob]

    def __len__(self) -> int:
        return len(self.jobs)

    def subgroups(self) -> list[list[int]]:
        """Lane positions partitioned into procs sub-groups: lanes
        sharing one compiled program (same source, same options up to
        the machine), in first-seen lane order.  Each sub-group is one
        compile + one lane-vector simulation; a single-procs batch has
        exactly one."""
        groups: dict[tuple, list[int]] = {}
        for lane, job in enumerate(self.jobs):
            neutral = dataclasses.replace(job.options, machine=SP2)
            key = (job.source, options_signature(neutral))
            groups.setdefault(key, []).append(lane)
        return list(groups.values())


def batch_key(job: SweepJob) -> tuple:
    """The grouping key: everything that changes the *experiment*.
    Machine parameters are normalized away (they become lanes) and so
    is the processor count (per-procs runs become sub-groups of one
    batch); the options signature is the same canonical closure the
    compile cache keys on.  The program *name* stands in for the source
    because callable program specs re-emit source text per procs value
    — the per-procs sources regroup into sub-groups inside the batch."""
    neutral = dataclasses.replace(job.options, machine=SP2, num_procs=None)
    return (job.program, job.seed, job.mode, options_signature(neutral))


def plan_batches(
    jobs: list[SweepJob],
) -> tuple[list[Batch], list[int]]:
    """Partition ``jobs`` into vectorizable batches and the indices of
    everything else (pool work).  Every job lands in exactly one place;
    batches preserve first-seen grid order."""
    batches: dict[tuple, Batch] = {}
    leftover: list[int] = []
    for index, job in enumerate(jobs):
        if job.mode not in BATCHABLE_MODES:
            leftover.append(index)
            continue
        key = batch_key(job)
        batch = batches.get(key)
        if batch is None:
            batches[key] = Batch(indices=[index], jobs=[job])
        else:
            batch.indices.append(index)
            batch.jobs.append(job)
    return list(batches.values()), leftover


def _sub_batch(batch: Batch, lanes: list[int]) -> Batch:
    """The view of one procs sub-group as a batch of its own."""
    return Batch(
        indices=[batch.indices[i] for i in lanes],
        jobs=[batch.jobs[i] for i in lanes],
    )


# ---------------------------------------------------------------------------
# Shared with the engine: result bookkeeping, compile dedup
# ---------------------------------------------------------------------------


def record_result(
    result: SweepResult,
    *,
    tracer: Tracer,
    metrics: Metrics | None,
    on_result: Callable[[SweepResult], None] | None,
) -> None:
    """The bookkeeping every finished grid point gets, whichever path
    evaluated it (serial loop, pool coordinator, in-process fallback,
    batch): outcome/cache counters, the ``sweep.job`` trace instant,
    and the caller's streaming callback."""
    if metrics is not None:
        metrics.inc("sweep.jobs_ok" if result.ok else "sweep.jobs_failed")
        if result.cache_hit:
            metrics.inc("sweep.cache_hits")
        if result.compile_dedup:
            metrics.inc("sweep.compile_dedup")
    tracer.instant(
        "sweep.job",
        cat="sweep",
        label=result.label,
        ok=result.ok,
        attempts=result.attempts,
        worker=result.worker,
        cache_hit=result.cache_hit,
        duration_s=round(result.duration_s, 6),
    )
    if on_result is not None:
        on_result(result)


def compile_with_memo(
    job: SweepJob,
    *,
    manager: PassManager,
    cache: CompileCache | None,
    memo: dict | None,
) -> tuple[CompiledProgram, bool, bool]:
    """Compile ``job`` through the optional in-run memo table and the
    optional persistent cache.  Returns ``(compiled, cache_hit,
    deduped)`` — ``deduped`` means no compile work ran at all.

    ``memo`` keys on the exact ``(source, options signature)``."""
    key = (job.source, options_signature(job.options))
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit, False, True
    compiled, cache_hit = compile_cached(job.source, job.options, manager, cache)
    if memo is not None:
        memo[key] = compiled
    return compiled, cache_hit, False


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------


def _simulate_lanes(batch: Batch, compiled: CompiledProgram):
    """One lane-vector simulation of a procs sub-group: every machine
    lane charged in a single tier="auto" run."""
    from ..codegen.seq import seeded_inputs
    from ..machine.batchexec import VectorMachine
    from ..machine.simulator import simulate

    job = batch.jobs[0]
    machine = VectorMachine([j.options.machine for j in batch.jobs])
    inputs = seeded_inputs(compiled.proc, job.seed)
    return simulate(compiled, inputs, machine=machine, tier="auto")


def _simulate_payloads(sim, compiled: CompiledProgram) -> list[dict]:
    """Per-lane simulate-mode payloads of one sub-simulation: the
    clock-derived fields come from lane ``m`` of its clocks, the rest
    is shared by every lane."""
    clocks = sim.clocks
    base = sim.canonical_stats()  # lane-vector "clocks", shared rest
    shared = dict(
        slab_coverage=round(sim.slab_coverage, 6),
        messages=sim.stats.messages,
        fetches=sim.stats.fetches,
        unexpected_fetches=sim.stats.unexpected_fetches,
        grid_size=compiled.grid.size,
    )
    payloads = []
    for lane in range(clocks.lanes):
        stats = {
            "procs": base["procs"],
            "clocks": clocks.lane_snapshot(lane),
            "stats": copy.deepcopy(base["stats"]),
            "tiers": dict(base["tiers"]),
        }
        payloads.append(
            dict(
                shared,
                elapsed=clocks.lane_elapsed(lane),
                canonical_stats=stats,
            )
        )
    return payloads


def _lane_float(value, lane: int) -> float:
    """One lane of a vectorized cost — which stays a plain scalar when
    no machine-dependent term ever touched it (e.g. ``comm_time`` of a
    communication-free program), exactly like the scalar estimator."""
    import numpy as np

    arr = np.asarray(value, dtype=np.float64)
    return float(arr) if arr.ndim == 0 else float(arr[lane])


def _estimate_lanes(batch: Batch, compiled: CompiledProgram) -> list[dict]:
    """One vectorized estimator pass; per-lane estimate payloads."""
    from ..machine.batchexec import VectorMachine
    from ..perf.estimator import PerfEstimator

    machine = VectorMachine([j.options.machine for j in batch.jobs])
    estimate = PerfEstimator(compiled, machine).estimate()
    return [
        dict(
            total_time=_lane_float(estimate.total_time, lane),
            compute_time=_lane_float(estimate.compute_time, lane),
            comm_time=_lane_float(estimate.comm_time, lane),
            grid_size=compiled.grid.size,
        )
        for lane in range(len(batch))
    ]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_batched(
    batches: list[Batch],
    *,
    manager: PassManager,
    cache: CompileCache | None,
    memo: dict | None,
    tracer: Tracer,
    metrics: Metrics | None,
    on_result: Callable[[SweepResult], None] | None = None,
) -> dict[int, SweepResult]:
    """Evaluate every batch, returning results keyed by original job
    index.  A procs sub-group whose compile or vectorized evaluation
    raises falls back to per-lane in-process execution; nothing is
    ever dropped."""
    from .engine import execute_job

    def _inc(name: str, amount: float = 1) -> None:
        if metrics is not None:
            metrics.inc(name, amount)

    results: dict[int, SweepResult] = {}

    def _emit(index: int, result: SweepResult) -> None:
        results[index] = result
        record_result(
            result, tracer=tracer, metrics=metrics, on_result=on_result
        )

    def _fall_back(sub: Batch, rung: str) -> None:
        """A rung of the degrade ladder: run each of the sub-batch's
        lanes the ordinary scalar way, in-process (mirrors the pool's
        serial fallback — the fast path may lose speed, never a
        point).  Every result carries why its batch evaluation failed
        (``fallback_reason``), and the per-rung lane counter makes
        silent degradation visible in metrics."""
        reason = _active_failure(rung)
        _inc("sweep.batched_fallbacks")
        _inc(f"sweep.lane_fallback[reason={rung}]", len(sub.jobs))
        tracer.instant(
            "sweep.batch_fallback",
            cat="sweep",
            label=sub.jobs[0].label,
            rung=rung,
            error=traceback.format_exc(limit=1),
        )
        for index, job in zip(sub.indices, sub.jobs):
            result = execute_job(job, manager=manager, cache=cache, memo=memo)
            result.worker = "batched-fallback"
            result.fallback_reason = reason
            _emit(index, result)

    for batch in batches:
        groups = batch.subgroups()
        with tracer.span(
            "sweep.batch",
            cat="sweep",
            label=batch.jobs[0].label,
            lanes=len(batch),
            procs_groups=len(groups),
        ):
            started = time.perf_counter()
            #: batch lane -> measurement payload / (cache_hit, dedup)
            payloads: dict[int, dict] = {}
            flags: dict[int, tuple[bool, bool]] = {}
            try:
                evaluated = []  # (lanes, sub, compiled, sim|None)
                for lanes in groups:
                    sub = _sub_batch(batch, lanes)
                    try:
                        compiled, cache_hit, deduped = compile_with_memo(
                            sub.jobs[0],
                            manager=manager,
                            cache=cache,
                            memo=memo,
                        )
                        sim = (
                            _simulate_lanes(sub, compiled)
                            if sub.jobs[0].mode == "simulate"
                            else None
                        )
                    except Exception:
                        _fall_back(sub, "lane-eval")
                        continue
                    evaluated.append((lanes, sub, compiled, sim))
                    for pos, lane in enumerate(lanes):
                        flags[lane] = (
                            cache_hit and pos == 0,
                            deduped or pos > 0,
                        )
                if batch.jobs[0].mode == "simulate":
                    for lanes, _sub, compiled, sim in evaluated:
                        payloads.update(
                            zip(lanes, _simulate_payloads(sim, compiled))
                        )
                elif evaluated:
                    payloads = _try_estimates(evaluated, flags, _fall_back)
            except Exception:
                # last-resort rung: planning/extraction bugs degrade
                # whatever has not been emitted yet to per-lane runs
                pending = [
                    i
                    for i in range(len(batch))
                    if batch.indices[i] not in results
                ]
                if pending:
                    _fall_back(_sub_batch(batch, pending), "batch")
                continue
            # the batch's wall clock, amortized over its lanes
            per_lane = (time.perf_counter() - started) / len(batch)
            if payloads:
                _inc("sweep.batched_groups")
                _inc("sweep.batched_lanes", len(payloads))
                if len(groups) > 1:
                    _inc("sweep.procs_fused", len(payloads))
            for lane, (index, job) in enumerate(
                zip(batch.indices, batch.jobs)
            ):
                if lane not in payloads:
                    continue  # emitted by a fallback rung
                cache_hit, deduped = flags.get(lane, (False, False))
                result = job.result(
                    worker="batched",
                    cache_hit=cache_hit,
                    compile_dedup=deduped,
                    duration_s=per_lane,
                    procs_lanes=len(groups),
                )
                for name, value in payloads[lane].items():
                    setattr(result, name, value)
                _emit(index, result)
    return results


def _try_estimates(evaluated, flags, fall_back) -> dict[int, dict]:
    """The estimate-mode ladder: one vectorized estimate per procs
    sub-group, per-lane fallback for a sub-group whose estimator
    raises."""
    payloads: dict[int, dict] = {}
    for lanes, sub, compiled, _sim in evaluated:
        try:
            extracted = _estimate_lanes(sub, compiled)
        except Exception:
            for lane in lanes:
                flags.pop(lane, None)
            fall_back(sub, "estimate")
            continue
        payloads.update(zip(lanes, extracted))
    return payloads
