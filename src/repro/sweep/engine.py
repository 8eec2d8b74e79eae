"""The sweep engine: fan a job grid out over worker processes.

``run_sweep`` executes :class:`~repro.sweep.spec.SweepJob` records —
serially in-process, or on a pool of worker processes — and returns
one :class:`~repro.sweep.spec.SweepResult` per job, in job order.
Results also *stream*: an ``on_result`` callback fires as each point
completes, so long grids report progress instead of going dark.

The pool is the job queue's claim loop run by local children
(:mod:`repro.jobqueue`), not a mechanism of its own: the coordinator
submits the jobs to a temporary queue, one shard per point, starts the
workers and tails the event log.  What follows is the queue's
protocol, seen from a sweep:

* a worker holds **one point at a time** under a lease, so a dead or
  hung worker forfeits exactly one point;
* a worker that **crashes** is reaped and its point is reclaimable at
  once; one that outlives its lease (``timeout`` seconds per point) is
  killed; either way the point is handed out again, up to ``retries``
  extra times;
* a point whose claims are used up comes back *abandoned*, and the
  coordinator **runs it in-process** — a poisoned pool can slow a
  sweep down, but it cannot lose a grid point;
* a job that raises an ordinary exception (compile error, bad source)
  fails *fast*: deterministic errors are reported, not retried.

Every compile goes through the optional persistent
:class:`~repro.core.diskcache.CompileCache`, shared by path across
workers (stores are atomic), so a warm sweep skips the pass pipeline
at every point.  Pool activity and cache traffic land in a
:class:`repro.obs.Metrics` registry; per-job completion events land in
the :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

import os
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.diskcache import CompileCache, as_compile_cache
from ..core.passes import PassManager
from ..jobqueue import ABANDONED, JobQueue, LocalWorkers, make_owner, work
from ..obs import Metrics, NULL_TRACER, Tracer
from .batched import (
    compile_with_memo,
    estimate_record,
    plan_batches,
    record_result,
    run_batched,
    simulate_record,
)
from .spec import SweepJob, SweepResult, SweepSpec


# ---------------------------------------------------------------------------
# In-process execution of one job
# ---------------------------------------------------------------------------


def _measure_payload(job: SweepJob, compiled) -> dict:
    """Run the job's measurement mode over the compiled program."""
    if job.mode == "estimate":
        from ..perf.estimator import PerfEstimator

        return estimate_record(PerfEstimator(compiled).estimate(), compiled)
    if job.mode == "simulate":
        from ..codegen.seq import seeded_inputs
        from ..machine.simulator import simulate

        inputs = seeded_inputs(compiled.proc, job.seed)
        sim = simulate(compiled, inputs)
        return simulate_record(sim, compiled, sim.canonical_stats())
    return {"grid_size": compiled.grid.size, "report": compiled.report()}


def execute_job(
    job: SweepJob,
    *,
    manager: PassManager | None = None,
    cache: CompileCache | None = None,
    memo: dict | None = None,
) -> SweepResult:
    """Compile (through the cache when given) and measure one job
    in-process.  Never raises: failures come back as ``ok=False``
    records carrying the traceback.

    ``memo`` is an in-run compiled-program table keyed on ``(source,
    options signature)``: grid points that repeat a compile (duplicate
    points, points differing only in seed) reuse it instead of
    re-running the pass pipeline — pool workers keep one per process,
    the serial path one per sweep.  A memo hit sets
    ``result.compile_dedup``.
    """
    started = time.perf_counter()
    result = job.result()
    try:
        manager = manager or PassManager()
        compiled, hit, deduped = compile_with_memo(
            job, manager=manager, cache=cache, memo=memo
        )
        result.cache_hit = hit
        result.compile_dedup = deduped
        for name, value in _measure_payload(job, compiled).items():
            setattr(result, name, value)
    except Exception:
        result.ok = False
        result.error = traceback.format_exc()
    result.duration_s = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# The pool: local workers on a temporary queue
# ---------------------------------------------------------------------------


def _pool_worker(
    worker_id: int,
    root: str,
    lease_ttl: float,
    max_attempts: int,
    cache_root: str | None,
) -> None:
    """One pool child: runs the claim loop on the sweep's temporary
    queue until nothing is claimable.  Keeps a process-lifetime
    PassManager and compile memo, so repeated points of the same
    program share parse + front-end analyses even on cache misses."""
    queue = JobQueue(
        Path(root) / "queue.sqlite",
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )
    cache = CompileCache(cache_root) if cache_root else None
    manager = PassManager()
    memo: dict = {}

    def evaluate(claim, commit) -> None:
        for idx, job in claim.points:
            result = execute_job(job, manager=manager, cache=cache, memo=memo)
            result.worker = f"worker-{worker_id}"
            result.attempts = claim.attempt
            commit([(idx, result)])

    owner = make_owner()
    while work(queue, owner, evaluate):
        pass


def _run_pool(
    jobs: Sequence[SweepJob],
    *,
    workers: int,
    timeout: float | None,
    retries: int,
    cache: CompileCache | None,
    metrics: Metrics | None,
    record: Callable[[SweepResult], None],
) -> list[SweepResult]:
    """The coordinator: submit ``jobs`` to a temporary queue, keep
    ``workers`` children claiming from it, and ``record`` each point
    as its commit shows up in the event log."""

    def inc(name: str, amount: float = 1) -> None:
        if metrics is not None and amount:
            metrics.inc(name, amount)

    results: dict[int, SweepResult] = {}
    fallback_manager = PassManager()
    fallback_memo: dict = {}

    def land(index: int, result: SweepResult) -> None:
        if result.worker == ABANDONED:
            # the pool could not finish this point: run it in this
            # process, so the grid point is never lost.  No claim is
            # taken, so the fault hook of repro.jobqueue.work cannot fire
            inc("sweep.serial_fallbacks")
            reason, attempts = result.error, result.attempts
            result = execute_job(
                jobs[index],
                manager=fallback_manager,
                cache=cache,
                memo=fallback_memo,
            )
            result.worker = "serial-fallback"
            result.attempts = attempts
            if not result.ok and result.error is not None:
                result.error = (
                    f"{reason}; serial fallback also failed:\n{result.error}"
                )
        results[index] = result
        record(result)

    with tempfile.TemporaryDirectory(
        prefix="repro-sweep-", ignore_cleanup_errors=True
    ) as root:
        queue = JobQueue(
            Path(root) / "queue.sqlite",
            lease_ttl=timeout if timeout else float("inf"),
            max_attempts=retries + 1,
        )
        pool = LocalWorkers(
            queue,
            _pool_worker,
            (
                root,
                queue.lease_ttl,
                queue.max_attempts,
                str(cache.root) if cache else None,
            ),
            workers,
        )
        try:
            job_id = queue.submit(
                jobs,
                [job.label for job in jobs],
                [[index] for index in range(len(jobs))],
            )
            seen = 0
            while len(results) < len(jobs):
                events = queue.events_since(job_id, seen)
                if events:
                    seen = events[-1].seq
                landed = [e.payload["idx"] for e in events if e.kind == "point"]
                for index, result in queue.point_results(job_id, landed):
                    land(index, result)
                inc(  # a retry is a point handed out again
                    "sweep.retries",
                    sum(e.payload["pending"] for e in events if e.kind == "reclaimed"),
                )
                crashed, timed_out = pool.tend()
                inc("sweep.worker_crashes", crashed)
                inc("sweep.timeouts", timed_out)
                if pool.stalled:
                    for index, job in enumerate(jobs):
                        if index not in results:
                            land(
                                index,
                                job.result(
                                    worker=ABANDONED,
                                    error="worker pool unavailable",
                                ),
                            )
                elif not events:
                    # short poll: warm (cache-hit) jobs complete in
                    # single-digit milliseconds, so a coarse sleep here
                    # would dominate the whole sweep's wall clock
                    pool.wait(0.002)
        finally:
            pool.shutdown()
            queue.close()
    return [results[index] for index in range(len(jobs))]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sweep(
    spec: SweepSpec | Iterable[SweepJob],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    cache: CompileCache | str | os.PathLike | bool | None = None,
    manager: PassManager | None = None,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    on_result: Callable[[SweepResult], None] | None = None,
    mode: str = "auto",
) -> list[SweepResult]:
    """Execute a sweep, returning one result per job in job order.

    ``workers``: None picks ``min(cpu_count, job count)``; 0 or 1
    forces in-process serial execution (sharing ``manager`` across
    points, so front-end analyses are reused like the table builders
    always did).  ``timeout`` is per job, in seconds (the lease a pool
    worker holds it under); ``retries`` bounds how often a job whose
    worker crashed or timed out is handed out again before the
    coordinator runs it in-process itself.  ``cache`` enables the
    persistent compile cache (path, True for the default root, or a
    :class:`CompileCache`).

    ``mode`` is how the grid is *run* (``SweepSpec.mode`` says what
    each point *measures*).  ``"auto"`` (default) routes
    simulate/estimate points through the vectorized batch evaluator
    (:mod:`repro.sweep.batched`) exactly when some batch has two or
    more lanes to fuse — points differing only in machine parameters
    share one simulation, points differing only in the processor count
    fuse into procs sub-groups of one batch, repeated compiles dedupe
    — and runs everything else per job.  ``"pool"`` runs every job on
    its own, serially or on the worker pool: the scalar-charging
    reference, and the only way to spread a fusing grid over
    ``workers`` processes.  Results are identical across modes (the
    parity suites byte-compare them); only the wall clock differs.
    """
    jobs = list(spec.jobs() if isinstance(spec, SweepSpec) else spec)
    if mode not in ("auto", "pool"):
        raise ValueError(f"mode must be 'auto' or 'pool', got {mode!r}")
    tracer = tracer if tracer is not None else NULL_TRACER
    disk_cache = as_compile_cache(cache)
    if metrics is not None:
        metrics.inc("sweep.jobs", len(jobs))
    if workers is None:
        workers = min(os.cpu_count() or 1, len(jobs))
    if not jobs:
        return []

    batches: list = []
    leftover = list(range(len(jobs)))
    if mode == "auto":
        planned, rest = plan_batches(jobs)
        if any(len(b) > 1 for b in planned):
            batches, leftover = planned, rest

    with tracer.span(
        "sweep",
        cat="sweep",
        jobs=len(jobs),
        workers=max(workers, 1),
        batches=len(batches),
    ):
        merged: dict[int, SweepResult] = {}
        if batches:
            merged.update(
                run_batched(
                    batches,
                    manager=manager or PassManager(tracer=tracer),
                    cache=disk_cache,
                    memo={},
                    tracer=tracer,
                    metrics=metrics,
                    on_result=on_result,
                )
            )
        record = partial(
            record_result, tracer=tracer, metrics=metrics, on_result=on_result
        )
        rest = [jobs[i] for i in leftover]
        if len(rest) > 1 and workers > 1:
            merged.update(
                zip(
                    leftover,
                    _run_pool(
                        rest,
                        workers=min(workers, len(rest)),
                        timeout=timeout,
                        retries=retries,
                        cache=disk_cache,
                        metrics=metrics,
                        record=record,
                    ),
                )
            )
        elif rest:
            shared = manager or PassManager(tracer=tracer)
            memo: dict = {}
            for index, job in zip(leftover, rest):
                with tracer.span("sweep.job", cat="sweep", label=job.label):
                    merged[index] = execute_job(
                        job, manager=shared, cache=disk_cache, memo=memo
                    )
                record(merged[index])
        results = [merged[i] for i in range(len(jobs))]

    if metrics is not None and disk_cache is not None:
        for name, value in disk_cache.stats.as_dict().items():
            metrics.gauge(f"sweep.disk_cache.{name}", value)
    return results
