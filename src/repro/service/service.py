"""The persistent sweep service: submit grids, harvest results, keep
the warm cache shared.

A *service directory* holds everything durable::

    <root>/queue.sqlite    the job queue (jobs, points, shards, events)
                           and the artifact catalog (artifacts; its
                           results are the done points)
    <root>/cache/          the content-addressed compile cache

Clients submit through :meth:`SweepService.submit` (or
``Session.submit`` / ``repro jobs submit``) and get a
:class:`JobHandle` — ``poll()`` for status, ``result()`` to block for
the ordered :class:`~repro.sweep.spec.SweepResult` list,
``stream_events()`` to tail progress.  Work happens wherever someone
runs the worker loop: ``repro serve`` (or
:meth:`SweepService.serve_forever`) runs the queue's claim loop
(:func:`repro.jobqueue.work`) one shard at a time, serves the points
the catalog has already measured as *reuses* (one catalog read, one
transaction), evaluates the rest in-process through
:func:`repro.sweep.run_sweep`, and lands each of those (its point row,
the catalog's result, and its compile's artifact row) in one
transaction as it comes.  Kill the process at
any moment: completed points are durable, the lease expires (or the dead pid is
detected), and the next worker resumes exactly the pending points —
canonical stats stay byte-identical to an uninterrupted
``Session.sweep`` of the same grid.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..core.diskcache import as_compile_cache, default_cache_dir
from ..core.passes import PassManager
from ..jobqueue import (
    Claim,
    Event,
    JobQueue,
    JobStatus,
    LocalWorkers,
    make_owner,
    work,
)
from ..obs import NULL_TRACER
from ..sweep.engine import run_sweep
from ..sweep.spec import SweepJob, SweepResult, SweepSpec
from .catalog import Catalog, point_key
from .worker import shard_jobs

if TYPE_CHECKING:
    from ..obs import Metrics, Tracer


def default_service_dir() -> Path:
    """``$REPRO_SERVICE_DIR``, else ``<compile-cache root>/service``."""
    env = os.environ.get("REPRO_SERVICE_DIR")
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "service"


class JobFailed(RuntimeError):
    """``JobHandle.result()`` on a failed or cancelled job."""


@dataclass
class JobHandle:
    """A client's view of one submitted job."""

    job_id: int
    service: "SweepService"

    def poll(self) -> JobStatus:
        """The job's current state and progress counters."""
        return self.service.queue.status(self.job_id)

    def result(
        self, *, timeout: float | None = None, poll: float = 0.05
    ) -> list[SweepResult]:
        """Block until the job is terminal and return its results in
        grid order.  Raises :class:`TimeoutError` after ``timeout``
        seconds, :class:`JobFailed` on a failed or cancelled job."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            status = self.poll()
            if status.terminal:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {self.job_id} still {status.state} "
                    f"({status.done}/{status.n_points} points) after "
                    f"{timeout}s"
                )
            time.sleep(poll)
        if status.state != "done":
            raise JobFailed(
                f"job {self.job_id} {status.state}"
                + (f": {status.error}" if status.error else "")
            )
        results = self.service.queue.results(self.job_id)
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - done implies all points stored
            raise JobFailed(
                f"job {self.job_id} done but points {missing} have no result"
            )
        return results  # type: ignore[return-value]

    def stream_events(
        self,
        *,
        since: int = 0,
        poll: float = 0.05,
        timeout: float | None = None,
    ) -> Iterator[Event]:
        """Yield the job's events as they append, ending after the
        terminal event (done/failed/cancelled).  ``since`` resumes from
        a previously seen sequence number."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        last = since
        while True:
            events = self.service.queue.events_since(self.job_id, last)
            for event in events:
                last = event.seq
                yield event
                if event.kind in ("done", "failed", "cancelled"):
                    return
            if deadline is not None and time.monotonic() > deadline:
                return
            time.sleep(poll)

    def cancel(self) -> bool:
        """Cancel the job (idempotent; False when already terminal)."""
        return self.service.queue.cancel(self.job_id)


def _serve_child(
    worker_id: int, root: str, lease_ttl: float, cache_root, loop: dict
) -> None:
    """One ``serve_forever(workers=N)`` child: its own service object
    (own sqlite connection, own owner tag) on the parent's directory."""
    service = SweepService(root, lease_ttl=lease_ttl, cache=cache_root)
    try:
        service.serve_forever(**loop)
    finally:
        service.close()


class SweepService:
    """Queue + catalog (on one connection) + compile cache over one
    service directory.  The same class serves both roles: clients
    construct it to submit/poll, worker processes construct it to run
    :meth:`serve_forever`."""

    def __init__(
        self,
        root: "str | os.PathLike | None" = None,
        *,
        lease_ttl: float = 60.0,
        cache: Any = None,
        tracer: "Tracer | None" = None,
        metrics: "Metrics | None" = None,
        owner: str | None = None,
    ):
        self.root = Path(root).expanduser() if root else default_service_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(self.root / "queue.sqlite", lease_ttl=lease_ttl)
        self.catalog = Catalog(self.queue.conn)
        self.cache = as_compile_cache(
            cache if cache is not None else self.root / "cache"
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.manager = PassManager(tracer=tracer)
        self.owner = owner or make_owner()

    def close(self) -> None:
        self.queue.close()

    # -- metrics helpers ---------------------------------------------------

    def _inc(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _update_depth_gauges(self) -> None:
        if self.metrics is None:
            return
        for name, value in self.queue.depth().items():
            self.metrics.gauge(f"service.queue.{name}", value)

    # -- client side -------------------------------------------------------

    def submit(
        self,
        spec: "SweepSpec | Iterable[SweepJob]",
        *,
        name: str = "",
        shards: int | None = None,
    ) -> JobHandle:
        """Persist a grid as a durable job; returns immediately with a
        :class:`JobHandle`.  ``shards`` partitions the grid (default:
        one shard per fusion group)."""
        jobs = list(spec.jobs() if isinstance(spec, SweepSpec) else spec)
        if not jobs:
            raise ValueError("cannot submit an empty grid")
        keys = [point_key(job) for job in jobs]
        assignment = shard_jobs(jobs, shards)
        job_id = self.queue.submit(jobs, keys, assignment, name=name)
        self._inc("service.jobs_submitted")
        self._inc("service.points_submitted", len(jobs))
        self._update_depth_gauges()
        self.tracer.instant(
            "service.submit",
            cat="service",
            job_id=job_id,
            points=len(jobs),
            shards=len(assignment),
        )
        return JobHandle(job_id=job_id, service=self)

    def handle(self, job_id: int) -> JobHandle:
        """Re-attach to an existing job (any process, any time)."""
        self.queue.status(job_id)  # raises KeyError on unknown id
        return JobHandle(job_id=job_id, service=self)

    # -- worker side -------------------------------------------------------

    def run_next(self) -> bool:
        """Claim and fully process one shard; False when the queue has
        nothing claimable."""
        worked = work(self.queue, self.owner, self._evaluate)
        if worked:
            self._inc("service.shards_claimed")
        self._update_depth_gauges()
        return worked

    def _evaluate(self, claim: Claim, commit) -> None:
        """The claim loop's evaluator: points the catalog has already
        measured land together as reuses (one catalog read, one
        transaction), the rest run in-process as one sweep (so
        batched/procs-lane fusion applies to the whole shard) and land,
        each with its compile's artifact row, one transaction each as
        they stream out.
        Results map back to grid indices by label (unique within a grid
        up to identical point identities, which interchange freely)."""
        job_of = dict(claim.points)

        def served(results: list[SweepResult], reused: bool) -> None:
            self._inc(
                "service.points_reused" if reused else "service.points_done",
                len(results),
            )
            for result in results:
                self.tracer.instant(
                    "service.point",
                    cat="service",
                    job_id=claim.job_id,
                    label=result.label,
                    ok=result.ok,
                    reused=reused,
                )

        def land(idx: int, result: SweepResult) -> None:
            record = partial(
                self.catalog.record_compile, job_of[idx], self.cache
            )
            commit([(idx, result)], record=record)
            served([result], False)

        with self.tracer.span(
            "service.shard",
            cat="service",
            job_id=claim.job_id,
            shard=claim.shard,
            pending=len(claim.points),
        ):
            hits = self.catalog.find(list(claim.keys.values()))
            reused: list[tuple[int, SweepResult]] = []
            index_of: dict[str, deque[int]] = {}
            fresh: list[SweepJob] = []
            for idx, job in claim.points:
                hit = hits.get(claim.keys[idx])
                if hit is not None:
                    reused.append((idx, hit))
                else:
                    fresh.append(job)
                    index_of.setdefault(job.label, deque()).append(idx)
            if reused:
                commit(reused, reused=True)
                served([result for _, result in reused], True)
            if fresh:
                run_sweep(
                    fresh,
                    workers=0,
                    cache=self.cache,
                    manager=self.manager,
                    tracer=self.tracer,
                    metrics=self.metrics,
                    on_result=lambda result: land(
                        index_of[result.label].popleft(), result
                    ),
                )

    def serve_forever(
        self,
        *,
        poll: float = 0.2,
        once: bool = False,
        max_shards: int | None = None,
        idle_timeout: float | None = None,
        workers: int = 1,
    ) -> int:
        """The worker loop: claim-and-process shards until stopped.
        ``once`` drains the queue and returns when nothing is
        claimable; ``idle_timeout`` returns after that many idle
        seconds; ``max_shards`` bounds the shards processed.  Returns
        the number of shards this call processed.

        ``workers > 1`` runs the same loop in that many child
        processes instead and supervises them from here — one that
        crashed or overran its lease is replaced — until they have all
        returned (or ``max_shards`` shards closed meanwhile, the count
        this then returns)."""
        if workers > 1:
            return self._supervise(
                workers,
                max_shards,
                dict(poll=poll, once=once, idle_timeout=idle_timeout),
            )
        processed = 0
        idle_since: float | None = None
        while True:
            if max_shards is not None and processed >= max_shards:
                return processed
            if self.run_next():
                processed += 1
                idle_since = None
                continue
            if once:
                return processed
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if idle_timeout is not None and now - idle_since >= idle_timeout:
                return processed
            time.sleep(poll)

    def _supervise(
        self, workers: int, max_shards: int | None, loop: dict
    ) -> int:
        before = self.queue.shards_done()
        pool = LocalWorkers(
            self.queue,
            _serve_child,
            (
                str(self.root),
                self.queue.lease_ttl,
                str(self.cache.root) if self.cache else False,
                loop,
            ),
            workers,
        )
        try:
            while True:
                pool.tend()
                processed = self.queue.shards_done() - before
                if pool.stalled:
                    # no child can be started: be the worker ourselves
                    return processed + self.serve_forever(
                        max_shards=max_shards, **loop
                    )
                if not pool.children or (
                    max_shards is not None and processed >= max_shards
                ):
                    return processed
                pool.wait(loop["poll"])
        finally:
            pool.shutdown()
