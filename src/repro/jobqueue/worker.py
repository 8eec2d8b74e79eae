"""The claim loop, and the local worker processes that run it.

:func:`work` is the one way this codebase hands work to another
process: claim a shard from a :class:`~repro.jobqueue.queue.JobQueue`,
evaluate it, commit every point as it lands, heartbeat, then finish
(or release) the shard.  ``repro serve`` runs it on a durable service
directory, the sweep pool's children on a temporary one; the evaluator
sees a claim and a ``commit`` callback and stays oblivious of
distribution.  :class:`LocalWorkers` is the supervisor half: N local
children on one queue directory, the crashed and the overdue replaced.
Recovery itself — leases, reclaiming, the attempt bound, exactly-once
commit — is the queue's, once, for every user.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import time
import traceback
from typing import Callable, Iterable

from .queue import Claim, JobQueue, owner_pid

#: the one fault-injection hook (fault-matrix tests and CI gates; the
#: package never sets it).  A process whose environment carries
#: ``ACTION@STEP[:label=TEXT][:attempts=N]`` — ``exit`` (``os._exit``:
#: a kill -9 / OOM), ``hang`` or ``raise`` at one of
#: :data:`PROTOCOL_STEPS`, optionally only for the point labelled TEXT
#: and only on a shard's first N claims — suffers that fault when its
#: claim loop gets there.  Only :func:`work` consults it, so code that
#: evaluates points without claiming them (the sweep coordinator's
#: in-process fallback) is immune by construction.
_FAULT_ENV = "_REPRO_WORKER_FAULT"
FAULT_EXIT_CODE = 32
#: after the claim, before the evaluator runs, after each point commit
#: (a batch commit: once per point, after its one transaction), after
#: the shard closed
PROTOCOL_STEPS = ("claimed", "evaluating", "committed", "finished")


def _fault(step: str, claim: Claim, labels: Iterable[str]) -> None:
    spec = os.environ.get(_FAULT_ENV)
    if not spec:
        return
    head, *conditions = spec.split(":")
    action, _, at = head.partition("@")
    wanted = dict(c.partition("=")[::2] for c in conditions)
    if action not in ("exit", "hang", "raise") or at not in PROTOCOL_STEPS:
        raise ValueError(f"malformed {_FAULT_ENV}: {spec!r}")
    if at != step or claim.attempt > int(wanted.get("attempts", claim.attempt)):
        return
    if "label" in wanted and wanted["label"] not in labels:
        return
    if action == "exit":
        os._exit(FAULT_EXIT_CODE)
    if action == "hang":
        time.sleep(3600.0)
    raise RuntimeError(
        f"injected failure at step {step!r} (attempt {claim.attempt})"
    )


def work(
    queue: JobQueue,
    owner: str,
    evaluate: Callable[[Claim, Callable[..., bool]], None],
) -> bool:
    """Claim one shard and see it through; False when nothing is
    claimable.

    ``evaluate(claim, commit)`` measures the claim's pending points
    and calls ``commit(landed, reused=False, record=None)`` with the
    ``(idx, result)`` pairs as they land: the durable, exactly-once
    step, one transaction per call (per pair, False when somebody else
    committed the point first), which also runs the evaluator's own
    writes (``record()``) and extends the lease unless the points were
    reused.  An exception out of the evaluator is a deterministic
    failure, not a crash: the points it left open are committed
    ``ok=False`` with the traceback and nothing is retried.  A lost
    lease (reclaimed, or the job cancelled) releases the shard instead
    of finishing it; what was committed stays committed either way."""
    claim = queue.claim(owner)
    if claim is None:
        return False
    labels = [job.label for _, job in claim.points]
    _fault("claimed", claim, labels)
    open_points = dict(claim.points)

    def commit(landed, *, reused=False, record=None) -> list[bool]:
        done = queue.complete_points(
            claim.job_id,
            landed,
            reused=reused,
            # a reused point took no time off the lease
            lease=None if reused else (claim.shard, owner),
            record=record,
        )
        for idx, result in landed:
            open_points.pop(idx, None)
            _fault("committed", claim, (result.label,))
        return done

    try:
        _fault("evaluating", claim, labels)
        evaluate(claim, commit)
    except Exception:
        failure = dict(
            ok=False,
            error=traceback.format_exc(),
            attempts=claim.attempt,
            worker=owner,
        )
        commit([(i, job.result(**failure)) for i, job in open_points.items()])
    if queue.heartbeat(claim.job_id, claim.shard, owner):
        queue.finish_shard(claim.job_id, claim.shard, owner)
    else:
        queue.release_shard(claim.job_id, claim.shard, owner, "lease lost")
    _fault("finished", claim, labels)
    return True


class LocalWorkers:
    """``size`` child processes, each running ``target(worker_id,
    *args)`` — a function that opens the queue directory named in
    ``args`` and calls :func:`work` until it has nothing to do.

    A child that returns is done; one that crashed or overran its
    lease left a shard behind and is replaced, so the replacement can
    reclaim it (the queue's dead-pid check makes it claimable at once).

    Children come from the platform's default start method (``fork``
    where it exists: a ``spawn`` child pays a full ``import repro``,
    more than a small grid's whole evaluation), so ``target`` and
    ``args`` must be picklable and a child must open its *own* sqlite
    connections, never touch one inherited from the parent.  The
    parent forks only between transactions and outlives its children
    (:meth:`shutdown` before closing anything)."""

    def __init__(
        self, queue: JobQueue, target: Callable[..., None], args: tuple, size: int
    ):
        self.queue = queue
        self.target = target
        self.args = args
        self.size = size
        #: live children by pid (the pid is what an owner tag carries)
        self.children: dict[int, multiprocessing.Process] = {}
        self.started = 0
        #: event watermark: leases lost before now were not our children's
        self.seen = queue.lapsed()[0]
        #: no child is alive and none can be started: the caller has
        #: to do the work itself
        self.stalled = False

    def _stop(self, proc) -> None:
        del self.children[proc.pid]
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - stubborn child
            proc.kill()
            proc.join(timeout=1.0)

    def tend(self) -> tuple[int, int]:
        """One supervision step: kill children that overran a lease,
        reap the dead, replace those that did not return by themselves.
        Returns ``(crashed, timed_out)``."""
        crashed = timed_out = 0
        if self.children and self.queue.lease_ttl != float("inf"):
            self.seen, lapsed = self.queue.lapsed(self.seen)
            for owner in lapsed:
                proc = self.children.get(owner_pid(owner))
                if proc is not None:
                    self._stop(proc)
                    timed_out += 1
        for pid, proc in list(self.children.items()):
            if not proc.is_alive():
                del self.children[pid]
                if proc.exitcode == 0:
                    self.size -= 1
                else:
                    crashed += 1
        while len(self.children) < self.size:
            proc = multiprocessing.get_context().Process(
                target=self.target,
                args=(self.started, *self.args),
                daemon=True,
                name=f"repro-worker-{self.started}",
            )
            try:
                proc.start()
            except OSError:
                break
            self.started += 1
            self.children[proc.pid] = proc
        self.stalled = not self.children and self.size > 0
        return crashed, timed_out

    def wait(self, timeout: float) -> None:
        """Sleep ``timeout`` seconds, or until a child exits."""
        multiprocessing.connection.wait(
            [proc.sentinel for proc in self.children.values()], timeout
        )

    def shutdown(self) -> None:
        """Stop every child still running (what they hold on lease is
        reclaimable through the dead-pid check)."""
        for proc in list(self.children.values()):
            self._stop(proc)
