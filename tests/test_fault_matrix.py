"""The fault matrix: one claim loop, every way a worker can fail in it.

Rows are faults injected through the one hook of
:func:`repro.jobqueue.work` at its named protocol steps; columns are
the loop's two users — ``run_sweep(mode="pool")`` on its temporary
queue, and a durable service directory drained by ``repro serve
--once`` subprocesses.  Every cell asserts the same safety properties:
the call returns in bounded time, one result per grid point in grid
order, records byte-identical to a serial sweep, each point committed
(streamed) exactly once — and, on the durable column, evaluated
exactly once according to the catalog.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.core.driver import CompilerOptions
from repro.jobqueue.worker import _FAULT_ENV
from repro.obs import Metrics
from repro.programs import dgefa_source
from repro.records import comparable
from repro.service import SweepService
from repro.sweep import SweepJob, SweepSpec, run_sweep

_SRC_ROOT = Path(repro.__file__).resolve().parents[1]
VICTIM = "victim"
RETRIES = 2  # == JobQueue's default max_attempts - 1, so both columns agree


@dataclass(frozen=True)
class Fault:
    id: str
    #: the hook's value; every row targets the one victim point
    spec: str
    #: pool column: attempts / worker tag the victim's result reports,
    #: and the pool counters the fault must leave behind
    attempts: int = 1
    counters: tuple = ()
    #: the victim still gets measured (False: it comes back ``ok=False``
    #: carrying ``error``) — the pool's poison row is the exception the
    #: durable column cannot have: its coordinator runs the point itself
    pool_ok: bool = True
    durable_ok: bool = True
    error: str = ""


FAULTS = [
    Fault(
        "exit-after-claimed",
        f"exit@claimed:label={VICTIM}:attempts=1",
        attempts=2,
        counters=(("sweep.worker_crashes", 1), ("sweep.retries", 1)),
    ),
    Fault(
        "exit-while-evaluating",
        f"exit@evaluating:label={VICTIM}:attempts=1",
        attempts=2,
        counters=(("sweep.worker_crashes", 1), ("sweep.retries", 1)),
    ),
    # the victim's result is in before its worker dies, so whether the
    # sweep is still running to count the crash is a race: not asserted
    Fault("exit-after-committed", f"exit@committed:label={VICTIM}:attempts=1"),
    Fault("exit-after-finished", f"exit@finished:label={VICTIM}:attempts=1"),
    Fault(
        "hang-past-lease",
        f"hang@evaluating:label={VICTIM}:attempts=1",
        attempts=2,
        counters=(("sweep.timeouts", 1), ("sweep.retries", 1)),
    ),
    Fault(
        "evaluator-raises",
        f"raise@evaluating:label={VICTIM}",
        pool_ok=False,
        durable_ok=False,
        error="injected failure at step 'evaluating'",
    ),
    Fault(
        "poison-every-attempt-dies",
        f"exit@evaluating:label={VICTIM}",
        attempts=RETRIES + 1,
        counters=(
            ("sweep.worker_crashes", RETRIES + 1),
            ("sweep.retries", RETRIES),
            ("sweep.serial_fallbacks", 1),
        ),
        durable_ok=False,
        error=f"abandoned after {RETRIES + 1} attempts",
    ),
]


def _jobs():
    source = dgefa_source(n=8, procs=2)
    return [
        SweepJob(
            program="dgefa",
            source=source,
            options=CompilerOptions(num_procs=2, strategy=strategy),
            procs=2,
            label=label,
        )
        for label, strategy in [
            ("first", "selected"),
            (VICTIM, "producer"),
            ("third", "replication"),
            ("fourth", "consumer"),
        ]
    ]


def _strip_ids(report):
    # statement ids come from a process-global counter
    return re.sub(r"\bS\d+\b", "S", report)


def _canon(results):
    return [
        json.dumps(comparable(r.as_dict()), sort_keys=True) for r in results
    ]


@pytest.fixture(scope="module")
def reference():
    return _canon(run_sweep(_jobs(), workers=0, mode="pool"))


def _check(fault, results, reference, victim_ok):
    jobs = _jobs()
    assert [r.label for r in results] == [j.label for j in jobs]
    for job, result, expected in zip(jobs, _canon(results), reference):
        if job.label != VICTIM or victim_ok:
            assert result == expected, job.label
    victim = results[1]
    assert victim.ok == victim_ok
    if not victim_ok:
        assert fault.error in victim.error


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.id)
def test_pool_column(fault, reference, monkeypatch, tmp_path):
    monkeypatch.setenv(_FAULT_ENV, fault.spec)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    metrics = Metrics()
    streamed = []
    started = time.monotonic()
    results = run_sweep(
        _jobs(),
        mode="pool",
        workers=2,
        retries=RETRIES,
        timeout=1.5 if fault.spec.startswith("hang") else 120,
        metrics=metrics,
        on_result=lambda r: streamed.append(r.label),
    )
    assert time.monotonic() - started < 60
    _check(fault, results, reference, fault.pool_ok)
    assert sorted(streamed) == sorted(r.label for r in results)
    victim = results[1]
    assert victim.attempts == fault.attempts
    if fault.id.startswith("poison"):
        # run by the coordinator itself — with the hook still in its
        # environment: the in-process fallback takes no claim, so no
        # fault can reach it
        assert victim.worker == "serial-fallback"
    elif victim.ok:
        assert victim.worker.startswith("worker-")
    pool_counters = {
        name: value
        for name, value in metrics.counters.items()
        if name.split(".")[1]
        in ("worker_crashes", "retries", "timeouts", "serial_fallbacks")
    }
    if not fault.counters:
        assert pool_counters.pop("sweep.worker_crashes", 1) == 1
    assert pool_counters == dict(fault.counters)
    assert list(tmp_path.iterdir()) == []  # the temporary queue is gone


def _serve(root, fault):
    env = dict(os.environ, PYTHONPATH=str(_SRC_ROOT))
    env[_FAULT_ENV] = fault.spec
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--once",
            "--service-dir", str(root), "--lease-ttl", "1.0",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.id)
def test_durable_column(fault, reference, tmp_path):
    jobs = _jobs()
    client = SweepService(tmp_path / "svc")
    handle = client.submit(jobs, shards=len(jobs))
    deadline = time.monotonic() + 60
    left_behind = []
    try:
        # pairs of `repro serve --once` workers until the job is over; a
        # worker still running after 2 s (a hung one, past its 1 s lease
        # by then) is left behind and the next pair reclaims from it
        while not handle.poll().terminal:
            assert time.monotonic() < deadline, "job never reached a terminal state"
            for worker in [_serve(client.root, fault) for _ in range(2)]:
                try:
                    _, errors = worker.communicate(timeout=2)
                except subprocess.TimeoutExpired:
                    left_behind.append(worker)
                else:
                    assert worker.returncode in (0, 32), errors
    finally:
        for worker in left_behind:
            worker.kill()
            worker.communicate()
    results = handle.result(timeout=0)
    _check(fault, results, reference, fault.durable_ok)
    commits = [
        event.payload["idx"]
        for event in handle.stream_events(timeout=5)
        if event.kind == "point"
    ]
    assert sorted(commits) == list(range(len(jobs)))
    assert [client.catalog.evaluations(job) for job in jobs] == [
        1, int(fault.durable_ok), 1, 1,
    ]
    client.close()


@pytest.mark.parametrize("victim", ["first", "third"], ids=["hit", "fresh"])
def test_durable_shard_of_hits_and_fresh_points_killed_after_a_commit(
    victim, reference, tmp_path
):
    """One shard holding two catalog hits (landed as one batch) and two
    fresh points; its worker dies right after committing ``victim``
    (the batch of hits, or the first fresh point).  The restarted
    worker finishes it: every point committed once, the hits counted
    as reused, every fresh point evaluated once."""
    jobs = _jobs()
    client = SweepService(tmp_path / "svc")
    client.submit(jobs[:2])
    client.serve_forever(once=True)
    handle = client.submit(jobs, shards=1)
    fault = Fault("mixed", f"exit@committed:label={victim}:attempts=1")
    for code in (32, 0):
        worker = _serve(client.root, fault)
        _, errors = worker.communicate(timeout=60)
        assert worker.returncode == code, errors
    results = handle.result(timeout=0)
    assert _canon(results) == reference
    assert [r.worker == "catalog" for r in results] == [
        True, True, False, False,
    ]
    status = handle.poll()
    assert (status.done, status.reused, status.failed) == (4, 2, 0)
    commits = [
        event.payload["idx"]
        for event in handle.stream_events(timeout=5)
        if event.kind == "point"
    ]
    assert sorted(commits) == [0, 1, 2, 3]
    assert [client.catalog.evaluations(job) for job in jobs] == [1, 1, 1, 1]
    client.close()


def test_more_workers_than_cores_each_dying_after_every_commit(monkeypatch):
    """Stress: four children on a 24-point grid, every one hard-exits
    right after each point it commits, so every shard is reclaimed
    once (with nothing left to do).  Each point still lands exactly
    once, identical to the serial run."""
    spec = SweepSpec(
        programs={"dgefa": lambda p: dgefa_source(n=8, procs=p)},
        procs=(2, 4, 8),
        axes={
            "strategy": ("selected", "producer", "replication", "consumer"),
            "combine_messages": (False, True),
        },
        mode="compile",
    )
    serial = run_sweep(spec, workers=0, mode="pool")
    monkeypatch.setenv(_FAULT_ENV, "exit@committed")
    streamed = []
    started = time.monotonic()
    results = run_sweep(
        spec, workers=4, mode="pool", timeout=120,
        on_result=lambda r: streamed.append(r.label),
    )
    assert time.monotonic() - started < 60
    assert len(results) == 24
    assert sorted(streamed) == sorted(r.label for r in serial)
    assert [r.label for r in results] == [r.label for r in serial]
    assert all(r.ok and r.attempts == 1 for r in results)
    assert [_strip_ids(r.report) for r in results] == [
        _strip_ids(r.report) for r in serial
    ]


def test_pool_that_cannot_start_a_child_runs_everything_itself(
    reference, monkeypatch
):
    def refuse(self):
        raise OSError("fork: resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    metrics = Metrics()
    results = run_sweep(_jobs(), mode="pool", workers=2, metrics=metrics)
    assert _canon(results) == reference
    assert {r.worker for r in results} == {"serial-fallback"}
    assert metrics.counters["sweep.serial_fallbacks"] == len(results)


def test_interrupted_pool_leaves_no_queue_behind(monkeypatch, tmp_path):
    """A sweep that raises out of the coordinator (here: the caller's
    own callback) still stops its workers and removes the temporary
    queue directory."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def interrupt(result):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep(_jobs(), mode="pool", workers=2, on_result=interrupt)
    assert list(tmp_path.iterdir()) == []
