"""Crash recovery: a worker killed mid-job forfeits only its lease.
A restarted worker completes the job with canonical stats
byte-identical to an uninterrupted run, and the catalog shows each
grid point evaluated exactly once (commit-level: completed points are
never re-run; only uncommitted in-flight work repeats)."""

import json
import os
import subprocess
import sys

import repro
from repro.jobqueue import FAULT_EXIT_CODE
from repro.jobqueue.worker import _FAULT_ENV
from repro.records import comparable
from repro.service import SweepService
from repro.sweep import run_sweep
from repro.sweep.spec import SweepSpec

from pathlib import Path

_SRC_ROOT = Path(repro.__file__).resolve().parents[1]

_SERVE_SNIPPET = """
import sys
from repro.service import SweepService

service = SweepService(sys.argv[1], lease_ttl=30.0)
service.serve_forever(once=True)
"""


def _spec(procs=(2, 3, 4, 5)):
    from repro.programs import tomcatv_source

    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
    )


def _serve_subprocess(root, fault=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC_ROOT)
    env.pop(_FAULT_ENV, None)
    if fault is not None:
        env[_FAULT_ENV] = fault
    return subprocess.run(
        [sys.executable, "-c", _SERVE_SNIPPET, str(root)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _canon(results):
    return json.dumps(
        [comparable(r.as_dict()) for r in results], sort_keys=True
    )


class TestCrashRecovery:
    def test_killed_worker_job_completes_byte_identical(self, tmp_path):
        spec = _spec()
        n_points = len(spec.jobs())

        # the uninterrupted reference: same grid, separate service dir
        reference = SweepService(tmp_path / "ref")
        ref_handle = reference.submit(spec)
        reference.serve_forever(once=True)
        ref_results = ref_handle.result(timeout=60)
        reference.close()

        # submit, then kill the serving subprocess after 2 commits
        client = SweepService(tmp_path / "svc")
        handle = client.submit(spec, shards=n_points)
        second = spec.jobs()[1].label
        killed = _serve_subprocess(
            tmp_path / "svc", fault=f"exit@committed:label={second}"
        )
        assert killed.returncode == FAULT_EXIT_CODE, killed.stderr
        partial = handle.poll()
        assert partial.done == 2
        assert partial.state == "running"

        # a fresh worker (new pid) resumes and drains the job: the dead
        # owner's lease is reclaimed without waiting out its TTL
        finished = _serve_subprocess(tmp_path / "svc")
        assert finished.returncode == 0, finished.stderr
        results = handle.result(timeout=60)

        assert _canon(results) == _canon(ref_results)
        assert all(
            client.catalog.evaluations(job) == 1 for job in spec.jobs()
        ), "a grid point was evaluated more than once after the crash"
        kinds = [e.kind for e in handle.stream_events(timeout=5)]
        assert "reclaimed" in kinds or "claimed" in kinds
        assert kinds[-1] == "done"
        client.close()

    def test_kill_marker_fires_between_commits(self, tmp_path, monkeypatch):
        """In-process check of the injection point: the service exits
        only *after* a point commit, so no point is ever lost
        mid-flight."""
        spec = _spec(procs=(2, 3))
        service = SweepService(tmp_path / "svc")
        handle = service.submit(spec, shards=2)

        monkeypatch.setenv(_FAULT_ENV, "exit@committed")
        exits = []
        monkeypatch.setattr(
            os, "_exit", lambda code: exits.append((code, handle.poll().done))
        )
        service.run_next()
        assert exits == [(FAULT_EXIT_CODE, 1)]
        service.close()

    def test_poison_point_ends_the_job_instead_of_circulating(self, tmp_path):
        """A point that kills every worker that evaluates it is given
        up after the queue's attempt bound: it comes back ``ok=False``,
        the job still ends, and nothing else is lost or re-run."""
        spec = _spec(procs=(2, 3, 4))
        jobs = spec.jobs()
        poison = jobs[1]
        client = SweepService(tmp_path / "svc")
        handle = client.submit(spec, shards=len(jobs))
        fault = f"exit@evaluating:label={poison.label}"
        for _ in range(client.queue.max_attempts):
            died = _serve_subprocess(tmp_path / "svc", fault=fault)
            assert died.returncode == FAULT_EXIT_CODE, died.stderr
            assert not handle.poll().terminal
        # the next claimant finds the bound used up and gives the shard up
        drained = _serve_subprocess(tmp_path / "svc", fault=fault)
        assert drained.returncode == 0, drained.stderr

        results = handle.result(timeout=0)
        status = handle.poll()
        assert status.state == "done" and status.failed == 1
        bad = results[1]
        assert not bad.ok and bad.worker == "abandoned"
        assert f"abandoned after {client.queue.max_attempts} attempts" in bad.error
        direct = run_sweep(jobs, workers=0, mode="pool")
        assert _canon(results[:1] + results[2:]) == _canon(direct[:1] + direct[2:])
        assert [client.catalog.evaluations(j) for j in jobs] == [1, 0, 1]
        client.close()
