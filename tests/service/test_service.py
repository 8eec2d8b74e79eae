"""SweepService end-to-end: byte-parity with direct sweeps, catalog
reuse, the JobHandle client surface, sharding, and supervised
workers."""

import json
import sqlite3

import pytest

import dataclasses
import pickle

from repro import Session
from repro.jobqueue.queue import QUEUE_SCHEMA_VERSION, JobQueue
from repro.model import SP2
from repro.obs import Metrics
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.records import comparable
from repro.service import JobFailed, SweepService, point_key, shard_jobs
from repro.sweep.spec import SweepJob, SweepSpec


def _spec(procs=(2, 4), **kwargs):
    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
        **kwargs,
    )


def _canon(results):
    return json.dumps(
        [comparable(r.as_dict()) for r in results], sort_keys=True
    )


class TestEndToEnd:
    def test_submitted_job_matches_direct_sweep_byte_identical(
        self, tmp_path
    ):
        spec = _spec()
        service = SweepService(tmp_path / "svc")
        handle = service.submit(spec, name="parity")
        assert service.serve_forever(once=True) >= 1
        via_service = handle.result(timeout=60)

        direct = Session(cache=False).sweep(
            spec, workers=0
        )
        assert all(r.worker == "batched" for r in direct)
        assert _canon(via_service) == _canon(direct)
        service.close()

    def test_resubmit_serves_from_catalog_without_reevaluating(
        self, tmp_path
    ):
        spec = _spec()
        service = SweepService(tmp_path / "svc")
        first = service.submit(spec)
        service.serve_forever(once=True)
        first_results = first.result(timeout=60)

        second = service.submit(spec)
        service.serve_forever(once=True)
        second_results = second.result(timeout=60)

        status = second.poll()
        assert status.reused == len(spec.jobs())
        assert [r.worker for r in second_results] == (
            ["catalog"] * len(spec.jobs())
        )
        assert _canon(first_results) == _canon(second_results)
        # each point was computed exactly once across both jobs
        assert all(
            service.catalog.evaluations(job) == 1 for job in spec.jobs()
        )
        service.close()

    def test_multiple_shards_drain_to_completion(self, tmp_path):
        spec = _spec(procs=(2, 4, 8))
        service = SweepService(tmp_path / "svc")
        handle = service.submit(spec, shards=3)
        assert handle.poll().n_shards == 3
        service.serve_forever(once=True)
        results = handle.result(timeout=60)
        assert [r.label for r in results] == [j.label for j in spec.jobs()]
        service.close()

    def test_metrics_and_events(self, tmp_path):
        metrics = Metrics()
        service = SweepService(tmp_path / "svc", metrics=metrics)
        handle = service.submit(_spec())
        service.serve_forever(once=True)
        handle.result(timeout=60)
        assert metrics.counters["service.jobs_submitted"] == 1
        assert metrics.counters["service.points_done"] == 2
        assert metrics.gauges["service.queue.jobs_open"] == 0
        kinds = [e.kind for e in handle.stream_events(timeout=5)]
        assert kinds[0] == "submitted" and kinds[-1] == "done"
        service.close()



def _tables(conn):
    return {
        row["name"]
        for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }


class TestOneDatabase:
    def test_the_directory_holds_one_database_on_one_connection(
        self, tmp_path
    ):
        """The catalog's tables live in ``queue.sqlite``: a round trip
        leaves no other file, the catalog works on the queue's
        connection, and ``close()`` closes it.  An old
        ``catalog.sqlite`` stays on disk untouched and unread."""
        root = tmp_path / "svc"
        root.mkdir()
        (root / "catalog.sqlite").write_bytes(b"an old catalog")
        service = SweepService(root)
        conn = service.queue.conn
        assert service.catalog.conn is conn
        handle = service.submit(_spec())
        service.serve_forever(once=True)
        handle.result(timeout=60)
        assert {"jobs", "points", "artifacts"} <= _tables(conn)
        assert "results" not in _tables(conn)  # a result is its point row
        schemas = {row["name"] for row in conn.execute(
            "SELECT name FROM schema_info"
        )}
        assert schemas == {"queue", "catalog"}
        service.close()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")
        assert (root / "catalog.sqlite").read_bytes() == b"an old catalog"
        names = {path.name for path in root.iterdir()} - {"catalog.sqlite"}
        assert "queue.sqlite" in names and "cache" in names
        assert names <= {
            "queue.sqlite", "queue.sqlite-wal", "queue.sqlite-shm", "cache",
        }

    def test_a_v1_results_table_is_left_as_it_is_and_unread(self, tmp_path):
        """Catalog schema v1 kept a second copy of every result in a
        ``results`` table; v2 reads the done points instead and never
        touches that table."""
        from repro.jobqueue.db import connect, ensure_schema

        root = tmp_path / "svc"
        conn = connect(root / "queue.sqlite")
        ensure_schema(
            conn, "catalog", 1,
            "CREATE TABLE results (point_key TEXT PRIMARY KEY, record BLOB)",
        )
        conn.execute("INSERT INTO results VALUES ('0ld', x'00')")
        conn.close()
        service = SweepService(root)
        handle = service.submit(_spec())
        service.serve_forever(once=True)
        handle.result(timeout=60)
        conn = service.queue.conn
        assert [tuple(row) for row in conn.execute(
            "SELECT * FROM results"
        )] == [("0ld", b"\x00")]
        assert len(service.catalog.ls("results")) == 2
        with pytest.raises(KeyError, match="no catalog entry"):
            service.catalog.show("0ld")
        (version,) = conn.execute(
            "SELECT version FROM schema_info WHERE name = 'catalog'"
        ).fetchone()
        assert version == 2
        service.close()

    def test_a_bare_queue_holds_no_catalog(self, tmp_path):
        """The sweep pool's temporary queue is a bare ``JobQueue``."""
        queue = JobQueue(tmp_path / "q.sqlite")
        assert not {"artifacts", "results"} & _tables(queue.conn)
        indexes = {row["name"] for row in queue.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )}
        assert "idx_points_catalog" not in indexes
        queue.close()

class TestCatalogServing:
    def _grid_105(self):
        """3 programs x 7 processor counts x 5 machines, one shard per
        program: the shape of the benchmark's service grid, small."""
        return SweepSpec(
            programs={
                "tomcatv": lambda p: tomcatv_source(n=12, niter=1, procs=p),
                "dgefa": lambda p: dgefa_source(n=8, procs=p),
                "appsp": lambda p: appsp_source(
                    nx=5, ny=5, nz=5, niter=1, procs=p
                ),
            },
            procs=(1, 2, 3, 4, 6, 8, 12),
            axes={
                "machine": [SP2]
                + [
                    dataclasses.replace(SP2, name=f"m{i}", alpha=i * 1e-5)
                    for i in range(1, 5)
                ]
            },
            mode="simulate",
        )

    def test_a_corrupt_row_is_recomputed_not_the_shards_failure(
        self, tmp_path
    ):
        spec = self._grid_105()
        jobs = spec.jobs()
        service = SweepService(tmp_path / "svc")
        first = service.submit(spec)
        service.serve_forever(once=True)
        assert first.poll().failed == 0
        expected = _canon(first.result(timeout=0))
        victim = jobs[40]
        # the first job's own result of the point is damaged with it
        service.catalog.conn.execute(
            "UPDATE points SET result = ? WHERE point_key = ?",
            (b"\x80\x05garbage", point_key(victim)),
        )
        second = service.submit(spec)
        service.serve_forever(once=True)
        results = second.result(timeout=60)
        status = second.poll()
        assert len(results) == 105 and all(r.ok for r in results)
        assert (status.done, status.reused, status.failed) == (105, 104, 0)
        assert results[40].worker != "catalog"  # measured again
        assert service.catalog.evaluations(victim) == 2
        assert all(
            service.catalog.evaluations(job) == 1
            for job in jobs
            if job is not victim
        )
        assert _canon(results) == expected
        service.close()

    def test_a_failed_point_is_measured_again_not_served(self, tmp_path):
        """A point whose evaluation failed is no catalog result: a
        resubmission evaluates it again instead of serving the
        failure back."""
        bad = SweepJob(
            program="bad", source="      PROGRAM BAD\n      X = \n", procs=2
        )
        service = SweepService(tmp_path / "svc")
        for _ in range(2):
            handle = service.submit([bad])
            service.serve_forever(once=True)
            (result,) = handle.result(timeout=60)
            status = handle.poll()
            assert not result.ok and result.worker != "catalog"
            assert (status.failed, status.reused) == (1, 0)
        assert service.catalog.evaluations(bad) == 0
        assert service.catalog.ls("results") == []
        service.close()

    def test_duplicate_identities_count_every_reuse(self, tmp_path):
        """A grid listing one point three times: each listing is
        evaluated on the cold pass and counted as a reuse on the warm
        one (the counts of the per-point lookup this replaced)."""
        a, b = _spec().jobs()
        grid = [a, b, a, a]
        service = SweepService(tmp_path / "svc")
        service.submit(grid)
        service.serve_forever(once=True)

        def counts():
            rows = [service.catalog.show(point_key(j)) for j in (a, b)]
            return [(r["evaluations"], r["reuses"]) for r in rows]

        assert counts() == [(3, 0), (1, 0)]
        handle = service.submit(grid)
        service.serve_forever(once=True)
        assert [r.worker for r in handle.result(timeout=60)] == (
            ["catalog"] * 4
        )
        assert handle.poll().reused == 4
        assert counts() == [(3, 3), (1, 1)]
        service.close()


class TestJobHandle:
    def test_poll_and_result_timeout(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        handle = service.submit(_spec())
        assert handle.poll().state == "queued"
        with pytest.raises(TimeoutError, match="still queued"):
            handle.result(timeout=0.05, poll=0.01)
        service.close()

    def test_cancel_raises_jobfailed(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        handle = service.submit(_spec())
        assert handle.cancel()
        assert not handle.cancel()
        with pytest.raises(JobFailed, match="cancelled"):
            handle.result(timeout=5)
        service.close()

    def test_reattach_by_id(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        handle = service.submit(_spec())
        again = service.handle(handle.job_id)
        assert again.poll().n_points == handle.poll().n_points
        with pytest.raises(KeyError):
            service.handle(999)
        service.close()

    def test_empty_grid_rejected(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        with pytest.raises(ValueError, match="empty grid"):
            service.submit([])
        service.close()


class TestQueueSchema:
    #: the jobs table as queue schema v1 wrote it, execution-mode
    #: column included
    V1_JOBS = """
    CREATE TABLE jobs (
      id INTEGER PRIMARY KEY AUTOINCREMENT,
      name TEXT NOT NULL,
      state TEXT NOT NULL DEFAULT 'queued',
      exec_mode TEXT NOT NULL DEFAULT 'auto',
      n_points INTEGER NOT NULL,
      n_shards INTEGER NOT NULL,
      submitted_at REAL NOT NULL,
      started_at REAL,
      finished_at REAL,
      error TEXT
    )
    """

    def test_v1_queue_file_takes_a_job_to_done(self, tmp_path):
        from repro.jobqueue.db import connect, ensure_schema

        root = tmp_path / "svc"
        conn = connect(root / "queue.sqlite")
        ensure_schema(conn, "queue", 1, self.V1_JOBS)
        conn.close()

        service = SweepService(root)
        handle = service.submit(_spec(procs=(2,)))
        assert service.serve_forever(once=True) == 1
        assert handle.poll().state == "done"
        assert [r.ok for r in handle.result(timeout=5)] == [True]
        (version,) = service.queue.conn.execute(
            "SELECT version FROM schema_info WHERE name = 'queue'"
        ).fetchone()
        assert version == QUEUE_SCHEMA_VERSION
        service.close()


    #: the points table as queue schema v2 wrote it: no ``ok`` column
    V2_POINTS = """
    CREATE TABLE points (
      job_id INTEGER NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
      idx INTEGER NOT NULL,
      shard INTEGER NOT NULL,
      state TEXT NOT NULL DEFAULT 'pending',
      point_key TEXT NOT NULL,
      label TEXT NOT NULL,
      job BLOB NOT NULL,
      result BLOB,
      reused INTEGER NOT NULL DEFAULT 0,
      finished_at REAL,
      PRIMARY KEY (job_id, idx)
    )
    """

    def test_v2_queue_file_counts_its_failures_and_takes_a_job(
        self, tmp_path
    ):
        from repro.jobqueue.db import connect, ensure_schema
        from repro.jobqueue.queue import _DDL

        root = tmp_path / "svc"
        conn = connect(root / "queue.sqlite")
        ensure_schema(conn, "queue", 2, self.V2_POINTS + ";" + _DDL)
        conn.execute(
            "INSERT INTO jobs (id, name, state, n_points, n_shards,"
            " submitted_at) VALUES (1, 'old', 'done', 2, 1, 0)"
        )
        conn.execute(
            "INSERT INTO shards (job_id, shard, state) VALUES (1, 0, 'done')"
        )
        for idx, (job, ok) in enumerate(zip(_spec().jobs(), (True, False))):
            conn.execute(
                "INSERT INTO points (job_id, idx, shard, state, point_key,"
                " label, job, result) VALUES (1, ?, 0, 'done', ?, ?, ?, ?)",
                (
                    idx,
                    point_key(job),
                    job.label,
                    pickle.dumps(job),
                    pickle.dumps(job.result(ok=ok, worker="old")),
                ),
            )
        conn.close()

        service = SweepService(root)
        old = service.handle(1).poll()
        assert (old.state, old.done, old.failed) == ("done", 2, 1)
        handle = service.submit(_spec(procs=(2,)))
        assert service.serve_forever(once=True) == 1
        assert handle.poll().state == "done" and handle.poll().failed == 0
        assert [r.ok for r in handle.result(timeout=5)] == [True]
        assert service.queue.list_jobs()[0].failed == 1
        (version,) = service.queue.conn.execute(
            "SELECT version FROM schema_info WHERE name = 'queue'"
        ).fetchone()
        assert version == QUEUE_SCHEMA_VERSION == 3
        service.close()


class TestSessionSubmit:
    def test_session_submit_round_trip(self, tmp_path):
        session = Session()
        handle = session.submit(_spec(), service=tmp_path / "svc")
        worker = SweepService(tmp_path / "svc")
        worker.serve_forever(once=True)
        results = handle.result(timeout=60)
        assert len(results) == 2 and all(r.ok for r in results)
        direct = session.sweep(_spec(), workers=0)
        assert all(r.worker == "batched" for r in direct)
        assert _canon(results) == _canon(direct)
        worker.close()
        handle.service.close()


class TestWorkers:
    def test_supervised_workers_match_in_process_serving(self, tmp_path):
        spec = _spec(procs=(2, 3, 4, 5))
        inline = SweepService(tmp_path / "a")
        handle = inline.submit(spec, shards=4)
        assert inline.serve_forever(once=True) == 4
        inline_results = handle.result(timeout=60)
        inline.close()

        pooled = SweepService(tmp_path / "b")
        handle = pooled.submit(spec, shards=4)
        assert pooled.serve_forever(once=True, workers=2) == 4
        pooled_results = handle.result(timeout=0)
        owners = {
            event.payload["owner"]
            for event in handle.stream_events(timeout=5)
            if event.kind == "claimed"
        }
        assert pooled.owner not in owners  # children served, not the parent
        assert all(pooled.catalog.evaluations(j) == 1 for j in spec.jobs())
        pooled.close()
        assert _canon(inline_results) == _canon(pooled_results)


class TestShardJobs:
    def test_default_one_shard_per_fusion_group(self):
        jobs = _spec(procs=(2, 4, 8)).jobs()
        shards = shard_jobs(jobs)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(jobs)))

    def test_explicit_shard_count_partitions(self):
        jobs = _spec(procs=(2, 4, 8, 16)).jobs()
        shards = shard_jobs(jobs, 2)
        assert len(shards) <= 2
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(jobs)))

    def test_more_shards_than_points_clamps(self):
        jobs = _spec(procs=(2,)).jobs()
        assert shard_jobs(jobs, 5) == [[0]]
        assert shard_jobs([], 3) == []
        with pytest.raises(ValueError, match="shards must be >= 1"):
            shard_jobs(jobs, 0)
