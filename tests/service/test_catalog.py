"""The artifact catalog: point identity, exactly-once evaluation
accounting, reuse, and inspection/gc."""

import pytest

from repro.core.diskcache import CompileCache, options_signature
from repro.core.driver import CompilerOptions, compile_source
from repro.model import MachineModel
from repro.programs import tomcatv_source
from functools import partial

from repro.jobqueue import JobQueue
from repro.service import Catalog, point_key
from repro.sweep.spec import SweepJob, SweepResult, SweepSpec


def _jobs(procs=(2, 4)):
    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
    ).jobs()


def _result(job, **overrides):
    fields = dict(
        label=job.label, program=job.program, mode=job.mode,
        procs=job.procs, options=job.options, ok=True, worker="test",
        total_time=1.25, canonical_stats={"clock": 42},
    )
    fields.update(overrides)
    return SweepResult(**fields)


class TestPointKey:
    def test_identity_is_stable_and_discriminating(self):
        a, b = _jobs()
        assert point_key(a) == point_key(a)
        assert point_key(a) != point_key(b)  # different procs → source
        again = _jobs()[0]
        assert point_key(a) == point_key(again)

    def test_mode_and_seed_matter(self):
        job = _jobs()[0]
        import dataclasses

        other_seed = dataclasses.replace(job, seed=7)
        assert point_key(job) != point_key(other_seed)


def _catalog(tmp_path):
    """A catalog on a fresh queue database, and the queue."""
    queue = JobQueue(tmp_path / "q.sqlite")
    return Catalog(queue.conn), queue


def _land(queue, job, result, *, key=None, reused=False):
    """Run one job of one point through the queue, ending with
    ``result`` (measured, or ``reused``): how a result enters the
    catalog.  Returns the job id."""
    job_id = queue.submit([job], [key or point_key(job)], [[0]])
    claim = queue.claim("test")
    assert claim.job_id == job_id
    queue.complete_point(job_id, 0, result, reused=reused)
    assert queue.finish_shard(job_id, claim.shard, "test")
    return job_id


def _corrupt(catalog, key):
    catalog.conn.execute(
        "UPDATE points SET result = ? WHERE point_key = ?",
        (b"\x80\x05garbage", key),
    )


_KEYS_SOURCE = "      PROGRAM KEYS\n      END\n"

#: (job, options_signature, point_key): every byte of both is the
#: identity of existing catalogs and compile caches.  Re-captured when
#: the nest-cost constants left the options (a catalog or cache written
#: before then misses once per point and recomputes)
GOLDEN_KEYS = [
    (
        SweepJob(
            program="keys",
            source=_KEYS_SOURCE,
            options=CompilerOptions(num_procs=4),
            mode="simulate",
            procs=4,
        ),
        "align_reductions=True;auto_privatize_arrays=False;"
        "combine_messages=False;machine=MachineModel(alpha=4e-05,"
        "beta=2.8571428571428572e-08,element_bytes=8,flop_time=2e-08,"
        "name='SP2-like',stmt_overhead=1e-08);message_vectorization=True;"
        "num_procs=4;partial_privatization=True;"
        "privatize_arrays=True;privatize_control_flow=True;"
        "strategy='selected'",
        "3054e373687bd7233514e9d09a62809b045bf934348c1371ce42c0f3123b9675",
    ),
    (
        SweepJob(
            program="keys",
            source=_KEYS_SOURCE,
            options=CompilerOptions(
                num_procs=2,
                machine=MachineModel(
                    name="fast-net", alpha=5e-6, beta=1.0 / 400e6
                ),
            ),
            mode="estimate",
            procs=2,
            seed=3,
        ),
        "align_reductions=True;auto_privatize_arrays=False;"
        "combine_messages=False;machine=MachineModel(alpha=5e-06,"
        "beta=2.5e-09,element_bytes=8,flop_time=2e-08,name='fast-net',"
        "stmt_overhead=1e-08);message_vectorization=True;"
        "num_procs=2;partial_privatization=True;"
        "privatize_arrays=True;privatize_control_flow=True;"
        "strategy='selected'",
        "ef5317bd35a09372fb6a2673390c5a805503d03ad4c3ea46fcccd264afdee542",
    ),
]


class TestGoldenKeys:
    @pytest.mark.parametrize(
        "job, signature, key",
        GOLDEN_KEYS,
        ids=["default", "fast-net-machine"],
    )
    def test_signature_and_point_key_are_byte_stable(
        self, job, signature, key
    ):
        assert options_signature(job.options) == signature
        assert point_key(job) == key

    def test_no_signature_carries_tier_constants(self):
        """The tier plan's constants are fixed, so they are no part of
        any point's identity."""
        for job, _, _ in GOLDEN_KEYS:
            assert "nest_cost_constants" not in options_signature(
                job.options
            )


class TestResults:
    def test_record_then_lookup_round_trips(self, tmp_path):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        assert catalog.lookup(job) is None
        _land(queue, job, _result(job))
        found = catalog.lookup(job)
        assert found is not None
        assert found.total_time == 1.25
        assert found.canonical_stats == {"clock": 42}
        assert found.worker == "catalog"  # provenance tag on reuse

    def test_evaluations_counts_computes_not_reuses(self, tmp_path):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        assert catalog.evaluations(job) == 0
        _land(queue, job, _result(job))
        assert catalog.evaluations(job) == 1
        catalog.lookup(job)
        catalog.lookup(job)
        assert catalog.evaluations(job) == 1
        # a crash-replayed re-measurement is counted, visible in the audit
        _land(queue, job, _result(job))
        assert catalog.evaluations(job) == 2

    def test_reuse_counter(self, tmp_path):
        """``reuses`` counts the points a result was served to; a bare
        lookup serves nothing."""
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        _land(queue, job, _result(job))
        for _ in range(2):
            _land(queue, job, catalog.lookup(job), reused=True)
        catalog.lookup(job)
        row = catalog.show(point_key(job))
        assert row["reuses"] == 2 and row["evaluations"] == 1

    def test_find_reads_a_shard_and_counts_no_reuse(self, tmp_path):
        catalog, queue = _catalog(tmp_path)
        a, b = _jobs()
        _land(queue, a, _result(a))
        keys = [point_key(a), point_key(b), point_key(a), point_key(a)]
        found = catalog.find(keys)
        assert set(found) == {point_key(a)}  # b was never recorded
        assert found[point_key(a)].worker == "catalog"
        assert catalog.show(point_key(a))["reuses"] == 0
        assert catalog.find([]) == {}

    def test_a_failed_point_is_never_a_result(self, tmp_path):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        _land(queue, job, _result(job, ok=False, error="boom"))
        assert catalog.lookup(job) is None
        assert catalog.evaluations(job) == 0
        assert catalog.ls("results") == []
        assert catalog.stats_dict()["results"]["entries"] == 0

    def test_the_newest_measured_row_is_served_else_a_served_one(
        self, tmp_path
    ):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        first = _land(queue, job, _result(job, total_time=1.0))
        _land(queue, job, _result(job, total_time=2.0))
        assert catalog.lookup(job).total_time == 2.0
        _land(queue, job, catalog.lookup(job), reused=True)
        queue.conn.execute("DELETE FROM jobs WHERE id > ?", (first,))
        assert catalog.lookup(job).total_time == 1.0
        _land(queue, job, _result(job, total_time=3.0), reused=True)
        assert catalog.lookup(job).total_time == 1.0
        queue.conn.execute("DELETE FROM jobs WHERE id = ?", (first,))
        # only a job it was served to holds the result now
        assert catalog.lookup(job).total_time == 3.0
        row = catalog.show(point_key(job))
        assert (row["evaluations"], row["reuses"]) == (0, 1)

    def test_an_undecodable_record_is_a_miss_until_recomputed(
        self, tmp_path
    ):
        catalog, queue = _catalog(tmp_path)
        a, b = _jobs()
        for job in (a, b):
            _land(queue, job, _result(job))
        _corrupt(catalog, point_key(a))
        found = catalog.find([point_key(a), point_key(b)])
        assert list(found) == [point_key(b)]  # the other hit still lands
        row = catalog.show(point_key(a))
        assert row["record"] is None and "does not unpickle" in row["error"]
        assert row["reuses"] == 0  # a miss is not a reuse
        _land(queue, a, _result(a, total_time=2.5))
        assert catalog.evaluations(a) == 2
        assert catalog.lookup(a).total_time == 2.5

    def test_a_point_commit_indexes_its_compile_in_the_same_transaction(
        self, tmp_path
    ):
        cache = CompileCache(tmp_path / "cache")
        job = _jobs()[0]
        cache.get_or_compile(
            job.source,
            job.options,
            lambda: compile_source(job.source, job.options),
        )
        catalog, queue = _catalog(tmp_path)
        job_id = queue.submit([job], [point_key(job)], [[0]])
        record = partial(catalog.record_compile, job, cache)
        queue.complete_points(job_id, [(0, _result(job))], record=record)
        assert catalog.evaluations(job) == 1
        (artifact,) = catalog.ls("artifacts")
        assert artifact["options_signature"] == options_signature(job.options)
        assert artifact["uses"] == 1


class TestArtifacts:
    def test_record_compile_indexes_cache_entry(self, tmp_path):
        cache = CompileCache(tmp_path / "cache")
        job = _jobs()[0]
        cache.get_or_compile(
            job.source,
            job.options,
            lambda: compile_source(job.source, job.options),
        )
        catalog, _ = _catalog(tmp_path)
        key = catalog.record_compile(job, cache)
        assert key is not None
        row = catalog.show(key)
        assert row["table"] == "artifacts" and row["exists"]
        assert row["program"] == job.program
        # second record of the same artifact bumps uses
        catalog.record_compile(job, cache)
        assert catalog.show(key)["uses"] == 2

    def test_record_compile_without_cache_is_noop(self, tmp_path):
        catalog, _ = _catalog(tmp_path)
        assert catalog.record_compile(_jobs()[0], None) is None


class TestInspection:
    def test_ls_kinds_and_stats(self, tmp_path):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        _land(queue, job, _result(job))
        assert [r["table"] for r in catalog.ls("results")] == ["results"]
        assert catalog.ls("artifacts") == []
        with pytest.raises(ValueError, match="unknown catalog kind"):
            catalog.ls("bogus")
        stats = catalog.stats_dict()
        assert stats["results"]["entries"] == 1
        assert stats["results"]["evaluations"] == 1

    def test_a_catalog_written_with_the_calibrations_table_still_opens(
        self, tmp_path
    ):
        """Earlier releases created an (always empty) ``calibrations``
        table; the schema version did not move when it went."""
        old, queue = _catalog(tmp_path)
        job = _jobs()[0]
        _land(queue, job, _result(job))
        old.conn.execute(
            "CREATE TABLE calibrations (path TEXT PRIMARY KEY,"
            " constants TEXT NOT NULL, recorded_at REAL NOT NULL)"
        )
        old.conn.commit()
        queue.close()
        catalog, _ = _catalog(tmp_path)
        assert [r["table"] for r in catalog.ls()] == ["results"]
        assert "calibrations" not in catalog.stats_dict()
        with pytest.raises(ValueError, match="unknown catalog kind"):
            catalog.ls("calibrations")
        assert catalog.lookup(job).total_time == 1.25

    def test_show_prefix_match_and_missing(self, tmp_path):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        _land(queue, job, _result(job))
        key = point_key(job)
        row = catalog.show(key[:10])
        assert row["point_key"] == key
        assert row["record"]["total_time"] == 1.25  # expanded, not pickled
        with pytest.raises(KeyError, match="no catalog entry"):
            catalog.show("ffffffff")

    @pytest.mark.parametrize(
        "prefix, message",
        [
            ("", "empty key prefix matches all 3 catalog entries"),
            ("_", "no catalog entry matches '_'"),
            ("%", "no catalog entry matches '%'"),
            ("ab_", "no catalog entry matches 'ab_'"),
            ("ab", "2 catalog entries match 'ab'"),
        ],
    )
    def test_show_matches_the_prefix_literally_and_uniquely(
        self, tmp_path, prefix, message
    ):
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        for key in ("abc1", "abd2", "ffe3"):
            _land(queue, job, _result(job), key=key)
        with pytest.raises(KeyError, match=message):
            catalog.show(prefix)
        assert catalog.show("abc")["point_key"] == "abc1"
        assert catalog.show("ffe3")["point_key"] == "ffe3"


class TestGc:
    def test_gc_drops_orphans_and_aged(self, tmp_path):
        import os
        import time

        cache = CompileCache(tmp_path / "cache")
        jobs = _jobs()
        for job in jobs:
            cache.get_or_compile(
                job.source,
                job.options,
                lambda job=job: compile_source(job.source, job.options),
            )
        catalog, queue = _catalog(tmp_path)
        keys = [catalog.record_compile(job, cache) for job in jobs]
        _land(queue, jobs[0], _result(jobs[0]))

        # orphan one artifact's cache file
        os.unlink(catalog.show(keys[0])["path"])
        preview = catalog.gc(dry_run=True)
        assert preview == {
            "orphans": 1, "aged_artifacts": 0, "aged_results": 0, "jobs": 0,
        }
        assert len(catalog.ls("artifacts")) == 2  # dry run kept rows

        removed = catalog.gc()
        assert removed["orphans"] == 1
        assert len(catalog.ls("artifacts")) == 1

        # age out everything older than "now"
        time.sleep(0.02)
        removed = catalog.gc(max_age_days=1e-8)
        assert removed["aged_artifacts"] == 1
        assert removed["aged_results"] == 1
        assert catalog.ls() == []

    def test_a_result_lives_while_a_kept_job_holds_it(self, tmp_path):
        """Results age with the queue's jobs: one goes when the last
        job holding a done row for it goes, measured or served."""
        catalog, queue = _catalog(tmp_path)
        job = _jobs()[0]
        measured = _land(queue, job, _result(job))
        served = _land(queue, job, catalog.lookup(job), reused=True)

        def age(job_id):
            queue.conn.execute(
                "UPDATE jobs SET finished_at = finished_at - 3 * 86400.0"
                " WHERE id = ?",
                (job_id,),
            )

        def aged(**flags):
            removed = catalog.gc(max_age_days=1, **flags)
            return removed["jobs"], removed["aged_results"]

        age(measured)
        assert aged(dry_run=True) == (1, 0)
        assert len(queue.list_jobs()) == 2  # dry run kept the job
        assert aged() == (1, 0)
        assert [status.job_id for status in queue.list_jobs()] == [served]
        assert catalog.lookup(job).total_time == 1.25
        age(served)
        assert aged() == (1, 1)
        assert catalog.lookup(job) is None and queue.list_jobs() == []
