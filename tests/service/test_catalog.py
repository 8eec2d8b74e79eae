"""The artifact catalog: point identity, exactly-once evaluation
accounting, reuse, and inspection/gc."""

import pytest

from repro.core.diskcache import CompileCache
from repro.core.driver import compile_source
from repro.programs import tomcatv_source
from repro.service import Catalog, point_key
from repro.sweep.spec import SweepResult, SweepSpec


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


class TestResults:
    def test_record_then_lookup_round_trips(self, tmp_path):
        catalog = Catalog(tmp_path / "c.sqlite")
        job = _jobs()[0]
        assert catalog.lookup(job) is None
        catalog.record_result(job, _result(job), job_id=3)
        found = catalog.lookup(job)
        assert found is not None
        assert found.total_time == 1.25
        assert found.canonical_stats == {"clock": 42}
        assert found.worker == "catalog"  # provenance tag on reuse

    def test_evaluations_counts_computes_not_reuses(self, tmp_path):
        catalog = Catalog(tmp_path / "c.sqlite")
        job = _jobs()[0]
        assert catalog.evaluations(job) == 0
        catalog.record_result(job, _result(job))
        assert catalog.evaluations(job) == 1
        catalog.lookup(job)
        catalog.lookup(job)
        assert catalog.evaluations(job) == 1
        # a crash-replayed re-record is counted, visible in the audit
        catalog.record_result(job, _result(job))
        assert catalog.evaluations(job) == 2

    def test_reuse_counter(self, tmp_path):
        catalog = Catalog(tmp_path / "c.sqlite")
        job = _jobs()[0]
        catalog.record_result(job, _result(job))
        catalog.lookup(job)
        catalog.lookup(job)
        row = catalog.show(point_key(job))
        assert row["reuses"] == 2 and row["evaluations"] == 1


class TestArtifacts:
    def test_record_compile_indexes_cache_entry(self, tmp_path):
        cache = CompileCache(tmp_path / "cache")
        job = _jobs()[0]
        cache.get_or_compile(
            job.source,
            job.options,
            lambda: compile_source(job.source, job.options),
        )
        catalog = Catalog(tmp_path / "c.sqlite")
        key = catalog.record_compile(job, cache)
        assert key is not None
        row = catalog.show(key)
        assert row["table"] == "artifacts" and row["exists"]
        assert row["program"] == job.program
        # second record of the same artifact bumps uses
        catalog.record_compile(job, cache)
        assert catalog.show(key)["uses"] == 2

    def test_record_compile_without_cache_is_noop(self, tmp_path):
        catalog = Catalog(tmp_path / "c.sqlite")
        assert catalog.record_compile(_jobs()[0], None) is None


class TestInspection:
    def test_ls_kinds_and_stats(self, tmp_path):
        catalog = Catalog(tmp_path / "c.sqlite")
        job = _jobs()[0]
        catalog.record_result(job, _result(job))
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
        path = tmp_path / "c.sqlite"
        old = Catalog(path)
        job = _jobs()[0]
        old.record_result(job, _result(job))
        old.conn.execute(
            "CREATE TABLE calibrations (path TEXT PRIMARY KEY,"
            " constants TEXT NOT NULL, recorded_at REAL NOT NULL)"
        )
        old.conn.commit()
        old.close()
        catalog = Catalog(path)
        assert [r["table"] for r in catalog.ls()] == ["results"]
        assert "calibrations" not in catalog.stats_dict()
        with pytest.raises(ValueError, match="unknown catalog kind"):
            catalog.ls("calibrations")
        assert catalog.lookup(job).total_time == 1.25

    def test_show_prefix_match_and_missing(self, tmp_path):
        catalog = Catalog(tmp_path / "c.sqlite")
        job = _jobs()[0]
        catalog.record_result(job, _result(job))
        key = point_key(job)
        row = catalog.show(key[:10])
        assert row["point_key"] == key
        assert row["record"]["total_time"] == 1.25  # expanded, not pickled
        with pytest.raises(KeyError, match="no catalog entry"):
            catalog.show("ffffffff")


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
        catalog = Catalog(tmp_path / "c.sqlite")
        keys = [catalog.record_compile(job, cache) for job in jobs]
        catalog.record_result(jobs[0], _result(jobs[0]))

        # orphan one artifact's cache file
        os.unlink(catalog.show(keys[0])["path"])
        preview = catalog.gc(dry_run=True)
        assert preview == {
            "orphans": 1, "aged_artifacts": 0, "aged_results": 0,
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
