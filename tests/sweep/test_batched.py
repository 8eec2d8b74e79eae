"""The batched sweep evaluator: result parity with the pool path,
compile dedup accounting, worker tags, and the per-lane fallback
ladder."""

import dataclasses
import json

import pytest

from repro.model import SP2
from repro.obs import Metrics
from repro.programs import tomcatv_source
from repro.sweep import SweepSpec, run_sweep

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
SLOW = dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6)


def _spec(mode="simulate", procs=(2, 4), machines=(SP2, FAST, SLOW)):
    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
        axes={"machine": machines},
        mode=mode,
    )


def _comparable(result):
    """Everything measurement-bearing; execution bookkeeping (worker,
    durations, cache/dedup provenance) legitimately differs by path."""
    record = result.as_dict()
    for name in ("worker", "duration_s", "cache_hit", "compile_dedup",
                 "attempts", "procs_lanes", "fallback_reason"):
        record.pop(name, None)
    return record


class TestParityWithPool:
    @pytest.mark.parametrize("mode", ["simulate", "estimate"])
    def test_batched_equals_pool_byte_for_byte(self, mode):
        spec = _spec(mode=mode)
        pool = run_sweep(spec, workers=0, mode="pool")
        batched = run_sweep(spec, workers=0, mode="batched")
        assert len(pool) == len(batched) == len(spec)
        for p, b in zip(pool, batched):
            assert json.dumps(_comparable(p), sort_keys=True) == json.dumps(
                _comparable(b), sort_keys=True
            )

    def test_estimate_cells_equal_dedicated_estimates(self):
        """Table 1's shape: one batch per strategy, three procs
        sub-groups each, and the strategies choose different mappings
        at different processor counts — every sub-group is priced on
        its own compile, and every cell is bitwise what
        ``Session.estimate`` says of that point alone."""
        from repro import Session

        spec = SweepSpec(
            programs={
                "tomcatv": lambda p: tomcatv_source(n=12, niter=1, procs=p)
            },
            procs=(1, 2, 4),
            axes={
                "strategy": ("replication", "producer", "selected"),
                "machine": (SP2, FAST),
            },
            mode="estimate",
        )
        metrics = Metrics()
        results = run_sweep(spec, workers=0, mode="batched", metrics=metrics)
        assert len(results) == 18
        assert metrics.counters["sweep.batched_groups"] == 3
        assert not any(
            name.startswith("sweep.lane_fallback") for name in metrics.counters
        )
        for job, result in zip(spec.jobs(), results):
            assert result.ok and result.worker == "batched"
            assert result.fallback_reason is None
            assert result.procs_lanes == 3
            alone = Session(job.options, use_calibration=False).estimate(
                job.source
            )
            assert (
                result.total_time, result.compute_time, result.comm_time
            ) == (alone.total_time, alone.compute_time, alone.comm_time)
            assert result.grid_size == job.procs

    def test_auto_picks_batched_when_lanes_fuse(self):
        metrics = Metrics()
        results = run_sweep(_spec(), workers=0, mode="auto", metrics=metrics)
        assert all(r.worker == "batched" for r in results)
        # 2 procs values x 3 machines -> ONE batch of 6 lanes in two
        # procs sub-groups (the procs axis is a lane dimension now)
        assert metrics.counters["sweep.batched_groups"] == 1
        assert metrics.counters["sweep.batched_lanes"] == 6
        assert metrics.counters["sweep.procs_fused"] == 6
        assert all(r.procs_lanes == 2 for r in results)

    def test_single_procs_batch_reports_one_procs_lane(self):
        metrics = Metrics()
        results = run_sweep(
            _spec(procs=(2,)), workers=0, mode="batched", metrics=metrics
        )
        assert all(r.procs_lanes == 1 for r in results)
        assert "sweep.procs_fused" not in metrics.counters


class TestAccounting:
    def test_compile_dedup_counter(self):
        metrics = Metrics()
        results = run_sweep(
            _spec(), workers=0, mode="batched", metrics=metrics
        )
        # each batch compiles once; the other lanes reuse it
        deduped = [r for r in results if r.compile_dedup]
        assert len(deduped) == 4
        assert metrics.counters["sweep.compile_dedup"] == 4
        assert metrics.counters["sweep.jobs_ok"] == 6

    def test_pool_path_dedups_repeated_compiles_serially(self):
        metrics = Metrics()
        spec = SweepSpec(
            programs={"tomcatv": tomcatv_source(n=10, niter=1, procs=2)},
            procs=(2, 2),
            mode="compile",  # unbatchable: exercises the serial memo
        )
        results = run_sweep(spec, workers=0, mode="auto", metrics=metrics)
        assert [r.compile_dedup for r in results] == [False, True]
        assert metrics.counters["sweep.compile_dedup"] == 1

    def test_batched_duration_amortized_over_lanes(self):
        results = run_sweep(_spec(procs=(2,)), workers=0, mode="batched")
        durations = {r.duration_s for r in results}
        assert len(durations) == 1  # one batch wall clock, split evenly
        assert durations.pop() > 0


class TestFallback:
    def test_failing_batch_degrades_to_per_lane_execution(self, monkeypatch):
        import repro.sweep.batched as batched_mod

        def boom(batch, compiled):
            raise RuntimeError("vector evaluation exploded")

        monkeypatch.setattr(batched_mod, "_simulate_lanes", boom)
        metrics = Metrics()
        spec = _spec(procs=(2,))
        results = run_sweep(spec, workers=0, mode="batched", metrics=metrics)
        assert metrics.counters["sweep.batched_fallbacks"] == 1
        assert [r.worker for r in results] == ["batched-fallback"] * 3
        assert all(r.ok for r in results)
        # the fallback results match a plain pool run
        pool = run_sweep(spec, workers=0, mode="pool")
        for p, b in zip(pool, results):
            assert p.label == b.label
            assert p.canonical_stats == b.canonical_stats

    def test_fallback_reason_names_the_rung_and_failure(self, monkeypatch):
        import repro.sweep.batched as batched_mod

        def boom(batch, compiled):
            raise RuntimeError("vector evaluation exploded")

        monkeypatch.setattr(batched_mod, "_simulate_lanes", boom)
        metrics = Metrics()
        results = run_sweep(
            _spec(procs=(2,)), workers=0, mode="batched", metrics=metrics
        )
        for result in results:
            assert result.fallback_reason is not None
            assert result.fallback_reason.startswith("lane-eval: ")
            assert "RuntimeError: vector evaluation exploded" in (
                result.fallback_reason
            )
            assert result.as_dict()["fallback_reason"] == (
                result.fallback_reason
            )
        assert metrics.counters[
            "sweep.lane_fallback[reason=lane-eval]"
        ] == len(results)

    def test_extraction_failure_degrades_to_per_lane_runs(self, monkeypatch):
        """Payloads come straight off each sub-simulation's clocks; a
        failure there lands on the last-resort rung, which reruns the
        batch's lanes one by one and loses no point."""
        import repro.sweep.batched as batched_mod

        def nope(sim, compiled):
            raise ValueError("extraction refused")

        monkeypatch.setattr(batched_mod, "_simulate_payloads", nope)
        metrics = Metrics()
        spec = _spec(procs=(2, 4), machines=(SP2,))
        results = run_sweep(spec, workers=0, mode="batched", metrics=metrics)
        assert [r.worker for r in results] == ["batched-fallback"] * 2
        for result in results:
            assert result.fallback_reason.startswith("batch: ")
            assert "ValueError: extraction refused" in result.fallback_reason
        assert metrics.counters["sweep.lane_fallback[reason=batch]"] == 2
        pool = run_sweep(spec, workers=0, mode="pool")
        for p, b in zip(pool, results):
            assert p.canonical_stats == b.canonical_stats

    def test_failing_estimate_degrades_its_own_sub_group_only(
        self, monkeypatch
    ):
        import repro.sweep.batched as batched_mod

        estimate_lanes = batched_mod._estimate_lanes

        def refuse_four_procs(batch, compiled):
            if compiled.grid.size == 4:
                raise ArithmeticError("estimate refused")
            return estimate_lanes(batch, compiled)

        monkeypatch.setattr(batched_mod, "_estimate_lanes", refuse_four_procs)
        metrics = Metrics()
        spec = _spec(mode="estimate")
        results = run_sweep(spec, workers=0, mode="batched", metrics=metrics)
        pool = run_sweep(spec, workers=0, mode="pool")
        for job, result, ref in zip(spec.jobs(), results, pool):
            assert _comparable(result) == _comparable(ref)
            if job.procs == 4:
                assert result.worker == "batched-fallback"
                assert result.fallback_reason.startswith("estimate: ")
                assert "ArithmeticError: estimate refused" in (
                    result.fallback_reason
                )
            else:
                assert result.worker == "batched"
                assert result.fallback_reason is None
        assert metrics.counters["sweep.lane_fallback[reason=estimate]"] == 3

    def test_healthy_batched_run_has_no_fallback_reason(self):
        results = run_sweep(_spec(procs=(2,)), workers=0, mode="batched")
        for result in results:
            assert result.fallback_reason is None
            assert "fallback_reason" not in result.as_dict()
