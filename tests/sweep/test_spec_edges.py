"""Grid-expansion edge cases and the batched/pool partition invariant:
however a job list is split, every grid point lands in exactly one
execution path, and the result list the caller sees is the job list —
same count, same order, same labels."""

import dataclasses

import pytest

from repro.core.driver import CompilerOptions
from repro.model import SP2
from repro.programs import dgefa_source
from repro.sweep import SweepJob, SweepSpec, plan_batches, run_sweep

FAST = MachineVariant = dataclasses.replace(
    SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6
)
SRC = dgefa_source(n=8, procs=2)


def _job(**kwargs):
    kwargs.setdefault("program", "dgefa")
    kwargs.setdefault("source", SRC)
    kwargs.setdefault("options", CompilerOptions(num_procs=2))
    kwargs.setdefault("procs", 2)
    kwargs.setdefault("mode", "simulate")
    return SweepJob(**kwargs)


class TestSpecEdges:
    def test_empty_procs_axis(self):
        spec = SweepSpec(programs={"dgefa": SRC}, procs=())
        assert len(spec) == 0
        assert spec.jobs() == []
        assert run_sweep(spec, workers=0) == []

    def test_empty_programs(self):
        spec = SweepSpec(programs={}, procs=(2, 4))
        assert len(spec) == 0
        assert run_sweep(spec, workers=0) == []

    def test_duplicate_grid_points_all_survive(self):
        """Identical points (procs repeated) batch into one evaluation
        but still come back as distinct results, in grid order."""
        spec = SweepSpec(
            programs={"dgefa": SRC}, procs=(2, 2, 2), mode="simulate"
        )
        jobs = spec.jobs()
        assert len(jobs) == 3
        results = run_sweep(spec, workers=0, mode="batched")
        assert [r.label for r in results] == [j.label for j in jobs]
        assert all(r.ok for r in results)
        assert all(r.worker == "batched" for r in results)
        # the duplicates shared one compile
        assert [r.compile_dedup for r in results] == [False, True, True]
        assert results[0].canonical_stats == results[1].canonical_stats

    def test_none_procs_mixed_with_concrete(self):
        """procs=None (source directive decides) coexists with
        explicit counts in one grid."""
        spec = SweepSpec(
            programs={"dgefa": lambda p: dgefa_source(n=8, procs=p or 2)},
            procs=(None, 2, 4),
            mode="simulate",
        )
        jobs = spec.jobs()
        assert [j.procs for j in jobs] == [None, 2, 4]
        results = run_sweep(spec, workers=0, mode="auto")
        assert [r.label for r in results] == [j.label for j in jobs]
        assert all(r.ok for r in results)
        # None defers to the PROCESSORS directive; explicit counts win
        assert [r.grid_size for r in results] == [2, 2, 4]


class TestPartitionInvariant:
    def test_every_job_in_exactly_one_place(self):
        jobs = [
            _job(),  # lane 0 of batch A
            _job(options=CompilerOptions(num_procs=2, machine=FAST)),  # lane 1
            _job(mode="compile"),  # leftover: not batchable
            _job(mode="estimate"),  # batch B (mode differs)
            # lane 2 of batch A: the procs axis is a lane dimension
            # now, so a different count is a sub-group, not a new batch
            _job(procs=4, options=CompilerOptions(num_procs=4)),
            _job(),  # lane 3 of batch A (duplicate point)
        ]
        batches, leftover = plan_batches(jobs)
        batched_indices = [i for b in batches for i in b.indices]
        assert sorted(batched_indices + leftover) == list(range(len(jobs)))
        assert len(set(batched_indices)) == len(batched_indices)
        assert leftover == [2]
        by_len = sorted(len(b) for b in batches)
        assert by_len == [1, 4]
        # batch A splits into one sub-group per compiled program
        big = next(b for b in batches if len(b) == 4)
        assert [len(g) for g in big.subgroups()] == [3, 1]

    def test_grouping_never_drops_or_duplicates_results(self):
        """The caller-visible contract: mixed batchable/unbatchable
        grids return one result per job, labels in job order,
        identically for every mode."""
        jobs = [
            _job(label="a"),
            _job(label="b", mode="compile"),
            _job(label="c", options=CompilerOptions(num_procs=2, machine=FAST)),
            _job(label="d", mode="estimate"),
            _job(label="e"),
        ]
        for mode in ("auto", "pool", "batched"):
            results = run_sweep(list(jobs), workers=0, mode=mode)
            assert [r.label for r in results] == ["a", "b", "c", "d", "e"]
            assert all(r.ok for r in results), mode

    def test_single_lane_batches_take_pool_path_in_auto(self):
        """auto only pays the batched machinery when some batch has
        lanes to fuse — points differing in a non-lane option (which
        changes the experiment) stay on the pool path."""
        jobs = [
            _job(),
            _job(options=CompilerOptions(num_procs=2, strategy="consumer")),
        ]
        results = run_sweep(jobs, workers=0, mode="auto")
        assert all(r.worker == "serial" for r in results)

    def test_procs_only_grid_fuses_in_auto(self):
        """The tentpole payoff: a pure procs sweep (one machine) is one
        batch of procs sub-groups, not one simulation per point."""
        jobs = [_job(), _job(procs=4, options=CompilerOptions(num_procs=4))]
        results = run_sweep(jobs, workers=0, mode="auto")
        assert all(r.worker == "batched" for r in results)
        assert all(r.procs_lanes == 2 for r in results)

    def test_rejects_unknown_exec_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_sweep([_job()], workers=0, mode="warp")
