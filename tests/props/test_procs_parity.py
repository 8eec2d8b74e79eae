"""Property: the procs axis as a lane dimension is byte-for-bit
invisible.

The batched sweep evaluator fuses grid points that differ only in the
requested processor count into one batch of procs sub-groups (one
compile + one sub-simulation each, adopted into a batch-wide lane
vector at extraction).  Unlike machine parameters, the processor count
*does* steer behaviour — executor sets, memory layouts, comm schedules,
and tier decisions all depend on P — which is exactly why the evaluator
simulates per procs sub-group and fuses at extract.  These tests
byte-compare (canonical JSON) the procs-fused batched records against
per-procs dedicated runs for the three paper kernels, hammer randomized
procs subsets with a hypothesis property, and prove the parity survives
a nest that demotes to tier 2 mid-run (the slab executor gives up after
``GIVE_UP_AFTER`` consecutive prepare bails)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import CompilerOptions, compile_source
from repro.machine import slabexec
from repro.machine.simulator import simulate
from repro.model import SP2
from repro.obs import Metrics
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.sweep import SweepSpec, run_sweep

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
SLOW = dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6)
WAN = dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6)

#: program name -> (source builder, procs values); every grid fuses
#: len(procs) sub-groups per batch
GRIDS = {
    "tomcatv": (lambda p: tomcatv_source(n=10, niter=1, procs=p), (1, 2, 4)),
    "dgefa": (lambda p: dgefa_source(n=10, procs=p), (1, 2, 4)),
    "appsp": (
        lambda p: appsp_source(nx=8, ny=8, nz=8, niter=1, procs=p),
        (2, 4),
    ),
}
MACHINES = (SP2, FAST, SLOW, WAN)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _reference_stats(source: str, options: CompilerOptions, seed: int):
    """One dedicated per-procs grid point: fresh compile, deterministic
    inputs, tier="auto" simulation."""
    compiled = compile_source(source, options)
    rng = np.random.default_rng(seed)
    inputs = {
        s.name: rng.uniform(0.5, 1.5, tuple(s.extent(d) for d in range(s.rank)))
        for s in compiled.proc.symbols.arrays()
    }
    sim = simulate(compiled, inputs, tier="auto")
    return sim.canonical_stats(), sim.elapsed, sim.stats.messages


def _grid_spec(program, machines=MACHINES, procs=None):
    builder, default_procs = GRIDS[program]
    return SweepSpec(
        programs={program: builder},
        procs=tuple(procs if procs is not None else default_procs),
        axes={"machine": machines},
        mode="simulate",
        seed=3,
    )


@pytest.mark.parametrize("program", sorted(GRIDS))
def test_procs_fused_batch_matches_per_procs_runs(program):
    spec = _grid_spec(program)
    jobs = spec.jobs()
    results = run_sweep(spec, workers=0, mode="batched")
    assert [r.label for r in results] == [j.label for j in jobs]
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.worker == "batched"
        # the whole procs axis fused into this point's batch
        assert result.procs_lanes == len(spec.procs)
        stats, elapsed, messages = _reference_stats(
            job.source, job.options, job.seed
        )
        assert _canonical(result.canonical_stats) == _canonical(stats)
        assert result.elapsed == elapsed  # bitwise, not approx
        assert result.messages == messages


@pytest.mark.parametrize("program", sorted(GRIDS))
def test_procs_fused_batch_matches_pool_mode(program):
    """The same grid through mode="pool" (per-job execution) — every
    measurement field identical, only execution bookkeeping differs."""
    spec = _grid_spec(program)
    batched = run_sweep(spec, workers=0, mode="batched")
    pooled = run_sweep(spec, workers=0, mode="pool")
    # execution bookkeeping (who ran it, how fast, what was shared)
    # legitimately differs between modes; the measurements must not
    strip = ("worker", "duration_s", "procs_lanes", "compile_dedup",
             "cache_hit")
    for fast, ref in zip(batched, pooled):
        a, b = fast.as_dict(), ref.as_dict()
        for key in strip:
            a.pop(key), b.pop(key)
        assert _canonical(a) == _canonical(b)


PROCS_CHOICES = (1, 2, 3, 4, 6, 8)


@settings(max_examples=6, deadline=None)
@given(
    procs=st.lists(
        st.sampled_from(PROCS_CHOICES), min_size=2, max_size=4, unique=True
    ),
    machines=st.sampled_from([(SP2,), (SP2, WAN), (FAST, SLOW)]),
)
def test_random_procs_subsets_stay_byte_identical(procs, machines):
    spec = SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=8, niter=1, procs=p)},
        procs=tuple(procs),
        axes={"machine": machines},
        mode="simulate",
        seed=7,
    )
    jobs = spec.jobs()
    results = run_sweep(spec, workers=0, mode="batched")
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.procs_lanes == len(procs)
        stats, elapsed, _ = _reference_stats(job.source, job.options, job.seed)
        assert _canonical(result.canonical_stats) == _canonical(stats)
        assert result.elapsed == elapsed


# -- mid-run tier demotion ---------------------------------------------------

GIVE_UP_AFTER = slabexec.GIVE_UP_AFTER

#: enough outer iterations that tomcatv's slab-approved nests — taken
#: over at the ``j`` loop, once per iteration — are entered past
#: GIVE_UP_AFTER times
DEMOTE_SOURCE_NITER = 10


def _force_prepare_bails(monkeypatch):
    """Every slab takeover attempt bails at prepare: statically eligible
    nests are approved, build plans, then fail GIVE_UP_AFTER consecutive
    prepares and are demoted to tier 2 for the rest of the run."""

    def bailing(self, low, high, step, env):
        raise slabexec._Bail("forced bail (demotion test)")

    monkeypatch.setattr(slabexec.NestPlan, "prepare", bailing)


def test_forced_bails_actually_demote(monkeypatch):
    """Sanity for the parity test below: with prepare always bailing,
    some nest is entered more often than GIVE_UP_AFTER but pays exactly
    GIVE_UP_AFTER prepares — i.e. it was demoted mid-run."""
    source = tomcatv_source(n=10, niter=DEMOTE_SOURCE_NITER, procs=4)
    options = CompilerOptions(num_procs=4)
    baseline = Metrics()
    compiled = compile_source(source, options)
    rng = np.random.default_rng(3)
    inputs = {
        s.name: rng.uniform(0.5, 1.5, tuple(s.extent(d) for d in range(s.rank)))
        for s in compiled.proc.symbols.arrays()
    }
    simulate(compiled, inputs, tier="auto", metrics=baseline)
    entries = {
        key.split("loop=")[1].split(",")[0]: count
        for key, count in baseline.counters.items()
        if key.startswith("tier.decision[") and "choice=slab" in key
    }
    busy = {loop for loop, count in entries.items() if count > GIVE_UP_AFTER}
    assert busy, "grid too small: no slab nest entered > GIVE_UP_AFTER times"

    _force_prepare_bails(monkeypatch)
    demoted = Metrics()
    simulate(compiled, inputs, tier="auto", metrics=demoted)
    for loop in busy:
        bails = demoted.counters.get(f"slab.fallback[loop={loop}]", 0)
        assert bails == GIVE_UP_AFTER, (
            f"{loop}: entered {entries[loop]} times but paid {bails} "
            f"prepares — demotion did not engage"
        )


def test_demoting_nests_stay_byte_identical(monkeypatch):
    """Demotion is per-simulation state; the procs-fused batch must
    reproduce each per-procs run's demotion trajectory exactly."""
    _force_prepare_bails(monkeypatch)
    spec = SweepSpec(
        programs={
            "tomcatv": lambda p: tomcatv_source(
                n=10, niter=DEMOTE_SOURCE_NITER, procs=p
            )
        },
        procs=(1, 2, 4),
        axes={"machine": (SP2, WAN)},
        mode="simulate",
        seed=3,
    )
    jobs = spec.jobs()
    results = run_sweep(spec, workers=0, mode="batched")
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.worker == "batched"
        assert result.procs_lanes == 3
        stats, elapsed, messages = _reference_stats(
            job.source, job.options, job.seed
        )
        assert _canonical(result.canonical_stats) == _canonical(stats)
        assert result.elapsed == elapsed
        assert result.messages == messages
