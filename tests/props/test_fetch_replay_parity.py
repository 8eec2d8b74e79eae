"""Property: the run-wise fetch replay is the per-element replay.

``_FetchLog.commit`` charges a takeover's communication one *message
run* at a time — consecutive fetches by one reader from one source
while the source has nothing pending — as one left fold each.  The loop
it replaced charged one element at a time; that loop lives on here, in
plain float arithmetic with no ``Clocks`` and no numpy folds, as the
oracle.  Hypothesis draws replay scripts — rank tapes (some empty, some
absent), statement charges (some ``0.0``), fetch sequences with runs of
every length, a source computing inside another pair's run, several
fetches in one instance, startups in mid-run — and every clock of every
rank must come out bitwise equal, on scalar clocks and on every lane of
a lane-vector machine.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.batchexec import VectorMachine
from repro.machine.slabexec import _FetchLog
from repro.machine.stats import Clocks, TrafficStats
from repro.model import MachineModel

LANES = 3


def _reference(model, warmup, flops, tapes, fetches):
    """The per-element loop: flush reader, flush source, ``later``, add.
    Returns ``(time, compute_time, comm_time)`` and the number of runs."""
    dts = [model.compute_time(f, 1) for f in flops]
    time = [model.compute_time(f, 1) for f in warmup]
    compute, comm = list(time), [0.0] * len(time)
    done = dict.fromkeys(tapes, 0)

    def flush(r, before):
        """Charge rank ``r``'s pending instances below ``before``."""
        steps, at = tapes.get(r, ((), ()))
        upto = sum(i < before for i in at)
        flushed = upto > done.get(r, 0)
        if flushed:
            for step in steps[done[r]:upto]:
                time[r] += dts[step]
            done[r] = upto
        return flushed

    runs, pair = 0, None
    for inst, src, dst, startup in fetches:
        flush(dst, inst)
        moved = flush(src, inst)
        runs += moved or pair != (src, dst)
        pair = (src, dst)
        dt = model.beta * model.element_bytes * 1
        if startup:
            dt = dt + model.alpha
        time[src] = time[dst] = max(time[src], time[dst]) + dt
        comm[src] += dt
        comm[dst] += dt
    for r, (steps, _at) in tapes.items():
        flush(r, float("inf"))
        for step in steps:
            compute[r] += dts[step]
    return (time, compute, comm), runs


def _replayed(machine, warmup, flops, tapes, fetches):
    """The same script through ``_FetchLog.commit`` on real clocks."""
    clocks = Clocks(len(warmup), machine)
    for r, f in enumerate(warmup):
        clocks.charge_compute(r, f)
    sim = SimpleNamespace(
        clocks=clocks, stats=TrafficStats(), memories=[None] * len(warmup),
        _fetch_keys_seen=set(),
    )
    inst, src, dst, startup = (np.asarray(col) for col in zip(*fetches))
    # the tapes end to end in rank order, rank r's at bounds[r]:bounds[r+1]
    bounds = np.zeros(len(warmup) + 1, dtype=np.int64)
    for r, (steps, _at) in tapes.items():
        bounds[r + 1] = len(steps)
    steps, at = (
        np.concatenate([np.asarray(tape[k], dtype) for tape in tapes.values()])
        for k, dtype in enumerate((np.uint8, np.int64))
    )
    fetched, runs = _FetchLog(sim, ()).commit(
        (inst, src, dst, startup.astype(np.bool_), [], []),
        clocks.tape([machine.compute_time(f, 1) for f in flops]),
        (bounds.cumsum(), steps, at),
    )
    assert fetched == len(fetches)
    return clocks, runs


def _bits(times):
    return [float(t).hex() for t in times]


_costs = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-2))


@st.composite
def machines(draw):
    return MachineModel(
        name="drawn",
        alpha=draw(_costs),
        beta=draw(_costs),
        flop_time=draw(_costs),
        stmt_overhead=draw(st.sampled_from([0.0, 1e-8])),
        element_bytes=draw(st.sampled_from([1, 8])),
    )


@st.composite
def replay_scripts(draw):
    """``(warmup, flops, tapes, fetches)``: per-rank flops charged
    before the takeover (so the clocks start apart), the statements'
    flops, ``tapes[r] = (steps, instances)`` and the fetches
    ``(instance, source, reader, startup)`` in per-iteration order.
    Instances come in same-rank blocks, like the columns of a nest, and
    a fetch's reader is the rank running its instance."""
    nranks = draw(st.integers(2, 6))
    ranks = st.integers(0, nranks - 1)
    warmup = draw(
        st.lists(st.integers(0, 50), min_size=nranks, max_size=nranks)
    )
    flops = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    steps = st.lists(st.integers(0, len(flops) - 1), min_size=1, max_size=6)
    blocks = draw(st.lists(st.tuples(ranks, steps), min_size=1, max_size=8))
    # ranks that take part without running anything: an empty tape
    tapes = {r: ([], []) for r in draw(st.sets(ranks))}
    runner = []
    for rank, steps in blocks:
        for step in steps:
            tape = tapes.setdefault(rank, ([], []))
            tape[0].append(step)
            tape[1].append(len(runner))
            runner.append(rank)
    # few sources, so that consecutive fetches often share one
    sources = draw(st.lists(ranks, min_size=1, max_size=2))
    fetches = []
    for inst in sorted(draw(st.lists(
        st.integers(0, len(runner) - 1), min_size=1, max_size=30
    ))):
        src = draw(st.sampled_from(sources))
        if src == runner[inst]:
            src = (src + 1) % nranks
        fetches.append((inst, src, runner[inst], draw(st.booleans())))
    return warmup, flops, dict(sorted(tapes.items())), fetches


@settings(max_examples=150, deadline=None)
@given(
    script=replay_scripts(),
    models=st.lists(machines(), min_size=LANES, max_size=LANES),
)
def test_run_replay_matches_per_element_replay(script, models):
    lanes, lane_runs = _replayed(VectorMachine(models), *script)
    for lane, model in enumerate(models):
        expected, runs = _reference(model, *script)
        scalar, scalar_runs = _replayed(model, *script)
        assert scalar_runs == lane_runs == runs
        snapshots = scalar.snapshot(), lanes.lane_snapshot(lane)
        for name, times in zip(
            ("time", "compute_time", "comm_time"), expected
        ):
            for snapshot in snapshots:
                assert _bits(snapshot[name]) == _bits(times), name


def test_the_drawn_scripts_reach_every_run_shape():
    """What the property relies on the strategy to produce, pinned on
    fixed scripts: a run longer than one message with the reader's
    compute inside it, and one cut by its source's own compute."""
    model = MachineModel()
    fetches = [(0, 0, 1, True), (2, 0, 1, False)]
    # rank 1 reads twice from rank 0 around an instance of its own: one run
    one = ([0, 3], [2], {1: ([0, 0, 0], [0, 1, 2])}, fetches)
    # ... but with rank 0 computing in between: two
    cut = ([0, 3], [2], {0: ([0], [1]), 1: ([0, 0], [0, 2])}, fetches)
    for script, runs in ((one, 1), (cut, 2)):
        expected, counted = _reference(model, *script)
        clocks, replayed = _replayed(model, *script)
        assert counted == replayed == runs
        assert _bits(clocks.time) == _bits(expected[0])
