"""Minimized fuzz divergences as pinned regressions, plus the
generator's validity invariants as properties.

Every divergence class a ``repro fuzz`` campaign has found lands here
minimized: the program from ``tests/corpus/`` re-runs through the same
differential lens that caught it, and a companion test pins the
*diagnosis* (what the engines are allowed to differ on) so a later
change cannot silently re-widen the parity surface.
"""

import pathlib

import numpy as np
import pytest

from repro.core.driver import CompilerOptions, compile_source
from repro.fuzz import GenConfig, check_program, generate, shrink
from repro.fuzz.generator import _array_roles
from repro.fuzz.harness import make_inputs, tier_payload
from repro.machine import TIERS, SPMDSimulator, ownership_masks, simulate

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# Per-rank storage: every rank holds every declared array
# ---------------------------------------------------------------------------
#
# Campaign seed 0, program seed 1 (minimized): a replicated-execution
# scalar reduction reading remote rows — under the walker rank 0 never
# touches its copy of C.  The harness's memory lens compares every
# declared array on every rank, so every rank must hold all of them,
# touched or not, whatever the tier.


def _memory_repro() -> str:
    return (CORPUS / "regression_memory_materialization.hpf").read_text()


def test_every_rank_holds_every_declared_array_from_construction():
    """Zero data and ownership validity before anything ran; the
    inputs written through by ``set_array`` — on every tier."""
    source = _memory_repro()
    compiled = compile_source(source, CompilerOptions(num_procs=3))
    inputs = make_inputs(source, 0)
    for tier in TIERS:
        sim = SPMDSimulator(compiled, tier=tier)
        store = sim.store
        assert set(store.data) == set(store.valid) == {"A", "B", "C", "W"}
        for name, data in store.data.items():
            assert not data.any()
            owned = ownership_masks(compiled.mappings[name])
            assert np.array_equal(store.valid[name], owned)
        for name, values in inputs.items():
            sim.set_array(name, values)
        for name, values in inputs.items():
            owned = ownership_masks(compiled.mappings[name])
            for rank in range(sim.grid.size):
                assert np.array_equal(store.data[name][rank], values)
            assert np.array_equal(store.valid[name], owned)


def test_tiers_hold_the_same_arrays_after_a_run():
    """Which arrays a rank holds once the program ran is the same on
    every tier, and so are the data and validity bytes."""
    source = _memory_repro()
    compiled = compile_source(source, CompilerOptions(num_procs=3))
    inputs = make_inputs(source, 0)
    lowered = simulate(compiled, dict(inputs), tier="lowered")
    for tier in ("slab", "auto"):
        other = simulate(compiled, dict(inputs), tier=tier)
        mine, theirs = lowered.store, other.store
        assert list(mine.data) == list(theirs.data) == ["A", "B", "C", "W"]
        for name in mine.data:
            assert mine.data[name].tobytes() == theirs.data[name].tobytes()
            assert mine.valid[name].tobytes() == theirs.valid[name].tobytes()


def test_tier_payload_covers_every_declared_array():
    """The harness's memory lens is total: every declared array's
    buffers — every rank's row — and every declared scalar's slots are
    in the digest record, whether or not that tier touched them."""
    source = _memory_repro()
    compiled = compile_source(source, CompilerOptions(num_procs=3))
    sim = simulate(compiled, make_inputs(source, 0), tier="lowered")
    payload = tier_payload(sim)["store"]
    assert {"A", "B", "C", "W"} <= set(payload["arrays"])
    assert set(payload["scalars"]) == {
        s.name for s in compiled.proc.symbols.scalars()
    }
    for values, valid in payload["scalars"].values():
        assert len(values) == len(valid) == sim.grid.size


# ---------------------------------------------------------------------------
# Generator validity properties
# ---------------------------------------------------------------------------

SEEDS = range(0, 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_compile_everywhere(seed):
    program = generate(seed)
    for procs in (1, 3, 4):
        compile_source(
            program.emit(procs), CompilerOptions(num_procs=procs)
        )


def test_generation_is_deterministic():
    for seed in (0, 7, 123456789):
        assert generate(seed).emit() == generate(seed).emit()
        assert generate(seed).seed == seed


def test_independent_is_asserted_conservatively():
    """INDEPENDENT only lands on nests where every shared array is
    read-only or written-only (no loop-carried array flow), the outer
    step is forward, and the bounds are rectangular."""
    asserted = 0
    for seed in range(200):
        program = generate(seed)
        for nest in program.nests:
            if not nest.independent:
                continue
            asserted += 1
            assert nest.step == 1
            for loop in nest.inner:
                assert nest.var not in loop.low
                assert nest.var not in loop.high
            writes, reads = _array_roles(nest.all_stmts(), program.arrays)
            assert not (writes & reads)
    assert asserted > 0  # the property is exercised, not vacuous


def test_every_scalar_is_written_before_read():
    """Def-before-use for scalars: the interpreter rejects reads of
    unset scalars, so a clean run at procs=1 is the property."""
    for seed in range(20):
        program = generate(seed)
        source = program.emit(1)
        compiled = compile_source(source, CompilerOptions(num_procs=1))
        simulate(compiled, make_inputs(source, 0), tier="lowered")


def test_inputs_match_session_convention():
    program = generate(3)
    source = program.emit()
    inputs = make_inputs(source, 0)
    assert set(inputs) >= set(program.arrays)
    for name in program.arrays:
        assert inputs[name].shape == (program.n, program.n)
        assert np.all((inputs[name] >= 0.5) & (inputs[name] <= 1.5))


def test_scaled_config_grows_programs():
    big = GenConfig().scaled(2.0)
    assert big.max_nests >= GenConfig().max_nests
    program = generate(11, big)
    assert program.stmt_count() >= 1


def test_clone_is_deeply_independent():
    program = generate(5)
    clone = program.clone()
    stmt = clone.nests[0].all_stmts()[0]
    stmt.rhs = "0.0"
    stmt.guard = None
    assert program.emit() != clone.emit() or program.emit() == generate(5).emit()
    assert generate(5).emit() == program.emit()  # original untouched


def test_shrinker_preserves_the_failure_and_shrinks():
    """Shrinking under a syntactic predicate converges to a small
    program that still satisfies it and never grows."""
    program = next(
        p for p in (generate(seed) for seed in range(40))
        if p.stmt_count() >= 2
        and any("MAX" in s.rhs for n in p.nests for s in n.all_stmts())
    )

    def still_fails(candidate):
        return any(
            "MAX" in stmt.rhs
            for nest in candidate.nests
            for stmt in nest.all_stmts()
        ) if candidate.nests else False

    small = shrink(program, still_fails)
    assert still_fails(small)
    assert small.stmt_count() <= program.stmt_count()


def test_check_program_passes_on_survivors():
    for seed in (2, 3):
        assert check_program(generate(seed)) == []
