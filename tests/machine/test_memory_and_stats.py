"""Unit tests for node memory, clocks, and traffic statistics."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.ir import parse_and_build
from repro.core import CompilerOptions, compile_source
from repro.machine import (
    NodeMemory,
    SPMDSimulator,
    initialize_array,
    ownership_mask,
    ownership_masks,
)
from repro.machine.batchexec import VectorMachine
from repro.machine.stats import Clocks, TrafficStats
from repro.mapping import ProcessorGrid, resolve_mappings
from repro.model import SP2, MachineModel
from repro.programs import appsp_source


SRC = """
PROGRAM T
  REAL A(12), E(12)
!HPF$ ALIGN E(i) WITH A(*)
!HPF$ DISTRIBUTE (BLOCK) :: A
END PROGRAM
"""


@pytest.fixture
def setup():
    proc = parse_and_build(SRC)
    grid = ProcessorGrid(name="P", shape=(4,))
    mappings = resolve_mappings(proc, grid)
    memories = [NodeMemory(r, proc) for r in range(4)]
    return proc, grid, mappings, memories


class TestNodeMemory:
    def test_array_store_and_read(self, setup):
        proc, grid, mappings, memories = setup
        memories[0].array_store("A", (3,), 7.5)
        assert memories[0].array_is_valid("A", (3,))
        assert memories[0].array_value("A", (3,)) == 7.5

    def test_invalidate(self, setup):
        proc, grid, mappings, memories = setup
        memories[0].array_store("A", (3,), 7.5)
        memories[0].array_invalidate("A", (3,))
        assert not memories[0].array_is_valid("A", (3,))

    def test_scalar_roundtrip(self, setup):
        proc, grid, mappings, memories = setup
        memories[1].scalar_store("X", 3)
        assert memories[1].scalar_is_valid("X")
        assert memories[1].scalar_value("X") == 3

    def test_invalid_scalar_read_raises(self, setup):
        proc, grid, mappings, memories = setup
        with pytest.raises(SimulationError):
            memories[2].scalar_value("NOPE")

    def test_offset_respects_lower_bounds(self):
        proc = parse_and_build(
            "PROGRAM T\n  REAL A(0:5)\nEND PROGRAM\n"
        )
        memory = NodeMemory(0, proc)
        assert memory.offset("A", (0,)) == (0,)
        assert memory.offset("A", (5,)) == (5,)


class TestInitializeArray:
    def test_validity_follows_ownership(self, setup):
        proc, grid, mappings, memories = setup
        values = np.arange(12, dtype=float)
        initialize_array(memories, mappings["A"], values)
        for rank in range(4):
            owned = set(mappings["A"].owned_global_indices(rank))
            for i in range(1, 13):
                assert memories[rank].array_is_valid("A", (i,)) == ((i,) in owned)

    def test_replicated_valid_everywhere(self, setup):
        proc, grid, mappings, memories = setup
        initialize_array(memories, mappings["E"], np.zeros(12))
        assert all(m.array_is_valid("E", (7,)) for m in memories)

    def test_shape_mismatch_rejected(self, setup):
        proc, grid, mappings, memories = setup
        with pytest.raises(SimulationError):
            initialize_array(memories, mappings["A"], np.zeros(5))


LAYOUTS = """
PROGRAM L
  PARAMETER (n = 12)
  REAL A(n, n), B(n, n), C(0:n, n), V(n), W(n), R(n)
!HPF$ DISTRIBUTE (BLOCK, *) :: A
!HPF$ DISTRIBUTE (*, CYCLIC) :: B
!HPF$ DISTRIBUTE (CYCLIC(2), *) :: C
!HPF$ ALIGN V(j) WITH A(*, j)
!HPF$ ALIGN W(j) WITH B(*, j)
  A(3, 1) = 7.0
END PROGRAM
"""


class TestArrayStore:
    """One buffer per array, rank-major: a rank's memory is a row."""

    def test_every_rank_is_a_row_of_the_arrays_buffer(self):
        sim = SPMDSimulator(compile_source(LAYOUTS, CompilerOptions(num_procs=4)))
        for name in ("A", "B", "C", "V", "W", "R"):
            data, valid = sim.store.data[name], sim.store.valid[name]
            assert data.shape == valid.shape == (4, *data[0].shape)
            for memory in sim.memories:
                assert memory.arrays[name].shape == data[0].shape
                assert np.shares_memory(memory.arrays[name], data)
                assert np.shares_memory(memory.valid[name], valid)
                for other in sim.memories[memory.rank + 1:]:
                    assert not np.shares_memory(
                        memory.arrays[name], other.arrays[name]
                    )
            flat, flat_valid, size = sim.store.flat[name]
            assert size == data[0].size
            assert np.shares_memory(flat, data)
            assert np.shares_memory(flat_valid, valid)

    def test_tier2_store_and_invalidation_show_through_both(self):
        """A(3, 1) = 7.0 runs on the owner of row 3, rank 0; rank 3
        held a copy — written through its row, seen in the buffer —
        and loses it through the buffer's column, seen in its row."""
        sim = SPMDSimulator(
            compile_source(LAYOUTS, CompilerOptions(num_procs=4)), tier="lowered"
        )
        sim.memories[3].array_store("A", (3, 1), 1.0)
        assert sim.store.valid["A"][:, 2, 0].tolist() == [True, False, False, True]
        assert sim.store.flat["A"][0][3 * 144 + 2 * 12] == 1.0
        sim.run()
        assert sim.store.valid["A"][:, 2, 0].tolist() == [True, False, False, False]
        assert sim.store.data["A"][:, 2, 0].tolist() == [7.0, 0.0, 0.0, 1.0]
        assert sim.memories[0].array_value("A", (3, 1)) == 7.0
        assert not sim.memories[3].array_is_valid("A", (3, 1))
        assert sim.gather("A")[2, 0] == 7.0

    @pytest.mark.parametrize("procs", [1, 2, 3, 16])
    @pytest.mark.parametrize("kernel", ["layouts", "appsp-2d"])
    def test_stacked_masks_are_the_one_rank_masks(self, kernel, procs):
        """``ownership_masks`` against its one-rank oracle: BLOCK,
        CYCLIC, block-cyclic, replicated and ``ALIGN ... WITH A(*, j)``
        dimensions, on 1-D grids and on appsp's 2-D one."""
        source = LAYOUTS if kernel == "layouts" else appsp_source(
            nx=6, ny=6, nz=6, niter=1, procs=procs, distribution="2d"
        )
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        assert compiled.grid.rank == (1 if kernel == "layouts" else 2)
        for name, mapping in compiled.mappings.items():
            masks = ownership_masks(mapping)
            assert masks.dtype == np.bool_
            assert masks.shape[0] == procs
            for rank in range(procs):
                assert np.array_equal(masks[rank], ownership_mask(mapping, rank)), name
            owned = set(mapping.owned_global_indices(procs - 1))
            lows = [lo for lo, _ in mapping.array.dims]
            assert {
                tuple(int(o) + lo for o, lo in zip(off, lows))
                for off in np.argwhere(masks[procs - 1])
            } == owned


class TestClocks:
    def test_compute_charging(self):
        clocks = Clocks(2, MachineModel())
        clocks.charge_compute(0, 100)
        assert clocks.time[0] > 0 and clocks.time[1] == 0
        assert clocks.elapsed == clocks.time[0]

    def test_message_synchronizes(self):
        machine = MachineModel()
        clocks = Clocks(2, machine)
        clocks.charge_compute(0, 10**6)
        t0 = clocks.time[0]
        clocks.charge_message(0, 1, 10)
        # The receiver waits for the (later) sender.
        assert clocks.time[1] == pytest.approx(t0 + machine.message_time(10))

    def test_amortized_startup(self):
        machine = MachineModel()
        clocks = Clocks(2, machine)
        clocks.charge_message_amortized(0, 1, 1, startup=True)
        with_startup = clocks.time[1]
        clocks2 = Clocks(2, machine)
        clocks2.charge_message_amortized(0, 1, 1, startup=False)
        assert clocks2.time[1] < with_startup

    @pytest.mark.parametrize("lanes", [None, 3])
    def test_message_rows_are_the_amortized_charges(self, lanes):
        # the run replay folds these rows where tier 2 calls
        # charge_message_amortized(src, dst, 1, startup): same bits
        machine = dataclasses.replace(SP2, alpha=3.1e-5, beta=7.3e-9)
        if lanes:
            machine = VectorMachine(
                [dataclasses.replace(machine, beta=machine.beta * (m + 1))
                 for m in range(lanes)]
            )
        rows = Clocks(2, machine).message_rows()
        for row, startup in zip(rows, (False, True)):
            clocks = Clocks(2, machine)
            clocks.charge_message_amortized(0, 1, 1, startup)
            assert np.array_equal(row, clocks.time[1])
            assert np.array_equal(row, clocks.comm_time[0])

    def test_collective_synchronizes_all(self):
        clocks = Clocks(4, MachineModel())
        clocks.charge_compute(2, 10**6)
        clocks.charge_collective([0, 1, 2, 3], 1, "reduce")
        assert len({round(t, 12) for t in clocks.time}) == 1

    def test_collective_single_rank_free(self):
        clocks = Clocks(4, MachineModel())
        clocks.charge_collective([1], 100, "bcast")
        assert clocks.elapsed == 0.0

    def test_totals(self):
        clocks = Clocks(2, MachineModel())
        clocks.charge_compute(0, 10)
        clocks.charge_message(0, 1, 1)
        assert clocks.total_compute > 0
        assert clocks.total_comm > 0


class TestTrafficStats:
    def test_fetch_recording(self):
        stats = TrafficStats()
        stats.record_fetch((1, 2), count=3)
        stats.record_fetch(None)
        assert stats.fetches == 4
        assert stats.unexpected_fetches == 1
        assert stats.elements == 4
        assert stats.per_event_fetches[(1, 2)] == 3


class TestTrace:
    """Runtime events reach ``repro.obs`` (the one tracing mechanism)
    and ``TrafficStats``; the simulator keeps no event buffer of its
    own."""

    def test_simulator_records_fetches(self):
        import numpy as np

        from repro.core import CompilerOptions, compile_source
        from repro.machine import simulate
        from repro.obs import Tracer

        src = (
            "PROGRAM T\n  PARAMETER (n = 16)\n  REAL A(n), B(n)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO\nEND PROGRAM\n"
        )
        compiled = compile_source(src, CompilerOptions(num_procs=4))
        tracer = Tracer()
        sim = simulate(
            compiled, {"B": np.arange(16, dtype=float)}, tracer=tracer
        )
        startups = [e for e in tracer.events if e["name"] == "msg.startup"]
        assert startups and len(startups) == sim.stats.messages
        assert {"src", "dst", "stmt", "event"} <= set(startups[0]["args"])
        assert not hasattr(sim, "trace")

    def test_simulator_records_reduces(self):
        import numpy as np

        from repro.core import CompilerOptions, compile_source
        from repro.machine import simulate
        from repro.programs import tomcatv_inputs, tomcatv_source

        compiled = compile_source(
            tomcatv_source(n=8, niter=1, procs=4), CompilerOptions()
        )
        sim = simulate(compiled, tomcatv_inputs(8))
        assert sim.stats.reductions > 0
        assert sim.clocks.total_comm > 0.0
