"""Unit tests for the simulator's store, clocks, and traffic statistics."""

import dataclasses
import itertools
import pathlib
import re

import numpy as np
import pytest

from repro.errors import MappingError, SimulationError
from repro.core import CompilerOptions, compile_source
from repro.machine import (
    SPMDSimulator,
    Store,
    ownership_masks,
)
from repro.machine.batchexec import VectorMachine
from repro.machine.memory import GridRanks, tabulate_owners
from repro.machine.stats import Clocks, TrafficStats
from repro.mapping.distribution import DimFormat
from repro.mapping.grid import ProcessorGrid
from repro.model import SP2, MachineModel
from repro.programs import appsp_source, dgefa_source, tomcatv_source

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


SRC = """
PROGRAM T
  REAL A(12), E(12)
  REAL X
!HPF$ ALIGN E(i) WITH A(*)
!HPF$ DISTRIBUTE (BLOCK) :: A
END PROGRAM
"""


@pytest.fixture
def sim():
    return SPMDSimulator(compile_source(SRC, CompilerOptions(num_procs=4)))


class TestStore:
    """Every variable is a (rank, element) slot of one store."""

    def test_array_store_and_read(self, sim):
        store = sim.store
        at = store.at("A", 0, (3,))
        assert at == (0, 2)
        store.data["A"][at] = 7.5
        store.valid["A"][at] = True
        data, valid, size = store.flat["A"]
        assert size == 12
        assert valid[0 * size + 2] and data[0 * size + 2] == 7.5
        assert sim.authoritative_array("A", (3,)) == 7.5

    def test_invalidate(self, sim):
        """Invalidating a copy keeps its bytes; the element then comes
        from the next rank holding it, and nobody holding it is an
        error."""
        store = sim.store
        store.data["E"][:, 6] = [1.0, 2.0, 3.0, 4.0]
        assert store.valid["E"][:, 6].all()
        store.valid["E"][store.at("E", 0, (7,))] = False
        assert store.data["E"][0, 6] == 1.0
        assert sim.authoritative_array("E", (7,)) == 2.0
        store.valid["E"][:, 6] = False
        with pytest.raises(SimulationError, match="no valid copy of E"):
            sim.authoritative_array("E", (7,))

    def test_scalar_roundtrip(self, sim):
        store = sim.store
        assert store.scalars["X"] == [None] * 4
        assert store.scalar_valid["X"] == [False] * 4
        store.scalars["X"][1] = 3
        store.scalar_valid["X"][1] = True
        assert store.holder("X") == 1
        assert sim.gather_scalar("x") == 3
        store.scalars["X"][3] = 4.5
        store.scalar_valid["X"][3] = True
        store.scalar_keep("X", [3])
        assert store.scalar_valid["X"] == [False, False, False, True]
        assert store.scalars["X"] == [None, 3, None, 4.5]
        assert sim.gather_scalar("x") == 4.5

    def test_invalid_scalar_read_raises(self, sim):
        with pytest.raises(SimulationError, match="no valid copy of scalar X"):
            sim.gather_scalar("X")
        with pytest.raises(SimulationError, match="declares \\['X'\\]"):
            sim.gather_scalar("NOPE")

    def test_offset_respects_lower_bounds(self):
        store = Store(compile_source(
            "PROGRAM T\n  REAL A(0:5), B(-2:3, 4:6)\nEND PROGRAM\n",
            CompilerOptions(num_procs=2),
        ))
        assert store.offset("A", (0,)) == (0,)
        assert store.offset("A", (5,)) == (5,)
        assert store.offset("B", (-2, 4)) == (0, 0)
        assert store.at("B", 1, (3, 6)) == (1, 5, 2)
        assert store.data["B"].shape == store.valid["B"].shape == (2, 6, 3)

    @pytest.mark.parametrize("index", [(0, 1), (1, 0), (99, 1), (1,)])
    def test_index_outside_the_array_is_a_typed_error(self, index):
        """An index numpy would wrap (``A(0, 1)`` read ``A(12, 1)``) or
        reject with its own error is the store's ``SimulationError``,
        naming the array, the index and the declared bounds."""
        compiled = compile_source(
            dgefa_source(n=12, procs=4), CompilerOptions(num_procs=4)
        )
        sim = SPMDSimulator(compiled)
        sim.set_array("A", np.arange(144.0).reshape(12, 12))
        assert sim.authoritative_array("A", (12, 1)) == 132.0
        message = f"A{index} is not an element of A(1:12, 1:12)"
        with pytest.raises(SimulationError, match=re.escape(message)):
            sim.authoritative_array("A", index)


class TestInitializeArray:
    def test_validity_follows_ownership(self, sim):
        mapping = sim.compiled.mappings["A"]
        values = np.arange(12, dtype=float)
        sim.set_array("A", values)
        for rank in range(4):
            owned = set(mapping.owned_global_indices(rank))
            assert np.array_equal(sim.store.data["A"][rank], values)
            for i in range(1, 13):
                valid = sim.store.valid["A"][sim.store.at("A", rank, (i,))]
                assert valid == ((i,) in owned)

    def test_replicated_valid_everywhere(self, sim):
        sim.set_array("E", np.zeros(12))
        assert sim.store.valid["E"][:, 6].all()

    def test_shape_mismatch_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.set_array("A", np.zeros(5))


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
    """One buffer per array, rank-major: a rank's copy is a row."""

    def test_every_rank_is_a_row_of_the_arrays_buffer(self):
        """The tier-2 readers' storage handles are row views of the
        store's buffers, one rank's row apart from every other's."""
        sim = SPMDSimulator(
            compile_source(LAYOUTS, CompilerOptions(num_procs=4)), tier="lowered"
        )
        sim.run()
        readers = sim._fast.readers
        for name in ("A", "B", "C", "V", "W", "R"):
            data, valid = sim.store.data[name], sim.store.valid[name]
            assert data.shape == valid.shape == (4, *data[0].shape)
            for rank, reader in enumerate(readers):
                row, row_valid, lows = reader.tables[name]
                assert row.shape == data[0].shape
                assert lows == sim.store.lows[name]
                assert np.shares_memory(row, data[rank])
                assert np.shares_memory(row_valid, valid[rank])
                for other in readers[rank + 1:]:
                    assert not np.shares_memory(row, other.tables[name][0])
            flat, flat_valid, size = sim.store.flat[name]
            assert size == data[0].size
            assert np.shares_memory(flat, data)
            assert np.shares_memory(flat_valid, valid)

    def test_tier2_store_and_invalidation_go_through_the_buffer(self):
        """A(3, 1) = 7.0 runs on the owner of row 3, rank 0; rank 3
        held a copy — at its flat address ``rank * size + element`` —
        and loses it through the buffer's column."""
        sim = SPMDSimulator(
            compile_source(LAYOUTS, CompilerOptions(num_procs=4)), tier="lowered"
        )
        at = sim.store.at("A", 3, (3, 1))
        sim.store.data["A"][at] = 1.0
        sim.store.valid["A"][at] = True
        assert sim.store.valid["A"][:, 2, 0].tolist() == [True, False, False, True]
        assert sim.store.flat["A"][0][3 * 144 + 2 * 12] == 1.0
        sim.run()
        assert sim.store.valid["A"][:, 2, 0].tolist() == [True, False, False, False]
        assert sim.store.data["A"][:, 2, 0].tolist() == [7.0, 0.0, 0.0, 1.0]
        assert sim.authoritative_array("A", (3, 1)) == 7.0
        assert sim.gather("A")[2, 0] == 7.0

    @pytest.mark.parametrize("procs", [1, 2, 3, 16])
    @pytest.mark.parametrize("kernel", ["layouts", "appsp-2d"])
    def test_masks_are_the_descriptors_ownership(self, kernel, procs):
        """``ownership_masks`` against ``ArrayMapping.owns``: BLOCK,
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
            lows = [lo for lo, _ in mapping.array.dims]
            for index in itertools.product(
                *(range(lo, hi + 1) for lo, hi in mapping.array.dims)
            ):
                column = masks[(slice(None), *(i - lo for i, lo in zip(index, lows)))]
                assert column.tolist() == [
                    mapping.owns(rank, index) for rank in range(procs)
                ], (name, index)


#: kernels and corpus programs whose mappings, together, hold every
#: kind of grid dimension role: BLOCK, CYCLIC and CYCLIC(k) dimensions,
#: (BLOCK, BLOCK) on a 2-D grid, replicated and privatized ones
OWNER_PROGRAMS = {
    "layouts": (LAYOUTS, 4),
    "tomcatv": (tomcatv_source(n=8, niter=1, procs=4), 4),
    "dgefa": (dgefa_source(n=8, procs=3), 3),
    **{
        f"appsp-{dist}": (
            appsp_source(nx=6, ny=6, nz=6, niter=1, procs=procs, distribution=dist),
            procs,
        )
        for dist, procs in (("1d", 3), ("2d", 4))
    },
    **{
        path.stem: (path.read_text(), 3)
        for path in sorted(CORPUS.glob("*.hpf"))
    },
}


def _role_kinds(mapping) -> set[str]:
    return {
        role.kind if role.kind != "dist"
        else f"{role.fmt.kind}{'-k' if role.fmt.chunk > 1 else ''}"
        for role in mapping.roles
    }


class TestOwnerTable:
    """The store's owner rows and read sources against a brute-force
    rule built on ``ArrayMapping.owner_ranks``, the descriptor's own
    definition: owners ascending; a read served by the lowest-ranked
    owner holding a valid copy, else by the lowest-ranked rank holding
    one, else by nobody."""

    @staticmethod
    def _served_from(mapping, valid, index, offset) -> int:
        for rank in mapping.owner_ranks(index):
            if valid[(rank, *offset)]:
                return rank
        for rank in range(valid.shape[0]):
            if valid[(rank, *offset)]:
                return rank
        return -1

    def test_an_element_outside_the_template_raises_at_construction(self):
        """``B(9)`` and ``B(10)`` align past ``A``'s template: the store's
        table refuses the program before anything runs, so no later
        owner lookup can meet such an element."""
        compiled = compile_source(
            "PROGRAM T\n  REAL A(8), B(10)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "END PROGRAM\n",
            CompilerOptions(num_procs=4),
        )
        with pytest.raises(MappingError, match="index 8 outside extent 8"):
            SPMDSimulator(compiled)

    def test_programs_cover_every_role_kind(self):
        kinds, grids = set(), set()
        for source, procs in OWNER_PROGRAMS.values():
            compiled = compile_source(source, CompilerOptions(num_procs=procs))
            grids.add(compiled.grid.rank)
            for mapping in compiled.mappings.values():
                kinds |= _role_kinds(mapping)
        assert {"block", "cyclic", "cyclic-k", "repl", "priv"} <= kinds
        assert grids == {1, 2}

    @pytest.mark.parametrize("program", sorted(OWNER_PROGRAMS))
    def test_owner_rows_and_sources_are_the_descriptors(self, program):
        source, procs = OWNER_PROGRAMS[program]
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        store = SPMDSimulator(compiled).store
        rng = np.random.default_rng(sorted(OWNER_PROGRAMS).index(program))
        for name, mapping in compiled.mappings.items():
            valid = store.valid[name]
            shape = valid.shape[1:]
            elem = np.arange(valid[0].size)
            indices = list(itertools.product(
                *(range(lo, hi + 1) for lo, hi in mapping.array.dims)
            ))
            rows = store.owner_rows(name, elem)
            assert [tuple(column) for column in rows.T.tolist()] == [
                tuple(mapping.owner_ranks(index)) for index in indices
            ], name
            for density in (0.0, 0.2, 0.7):
                valid[...] = rng.random(valid.shape) < density
                src, owners = store.sources(name, elem)
                assert np.array_equal(owners, rows)
                expected = [
                    self._served_from(
                        mapping, valid, index, np.unravel_index(e, shape)
                    )
                    for e, index in zip(elem.tolist(), indices)
                ]
                assert src.tolist() == expected, (name, density)
                for e in rng.choice(elem.size, min(elem.size, 8), replace=False):
                    index = indices[e]
                    served = store.source(name, index)
                    assert (-1 if served is None else served) == expected[e]


class TestPlacementRule:
    """The two shared placement pieces against brute force: a format's
    tabulated owners against ``DimFormat.owner``, and the rank rule
    against a filter of ``grid.coords_of`` over every rank."""

    @pytest.mark.parametrize("kind,extent,procs,chunk", [
        ("block", 10, 4, 1), ("block", 7, 3, 1), ("block", 3, 4, 1),
        ("cyclic", 10, 4, 1), ("cyclic", 13, 3, 2), ("cyclic", 5, 2, 4),
        ("block", 6, 1, 1), ("cyclic", 1, 1, 1),
    ])
    def test_owner_coords_are_dimformat_owner(self, kind, extent, procs, chunk):
        fmt = DimFormat(kind=kind, extent=extent, procs=procs, chunk=chunk)
        coords = tabulate_owners(fmt)
        assert coords.dtype == np.int64
        assert coords.tolist() == [fmt.owner(p) for p in range(extent)]

    @pytest.mark.parametrize("shape", [(1,), (4,), (3,), (2, 3), (3, 1, 2)])
    def test_grid_ranks_are_the_coordinate_filter(self, shape):
        grid, rule = ProcessorGrid(name="P", shape=shape), GridRanks(shape)
        assert rule.every == list(grid.all_ranks())
        for coords in itertools.product(*([None, *range(s)] for s in shape)):
            assert rule.ranks(coords) == [
                r for r in grid.all_ranks()
                if all(c in (None, at) for c, at in zip(coords, grid.coords_of(r)))
            ], coords
            if None not in coords:
                assert rule.ranks(coords) == [grid.rank_of(coords)]
                # a point is a shared list: looking it up allocates nothing
                assert rule.ranks(coords) is rule.ranks(coords)


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
