"""Unit tests for per-lane processor counts on the lane-stacked machine.

A :class:`VectorMachine` built with ``grid_shapes`` carries one
processor grid per lane (``procs`` = ``prod(shape)``), and its
collectives accept a per-lane ``procs`` vector.  The contract under
test: each lane is bitwise what that lane's scalar model answers for
that lane's count — because the vector machine owns no formula, only
the per-count selection around the inherited ones."""

import dataclasses

import numpy as np
import pytest

from repro.machine.batchexec import VectorMachine
from repro.model import SP2, CostFormulas

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
WAN = dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6)
MODELS = (SP2, FAST, WAN)
SHAPES = ((1,), (2,), (2, 2))
PROCS = (1, 2, 4)


class TestPerLaneProcs:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one lane"):
            VectorMachine(())
        with pytest.raises(ValueError, match="one shape per lane"):
            VectorMachine(MODELS, grid_shapes=((1,), (2,)))
        with pytest.raises(ValueError, match="procs >= 1"):
            VectorMachine(MODELS, grid_shapes=((1,), (0,), (4,)))

    def test_explicit_grid_shapes_kept(self):
        machine = VectorMachine(MODELS, grid_shapes=[[1], [2, 2], [4]])
        assert machine.grid_shapes == ((1,), (2, 2), (4,))
        assert machine.procs.tolist() == [1, 4, 4]

    def test_machine_lanes_carry_no_procs(self):
        machine = VectorMachine(MODELS)
        assert machine.grid_shapes is None and machine.procs is None

    @pytest.mark.parametrize("elements", [1, 10, 4096])
    def test_lane_collectives_match_per_lane_scalar_models(self, elements):
        machine = VectorMachine(MODELS, grid_shapes=SHAPES)
        assert machine.procs.tolist() == list(PROCS)
        for name in (
            "broadcast_time", "reduce_time", "gather_time", "alltoall_time"
        ):
            got = getattr(machine, name)(elements, machine.procs)
            assert got.shape == (machine.lanes,)
            for lane, (model, procs) in enumerate(zip(MODELS, PROCS)):
                assert got[lane] == getattr(model, name)(elements, procs)

    def test_vector_collectives_accept_per_lane_spans(self):
        machine = VectorMachine(MODELS)
        spans = np.asarray([1, 2, 3])
        got = machine.broadcast_time(16, spans)
        for lane, (model, span) in enumerate(zip(MODELS, spans)):
            assert got[lane] == model.broadcast_time(16, int(span))

    def test_shared_span_prices_every_lane_at_one_count(self):
        machine = VectorMachine(MODELS)
        for span in (1, 2, 5):
            got = np.broadcast_to(machine.reduce_time(7, span), (3,))
            for lane, model in enumerate(MODELS):
                assert got[lane] == model.reduce_time(7, span)

    def test_pattern_dispatch_reaches_the_per_lane_pricing(self):
        from repro.core.locality import TransferPattern

        machine = VectorMachine(MODELS, grid_shapes=SHAPES)
        for kind in ("none", "shift", "broadcast", "general"):
            pattern = TransferPattern(kind=kind)
            got = np.broadcast_to(
                machine.transfer_time(pattern, 9, machine.procs), (3,)
            )
            for lane, (model, procs) in enumerate(zip(MODELS, PROCS)):
                assert got[lane] == model.transfer_time(pattern, 9, procs)

    def test_every_formula_has_one_definition(self):
        """The vector machine overrides exactly the four collectives
        that take a processor count — to select per lane, not to price
        — and everything else is the scalar model's own method."""
        own = {
            name for name, value in vars(VectorMachine).items()
            if callable(value) and not name.startswith("_")
        }
        assert own == {
            "broadcast_time", "reduce_time", "gather_time", "alltoall_time"
        }
        for name in ("message_time", "shift_time", "transfer_time",
                     "compute_time"):
            assert getattr(VectorMachine, name) is getattr(CostFormulas, name)
            assert getattr(type(SP2), name) is getattr(CostFormulas, name)
