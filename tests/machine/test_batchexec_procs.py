"""The processor count is not a lane of the lane-stacked machine.

A :class:`VectorMachine` stacks machine models and nothing else: it
takes no grid shapes, carries no processor counts, defines no formula
of its own, and its collectives receive the span as a plain int that
every lane is priced at — each lane bitwise what that lane's scalar
model answers."""

import dataclasses

import numpy as np
import pytest

from repro.machine.batchexec import VectorMachine
from repro.model import SP2, CostFormulas

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
WAN = dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6)
MODELS = (SP2, FAST, WAN)


class TestPerLaneProcs:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one lane"):
            VectorMachine(())
        with pytest.raises(TypeError, match="grid_shapes"):
            VectorMachine(MODELS, grid_shapes=((1,), (2,), (4,)))

    def test_machine_lanes_carry_no_procs(self):
        machine = VectorMachine(MODELS)
        assert not hasattr(machine, "grid_shapes")
        assert not hasattr(machine, "procs")

    def test_shared_span_prices_every_lane_at_one_count(self):
        machine = VectorMachine(MODELS)
        for name in (
            "broadcast_time", "reduce_time", "gather_time", "alltoall_time"
        ):
            for span in (1, 2, 5):
                got = np.broadcast_to(getattr(machine, name)(7, span), (3,))
                for lane, model in enumerate(MODELS):
                    assert got[lane] == getattr(model, name)(7, span)

    def test_pattern_dispatch_reaches_the_per_lane_pricing(self):
        from repro.core.locality import TransferPattern

        machine = VectorMachine(MODELS)
        for kind in ("none", "shift", "broadcast", "general"):
            pattern = TransferPattern(kind=kind)
            got = np.broadcast_to(machine.transfer_time(pattern, 9, 4), (3,))
            for lane, model in enumerate(MODELS):
                assert got[lane] == model.transfer_time(pattern, 9, 4)

    def test_every_formula_has_one_definition(self):
        """The vector machine defines no public formula of its own:
        every one is the scalar model's own method."""
        own = {
            name for name, value in vars(VectorMachine).items()
            if callable(value) and not name.startswith("_")
        }
        assert own == set()
        for name in ("message_time", "shift_time", "transfer_time",
                     "compute_time", "broadcast_time", "reduce_time",
                     "gather_time", "alltoall_time"):
            assert getattr(VectorMachine, name) is getattr(CostFormulas, name)
            assert getattr(type(SP2), name) is getattr(CostFormulas, name)
