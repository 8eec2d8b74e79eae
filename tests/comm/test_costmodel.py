"""Machine cost model tests."""

import dataclasses

import numpy as np
import pytest

from repro.core import TransferPattern
from repro.model import SP2, MachineModel, flops_of_expr
from repro.lang import parse_expression
from repro.ir.build import IRBuilder


def lowered(text):
    builder = IRBuilder()
    builder.symbols.resolve_scalar("A")
    return builder.lower_expr(parse_expression(text))


class TestMessageCosts:
    def test_message_time_components(self):
        m = MachineModel(alpha=1e-5, beta=1e-8, element_bytes=8)
        assert m.message_time(0) == pytest.approx(1e-5)
        assert m.message_time(100) == pytest.approx(1e-5 + 100 * 8 * 1e-8)

    def test_latency_dominates_small_messages(self):
        assert SP2.message_time(1) < 2 * SP2.alpha

    def test_bandwidth_dominates_large_messages(self):
        big = SP2.message_time(10**6)
        assert big > 100 * SP2.alpha

    def test_monotone_in_size(self):
        times = [SP2.message_time(n) for n in (0, 1, 10, 100, 1000)]
        assert times == sorted(times)


class TestParameterValidation:
    """Hostile machine parameters are a typed error at construction —
    the one site ``simulate(machine=)``, ``CompilerOptions(machine=)``
    and a sweep's ``machine`` axis all pass through — not a NaN, an
    infinite or a shrinking clock several layers later."""

    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "flop_time", "stmt_overhead"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -1e-6, "1e-6", None, True]
    )
    def test_times_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(SP2, **{field: value})
        assert field in str(err.value) and repr(value) in str(err.value)

    @pytest.mark.parametrize("value", [0, -8, 8.0, float("nan"), True])
    def test_element_bytes_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError) as err:
            MachineModel(element_bytes=value)
        assert "element_bytes" in str(err.value)
        assert repr(value) in str(err.value)

    def test_zero_costs_and_numpy_numbers_stay_legal(self):
        free = MachineModel(
            alpha=0, beta=0.0, flop_time=np.float64(0.0), stmt_overhead=0.0,
            element_bytes=np.int64(4),
        )
        assert free.message_time(10) == 0.0
        assert free.compute_time(5, 3) == 0.0


class TestCollectives:
    def test_broadcast_log_rounds(self):
        t4 = SP2.broadcast_time(10, 4)
        t16 = SP2.broadcast_time(10, 16)
        assert t16 == pytest.approx(2 * t4)

    def test_broadcast_single_proc_free(self):
        assert SP2.broadcast_time(1000, 1) == 0.0

    def test_reduce_matches_broadcast_shape(self):
        assert SP2.reduce_time(1, 8) == pytest.approx(SP2.broadcast_time(1, 8))

    def test_shift_is_one_message(self):
        assert SP2.shift_time(5) == pytest.approx(SP2.message_time(5))

    def test_gather_more_expensive_than_broadcast(self):
        assert SP2.gather_time(100, 8) > SP2.broadcast_time(100, 8)


class TestTransferDispatch:
    def test_none_pattern_free(self):
        assert SP2.transfer_time(TransferPattern(kind="none"), 100, 4) == 0.0

    def test_shift_pattern(self):
        p = TransferPattern(kind="shift", offsets=(1,))
        assert SP2.transfer_time(p, 10, 4) == pytest.approx(SP2.shift_time(10))

    def test_broadcast_pattern(self):
        p = TransferPattern(kind="broadcast", bcast_dims=(0,))
        assert SP2.transfer_time(p, 10, 8) == pytest.approx(SP2.broadcast_time(10, 8))

    def test_general_pattern(self):
        p = TransferPattern(kind="general")
        assert SP2.transfer_time(p, 10, 8) == pytest.approx(SP2.gather_time(10, 8))


class TestComputeCosts:
    def test_compute_time_scales_with_instances(self):
        assert SP2.compute_time(10, 100) == pytest.approx(100 * SP2.compute_time(10, 1))

    def test_statement_overhead_floor(self):
        assert SP2.compute_time(0, 1) > 0.0


class TestFlopCounting:
    def test_add(self):
        assert flops_of_expr(lowered("a + a")) == 1

    def test_divide_heavier(self):
        assert flops_of_expr(lowered("a / a")) > flops_of_expr(lowered("a * a"))

    def test_sqrt_heavy(self):
        assert flops_of_expr(lowered("SQRT(a)")) >= 10

    def test_nested_expression(self):
        # a*a + a*a: 2 muls + 1 add
        assert flops_of_expr(lowered("a * a + a * a")) == 3

    def test_constants_free(self):
        assert flops_of_expr(lowered("a")) == 0
