"""Unit tests for the closed forms slab charging rests on.

A slab takeover charges rank ``r`` one tape per column it owns, read
off the concrete owner table of the executor position's
:class:`~repro.mapping.distribution.DimFormat`.  These tests pin the
arithmetic underneath against brute-force enumeration: loop trip
counts (scalar and per-column vector bounds), the BLOCK partition of an
extent, and how many terms of a strided position progression land in
each rank's section."""

import numpy as np
import pytest

from repro.machine.slabexec import slab_trip_count
from repro.mapping.distribution import DimFormat


def _brute_owned(extent, procs, coord, first, stride, trips):
    """Enumerate the position progression and count hits in the block."""
    bs = -(-extent // procs)
    lo, hi = coord * bs, min((coord + 1) * bs, extent)
    positions = [first + k * stride for k in range(trips)]
    return sum(1 for p in positions if lo <= p < hi)


class TestClosedForms:
    @pytest.mark.parametrize(
        "low,high,step,expect",
        [(1, 10, 1, 10), (1, 10, 3, 4), (10, 1, 1, 0), (5, 5, 2, 1),
         (10, 1, -2, 5)],
    )
    def test_trip_count_scalar(self, low, high, step, expect):
        assert slab_trip_count(low, high, step) == expect

    def test_trip_count_vector(self):
        low = np.asarray([1, 1, 10])
        got = slab_trip_count(low, 10, 1)
        assert got.tolist() == [10, 10, 1]

    @pytest.mark.parametrize("extent", [1, 7, 16, 33])
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 8])
    def test_block_partition_forms(self, extent, procs):
        fmt = DimFormat(kind="block", extent=extent, procs=procs)
        bs = fmt.block_size
        assert bs == -(-extent // procs)
        total = 0
        owners = 0
        for coord in range(procs):
            count = fmt.local_count(coord)
            brute = max(0, min(bs, extent - coord * bs))
            assert count == brute
            total += count
            owners += count > 0
        assert total == extent  # the blocks tile the extent exactly
        # coordinates owning anything: the span of a section-wide transfer
        assert owners == min(procs, -(-extent // bs))

    @pytest.mark.parametrize("stride", [1, 2, 3, -1, -2, 0])
    @pytest.mark.parametrize("procs", [1, 2, 4, 5])
    def test_owned_trips_matches_enumeration(self, stride, procs):
        """Per-rank column counts as the slab plans take them — a
        bincount of the owner table over the position progression —
        against the interval-intersection enumeration."""
        extent, trips = 20, 9
        first = 14 if stride < 0 else 2
        fmt = DimFormat(kind="block", extent=extent, procs=procs)
        owner_table = np.asarray([fmt.owner(p) for p in range(extent)])
        positions = first + stride * np.arange(trips)
        # positions past either end belong to nobody (a plan bails there)
        positions = positions[(positions >= 0) & (positions < extent)]
        counts = np.bincount(owner_table[positions], minlength=procs)
        for coord in range(procs):
            assert counts[coord] == _brute_owned(
                extent, procs, coord, first, stride, trips
            ), (stride, procs, coord)
