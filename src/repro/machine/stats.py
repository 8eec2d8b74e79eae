"""Virtual clocks and traffic statistics of the simulated machine."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np


def sequential_sum(start, dts: np.ndarray):
    """Left-fold ``start + dts[0] + dts[1] + ...`` with exactly the
    rounding of a sequential ``+=`` loop.

    ``np.ufunc.accumulate`` is specified as strictly sequential
    (``r[i] = op(r[i-1], a[i])``), unlike ``np.sum``/``np.add.reduce``
    whose pairwise summation reassociates; the slab engine relies on
    this to charge a whole iteration slab in one call while staying
    bit-for-bit identical to per-iteration charging.

    Scalar form: ``start`` is a float, ``dts`` a 1-d tape, result a
    float.  Lane form (batched sweeps): ``start`` is a ``(lanes,)``
    vector, ``dts`` a ``(steps, lanes)`` tape, and the fold runs down
    axis 0 — per lane that is the same sequence of scalar additions,
    so each lane is bitwise identical to a scalar fold of its column."""
    if dts.size == 0:
        return start
    if dts.shape[0] == 1:  # a one-term fold is one addition
        return float(start + dts[0]) if dts.ndim == 1 else start + dts[0]
    if dts.ndim == 1 and dts.size <= 32:
        # Python floats add exactly like float64; a short tape folds
        # faster without numpy's per-call overhead
        total = float(start)
        for dt in dts.tolist():
            total += dt
        return total
    if dts.ndim == 1:
        buf = np.empty(dts.size + 1, dtype=np.float64)
        buf[0] = start
        buf[1:] = dts
        return float(np.add.accumulate(buf)[-1])
    buf = np.empty((dts.shape[0] + 1, dts.shape[1]), dtype=np.float64)
    buf[0] = start
    buf[1:] = dts
    return np.add.accumulate(buf, axis=0)[-1]


@dataclass
class TrafficStats:
    messages: int = 0
    elements: int = 0
    fetches: int = 0
    unexpected_fetches: int = 0
    broadcasts: int = 0
    reductions: int = 0
    #: (stmt_id, ref_id) -> fetch count, for cross-validation against
    #: the static communication analysis
    per_event_fetches: dict[tuple[int, int], int] = field(default_factory=dict)

    def record_fetch(self, key: tuple[int, int] | None, count: int = 1) -> None:
        """Tally ``count`` single-element fetches placed by the event
        of ``key`` (None: by no event of the static analysis)."""
        self.fetches += count
        self.elements += count
        if key is None:
            self.unexpected_fetches += count
        else:
            self.per_event_fetches[key] = self.per_event_fetches.get(key, 0) + count

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (tuple keys stringified), used by
        the benchmarks to assert identity across engines."""
        return {
            "messages": self.messages,
            "elements": self.elements,
            "fetches": self.fetches,
            "unexpected_fetches": self.unexpected_fetches,
            "broadcasts": self.broadcasts,
            "reductions": self.reductions,
            "per_event_fetches": {
                f"S{sid}/r{rid}": count
                for (sid, rid), count in sorted(self.per_event_fetches.items())
            },
        }


class Clocks:
    """Per-rank virtual time, advanced by compute and message events.

    One class for both lane shapes, chosen once at construction from
    the machine: over a :class:`~repro.model.MachineModel` every
    per-rank time is a float; over a machine that carries ``lanes``
    (:class:`~repro.machine.batchexec.VectorMachine`) it is a
    ``(lanes,)`` vector and each charge advances every lane at once.
    The charge bodies below never branch on that — ``dt`` values come
    from the machine in the right shape, ``later`` is the "later of two
    clocks" operator (``max`` / ``np.maximum``, which agree on non-NaN
    floats) and tapes carry a trailing lane axis — so lane ``m`` sees
    exactly the operation sequence of a scalar run on model ``m``.

    Lane vectors are never shared between ranks or fields: every
    rebinding charge builds fresh arrays (a shared one would couple
    ranks through the in-place ``+=`` charges, which float semantics
    never do).
    """

    def __init__(self, num_ranks: int, machine):
        self.machine = machine
        #: lane count, or None for scalar clocks
        self.lanes = getattr(machine, "lanes", None)
        if self.lanes is None:
            self.later = max
            self._row = ()
        else:
            self.later = np.maximum
            self._row = (self.lanes,)
        self.time = [self._zero() for _ in range(num_ranks)]
        self.compute_time = [self._zero() for _ in range(num_ranks)]
        self.comm_time = [self._zero() for _ in range(num_ranks)]

    def _zero(self):
        return np.zeros(self._row) if self._row else 0.0

    def _deliver(self, src: int, dst: int, dt) -> None:
        """Both ends of a message leave at the later clock plus ``dt``."""
        start = self.later(self.time[src], self.time[dst])
        self.time[src] = start + dt
        self.time[dst] = start + dt
        self.comm_time[src] += dt
        self.comm_time[dst] += dt

    def charge_compute(self, rank: int, flops: int) -> None:
        dt = self.machine.compute_time(flops, 1)
        self.time[rank] += dt
        self.compute_time[rank] += dt

    def charge_message(self, src: int, dst: int, elements: int) -> None:
        self._deliver(src, dst, self.machine.message_time(elements))

    def amortized_dt(self, elements: int, startup: bool):
        """Transfer time of ``elements`` elements of a coalesced
        message, plus the startup on the message's first transfer."""
        dt = self.machine.beta * self.machine.element_bytes * elements
        if startup:
            dt = dt + self.machine.alpha
        return dt

    def charge_message_amortized(self, src: int, dst: int, elements: int, startup: bool) -> None:
        """Per-element transfer charging with one startup per coalesced
        message (message vectorization at run time)."""
        self._deliver(src, dst, self.amortized_dt(elements, startup))

    def message_rows(self) -> np.ndarray:
        """The two ``dt`` values of a single-element
        ``charge_message_amortized`` as tape rows: without and with the
        startup."""
        return self.tape([self.amortized_dt(1, False), self.amortized_dt(1, True)])

    def charge_message_run(self, src: int, dst: int, tape: np.ndarray,
                           messages: np.ndarray) -> None:
        """A *run* of messages from ``src`` to ``dst`` in one fold, bit
        for bit the interleaved ``charge_compute(dst)`` /
        ``charge_message_amortized(src, dst, 1, ...)`` sequence it
        stands for.

        ``tape`` is that sequence's ``dt`` values in order — the first
        message, then ``dst``'s compute charges and the further
        messages as they interleave, ending with a message — and
        ``messages`` the messages among them (:meth:`message_rows`).
        The caller guarantees that between the first and the last
        message nothing else touches either clock and ``src`` charges
        no compute.  Then the first message leaves both clocks at one
        instant ``T``, and from there every ``later(t_src, t_dst)`` is
        ``t_dst``: ``t_src`` stays at the previous message's instant
        while ``t_dst`` moved on from it by charges ``c >= 0``, and
        ``fl(T + c) >= T`` for ``c >= 0``.  So the whole run is one
        strictly sequential left fold of ``tape`` onto the later of the
        two clocks, both ends leaving at the result.  ``c >= 0`` is not
        tested here: :class:`~repro.model.MachineModel` rejects
        negative and non-finite parameters at construction, so no
        machine can produce a negative or NaN charge.  ``comm_time``
        sees only the messages.  A one-message run is exactly
        ``_deliver`` (lane vectors are never shared: each end gets its
        own copy)."""
        end = sequential_sum(self.later(self.time[src], self.time[dst]), tape)
        self.time[src] = end
        self.time[dst] = end.copy() if self._row else end
        self.comm_time[src] = sequential_sum(self.comm_time[src], messages)
        self.comm_time[dst] = sequential_sum(self.comm_time[dst], messages)

    def charge_compute_tape(self, rank: int, dts: np.ndarray) -> None:
        """Batched compute charging, bit-for-bit identical to calling
        ``charge_compute`` once per tape entry: ``dts`` holds the
        precomputed per-instance ``dt`` values (flops x flop_time +
        statement overhead).  A guarded instance whose guard fails is
        not on the tape at all: the slab engine drops it from the rank
        tapes (``_NestCtx._masked_tapes``)."""
        if dts.size == 0:
            return
        self.time[rank] = sequential_sum(self.time[rank], dts)
        self.compute_time[rank] = sequential_sum(self.compute_time[rank], dts)

    # -- tape assembly -----------------------------------------------------
    #
    # The slab engine charges per-statement ``dt`` values in instance
    # order: it builds one tape row per statement here and indexes it
    # with each rank's statement sequence (``tape[steps]``) for
    # ``charge_compute_tape``/``sequential_sum``.  Building the rows
    # through the clock object keeps the tape *shape* a clock concern:
    # ``(instances,)`` for scalar clocks, ``(instances, lanes)`` for
    # lane clocks, folded down axis 0.

    def tape(self, dts: list) -> np.ndarray:
        """A charge tape from a list of per-statement ``dt`` values."""
        return np.asarray(dts, dtype=np.float64).reshape(
            (len(dts),) + self._row
        )

    def charge_collective(self, ranks: list[int], elements: int, kind: str) -> None:
        if len(ranks) <= 1:
            return
        if kind == "reduce":
            dt = self.machine.reduce_time(elements, len(ranks))
        else:
            dt = self.machine.broadcast_time(elements, len(ranks))
        start = reduce(self.later, (self.time[r] for r in ranks))
        for r in ranks:
            self.time[r] = start + dt
            self.comm_time[r] += dt

    def snapshot(self) -> dict[str, list]:
        """Exact per-rank clock values, for bit-for-bit comparisons."""
        return {
            "time": list(self.time),
            "compute_time": list(self.compute_time),
            "comm_time": list(self.comm_time),
        }

    def lane_snapshot(self, lane: int) -> dict[str, list[float]]:
        """``snapshot()`` of one lane as a scalar run would print it:
        plain python floats (``float(np.float64)`` is exact), ready for
        the canonical-stats JSON byte comparison."""
        return {
            name: [float(t[lane]) for t in times]
            for name, times in self.snapshot().items()
        }

    def lane_elapsed(self, lane: int) -> float:
        """``elapsed`` of one lane, exactly as the scalar property."""
        return float(self.elapsed[lane]) if self.time else 0.0

    @property
    def elapsed(self):
        """The makespan: a float, or the ``(lanes,)`` vector of them."""
        return reduce(self.later, self.time) if self.time else self._zero()

    @property
    def total_compute(self):
        return sum(self.compute_time)

    @property
    def total_comm(self):
        return sum(self.comm_time)
