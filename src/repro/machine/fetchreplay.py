"""The fetches of one slab takeover, and their exact replay.

A lane of a tier-3 takeover (:mod:`repro.machine.slabexec`) reads
through its executing rank's copy; an element or scalar that rank does
not hold is one tier 2 would fetch.  :class:`_FetchLog` records each
such read at its place in per-iteration order during the takeover's
prepare phase, orders the fetches and peeks their coalescing keys
(``schedule``, which may still bail), and at commit replays compute
and messages in exactly tier 2's order, one left fold per *message
run* (docs/COSTMODEL.md "Messages").
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..codegen.veceval import _Bail
from ..ir.expr import ArrayElemRef, ScalarRef
from ..ir.stmt import AssignStmt
from .stats import sequential_sum


class _Fetched(NamedTuple):
    """One fetching read of one reference: a vector entry per distinct
    (reader, element), then the facts all of them share."""

    inst: np.ndarray  #: statement instance of the element's first read
    elem: np.ndarray  #: flat element index
    src: np.ndarray  #: source rank
    shaky: np.ndarray  #: the source is not the element's primary owner
    dst: np.ndarray  #: the reading rank (ascending)
    q: int  #: the read's sequence within its statement
    ref: ArrayElemRef
    stmt: AssignStmt
    #: where the reader keeps it: ``dst * size + elem`` (a scalar: the
    #: readers, and ``values`` its one value)
    addr: np.ndarray
    values: np.ndarray


class _FetchLog:
    """The remote reads one takeover's evaluation met, and their exact
    replay.

    The per-iteration path fetches an invalid element once per reading
    rank, at that rank's first read of it.  Evaluation records every
    such read with its place in per-iteration order — the number of the
    statement *instance* and the read's sequence within the statement —
    and takes the value from the source rank, whose copy cannot change
    during the takeover (a fetched element is never one the takeover
    writes): one source lookup per fetching read, over the lanes of all
    the reading ranks at once.  :meth:`schedule` orders the fetches and
    peeks their coalescing keys, still without mutating anything, so it
    may bail; :meth:`commit` replays compute and messages in that
    order, one fold per *message run*."""

    def __init__(self, sim, lane_vars: tuple):
        self.sim = sim
        self.lane_vars = lane_vars
        self.reads: list[_Fetched] = []

    def _fetch_read(self, ref, stmt, q: int, dst, elem, inst):
        """Values of the elements ``elem`` that the ranks ``dst`` read
        while invalid, in instances ``inst`` — one entry per lane, the
        lanes rank-major and each rank's instances ascending, served
        from the store's sources of the elements (``Store.sources``, as
        every tier's fetch is).  A rank fetches an element once, at its
        first lane."""
        name = ref.symbol.name
        store = self.sim.store
        data, _valid, size = store.flat[name]
        addr, first, back = np.unique(
            dst * size + elem, return_index=True, return_inverse=True
        )
        elem = elem[first]
        src, owners = store.sources(name, elem)
        if (src < 0).any():
            raise _Bail(f"no rank holds every element read of {name}")
        values = data.take(src * size + elem)
        self.reads.append(_Fetched(
            inst[first], elem, src, src != owners[0], dst[first],
            q, ref, stmt, addr, values,
        ))
        return values[back]

    def fetch_scalar(self, ref: ScalarRef, stmt, inst, src, dst,
                     value) -> None:
        """The ranks ``dst`` fetch ``value`` of scalar ``ref`` from
        ``src`` in instances ``inst`` (ascending), each before any
        array read of its statement (the subscripts are evaluated
        first)."""
        n = len(inst)
        self.reads.append(_Fetched(
            np.asarray(inst), np.zeros(n, dtype=np.int64), np.asarray(src),
            np.zeros(n, dtype=np.bool_), np.asarray(dst), 0, ref, stmt,
            list(dst), value,
        ))

    def schedule(self, env):
        """Order the recorded fetches as the per-iteration path issues
        them — every (rank, element) once, at its first read — and peek
        their coalescing keys.  Returns None when nothing fetched, else
        per-fetch vectors (instance, source, reader, opens-a-message)
        plus the number of elements fetched under each reference's
        event and the coalescing keys the takeover opens."""
        reads = self.reads
        if not reads:
            return None
        sim = self.sim
        if len(reads) == 1:
            # (one read: its entries are distinct already)
            inst, elem, src, shaky, dst = reads[0][:5]
            keep = np.argsort(inst, kind="stable")
            read = np.zeros(inst.size, dtype=np.int64)
        else:
            inst, elem, src, shaky, dst = (
                np.concatenate(column) for column in list(zip(*reads))[:5]
            )
            sizes = [f.elem.size for f in reads]
            scalar = np.repeat([isinstance(f.ref, ScalarRef) for f in reads], sizes)
            if scalar.any():
                # a scalar's fetch beside another fetch of its instance:
                # their order within the statement is not recorded
                held = inst * sim.grid.size + dst
                if np.unique(held[scalar]).size < scalar.sum() or np.isin(
                    held[scalar], held[~scalar]
                ).any():
                    raise _Bail("subscript scalar fetch beside another fetch")
            arrays: dict[str, int] = {}
            q, array, read = (
                np.repeat(column, sizes)
                for column in (
                    [f.q for f in reads],
                    [
                        arrays.setdefault(f.ref.symbol.name, len(arrays))
                        for f in reads
                    ],
                    range(len(reads)),
                )
            )
            elem = elem + array * (int(elem.max()) + 1)
            order = np.lexsort((q, inst))
            held = dst[order] * (int(elem.max()) + 1) + elem[order]
            keep = order[np.sort(np.unique(held, return_index=True)[1])]
        inst, elem, src, shaky, dst, read = (
            a[keep] for a in (inst, elem, src, shaky, dst, read)
        )
        if shaky.any():
            # a primary owner's valid copy is the source whatever the
            # other ranks hold; any other choice can change once an
            # earlier fetcher of the same element holds it too
            elems, counts = np.unique(elem, return_counts=True)
            if np.isin(elem[shaky], elems[counts > 1]).any():
                raise _Bail("fetch source depends on fetch order")
        tally = []
        for k, count in zip(
            *map(np.ndarray.tolist, np.unique(read, return_counts=True))
        ) if len(reads) > 1 else [(0, inst.size)]:
            f = reads[k]
            event, outer = sim._fetch_meta(f.stmt, f.ref.ref_id)
            if event is None:
                # raw coalescing keys embed the full env — including
                # the takeover variables, which tier 2 sets per
                # iteration and we do not
                raise _Bail("fetch without a placed event")
            if set(outer) & set(self.lane_vars):
                raise _Bail("fetch key varies per lane")
            tally.append(((f.stmt.stmt_id, f.ref.ref_id), count))
        # the key is the same for every element of one (read, reader,
        # source) group, whatever the order; the startup goes to the
        # earliest fetch under each key
        nranks = sim.grid.size
        keys = [sim._coalesce_keys_of(f.stmt, f.ref.ref_id, env) for f in reads]
        opened: dict[tuple, int] = {}
        for code, at in zip(
            *map(
                np.ndarray.tolist,
                np.unique(
                    (read * nranks + dst) * nranks + src, return_index=True
                ),
            )
        ):
            pair, source = divmod(code, nranks)
            key = keys[pair // nranks](source, pair % nranks)
            opened[key] = min(opened.get(key, at), at)
        fresh = [key for key in opened if key not in sim._fetch_keys_seen]
        startup = np.zeros(inst.size, dtype=np.bool_)
        startup[[opened[key] for key in fresh]] = True
        #: the read each scheduled fetch belongs to
        self.fetch_reads = read
        return inst, src, dst, startup, tally, fresh

    def trace(self, sched) -> None:
        """One ``msg.startup`` instant per message the takeover opens,
        as tier 2 traces them."""
        inst, src, dst, startup, _tally, _fresh = sched
        sim = self.sim
        for k in startup.nonzero()[0].tolist():
            f = self.reads[self.fetch_reads[k]]
            sim.tracer.instant(
                "msg.startup", cat="comm", src=int(src[k]), dst=int(dst[k]),
                stmt=f.stmt.stmt_id,
                event=sim._fetch_meta(f.stmt, f.ref.ref_id)[0].ordinal,
            )

    def commit(self, sched, dts: np.ndarray, tapes: list) -> tuple[int, int]:
        """Replay compute and messages in per-iteration order; returns
        the number of elements fetched and of message runs replayed.

        ``dts`` is the charge tape of the takeover's statements and
        ``tapes`` the ranks' tapes end to end (``_NestCtx._rank_tapes``):
        which statement each of a rank's instances runs and the
        instance's (ascending) number.  Compute charges on
        different ranks commute and only a message couples two clocks,
        so a rank's tape stays pending until just before a message that
        touches the rank, where it is left-folded up to the message's
        instance — tier 2's interleaved ``charge_compute`` /
        ``charge_message_amortized`` sequence, bit for bit.  The unit
        of that replay is the *run*: consecutive fetches by one reader
        from one source while the source has nothing pending.  Only a
        run's first message meets two unrelated clocks; the rest of it
        — the reader's compute between the messages included — is one
        left fold (``Clocks.charge_message_run``).  ``compute_time``
        sees no messages and is folded in one piece.  Everything else a
        fetch does is batched per reference."""
        inst, src, dst, startup, tally, fresh = sched
        sim = self.sim
        clocks, stats = sim.clocks, sim.stats
        time = clocks.time
        # rank r's tape is steps[done[r]:ends[r]], empty when it
        # computes nothing here
        bounds, steps, at = tapes
        done, ends = bounds[:-1].tolist(), bounds[1:].tolist()
        computing = [r for r in range(len(time)) if ends[r] > done[r]]
        for r in computing:
            clocks.compute_time[r] = sequential_sum(
                clocks.compute_time[r], dts[steps[done[r]:ends[r]]]
            )
        # how much of the reader's and of the source's tape precedes
        # each fetch: the tapes end to end are ascending in (rank,
        # instance)
        span = int(max(at.max(initial=0), inst.max())) + 1
        offset = np.arange(0, span * len(time), span, dtype=np.int64)
        ranked = offset.repeat(np.diff(bounds))
        ranked += at
        cut = np.searchsorted(ranked, np.stack((dst, src)) * span + inst)
        del ranked  # (tape-sized: freed before the replay builds its own)
        # a run ends where the reader, the source or — the source
        # having computed in between — the source's cut changes
        opens = np.ones(inst.size, dtype=np.bool_)
        opens[1:] = (
            (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])
            | (cut[1, 1:] != cut[1, :-1])
        )
        first = opens.nonzero()[0]
        last = np.append(first[1:], inst.size) - 1
        # the replay tape: every message, each after the ``gap`` compute
        # charges of its reader since the run's previous message (what
        # precedes a run's first message is flushed in the loop) — as
        # rows of the statements' tape extended by the two message rows
        gap = np.diff(cut[0], prepend=0)
        gap[first] = 0
        slot = np.arange(inst.size) + gap.cumsum()
        row = np.empty(int(slot[-1]) + 1, dtype=np.intp)
        row[slot] = len(dts) + startup
        if len(row) > inst.size:
            between = np.ones(len(row), dtype=np.bool_)
            between[slot] = False
            row[between] = steps[
                between.nonzero()[0] + (cut[0] - slot).repeat(gap)
            ]
        tape = np.concatenate((dts, clocks.message_rows()))[row]
        messages = tape[slot]
        for d, s, cut_d, cut_s, end_d, lo, hi, lo_slot, hi_slot in zip(
            *map(np.ndarray.tolist, (
                dst[first], src[first], cut[0, first], cut[1, first],
                cut[0, last], first, last + 1, slot[first], slot[last] + 1,
            ))
        ):
            for r, upto in ((d, cut_d), (s, cut_s)):
                if upto > done[r]:
                    time[r] = sequential_sum(
                        time[r], dts[steps[done[r]:upto]]
                    )
                    done[r] = upto
            clocks.charge_message_run(
                s, d, tape[lo_slot:hi_slot], messages[lo:hi]
            )
            done[d] = end_d
        for r in computing:
            time[r] = sequential_sum(time[r], dts[steps[done[r]:ends[r]]])
        sim._fetch_keys_seen.update(fresh)
        stats.messages += len(fresh)
        for event_key, count in tally:
            stats.record_fetch(event_key, count)
        for f in self.reads:
            store, name = sim.store, f.ref.symbol.name
            if isinstance(f.ref, ScalarRef):
                for r in f.addr:
                    store.scalars[name][r] = f.values
                    store.scalar_valid[name][r] = True
                continue
            data, valid, _size = store.flat[name]
            data[f.addr] = f.values
            valid[f.addr] = True
        return inst.size, first.size
