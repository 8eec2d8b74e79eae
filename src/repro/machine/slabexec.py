"""Tier 3: slab-vectorized loop execution.

The lowered closures of :mod:`repro.machine.lowering` (tier 2) still
execute one iteration x one rank x one element at a time.  This module
takes whole loop nests over as one data-parallel operation each — the
"generalized data-parallel operation" view of the paper's privatized
loops: a *domain* of statement instances, a *signature* from each
instance to the elements it reads, and the recognized folds.  A *lane*
is a (statement instance, executing rank) pair; every statement is
evaluated once over all of its lanes as numpy vector operations, each
lane reading through its own rank's memory, and the virtual clocks are
charged in closed form from per-statement charge tapes.

There is one plan (:class:`NestPlan`) and one evaluation context.  What
used to be three kinds of takeover are shapes of the domain, described
by data (:class:`_Domain`): the outer iterations — *columns* — are
always lanes; the iterations of the one inner loop, when there is one,
are lanes too (a flattened, possibly triangular nest: the per-column
*widths* vary with the outer index) unless a value flows from one of
them to the next — then the inner loop is the *serial axis*: the body
runs trip by trip, each statement still vectorized across the columns.

Eligibility (the fallback ladder's top rung) is decided in two stages:

* a **static classification** (:func:`classify_procedure`, run as the
  ``slabexec`` compiler pass) checks the shape of each loop nest —
  assign-only bodies, affine subscripts, executors that are a fixed
  rank set or the owner of the column, communication placed above the
  loop per the communication analysis, and no dependence carried
  between lanes per :mod:`repro.analysis.dependence`;
* the **runtime plan** rechecks everything that depends on live state
  (validity of read operands, executor rank sets, divisors, subscript
  bounds, disjointness of the concrete index sets) and *bails* —
  executing nothing and mutating nothing — the moment any assumption
  fails.  A bailed takeover falls back to the tier-2 lowered closures,
  which reproduce the per-iteration semantics (including any error and
  its exact partial state) bit for bit.

Bit-for-bit clock identity is guaranteed by construction: per-instance
compute charges are precomputed ``dt`` values replayed through
``np.add.accumulate`` (strictly sequential, unlike pairwise
``np.sum``), so a slab charges exactly the floating-point sum the
per-iteration path would have produced.  Reads of elements the
executing rank does not hold are fetched inside the takeover:
:class:`_FetchLog` records each one at its first read in per-iteration
order and replays messages and compute in that order at commit, so
``TrafficStats`` and the clocks see tier 2's exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from ..codegen.veceval import (
    _BOUND_ERRORS,
    _RED_UFUNC,
    _Bail,
    _Ctx,
    _affine_vec,
    _bounds_checked_offset,
    _canon_form,
    _carried_dependence,
    _check_affine_refs,
    _coerce_vec,
    _eval,
    _fold_lanes,
    _fold_operand,
    _reduction_operand,
    _serial_axis,
    _stmt_array_refs,
)
from ..errors import MappingError
from ..ir.expr import ArrayElemRef, ScalarRef, affine_form
from ..ir.stmt import AssignStmt, ContinueStmt, IfStmt, LoopStmt
from .stats import sequential_sum

_MISSING = object()

#: consecutive prepare bails after which a nest that never committed is
#: demoted to tier 2 for the rest of the run
GIVE_UP_AFTER = 8


def slab_trip_count(low, high, step):
    """Trip count of ``DO v = low, high, step`` (0 when empty).

    Closed form ``max(0, (high - low + step) // step)``; ``low``/
    ``high`` may be per-column vectors (triangular nests)."""
    n = (high - low + step) // step
    if np.ndim(n) == 0:
        return max(int(n), 0)
    return np.maximum(n, 0)


def _mentions(form, *names: str) -> bool:
    """The affine form varies with one of the (non-constant) symbols
    ``names``."""
    return any(
        sym.value is None and sym.name in names for sym, _c in form.coeffs
    )


# ---------------------------------------------------------------------------
# Static classification (``CompiledProgram.slabs``)
# ---------------------------------------------------------------------------


@dataclass
class SlabReport:
    """Per-loop slab eligibility.

    ``verdicts`` maps every loop statement id to ``"ok"`` or the first
    reason the loop is not one takeover; ``serial_axes`` names the
    eligible nests whose inner loop is the serial axis — the one fact
    about a nest's domain that takes a dependence analysis to know.
    Plain ids and strings only; derived from the compiled program on
    first read and again when ``ir_epoch`` is stale, like the lowering.
    """

    ir_epoch: int
    verdicts: dict[int, str] = field(default_factory=dict)
    serial_axes: set[int] = field(default_factory=set)

    def eligible_loops(self) -> set[int]:
        """Statement ids of every loop with an "ok" verdict."""
        return {sid for sid, v in self.verdicts.items() if v == "ok"}


def _placement_map(events) -> dict[int, list[int]]:
    """stmt_id -> placement levels of every comm event charged to it
    (including refs absorbed by message combining)."""
    placements: dict[int, list[int]] = {}
    for e in events:
        refs = [(e.stmt, e)] + [
            (a.stmt, e) for a in list(e.aliases) + list(e.combined_with)
        ]
        for stmt, ev in refs:
            placements.setdefault(stmt.stmt_id, []).append(ev.placement_level)
    return placements


def _check_executor(info, v: str | None) -> str | None:
    """Executor must be an owner/all set whose position does not vary
    with the vectorized loop variable ``v`` (None: any loop var)."""
    if info is None:
        return "no executor info"
    if info.kind not in ("owner", "all"):
        return f"executor kind {info.kind}"
    if info.kind == "owner":
        for dim in info.position:
            if dim.kind == "pos" and dim.form is not None:
                for sym in dim.form.symbols:
                    if v is not None and sym.name == v and sym.value is None:
                        return f"executor position varies with {v}"
    return None


def _split_nest(loop: LoopStmt):
    """``(inner, pre, body, post)`` of a loop whose body is
    straight-line assigns around at most one assign-only inner loop
    (``inner`` is None and every assign in ``pre`` when there is none)
    — or the reason (a string) it is not of that shape."""
    inner: LoopStmt | None = None
    pre: list[AssignStmt] = []
    post: list[AssignStmt] = []
    for s in loop.body:
        if isinstance(s, ContinueStmt):
            continue
        if isinstance(s, LoopStmt):
            if inner is not None:
                return "more than one inner loop"
            inner = s
        elif not isinstance(s, AssignStmt):
            return f"body contains {type(s).__name__}"
        else:
            (pre if inner is None else post).append(s)
    body: list[AssignStmt] = []
    for s in inner.body if inner is not None else ():
        if isinstance(s, ContinueStmt):
            continue
        if not isinstance(s, AssignStmt):
            return f"inner body contains {type(s).__name__}"
        body.append(s)
    if not (pre if inner is None else body):
        return "empty body"
    return inner, pre, body, post


def _replicated_exec(info) -> bool:
    """True when the statement executes on every rank, invariantly:
    replicated ("all") or privatized/no-guard ("union") executors whose
    position constrains no grid dimension."""
    return (
        info is not None
        and info.kind in ("all", "union")
        and all(
            dim.kind != "pos" or dim.form is None for dim in info.position
        )
    )


def _runs_serially(proc, inner: LoopStmt, body, reduction_ids,
                   verdicts) -> bool:
    """Whether the inner loop of a nest is its serial axis (an eligible
    inner loop carries no value: that was its own verdict)."""
    return verdicts.get(inner.stmt_id) != "ok" and _serial_axis(
        proc, inner, body, reduction_ids
    )


def _column_discipline(stmts, v: str, stores_only: bool) -> str | None:
    """Each array keeps one dimension subscripted exactly ``v`` and the
    others ``v``-free — in its stores, or in every reference — so a
    column's lanes touch only their own column of it."""
    vdims: dict[str, int] = {}
    for s in stmts:
        for ref in _stmt_array_refs(s):
            if stores_only and ref is not s.lhs:
                continue
            name = ref.symbol.name
            forms = [affine_form(sub) for sub in ref.subscripts]
            own = [
                d for d, f in enumerate(forms)
                if _canon_form(f) == (0, ((v, 1),))
            ]
            if any(
                _mentions(f, v) for d, f in enumerate(forms) if d not in own
            ):
                return f"{name}: mixed {v}-subscript"
            if len(own) != 1:
                return f"{name}: no unique {v}-column dimension"
            if vdims.setdefault(name, own[0]) != own[0]:
                return f"{name}: inconsistent {v}-column dimension"
    return None


def _classify(proc, loop: LoopStmt, executors, placements, reduction_ids,
              grid_rank, report: SlabReport) -> str:
    """Whether ``loop`` is one data-parallel operation, and if not the
    first reason why (an eligible nest with a serial axis is noted in
    ``report.serial_axes``).

    Without an inner loop every iteration is a lane on a *fixed*
    executor set: the executors may not vary with the loop variable,
    and no array value may flow between iterations.

    With one inner loop the outer iterations are columns, each run by
    the owner of the same outer-variable position; replicated
    statements may ride along when they touch no array.  The inner
    iterations are flattened into the lanes — their bounds may be
    affine in the outer variable (triangular nests) — with every store
    in the inner loop and naming its own column, scalar reduction
    updates folded there, and reads free to leave the column (fetched
    at run time) as long as no value flows between outer iterations;
    or, when the inner loop carries a value, they are the serial axis:
    the bounds must then be the same for every column and every
    reference must stay inside its own column, so the columns evolve
    independently in program order."""
    nest = _split_nest(loop)
    if isinstance(nest, str):
        return nest
    inner, pre, body, post = nest
    v = loop.var.name
    stmts = pre + body + post

    def communicates(s) -> str | None:
        if any(level >= loop.level for level in placements.get(s.stmt_id, ())):
            return "communication placed inside the loop"
        return None

    if inner is None:
        for s in stmts:
            reason = (
                _check_executor(executors.get(s.stmt_id), v)
                or _check_affine_refs(s)
                or communicates(s)
            )
            if reason is not None:
                return f"S{s.stmt_id}: {reason}"
        return _carried_dependence(proc, loop, stmts, reduction_ids) or "ok"

    if grid_rank is not None and grid_rank != 1:
        return "grid is not one-dimensional"
    i = inner.var.name
    serial = _runs_serially(proc, inner, body, reduction_ids, report.verdicts)
    for tag, bound in (
        ("low", inner.low), ("high", inner.high), ("step", inner.step)
    ):
        if bound is None:
            continue
        names = {
            r.symbol.name for r in bound.refs() if isinstance(r, ScalarRef)
        }
        if i in names:
            return "inner bounds vary with the inner variable"
        if v in names and (serial or tag == "step"):
            # a serial axis has one trip count for all columns
            return "inner bounds vary with the loop variables"
        if affine_form(bound) is None and not serial:
            return f"inner {tag} bound not affine"
    canon_pos = _MISSING
    for s in stmts:
        sid = s.stmt_id
        if sid in reduction_ids and (serial or isinstance(s.lhs, ArrayElemRef)):
            # (a flattened nest folds its *scalar* updates, rank by rank)
            return f"S{sid}: reduction update in body"
        info = executors.get(sid)
        if info is None:
            return f"S{sid}: no executor info"
        if _replicated_exec(info) and not serial:
            # every rank runs it each iteration: fine for scalar-only
            # statements (their operands are checked at run time);
            # arrays would read per-rank state
            if isinstance(s.lhs, ArrayElemRef) or _stmt_array_refs(s):
                return f"S{sid}: replicated statement touches arrays"
            reason = communicates(s)
            if reason is not None:
                return f"S{sid}: {reason}"
            continue
        reason = _check_executor(info, None)
        if reason is None and info.kind != "owner":
            reason = f"executor kind {info.kind}"
        if reason is not None:
            return f"S{sid}: {reason}"
        pos = tuple(
            _canon_form(dim.form)
            if dim.kind == "pos" and dim.form is not None
            else dim.kind
            for dim in info.position
        )
        if canon_pos is _MISSING:
            canon_pos = pos
        elif pos != canon_pos:
            return "executor position differs across statements"
        if not serial:
            # (a serial nest whose position is no point — one rank —
            # is declined by the plan, not here: its verdict feeds the
            # tier decisions the records pin)
            if len(pos) != 1:
                return f"S{sid}: executor is not a 1-D owner position"
            if isinstance(pos[0], str):
                return f"S{sid}: executor position is not a point"
        if any(
            dim.kind == "pos" and dim.form is not None
            and _mentions(dim.form, i)
            for dim in info.position
        ):
            return "executor position varies with the inner variable"
        reason = _check_affine_refs(s) or communicates(s)
        if reason is not None:
            return f"S{sid}: {reason}"
    if canon_pos is _MISSING:
        return "no owner-positioned statement"
    written = {
        s.lhs.symbol.name for s in body if isinstance(s.lhs, ArrayElemRef)
    }
    for s in pre + post:
        if isinstance(s.lhs, ArrayElemRef) and not serial:
            return "array written outside the inner loop"
        for ref in _stmt_array_refs(s):
            name = ref.symbol.name
            if name in written and not serial:
                return f"{name}: written array read outside the inner loop"
            if any(_mentions(affine_form(sub), i) for sub in ref.subscripts):
                return f"{name}: {i}-subscript outside the inner loop"
    reason = _column_discipline(stmts, v, stores_only=not serial)
    if reason is not None:
        return reason
    # no value may flow between columns (within one, the inner loop's
    # own verdict or the serial axis takes care of it)
    reason = _carried_dependence(
        proc, loop, stmts, reduction_ids, frozenset((i,))
    )
    if reason is None and serial:
        report.serial_axes.add(loop.stmt_id)
    return reason or "ok"


def classify_procedure(proc, executors, events, reduction_ids,
                       grid_rank=None) -> SlabReport:
    """Statically classify every loop nest for slab eligibility."""
    placements = _placement_map(events)
    report = SlabReport(ir_epoch=proc.ir_epoch)

    def visit(stmts):
        for s in stmts:
            if isinstance(s, LoopStmt):
                # inner verdicts first: whether a nest flattens its
                # inner loop depends on it.  An eligible nest preempts
                # its eligible inner loop; a bail falls back to tier 2,
                # which re-enters the inner loop's own takeover
                visit(s.body)
                report.verdicts[s.stmt_id] = _classify(
                    proc, s, executors, placements, reduction_ids,
                    grid_rank, report,
                )
            elif isinstance(s, IfStmt):
                visit(s.then_body)
                visit(s.else_body)

    visit(proc.body)
    return report

# ---------------------------------------------------------------------------
# The runtime plan
# ---------------------------------------------------------------------------


class _Step:
    """One assignment of the nest, preprocessed."""

    __slots__ = ("stmt", "sid", "dt", "index", "k", "kind", "name", "stype",
                 "expr", "op", "follows", "group")

    def __init__(self, stmt: AssignStmt, dt: float, index: int, k: int):
        self.stmt = stmt
        self.sid = stmt.stmt_id
        self.dt = dt
        #: position among all the nest's statements, and within its phase
        self.index = index
        self.k = k
        self.name = stmt.lhs.symbol.name
        self.stype = stmt.lhs.symbol.type
        #: an "array" or "scalar" store of ``expr`` — or, with ``op``,
        #: the fold of ``expr`` over the lanes into a "reduction"
        #: scalar or an "afold" element (both private to each rank) or
        #: an "sfold" element (a plain owner-computes store, serialized)
        self.kind = "array" if isinstance(stmt.lhs, ArrayElemRef) else "scalar"
        self.expr = stmt.rhs
        self.op = None
        #: executed by the owner of its column (else: by a fixed rank
        #: set); index of the nest's statements sharing its executor
        self.follows = False
        self.group = 0


def _afold_operand(rhs, name: str, canon: tuple, op: str):
    """``A(c) = A(c) OP e`` / ``A(c) = MAX(A(c), e)`` → ``e`` (both
    orderings), where the accumulator reference matches the store's
    canonical subscript form exactly; None otherwise.  ``e`` must not
    touch the accumulator array at all."""

    def is_acc(e):
        if not isinstance(e, ArrayElemRef) or e.symbol.name != name:
            return False
        forms = [affine_form(s) for s in e.subscripts]
        if any(f is None for f in forms):
            return False
        return tuple(_canon_form(f) for f in forms) == canon

    e = _fold_operand(rhs, op, is_acc)
    if e is not None and any(
        isinstance(ref, ArrayElemRef) and ref.symbol.name == name
        for ref in e.refs()
    ):
        return None  # acc on both sides: not a fold
    return e


def _lane_addresses(ref_forms: dict, lanes_of: Callable, env) -> tuple:
    """ref_id -> the flat *element* of its array each lane names — the
    ravel of the bounds-checked per-dimension offsets, an int where no
    subscript varies with the lanes — and ref_id -> the lane's
    *address* in the array's ``(P, *shape)`` buffer, ``lanes.rank *
    size + element``.  ``lanes_of(ref_id)`` gives the ref's lanes;
    dimensions subscripted by one form over the same lanes and bounds
    — whatever the array — share one offset vector, references alike
    in every dimension one element and one address vector."""
    dims: dict[tuple, Any] = {}
    shared: dict[tuple, tuple] = {}
    elems: dict[int, Any] = {}
    addrs: dict[int, np.ndarray] = {}
    for ref_id, (symbol, forms) in ref_forms.items():
        lanes = lanes_of(ref_id)
        canon = tuple([_canon_form(f) for f in forms])
        key = (lanes, canon, symbol.dims)
        if key not in shared:
            size = 1
            for d, f in enumerate(forms):
                dim = (lanes, canon[d], symbol.dims[d])
                if dim not in dims:
                    dims[dim] = _bounds_checked_offset(
                        _affine_vec(f, lanes.vars, env), symbol, d
                    )
                extent = symbol.extent(d)
                elem = dims[dim] if d == 0 else elem * extent + dims[dim]
                size *= extent
            shared[key] = (elem, lanes.rank * size + elem)
        elems[ref_id], addrs[ref_id] = shared[key]
    return elems, addrs


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
    addr: np.ndarray  #: where the reader keeps it: ``dst * size + elem``
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

    def __init__(self, plan):
        self.plan = plan
        self.reads: list[_Fetched] = []

    def _fetch_read(self, ref, stmt, q: int, dst, elem, inst):
        """Values of the elements ``elem`` that the ranks ``dst`` read
        while invalid, in instances ``inst`` — one entry per lane, the
        lanes rank-major and each rank's instances ascending: the
        vectorized twin of ``FetchEngine.fetch_array``'s source lookup.
        A rank fetches an element once, at its first lane."""
        name = ref.symbol.name
        acc = self.plan.fast.engine.access(name)
        data, valid, size = self.plan.sim.store.flat[name]
        addr, first, back = np.unique(
            dst * size + elem, return_index=True, return_inverse=True
        )
        elem = elem[first]
        try:
            owners = acc.owners(np.unravel_index(elem, acc.datas[0].shape))
        except MappingError:
            # the per-iteration path raises the canonical error
            raise _Bail("owner lookup failed") from None
        src = np.full(first.size, -1, dtype=np.int64)
        # an owner holding a valid copy, else the lowest rank that does
        for row in (*owners, *range(len(acc.valids))):
            todo = np.flatnonzero(src < 0)
            if not todo.size:
                break
            ranks = np.broadcast_to(row, src.shape)[todo]
            held = valid.take(ranks * size + elem[todo])
            src[todo[held]] = ranks[held]
        if (src < 0).any():
            raise _Bail(f"no rank holds every element read of {name}")
        values = data.take(src * size + elem)
        self.reads.append(_Fetched(
            inst[first], elem, src, src != owners[0], dst[first],
            q, ref, stmt, addr, values,
        ))
        return values[back]

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
        plan = self.plan
        sim = plan.sim
        inst, elem, src, shaky, dst = (
            np.concatenate(column) for column in list(zip(*reads))[:5]
        )
        arrays: dict[str, int] = {}
        q, array, read = (
            np.repeat(column, [f.elem.size for f in reads])
            for column in (
                [f.q for f in reads],
                [
                    arrays.setdefault(f.ref.symbol.name, len(arrays))
                    for f in reads
                ],
                range(len(reads)),
            )
        )
        elem += array * (int(elem.max()) + 1)
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
        ):
            f = reads[k]
            event, outer = sim._fetch_meta(f.stmt, f.ref.ref_id)
            if event is None:
                # raw coalescing keys embed the full env — including
                # the takeover variables, which tier 2 sets per
                # iteration and we do not
                raise _Bail("fetch without a placed event")
            if set(outer) & set(plan.lane_vars):
                raise _Bail("fetch key varies per lane")
            tally.append(((f.stmt.stmt_id, f.ref.ref_id), count))
        # the key is the same for every element of one (read, reader,
        # source) group, whatever the order; the startup goes to the
        # earliest fetch under each key
        nranks = len(sim.memories)
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
            f, reader = reads[pair // nranks], pair % nranks
            key = sim._coalesce_key(f.stmt, f.ref.ref_id, source, reader, env)
            opened[key] = min(opened.get(key, at), at)
        fresh = [key for key in opened if key not in sim._fetch_keys_seen]
        startup = np.zeros(inst.size, dtype=np.bool_)
        startup[[opened[key] for key in fresh]] = True
        return inst, src, dst, startup, tally, fresh

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
        sim = self.plan.sim
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
        # each fetch
        who = np.stack((dst, src))
        when = np.broadcast_to(inst, who.shape)
        cut = bounds[who]
        for r in computing:
            here = who == r
            cut[here] += np.searchsorted(at[done[r]:ends[r]], when[here])
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
            data, valid, _size = sim.store.flat[f.ref.symbol.name]
            data[f.addr] = f.values
            valid[f.addr] = True
        return inst.size, first.size


#: statement phases of a nest, in execution order: before the inner
#: loop, its body, after it (a loop without an inner loop is all PRE)
PRE, BODY, POST = 0, 1, 2


class _Domain:
    """The iteration domain of one takeover, as data.

    ``jvec`` is the outer index of every *column*.  A column runs the
    prologue once, the body ``trips`` times — the inner index starting
    at ``low`` and advancing by ``step`` — and the epilogue once.
    ``widths`` of those trips lie side by side as lanes and ``serial``
    of them follow one another, ``trips == widths * serial``: a
    flattened nest has ``widths == trips`` (varying with the column
    when it is triangular) and one pass over the body, a nest with a
    serial axis ``widths == 1`` and ``serial`` passes, a loop without
    an inner loop an empty body.  ``count`` statement instances belong
    to each column, numbered from ``base`` in per-iteration order.

    Who runs them is data too: ``layouts`` holds one executor layout
    per distinct executor of the nest, ``lanes_of`` every statement's
    lanes at its level (the flattened body's, or the columns'),
    ``participants`` the ranks running anything at all, and ``tapes``
    — filled at the first commit — each rank's charge tape."""

    __slots__ = ("jvec", "low", "step", "trips", "widths", "serial",
                 "serial_var", "count", "base", "layouts", "lanes_of",
                 "participants", "tapes")

    def binding(self, t: int) -> dict:
        """The serial axis' index at body pass ``t``, as an env entry."""
        if self.serial_var is None:
            return {}
        return {self.serial_var: int(self.low[0]) + self.step * t}


class _Lanes:
    """The lanes of one executor layout at one level — its columns, or
    the flattened body.  A lane is a (statement instance, executing
    rank) pair; lanes are ordered rank-major (then by column, then by
    inner iteration), so each rank's lanes are one slice and run in
    per-iteration order."""

    def __init__(self, runs: np.ndarray, rank, col, lane_vars: dict,
                 spread=None):
        #: the layout (shared by its levels, and what identifies it)
        self.runs = runs
        self.n = rank.size
        self.rank = rank
        self.col = col
        #: the loop variables' lane vectors
        self.vars = lane_vars
        #: in the flattened body: the column-level lane each lane
        #: belongs to and its inner iteration within the column, then
        #: those ``columns``, their ``widths`` and ``first`` flat lanes
        #: (at column level: the lanes themselves, and nothing)
        self.up, self.tw, self.columns, self.widths, self.first = spread or (
            np.arange(rank.size), None, None, None, None
        )
        ends = np.bincount(rank, minlength=len(runs)).cumsum().tolist()
        #: the ranks with lanes and each one's slice of them
        self.slices = [
            (r, slice(start, stop))
            for r, (start, stop) in enumerate(zip([0] + ends, ends))
            if stop > start
        ]
        self._home = self._lane_id = None

    @property
    def home(self) -> np.ndarray:
        """One lane per statement instance — that of the lowest rank
        running it — as a lane mask."""
        if self._home is None:
            self._home = self.rank == self.runs.argmax(axis=0)[self.col]
        return self._home

    @property
    def lane_id(self) -> np.ndarray:
        """(rank, column) -> column-level lane, -1 where not run."""
        if self._lane_id is None:
            self._lane_id = np.full(self.runs.shape, -1, dtype=np.int64)
            self._lane_id[self.rank, self.col] = self.up
        return self._lane_id


class _Layout:
    """Which rank runs which column of the statements sharing one
    executor: ``runs[r, c]`` — the owner-computes layout has one rank
    per column, a fixed executor set the same ranks for every column —
    and its lanes at either level."""

    def __init__(self, runs: np.ndarray, dom: _Domain, plan: "NestPlan"):
        self.runs = runs
        rank, col = runs.nonzero()
        self.columns = _Lanes(runs, rank, col, {plan.v: dom.jvec[col]})
        self._flat = None
        # what the flattened lanes are built from (not the domain
        # itself, which holds the layouts: no reference cycle)
        self._spread = (
            dom.widths, plan.v, dom.jvec,
            plan.i if plan.i in plan.flat_vars else None, dom.low, dom.step,
        )

    def at(self, flat: bool) -> _Lanes:
        if not flat:
            return self.columns
        if self._flat is None:
            widths, v, jvec, i, low, step = self._spread
            cols = self.columns
            widths = widths[cols.col]
            first = widths.cumsum() - widths
            up = cols.up.repeat(widths)
            tw = np.arange(up.size, dtype=np.int64) - first[up]
            col = cols.col[up]
            lane_vars = {v: jvec[col]}
            if i is not None:
                lane_vars[i] = low[col] + step * tw
            self._flat = _Lanes(
                self.runs, cols.rank[up], col, lane_vars,
                (up, tw, cols, widths, first),
            )
        return self._flat


class _Region:
    """The elements one store form writes in one body pass, and the
    lane values last stored there."""

    __slots__ = ("lanes", "ref_id", "t", "vec")

    def __init__(self, lanes: _Lanes, ref_id: int, t: int, vec):
        self.lanes = lanes
        self.ref_id = ref_id
        self.t = t
        self.vec = vec


class _NestCtx(_Ctx):
    """One takeover in flight: the lane values of everything the nest
    has written so far, the reads that went to memory, and the fetch
    log.  Evaluation is global — one ``_eval`` per statement per pass,
    whatever the number of ranks; per-rank state is gathered lane-wise
    through each lane's executing rank."""

    def __init__(self, plan: "NestPlan", dom: _Domain, env):
        self.plan = plan
        self.dom = dom
        self.base_env = env
        self.memories = plan.sim.memories
        self.store = plan.sim.store
        self.log = _FetchLog(plan)
        #: step index -> the step's lanes
        self.lanes_of = dom.lanes_of
        sub_env = plan.subscript_env(env, dom.participants)
        #: per-pass increment of every element (and address) that moves
        #: with the serial axis
        self.strides = {
            ref_id: coeff * dom.step for ref_id, coeff in plan.strides.items()
        }

        def lanes_of(ref_id):
            return self.lanes_of[plan.ref_home[ref_id]]

        #: ref_id -> lane elements and addresses at the first body
        #: pass; the last pass is evaluated for its bounds checks alone
        self.elem, self.addr = _lane_addresses(
            plan.ref_forms, lanes_of, {**sub_env, **dom.binding(0)}
        )
        if self.strides and dom.serial > 1:
            _lane_addresses(
                {r: plan.ref_forms[r] for r in self.strides}, lanes_of,
                {**sub_env, **dom.binding(dom.serial - 1)},
            )
        #: scalar name -> (lanes, pass, lane values) of its last store
        self.scalars: dict[str, tuple] = {}
        #: store key -> region
        self.regions: dict[tuple, _Region] = {}
        #: reads of written arrays that found no region (yet)
        self.misses: list[tuple] = []
        #: accumulator name / fold step index -> rank -> folded value
        self.reduced: dict[str, dict] = {}
        self.folded: dict[int, dict] = {}
        self._memory_scalars: dict[tuple, tuple] = {}
        self._gathered: dict[int, tuple] = {}
        self.npass = 0

    # -- evaluation ----------------------------------------------------

    def run(self) -> None:
        """Evaluate the nest pass by pass; raises ``_Bail`` — nothing
        has been mutated — when it cannot stand in for tier 2."""
        plan, dom = self.plan, self.dom
        for phase, steps in enumerate(plan.steps):
            for t in range(dom.serial if phase == BODY else 1):
                self.phase, self.t = phase, t
                self.npass += 1
                self._env = self.base_env
                if phase == BODY:
                    self._env = {**self.base_env, **dom.binding(t)}
                    self.pass_keys = plan.moving_keys(self._env)
                for st in steps:
                    self.process(st)
        self._check_stores()
        self.fetch_plan = self.log.schedule(self.base_env)

    def process(self, st: _Step) -> None:
        self.cur = st
        self.q = 0
        lanes = self.lanes = self.lanes_of[st.index]
        value, is_int = _eval(st.expr, self)
        if st.op is not None:
            self._fold(st, value, is_int)
            return
        vec = _coerce_vec(value, is_int, st.stype, lanes.n)
        if st.kind == "scalar":
            was = self.scalars.get(st.name)
            if was is not None and was[0].runs is not lanes.runs:
                raise _Bail(f"scalar {st.name} written by two executor sets")
            self.scalars[st.name] = (lanes, self.npass, vec)
            return
        ref_id = st.stmt.lhs.ref_id
        key = self.plan.keys[ref_id] or self.pass_keys[ref_id]
        region = self.regions.get(key)
        if region is None:
            self.regions[key] = _Region(lanes, ref_id, self.t, vec)
        elif region.lanes is not lanes:
            raise _Bail("array writers differ in executor set")
        else:
            region.vec = vec

    def _fold(self, st: _Step, value, is_int: bool) -> None:
        """``acc = acc OP e`` over each rank's lanes, in iteration
        order, seeded with the rank's own accumulator."""
        if st.kind == "reduction":
            results = self.reduced.setdefault(st.name, {})
        else:
            results = self.folded[st.index] = {}
            data, valid, _size = self.store.flat[st.name]
            addr = self._fold_addresses(st.index)
            if not valid.take(addr).all():
                raise _Bail("fold accumulator invalid")
            starts = data.take(addr)
        for k, (r, sl) in enumerate(self.lanes.slices):
            memory = self.memories[r]
            if st.kind != "reduction":
                start = starts[k]
            elif r in results:
                start = results[r]
            elif memory.scalar_is_valid(st.name):
                start = memory.scalars[st.name]
            else:
                raise _Bail("reduction accumulator invalid")
            results[r] = _fold_lanes(
                st.op, start,
                value[sl] if isinstance(value, np.ndarray) else value,
                is_int, st.stype, sl.stop - sl.start,
            )

    def _fold_addresses(self, index: int) -> np.ndarray:
        """Where each rank folding into step ``index``'s one array
        element keeps it (the address at the rank's first lane), in
        the order of the lanes' ``slices``."""
        heads = [sl.start for _r, sl in self.lanes_of[index].slices]
        ref_id = self.plan.all_steps[index].stmt.lhs.ref_id
        return self.addr[ref_id][heads]

    # -- _Ctx ----------------------------------------------------------

    def loop_vec(self, name: str):
        return self.lanes.vars.get(name)

    @property
    def env(self):
        return self._env

    def _carry(self, vec: np.ndarray, src: _Lanes, what: str) -> np.ndarray:
        """``vec`` over the lanes ``src`` that stored it, as the current
        statement's other lanes read it: each through its own rank's
        copy; a column's value repeated over the column's inner lanes,
        a body value taken at the same inner iteration — or, after the
        body, at the column's last."""
        dst = self.lanes
        at = dst.up
        if src.runs is not dst.runs:
            at = (src.columns or src).lane_id[dst.rank, dst.col]
            if (at < 0).any():
                # the reading rank did not run the store: its copy was
                # invalidated by the ranks that did
                raise _Bail(f"{what} read would fetch")
        if src.tw is None:
            return vec[at]
        if dst.tw is None:
            return vec[src.first[at] + src.widths[at] - 1]
        return vec[src.first[at] + dst.tw]

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self._env:  # mirrors the fetching reader
            v = self._env[name]
            return v, isinstance(v, int)
        plan = self.plan
        stored = self.scalars.get(name)
        if stored is not None:
            src, npass, vec = stored
            if npass == self.npass or self.phase not in plan.scalar_phases[name]:
                if src is not self.lanes:
                    vec = self._carry(vec, src, f"scalar {name}")
                return vec, vec.dtype.kind in "bi"
        if stored is not None or name in plan.scalar_phases:
            # its store in this pass comes later (or it accumulates):
            # the value would flow in from another iteration
            raise _Bail(f"scalar {name} read before its definition")
        lanes = self.lanes
        got = self._memory_scalars.get((name, lanes))
        if got is None:
            # every lane reads its own rank's copy
            values = []
            for r, _sl in lanes.slices:
                if not self.memories[r].scalar_is_valid(name):
                    raise _Bail(f"scalar {name} read would fetch")
                values.append(self.memories[r].scalars[name])
            kinds = {isinstance(v, int) for v in values}
            if len(kinds) != 1:
                raise _Bail(f"scalar {name} mixes types across ranks")
            is_int = kinds.pop()
            if len(values) == 1:
                got = (values[0], is_int)
            else:
                vec = np.empty(
                    lanes.n, dtype=np.int64 if is_int else np.float64
                )
                for (_r, sl), v in zip(lanes.slices, values):
                    vec[sl] = v
                got = (vec, is_int)
            self._memory_scalars[(name, lanes)] = got
        return got

    def read_array(self, ref: ArrayElemRef):
        """What the nest stored under the same key is read lane for
        lane; anything else comes from each lane's executing rank.  An
        element invalid there is one the per-iteration path would
        fetch: logged and read from its source."""
        name = ref.symbol.name
        ref_id = ref.ref_id
        key = self.plan.keys[ref_id] or self.pass_keys[ref_id]
        region = self.regions.get(key)
        if region is not None:
            vec = region.vec
            if region.lanes is not self.lanes:
                vec = self._carry(vec, region.lanes, f"array {name}")
            return vec, vec.dtype.kind in "bi"
        self.q += 1
        if ref_id in self.strides:
            # gathered for every pass at once, one row per pass
            got = self._gathered.get(ref_id)
            if got is None:
                got = self._gathered[ref_id] = self._gather(ref)
            data, ok = got[0][self.t], got[1][self.t]
        else:
            data, ok = self._gather(ref)
        fetched = not ok.all()
        if fetched:
            data = self._fetch(ref, data, ok)
        if name in self.plan.written_arrays:
            # the pre-state of an element the nest writes later in the
            # same lane, or a read that must miss every store: settled
            # once all the stores are known
            self.misses.append((key, name, ref_id, self.t, fetched))
        return data, data.dtype.kind in "bi"

    def _at(self, table: dict, ref_id: int, t: int):
        """The reference's entry of ``table`` — the lane elements or
        addresses — in body pass ``t``."""
        stride = self.strides.get(ref_id)
        if stride is None or t == 0:
            return table[ref_id]
        return table[ref_id] + stride * t

    def _gather(self, ref: ArrayElemRef) -> tuple:
        """``(data, valid)`` of ``ref`` over the current lanes, each
        from its executing rank's copy; for a reference that moves with
        the serial axis, of every pass at once, one row per pass —
        memory does not change while the nest is evaluated."""
        data, valid, _size = self.store.flat[ref.symbol.name]
        addr = self.addr[ref.ref_id]
        stride = self.strides.get(ref.ref_id)
        if stride is not None:
            passes = np.arange(self.dom.serial, dtype=np.int64)[:, None]
            addr = addr + stride * passes
        return data.take(addr), valid.take(addr)

    def _fetch(self, ref: ArrayElemRef, data, ok) -> np.ndarray:
        lanes, dom, plan = self.lanes, self.dom, self.plan
        name = ref.symbol.name
        if not self.cur.follows and len(dom.participants) != 1:
            # ranks sharing an instance would fetch in an order the log
            # does not record; (a fixed executor fetching beside other
            # ranks' statements stays on tier 2 as well)
            raise _Bail("fetching takeover with multiple executors")
        if dom.serial > 1:
            # (the replay numbers the instances of one body pass;
            # fetches under a serial axis stay on tier 2)
            raise _Bail(f"array {name} read would fetch")
        bad = (~ok).nonzero()[0]
        # the fetching lanes' statement instances, in per-iteration order
        npre, nbody = len(plan.steps[PRE]), len(plan.steps[BODY])
        col = lanes.col[bad]
        inst = dom.base[col] + self.cur.k
        if self.phase == BODY:
            inst += npre + nbody * lanes.tw[bad]
        elif self.phase == POST:
            inst += npre + nbody * dom.trips[col]
        data = data.copy()
        data[bad] = self.log._fetch_read(
            ref, self.cur.stmt, self.q, lanes.rank[bad],
            np.broadcast_to(self.elem[ref.ref_id], ok.shape)[bad], inst,
        )
        return data

    def _check_stores(self) -> None:
        """Settle the reads that went to memory against the stores, and
        gather each array's regions for commit.  The classification was
        symbolic: where an array has several regions, or reads that
        match none, verify the concrete element sets are disjoint — else
        per-iteration order matters."""
        stray: dict[str, list] = {}
        for key, name, ref_id, t, fetched in self.misses:
            if key not in self.regions:
                stray.setdefault(name, []).append(self._at(self.elem, ref_id, t))
            elif fetched:
                raise _Bail(f"written array {name} read would fetch")
        groups: dict[tuple, list] = {}
        for region in self.regions.values():
            name = self.plan.ref_forms[region.ref_id][0].name
            groups.setdefault((name, region.lanes), []).append(region)
        #: (array, lanes) -> the regions these lanes stored: elements,
        #: addresses and values, with one row per region when there are
        #: several
        self.stores: dict[tuple, tuple] = {}
        marks: dict[str, list] = {}
        for (name, lanes), regions in groups.items():
            rows = [
                (
                    self._at(self.elem, region.ref_id, region.t),
                    self._at(self.addr, region.ref_id, region.t),
                    region.vec,
                )
                for region in regions
            ]
            stored = self.stores[name, lanes] = (
                rows[0] if len(rows) == 1 else tuple(map(np.stack, zip(*rows)))
            )
            marks.setdefault(name, []).append((stored[0], lanes, len(rows)))
        for name, stored in marks.items():
            reads = stray.get(name, ())
            if sum([rows for _e, _l, rows in stored]) < 2 and not reads:
                continue
            mask = np.zeros(self.store.data[name][0].size, dtype=np.bool_)
            count = 0
            for elem, lanes, rows in stored:  # each instance once
                mask[elem[..., lanes.home]] = True
                count += rows * int(lanes.home.sum())
            if int(mask.sum()) != count:
                raise _Bail("write regions overlap")
            for elem in reads:
                if mask[elem].any():
                    raise _Bail("read overlaps writes across lanes")

    # -- commit --------------------------------------------------------

    def _rank_tapes(self) -> tuple:
        """The ranks' tier-2 tapes end to end, in rank order, as
        ``(bounds, step, inst)``: rank ``r`` runs the instances
        ``inst[bounds[r]:bounds[r + 1]]``, ascending, each the
        statement ``step`` (index into the nest's steps)."""
        plan, dom = self.plan, self.dom
        count, trips = dom.count, dom.trips
        sizes = [len(steps) for steps in plan.steps]
        step_of = np.empty(int(count.sum()), dtype=np.min_scalar_type(sum(sizes)))
        # the first statement of each column's prologue, of every one
        # of its body trips, and of its epilogue
        s0 = 0
        for phase, size in enumerate(sizes):
            if size:
                first = dom.base + (phase > PRE) * sizes[PRE]
                if phase == BODY:
                    starts = (trips.cumsum() - trips).repeat(trips)
                    trip = np.arange(starts.size) - starts
                    first = first.repeat(trips) + size * trip
                elif phase == POST:
                    first = first + sizes[BODY] * trips
                for k in range(size):
                    step_of[first + k] = s0 + k
                s0 += size
        # a lane (rank, column) runs its column's instances: the lanes
        # are rank-major, so a layout's come out rank by rank and
        # ascending — as they are numbered, where every rank's columns
        # are consecutive
        nranks = len(self.memories)
        shared = len(dom.layouts) > 1
        groups = np.asarray([st.group for st in plan.all_steps])
        ranks, insts = [], []
        for group, layout in enumerate(dom.layouts):
            cols = layout.columns
            n = count[cols.col]
            inst = np.arange(int(n.sum()), dtype=np.int32)
            ahead = dom.base[cols.col] - (n.cumsum() - n)
            if ahead.any():
                inst += ahead.repeat(n)
            if shared:
                # ... those of the layout's own statements, that is
                mine = groups[step_of[inst]] == group
                inst = inst[mine]
                ranks.append(cols.rank.repeat(n)[mine])
            insts.append(inst)
        if shared:
            rank, inst = np.concatenate(ranks), np.concatenate(insts)
            inst = inst[np.lexsort((inst, rank))]
            lengths = np.bincount(rank, minlength=nranks)
        else:
            (inst,), cols = insts, dom.layouts[0].columns
            lengths = np.bincount(cols.rank, count[cols.col], nranks)
        bounds = np.zeros(nranks + 1, dtype=np.int64)
        np.cumsum(lengths, dtype=np.int64, out=bounds[1:])
        return bounds, step_of[inst], inst

    def commit(self) -> tuple[int, int]:
        """Make the takeover visible: clocks, stores and invalidations,
        scalars, folds.  Returns the number of elements fetched and of
        message runs replayed."""
        plan, dom = self.plan, self.dom
        sim = plan.sim
        memories, clocks = self.memories, sim.clocks
        dts = clocks.tape([st.dt for st in plan.all_steps])
        if dom.tapes is None:
            dom.tapes = self._rank_tapes()
        replayed = (0, 0)
        if self.fetch_plan is not None:
            replayed = self.log.commit(self.fetch_plan, dts, dom.tapes)
        else:
            bounds, steps, _inst = dom.tapes
            cuts = bounds.tolist()
            for r in dom.participants:
                clocks.charge_compute_tape(r, dts[steps[cuts[r]:cuts[r + 1]]])
        store, nranks = self.store, len(memories)
        for (name, lanes), (elem, addr, vals) in self.stores.items():
            data, valid, size = store.flat[name]
            data[addr] = vals
            if not lanes.runs.all():
                # every write instance invalidates each rank not
                # running it: nobody holds the elements, then the
                # writers do
                valid.reshape(nranks, size)[:, elem[..., lanes.home]] = False
            valid[addr] = True
        for name, (lanes, _npass, vec) in self.scalars.items():
            # every rank keeps the value of its own last instance (it
            # persists even once a later column invalidates it); the
            # copies of the ranks running the last column end valid
            for r, sl in lanes.slices:
                memories[r].scalar_store(name, vec[sl.stop - 1].item())
            for r in (~lanes.runs[:, -1]).nonzero()[0].tolist():
                memories[r].scalar_invalidate(name)
        for name, results in self.reduced.items():
            for r, value in results.items():
                memories[r].scalar_store(name, value.item())
        for index, results in self.folded.items():
            st = plan.all_steps[index]
            lanes = self.lanes_of[index]
            data, valid, size = store.flat[st.name]
            addr = self._fold_addresses(index)
            data[addr] = [results[r].item() for r, _sl in lanes.slices]
            valid[addr] = True
            # an afold accumulates privately: the other ranks keep
            # their copies, exactly like scalar reductions.  An sfold
            # is a plain owner-computes store, just serialized: it
            # invalidates them once per iteration
            if st.kind == "sfold":
                lost = ~lanes.runs.all(axis=1)
                elem = self.elem[st.stmt.lhs.ref_id]
                valid.reshape(nranks, size)[lost, elem] = False
        if plan.i is not None and plan.i not in self.base_env:
            # the walker's per-iteration epilogue leaves the inner
            # index at the last column's final value
            self.base_env[plan.i] = int(
                dom.low[-1] + dom.trips[-1] * dom.step
            )
        sim.slab_instances += int(dom.count.sum())
        return replayed


class NestPlan:
    """Vectorized execution of one loop nest as one takeover.

    Built once per eligible loop from the IR and the static reports
    (raising ``_Bail`` when the nest is tier 2 after all); *prepare*
    then builds the entry's iteration domain (:class:`_Domain`),
    evaluates every statement over its lanes (:class:`_NestCtx`) and
    returns the commit.  Exact because no value flows between lanes:
    every store is injective over its lanes, a lane reads what its own
    instance stored or what the nest never writes, and whatever depends
    on live state — validity, bounds, widths, overlap of the concrete
    index sets — bails to tier 2 before any mutation.  A lane reads
    through its executing rank and fetches what that rank does not
    hold, like tier 2 (:class:`_FetchLog`)."""

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        sim = self.sim = slab.sim
        fast = self.fast = slab.fast
        self.loop = loop
        nest = _split_nest(loop)
        if isinstance(nest, str):
            raise _Bail(nest)
        inner, *phases = nest
        self.v = v = loop.var.name
        self.i = i = inner.var.name if inner is not None else None
        serial = loop.stmt_id in slab.report.serial_axes
        #: the variable of the serial axis, if there is one, and the
        #: lane axes of the body
        self.serial_var = i if serial else None
        self.flat_vars = (v,) if inner is None or serial else (v, i)
        #: every loop variable the takeover binds
        self.lane_vars = (v,) if inner is None else (v, i)
        #: ref_id -> (symbol, forms); index of its step; what it names
        #: — a canonical key comparable across the nest's statements,
        #: None for a reference that moves with the serial axis (its
        #: key changes with the pass: ``moving_keys``); the flat
        #: element's coefficient on that axis
        self.ref_forms: dict[int, tuple] = {}
        self.ref_home: dict[int, int] = {}
        self.keys: dict[int, tuple | None] = {}
        self.strides: dict[int, int] = {}
        self._moving: list[tuple] = []
        #: memory scalars subscripts depend on, resolved at prepare
        self.subscript_scalars: set[str] = set()
        #: scalar name -> phases storing it; reduction accumulators
        self.scalar_phases: dict[str, set] = {}
        self.acc_names: set[str] = set()
        self.written_arrays: set[str] = set()
        #: arrays folded into one element (``AMD(k) = MAX(AMD(k), ...)``)
        self.fold_arrays: set[str] = set()
        self.steps: tuple[list, list, list] = ([], [], [])
        self.all_steps: list[_Step] = []
        for phase, stmts in enumerate(phases):
            for stmt in stmts:
                dt = fast._dt.get(stmt.stmt_id)
                if dt is None:
                    raise _Bail("statement not lowered")
                st = _Step(stmt, dt, len(self.all_steps), len(self.steps[phase]))
                self._store_role(st, phase)
                self.steps[phase].append(st)
                self.all_steps.append(st)
        for phase, steps in enumerate(self.steps):
            for st in steps:
                for ref in st.expr.refs():
                    if isinstance(ref, ArrayElemRef):
                        if ref.symbol.name in self.fold_arrays:
                            raise _Bail("fold array read outside its fold")
                        self._register(ref, st, phase)
        if self.fold_arrays & self.written_arrays:
            raise _Bail("array both folded and written")
        # accumulators must not leak into any other statement
        for st in self.all_steps:
            if st.kind != "reduction" and st.name in self.acc_names:
                raise _Bail("accumulator written outside the fold")
            for ref in st.expr.refs():
                if isinstance(ref, ScalarRef) and ref.symbol.name in self.acc_names:
                    raise _Bail("accumulator read outside the fold")
        mutated = set(self.scalar_phases) | self.acc_names
        if self.subscript_scalars & mutated:
            raise _Bail("subscript depends on a scalar written in body")
        self._executors(mutated)
        #: the inner loop's bounds — an absent one is 1: a missing
        #: step, and the single trip of a nest without an inner loop —
        #: with the affine form of each that varies with the column
        self.bounds = (
            (inner.low, inner.high, inner.step) if inner is not None
            else (None, None, None)
        )
        self.bound_forms = [None, None, None]
        for k, bound in enumerate(self.bounds):
            for ref in bound.refs() if bound is not None else ():
                if isinstance(ref, ArrayElemRef):
                    raise _Bail("inner bound reads an array")
                if ref.symbol.name == i or ref.symbol.name in mutated:
                    raise _Bail("inner bounds vary during the takeover")
                if ref.symbol.name == v:
                    self.bound_forms[k] = affine_form(bound)
                    if self.bound_forms[k] is None or serial or k == 2:
                        raise _Bail("inner bounds not affine in the column")
        if inner is not None:
            # what the one plan could run but this round does not take
            # (see CHANGES.md): each keeps its tier-2 verdict
            if inner.stmt_id in sim._reductions_by_loop:
                raise _Bail("inner loop combines a reduction")
            if serial and any(st.op is not None for st in self.all_steps):
                raise _Bail("reduction update in body")
            if self.subscript_scalars:
                raise _Bail(
                    f"subscript depends on scalar "
                    f"{min(self.subscript_scalars)}"
                )

    def _store_role(self, st: _Step, phase: int) -> None:
        """What ``st`` stores and how: a lane value per instance, or a
        fold over the lanes into one accumulator."""
        stmt, v = st.stmt, self.v
        reduction = self.sim._reduction_updates.get(st.sid, (None,))[0]
        if reduction is not None and (
            reduction.location_symbol is not None
            or reduction.op not in _RED_UFUNC
            or reduction.symbol.name != st.name
        ):
            raise _Bail("unsupported reduction form")
        if st.kind == "scalar":
            if reduction is None:
                self.scalar_phases.setdefault(st.name, set()).add(phase)
                return
            st.expr = _reduction_operand(stmt.rhs, st.name, reduction.op)
            if st.expr is None:
                raise _Bail("unrecognized reduction update")
            st.kind, st.op = "reduction", reduction.op
            self.acc_names.add(st.name)
            return
        forms = self._register(stmt.lhs, st, phase)
        canon = tuple(_canon_form(f) for f in forms)
        axes = self.flat_vars if phase == BODY else (v,)
        injective = all(any(_mentions(f, a) for f in forms) for a in axes)
        if reduction is not None:
            # fold into one array element: every lane must hit the same
            # private accumulator element
            if any(_mentions(f, *self.lane_vars) for f in forms):
                raise _Bail("fold subscript varies with lane")
            st.expr = _afold_operand(stmt.rhs, st.name, canon, reduction.op)
            if st.expr is None:
                raise _Bail("unrecognized array fold update")
            st.kind, st.op = "afold", reduction.op
        elif not injective:
            # every lane of an axis stores the same element: only a
            # serial fold (``A(c) = A(c) OP e``, the reduction-into-
            # column shape the reduction pass left as a plain
            # owner-computes assign) has per-iteration semantics a
            # slab can replay
            if self.i is not None or any(_mentions(f, v) for f in forms):
                raise _Bail("store not injective in the loop variables")
            for op in ("+", "*", "MAX", "MIN"):
                st.expr = _afold_operand(stmt.rhs, st.name, canon, op)
                if st.expr is not None:
                    break
            else:
                raise _Bail("store not injective in the loop var")
            st.kind, st.op = "sfold", op
        else:
            self.written_arrays.add(st.name)
            return
        if st.name in self.fold_arrays:
            raise _Bail("array folded twice")
        self.fold_arrays.add(st.name)

    def _register(self, ref: ArrayElemRef, st: _Step, phase: int) -> list:
        """Record an array reference's forms, home and key."""
        forms = [affine_form(s) for s in ref.subscripts]
        if any(f is None for f in forms):
            raise _Bail("non-affine subscript")
        for f in forms:
            if phase != BODY and self.i is not None and _mentions(f, self.i):
                raise _Bail("inner index outside the inner loop")
            # besides the takeover's loop variables a subscript may
            # reference enclosing loops' (from env at run time) and
            # per-rank memory scalars, resolved to one agreed value at
            # prepare (``subscript_env``)
            self.subscript_scalars.update(
                sym.name for sym, _c in f.coeffs
                if sym.value is None and not sym.is_loop_var
            )
        self.ref_forms[ref.ref_id] = (ref.symbol, forms)
        self.ref_home[ref.ref_id] = st.index
        # canonical: per dimension the constant — symbolic constants
        # folded in — and the other symbols' terms, the serial axis'
        # coefficient apart
        consts, coeffs, terms = [], [], []
        for f in forms:
            const, ci, rest = f.const, 0, []
            for sym, c in f.coeffs:
                if sym.value is not None:
                    const += c * int(sym.value)
                elif sym.name == self.serial_var:
                    ci = c
                else:
                    rest.append((sym.name, c))
            consts.append(const)
            coeffs.append(ci)
            terms.append(tuple(sorted(rest)))
        head = (ref.symbol.name, tuple(terms))
        if any(coeffs):
            self.keys[ref.ref_id] = None
            stride = 0  # of the flat element, per unit of the axis
            for d, ci in enumerate(coeffs):
                stride = stride * ref.symbol.extent(d) + ci
            self.strides[ref.ref_id] = stride
            self._moving.append((ref.ref_id, head, list(zip(consts, coeffs))))
        else:
            self.keys[ref.ref_id] = (*head, tuple(consts))
        return forms

    def moving_keys(self, env) -> dict:
        """ref_id -> key, at the serial axis' index in ``env``, of every
        reference that moves with the axis: the index resolved into the
        constants, so a store and a later pass's read of the same
        elements (``D(i,j)``, ``D(i-1,j)``) agree."""
        i = env.get(self.serial_var)
        return {
            ref_id: (*head, tuple([c + ci * i for c, ci in dims]))
            for ref_id, head, dims in self._moving
        }

    def _executors(self, mutated: set) -> None:
        """Sort the statements by executor: those run by the owner of
        their column — one canonical 1-D position, a function of the
        outer variable, tabulated as ``pos_ranks`` — and those run by a
        fixed rank set, evaluated at prepare."""
        sim = self.sim
        canon = _MISSING
        self.pos_form = None
        #: one statement of every distinct executor (``_Step.group``)
        self.executors: list[_Step] = []
        groups: dict = {}
        for st in self.all_steps:
            info = sim.compiled.executors.get(st.sid)
            if info is None:
                raise _Bail("no executor info")
            everywhere = sim._runs_everywhere(st.stmt) or info.kind == "all"
            forms = [
                dim.form
                for dim in info.position
                if dim.kind == "pos" and dim.form is not None
                and dim.fmt is not None
            ]
            st.follows = not everywhere and any(
                _mentions(form, self.v) for form in forms
            )
            # (what ``executor_ranks`` is a function of)
            key = "all" if everywhere else "owner" if st.follows else tuple(
                _canon_form(dim.form)
                if dim.kind == "pos" and dim.form is not None
                and dim.fmt is not None
                else None
                for dim in info.position
            )
            st.group = groups.setdefault(key, len(groups))
            if st.group == len(self.executors):
                self.executors.append(st)
            if not st.follows:
                continue
            if info.kind != "owner" or len(info.position) != 1:
                raise _Bail("executor is not a 1-D owner position")
            dim = info.position[0]
            if dim.fmt is None:
                raise _Bail("executor position is not a point")
            if canon is _MISSING:
                canon = _canon_form(dim.form)
                self.pos_form, self.pos_fmt = dim.form, dim.fmt
            elif _canon_form(dim.form) != canon:
                raise _Bail("executor position differs across statements")
        if canon is _MISSING:
            if self.i is not None:
                # (one rank: the columns have no owner to be sliced by)
                raise _Bail("executor position is not a point")
        else:
            if sim.grid.rank != 1:
                raise _Bail("grid is not one-dimensional")
            # the position may only depend on the column (and constants)
            for sym, _c in self.pos_form.coeffs:
                if sym.value is None and sym.name != self.v:
                    if (
                        not sym.is_loop_var
                        or sym.name == self.i
                        or sym.name in mutated
                    ):
                        raise _Bail("executor position not a column function")
            rank_of = np.asarray(
                [sim.grid.rank_of((c,)) for c in range(sim.grid.shape[0])],
                dtype=np.int64,
            )
            self.pos_ranks = rank_of[
                np.asarray(
                    self.fast.etables.owner_table(self.pos_fmt), dtype=np.int64
                )
            ]
        for st in self.all_steps:
            if st.follows:
                continue
            info = sim.compiled.executors[st.sid]
            everywhere = sim._runs_everywhere(st.stmt)
            if canon is not _MISSING:
                # beside column-owned statements only replicated ones,
                # and only on scalars: arrays would read per-rank state
                if not (everywhere or _replicated_exec(info)):
                    raise _Bail("executor position differs across statements")
                if st.kind != "scalar" or any(
                    isinstance(ref, ArrayElemRef) for ref in st.stmt.rhs.refs()
                ):
                    raise _Bail("replicated statement touches an array")
            for dim in () if everywhere else info.position:
                if dim.kind == "pos" and dim.form is not None:
                    if _mentions(dim.form, *self.lane_vars, *mutated):
                        raise _Bail("executor varies inside the loop")

    def subscript_env(self, env, participants: list[int]):
        """``env`` plus the memory scalars the subscripts reference:
        every participant must hold the same valid integral value
        (per-iteration semantics read the rank's own copy each time)."""
        if not self.subscript_scalars:
            return env
        sub_env = dict(env)
        for nm in sorted(self.subscript_scalars - set(env)):
            val = _MISSING
            for r in participants:
                memory = self.sim.memories[r]
                if not memory.scalar_is_valid(nm):
                    raise _Bail(f"subscript scalar {nm} invalid")
                got = memory.scalars[nm]
                if val is _MISSING:
                    val = got
                elif got != val:
                    raise _Bail(f"subscript scalar {nm} diverges")
            if not float(val).is_integer():
                raise _Bail(f"subscript scalar {nm} not integral")
            sub_env[nm] = int(val)
        return sub_env

    # ------------------------------------------------------------------

    def _build_shape(self, low: int, high: int, step: int, bounds: tuple,
                     pos, ranks: tuple) -> _Domain | None:
        """The iteration domain — None when it is empty — of an entry
        whose loop runs ``low, high, step``, whose inner bounds and
        owner position are ``bounds`` and ``pos`` at the first column,
        and whose fixed executors are ``ranks``: a function of these
        alone."""
        nj = slab_trip_count(low, high, step)
        if nj == 0:
            return None
        dom = _Domain()
        ahead = step * np.arange(nj, dtype=np.int64)  # of the first column

        def per_column(first, form):
            slope = 0 if form is None else form.coeff(self.loop.var)
            return first + slope * ahead

        dom.jvec = low + ahead
        li, hi, si = bounds
        if si == 0:
            raise _Bail("zero inner step")
        dom.step = si
        dom.low = per_column(li, self.bound_forms[0])
        dom.trips = slab_trip_count(
            dom.low, per_column(hi, self.bound_forms[1]), si
        )
        dom.serial_var = self.serial_var
        if self.serial_var is None:
            dom.widths, dom.serial = dom.trips, 1
        else:
            dom.widths, dom.serial = np.ones_like(dom.trips), int(dom.trips[0])
        if not dom.widths.all():
            # a column with no inner iterations still runs its prologue
            # and epilogue; keep the uncommon shape on tier 2
            raise _Bail("empty inner slab")
        # statement instances in per-iteration order: column by column,
        # prologue, body trip by trip, epilogue
        npre, nbody, npost = (len(steps) for steps in self.steps)
        dom.count = npre + dom.trips * nbody + npost
        dom.base = dom.count.cumsum() - dom.count
        dom.tapes = None
        layouts: dict = {}  # by rank set: equal executors share one
        for st, fixed in zip(self.executors, ranks):
            if fixed in layouts:
                continue
            runs = np.zeros((len(self.sim.memories), nj), dtype=np.bool_)
            if st.follows:
                at = per_column(pos, self.pos_form)
                if int(at.min()) < 0 or int(at.max()) >= self.pos_fmt.extent:
                    raise _Bail("executor position out of range")
                runs[self.pos_ranks[at], np.arange(nj)] = True
            elif fixed:
                runs[list(fixed)] = True
            else:
                raise _Bail("empty executor set")
            layouts[fixed] = _Layout(runs, dom, self)
        dom.layouts = [layouts[fixed] for fixed in ranks]
        dom.lanes_of = [
            dom.layouts[st.group].at(phase == BODY)
            for phase, steps in enumerate(self.steps)
            for st in steps
        ]
        dom.participants = sorted({
            r for layout in dom.layouts for r, _sl in layout.columns.slices
        })
        return dom

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        # what the entry's shape is a function of — a handful of
        # integers that successive entries mostly repeat, so the
        # executor keeps the last shape (one, whatever the loop: a big
        # nest's is released before the next is built).  A bound
        # invariant over the columns is evaluated once, uncharged,
        # exactly like the per-iteration walker's eval_bound; one
        # affine in the column, and the owners' position, at the first
        # column
        first = {self.v: low}
        try:
            bounds = tuple([
                1 if bound is None
                else self.fast.eval_bound(bound, env) if form is None
                else _affine_vec(form, first, env)
                for bound, form in zip(self.bounds, self.bound_forms)
            ])
        except _BOUND_ERRORS:
            raise _Bail("inner bounds not evaluable") from None
        key = (
            self, low, high, step, bounds,
            None if self.pos_form is None
            else _affine_vec(self.pos_form, first, env),
            tuple([
                None if st.follows
                else tuple(self.sim.executor_ranks(st.stmt, env))
                for st in self.executors
            ]),
        )
        memo = self.fast.slab
        if key != memo.shape_key:
            memo.shape_key = memo.shape = None
            memo.shape = self._build_shape(*key[1:])
            memo.shape_key = key
        dom = memo.shape
        if dom is None:
            return lambda: (0, 0)
        ctx = _NestCtx(self, dom, env)
        with np.errstate(over="ignore", invalid="ignore"):
            ctx.run()
        return ctx.commit


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class SlabExecutor:
    """Tier-3 entry point: owns the eligibility report and one runtime
    plan per loop, attempts takeovers, and falls back on any bail."""

    def __init__(self, fast):
        self.fast = fast
        self.sim = fast.sim
        sim = self.sim
        self.report = report = sim.compiled.slabs
        self._plans: dict[int, Any] = {}
        self._eligible = report.eligible_loops()
        #: a program whose report has no eligible nest pays nothing per
        #: loop entry: one flag check instead of a plan lookup (DGEFA's
        #: pivot search enters thousands of ineligible loops)
        self.enabled = bool(self._eligible)
        #: per-loop consecutive prepare bails; a nest that reaches
        #: GIVE_UP_AFTER without ever committing is demoted to tier 2
        #: for the rest of the run (prepare overhead was pure loss)
        self._bail_counts: dict[int, int] = {}
        self._committed: set[int] = set()
        #: the last takeover's shape and what it was built from (see
        #: ``NestPlan.prepare``)
        self.shape_key = self.shape = None

    def _record_bail(self, stmt: LoopStmt, reason: str) -> None:
        sim = self.sim
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.bail[{reason}]")
            sim.metrics.inc(f"slab.fallback[loop=S{stmt.stmt_id}]")
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.bail", cat="sim", loop=stmt.stmt_id, reason=reason
            )

    def _build(self, stmt: LoopStmt):
        # Plan construction only reads the IR and the static reports;
        # a bail means "this loop is tier 2", a numeric-domain error in
        # a closed form means the same — anything else (NameError,
        # TypeError, ...) is a genuine bug and must surface.
        if stmt.stmt_id not in self._eligible:
            return None
        try:
            return NestPlan(self, stmt)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            return None
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "plan construction error")
            return None

    def _decide(self, sid: int, choice: str) -> None:
        sim = self.sim
        if sim.tier_decisions.get(sid) != choice:
            sim.tier_decisions[sid] = choice
        if sim.metrics is not None:
            sim.metrics.inc(f"tier.decision[loop=S{sid},choice={choice}]")

    def run_loop(self, stmt: LoopStmt, low: int, high: int, step: int,
                 env) -> bool:
        if not self.enabled:
            return False
        sid = stmt.stmt_id
        sim = self.sim
        approved = sim._tier_approved
        if approved is not None and sid not in approved:
            if sid in self._eligible:
                # the TierPlan predicted tier 2 to win here
                self._decide(sid, "lowered")
            return False
        plan = self._plans.get(sid, _MISSING)
        if plan is _MISSING:
            plan = self._build(stmt)
            self._plans[sid] = plan
        if plan is None:
            return False
        # Phase A (prepare) mutates nothing: a bail or a numeric-domain
        # error falls back to tier 2, which replays the loop exactly;
        # genuine programming errors propagate.
        try:
            commit = plan.prepare(low, high, step, env)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            self._decide(sid, "lowered")
            if sid not in self._committed:
                bails = self._bail_counts.get(sid, 0) + 1
                self._bail_counts[sid] = bails
                if bails >= GIVE_UP_AFTER:
                    # never succeeded: stop paying prepare per entry
                    self._plans[sid] = None
            return False
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "prepare error")
            self._decide(sid, "lowered")
            return False
        # Phase B (commit) is outside the net: a failure here would mean
        # corrupted state and must surface, not silently re-execute.
        fetched, runs = commit()
        self._committed.add(sid)
        self._decide(sid, "slab")
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.takeover[loop=S{sid}]")
            if fetched:
                sim.metrics.inc(f"slab.fetch_replay[loop=S{sid}]", fetched)
                sim.metrics.inc(f"slab.fetch_runs[loop=S{sid}]", runs)
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.takeover", cat="sim", loop=sid, low=low,
                high=high, step=step,
            )
        return True

