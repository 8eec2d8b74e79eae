"""Seeded random generation of valid mini-HPF programs.

:func:`generate` draws a :class:`~repro.fuzz.grammar.FuzzProgram` from
a :class:`GenConfig` and an integer seed.  The same ``(seed, config)``
always produces the same program (``random.Random`` is stable), so a
campaign is reproducible from its seed alone and every corpus file can
be regenerated from the provenance comment in its header.

Validity invariants the generator maintains (property-tested in
``tests/fuzz/test_generator.py``):

* every emitted program parses, compiles, and runs on the interpreter;
* every scalar is assigned before it is read — reduction accumulators
  at program start, privatized temporaries earlier in the same
  iteration (temporaries defined in an inner loop are never read in
  the epilogue, where a sometimes-empty triangular inner loop could
  leave them stale);
* all subscripts stay inside the declared ``(n, n)`` bounds: loop
  ranges are drawn from ``2 .. n-1`` and stencil offsets from
  ``[-1, 1]``;
* ``INDEPENDENT`` is asserted only on nests where every array is
  read-only or written-only (no loop-carried flow), with privatized
  temporaries in ``NEW`` and accumulators in ``REDUCTION``;
* the signature nest (pivot column/row reads of the updated array,
  halo reads of another) never writes what it reads across columns:
  its loops start one past the pivot;
* no division, so no input can trap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .grammar import (
    DIST_PLANS,
    DistPlan,
    FuzzLoop,
    FuzzNest,
    FuzzProgram,
    FuzzStmt,
    ref,
)

#: float literals used as coefficients (exact in binary where it
#: matters little — tiers share one numeric path anyway)
COEFFS = ("0.125", "0.25", "0.5", "0.75", "1.25", "2.0", "3.0")

#: guard comparison thresholds inside the input range [0.5, 1.5]
THRESHOLDS = ("0.8", "1.0", "1.2", "1.4")


@dataclass
class GenConfig:
    """Size and feature knobs of the generator."""

    n_min: int = 7
    n_max: int = 12
    max_nests: int = 3
    max_body: int = 4
    procs_choices: tuple[int, ...] = (1, 2, 3, 4)
    dists: tuple[DistPlan, ...] = DIST_PLANS
    #: feature probabilities
    p_guard: float = 0.30
    p_scalar_reduce: float = 0.45
    p_elem_reduce: float = 0.25
    p_triangular: float = 0.40
    p_empty_triangle: float = 0.15
    p_imperfect: float = 0.40
    p_downward: float = 0.20
    p_flat: float = 0.15
    p_work_array: float = 0.25
    p_independent: float = 0.35
    p_lhs_offset: float = 0.15
    p_signature: float = 0.25
    temps: tuple[str, ...] = ("T0", "T1", "T2")
    accumulators: tuple[str, ...] = ("R0", "R1")

    def scaled(self, factor: float) -> "GenConfig":
        """A config with the structural size knobs scaled (the CLI's
        ``--size``); probabilities stay put."""
        import dataclasses

        return dataclasses.replace(
            self,
            max_nests=max(1, round(self.max_nests * factor)),
            max_body=max(1, round(self.max_body * factor)),
        )


@dataclass
class _Draw:
    """Mutable generation state for one program."""

    rng: random.Random
    config: GenConfig
    arrays: tuple[str, ...]
    used_scalars: set[str] = field(default_factory=set)
    used_work: bool = False


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _array_ref(d: _Draw, i: str, j: str, *, inner: bool) -> str:
    """A random in-bounds array reference.  ``inner`` refs use both
    loop variables with stencil offsets; outer-level refs pin the
    first subscript to a small literal."""
    rng = d.rng
    array = rng.choice(d.arrays)
    oi = rng.choice((-1, 0, 0, 1))
    oj = rng.choice((-1, 0, 0, 1))
    if inner:
        return ref(array, i, oi, j, oj)
    return ref(array, str(rng.choice((2, 3))), 0, j, oj)


def _operand(d: _Draw, i: str, j: str, temps: list[str], *, inner: bool) -> str:
    rng = d.rng
    if temps and rng.random() < 0.3:
        return rng.choice(temps)
    return _array_ref(d, i, j, inner=inner)


def _expr(d: _Draw, i: str, j: str, temps: list[str], *, inner: bool) -> str:
    """A small random arithmetic expression over in-scope operands."""
    rng = d.rng
    shape = rng.randrange(5)
    a = _operand(d, i, j, temps, inner=inner)
    b = _operand(d, i, j, temps, inner=inner)
    if shape == 0:
        return f"{rng.choice(COEFFS)} * {a}"
    if shape == 1:
        return f"{a} {rng.choice('+-')} {b}"
    if shape == 2:
        return f"{rng.choice(COEFFS)} * ({a} {rng.choice('+-')} {b})"
    if shape == 3:
        return f"ABS({a} - {b})"
    return f"{a} * {rng.choice(COEFFS)} + {b}"


def _guard(d: _Draw, i: str, j: str, *, inner: bool) -> str:
    rng = d.rng
    op = rng.choice((".GT.", ".LT.", ".GE."))
    return f"{_array_ref(d, i, j, inner=inner)} {op} {rng.choice(THRESHOLDS)}"


def _reduce_stmt(d: _Draw, acc: str, i: str, j: str, temps: list[str],
                 *, inner: bool) -> FuzzStmt:
    rng = d.rng
    d.used_scalars.add(acc)
    value = _expr(d, i, j, temps, inner=inner)
    if rng.random() < 0.5:
        rhs = f"MAX({acc}, ABS({value}))"
    else:
        rhs = f"{acc} + {value}"
    guard = None
    if rng.random() < d.config.p_guard:
        guard = _guard(d, i, j, inner=inner)
    return FuzzStmt(lhs=acc, rhs=rhs, guard=guard)


# ---------------------------------------------------------------------------
# Nest shapes
# ---------------------------------------------------------------------------


def _inner_body(d: _Draw) -> list[FuzzStmt]:
    """Random inner-loop body: privatized temp chain, array writes,
    optional guards, optional reductions."""
    rng = d.rng
    config = d.config
    body: list[FuzzStmt] = []
    temps: list[str] = []
    count = rng.randrange(1, config.max_body + 1)
    for _ in range(count):
        kind = rng.random()
        if kind < 0.30 and len(temps) < len(config.temps):
            name = config.temps[len(temps)]
            body.append(
                FuzzStmt(lhs=name, rhs=_expr(d, "i", "j", temps, inner=True))
            )
            temps.append(name)
            d.used_scalars.add(name)
            continue
        if kind < 0.30 + config.p_scalar_reduce * 0.5:
            body.append(
                _reduce_stmt(
                    d, rng.choice(config.accumulators), "i", "j", temps,
                    inner=True,
                )
            )
            continue
        target = rng.choice(d.arrays)
        oi = 0
        if rng.random() < config.p_lhs_offset:
            oi = rng.choice((-1, 1))
        lhs = ref(target, "i", oi, "j", 0)
        if rng.random() < config.p_elem_reduce:
            # fold into one element of the owned column (dgefa-style)
            lhs = ref(target, "2", 0, "j", 0)
            rhs = f"{lhs} + {_expr(d, 'i', 'j', temps, inner=True)}"
        else:
            rhs = _expr(d, "i", "j", temps, inner=True)
        guard = None
        if rng.random() < config.p_guard:
            guard = _guard(d, "i", "j", inner=True)
        body.append(FuzzStmt(lhs=lhs, rhs=rhs, guard=guard))
    if not any("(" in stmt.lhs for stmt in body):
        # always at least one array write, so the nest has an owner-
        # computes executor and the program an observable effect
        target = rng.choice(d.arrays)
        body.append(
            FuzzStmt(
                lhs=ref(target, "i", 0, "j", 0),
                rhs=_expr(d, "i", "j", temps, inner=True),
            )
        )
    return body


def _array_roles(
    stmts: list[FuzzStmt], arrays: tuple[str, ...]
) -> tuple[set[str], set[str]]:
    """(written, read) array names across ``stmts`` — lhs counts as a
    read too when it is a fold accumulator (``A(...) = A(...) + ...``)."""
    writes: set[str] = set()
    reads: set[str] = set()
    for stmt in stmts:
        for name in arrays:
            tag = f"{name}("
            if stmt.lhs.startswith(tag):
                writes.add(name)
            if tag in stmt.rhs or (stmt.guard is not None and tag in stmt.guard):
                reads.add(name)
    return writes, reads


def _nest(d: _Draw) -> FuzzNest:
    rng = d.rng
    config = d.config

    # -- flat nests: outer loop only, statements indexed by j ---------------
    if rng.random() < config.p_flat:
        pre: list[FuzzStmt] = []
        for _ in range(rng.randrange(1, config.max_body + 1)):
            if rng.random() < 0.3:
                pre.append(
                    _reduce_stmt(
                        d, rng.choice(config.accumulators), "2", "j", [],
                        inner=False,
                    )
                )
                continue
            target = rng.choice(d.arrays)
            pre.append(
                FuzzStmt(
                    lhs=ref(target, str(rng.choice((2, 3))), 0, "j", 0),
                    rhs=_expr(d, "2", "j", [], inner=False),
                )
            )
        return FuzzNest(var="j", low="2", high="n - 1", pre=pre)

    # -- the NEW-privatized work-array nest ---------------------------------
    if d.used_work is False and rng.random() < config.p_work_array:
        d.used_work = True
        fill = FuzzLoop(
            var="i",
            low="2",
            high="n - 1",
            body=[
                FuzzStmt(lhs="W(i)", rhs=_expr(d, "i", "j", [], inner=True))
            ],
        )
        target = rng.choice(d.arrays)
        use = FuzzLoop(
            var="i",
            low="2",
            high="n - 1",
            body=[
                FuzzStmt(
                    lhs=ref(target, "i", 0, "j", 0),
                    rhs=f"W(i) * {rng.choice(COEFFS)} + "
                    + _array_ref(d, "i", "j", inner=True),
                )
            ],
        )
        nest = FuzzNest(
            var="j",
            low="2",
            high="n - 1",
            inner=[fill, use],
            independent=True,
            new_vars=("W",),
        )
        # the consume loop's extra operand (or the fill expression) may
        # read the array it writes — a cross-column flow that makes the
        # INDEPENDENT assertion a lie; demote to a plain nest then
        writes, reads = _array_roles(nest.all_stmts(), d.arrays)
        if writes & reads:
            nest.independent = False
            nest.new_vars = ()
        return nest

    # -- two-level nests -----------------------------------------------------
    low, high, step = "2", "n - 1", 1
    triangular = rng.random() < config.p_triangular
    if triangular:
        shapes = ["j, n - 1", "2, j"]
        if rng.random() < config.p_empty_triangle:
            shapes.append("j + 1, n - 1")  # empty at j = n-1
        low, high = rng.choice(shapes).split(", ")
    elif rng.random() < config.p_downward:
        low, high, step = "n - 1", "2", -1
    body = _inner_body(d)
    inner = [FuzzLoop(var="i", low=low, high=high, step=step, body=body)]

    pre: list[FuzzStmt] = []
    post: list[FuzzStmt] = []
    if rng.random() < config.p_imperfect:
        # scalar prologue: a temp the inner body may not see (it uses
        # its own chain) but the epilogue can — def-before-use holds
        # because pre runs every outer iteration
        name = config.temps[-1]
        d.used_scalars.add(name)
        pre.append(FuzzStmt(lhs=name, rhs=_expr(d, "2", "j", [], inner=False)))
        if rng.random() < 0.5:
            target = rng.choice(d.arrays)
            post.append(
                FuzzStmt(
                    lhs=ref(target, "2", 0, "j", 0),
                    rhs=f"{name} + {_expr(d, '3', 'j', [], inner=False)}",
                )
            )
    writes, reads = _array_roles(pre + body + post, d.arrays)
    independent = False
    new_vars: tuple[str, ...] = ()
    reduction_vars: tuple[str, ...] = ()
    if (
        rng.random() < config.p_independent
        and not triangular
        and step == 1
        and not (writes & reads)
    ):
        independent = True
        new_vars = tuple(
            t for t in config.temps
            if any(s.lhs == t for n_ in inner for s in n_.body)
            or any(s.lhs == t for s in pre)
        )
        reduction_vars = tuple(
            a for a in config.accumulators
            if any(
                s.lhs == a
                for s in pre + post + [b for n_ in inner for b in n_.body]
            )
        )
    return FuzzNest(
        var="j",
        low="2",
        high="n - 1",
        pre=pre,
        inner=inner,
        post=post,
        independent=independent,
        new_vars=new_vars,
        reduction_vars=reduction_vars,
    )


def _signature_nest(d: _Draw) -> FuzzNest:
    """The dgefa/tomcatv shape the slab engine takes as one nest with
    the fetches replayed inside: every lane reads the pivot column and
    row of the array it updates (never written — both loops start one
    past the pivot) and, usually, a halo column of another array;
    half the time an enclosing ``k`` loop moves the pivot."""
    rng = d.rng
    target, other = rng.sample(d.arrays, 2)
    around = ("k", "2", "3") if rng.random() < 0.5 else None
    p = "k" if around else "2"
    lhs = ref(target, "i", 0, "j", 0)
    rhs = f"{lhs} + {rng.choice(COEFFS)} * {target}(i, {p}) * {target}({p}, j)"
    if rng.random() < 0.6:
        halo = ref(other, "i", 0, "j", rng.choice((-1, 1)))
        rhs += f" + {rng.choice(COEFFS)} * {halo}"
    sweep = FuzzLoop(
        var="i", low=f"{p} + 1", high="n - 1",
        body=[FuzzStmt(lhs=lhs, rhs=rhs)],
    )
    return FuzzNest(
        var="j", low=f"{p} + 1", high="n - 1", inner=[sweep], around=around
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def generate(seed: int, config: GenConfig | None = None) -> FuzzProgram:
    """The program drawn by ``seed`` under ``config``."""
    config = config or GenConfig()
    rng = random.Random(seed)
    n = rng.randrange(config.n_min, config.n_max + 1)
    dist = rng.choice(config.dists)
    procs = rng.choice(config.procs_choices)
    arrays = ("A", "B", "C")
    d = _Draw(rng=rng, config=config, arrays=arrays)
    nests = [_nest(d) for _ in range(rng.randrange(1, config.max_nests + 1))]
    # drawn after everything else, so a seed's other nests are the ones
    # it has always produced
    if rng.random() < config.p_signature:
        nests.append(_signature_nest(d))
    scalars = tuple(
        s for s in config.accumulators + config.temps if s in d.used_scalars
    )
    return FuzzProgram(
        n=n,
        procs=procs,
        dist=dist,
        arrays=arrays,
        scalars=scalars,
        work_array="W" if d.used_work else None,
        nests=nests,
        seed=seed,
    )
