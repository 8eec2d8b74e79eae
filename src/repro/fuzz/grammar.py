"""The fuzzer's structured program model.

A :class:`FuzzProgram` is a small tree — declarations, mapping
directives, and a list of :class:`FuzzNest` loop nests over shared
2-D arrays — that *emits* mini-HPF source.  The generator
(:mod:`repro.fuzz.generator`) draws random instances; the shrinker
(:mod:`repro.fuzz.shrink`) deletes and simplifies pieces of the tree
and re-emits, so every minimized reproducer is a valid program by
construction rather than a text edit that happens to parse.

The modelled subset is exactly the surface the three execution tiers
disagree about in interesting ways:

* 1-D ``BLOCK``/``CYCLIC`` column and row distributions, block-cyclic
  ``CYCLIC(k)``, 2-D ``(BLOCK, BLOCK)`` grids, and fully replicated
  programs (no directives at all);
* ``ALIGN`` chains binding the other arrays to the distributed anchor;
* perfect, triangular (inner bounds using the outer variable),
  imperfect (scalar prologue/epilogue, multiple inner loops), and
  downward (negative step) nests;
* privatizable scalar chains, guarded statements (one-line logical
  ``IF``), sum/max reductions into scalars and into owned elements;
* ``INDEPENDENT [, NEW(...)] [, REDUCTION(...)]`` assertions, including
  a ``NEW``-privatized 1-D work array filled then consumed per column.

Everything emitted respects the generator's validity invariants: every
scalar is written before it is read, every subscript stays in bounds
for loop ranges drawn from ``2 .. n-1`` with stencil offsets in
``[-1, 1]``, and no division appears anywhere (so no runtime can trap).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
#
# Rhs expressions are plain strings built by the generator from a
# closed vocabulary (array refs with affine offsets, scalar names,
# float literals, ``+ - *`` and ``ABS/MAX/MIN``).  The shrinker never
# rewrites inside an expression — it replaces whole statements or
# deletes them — so strings keep the model small without costing any
# shrink power.


def ref(array: str, i: str, oi: int, j: str, oj: int) -> str:
    """``A(i+1, j-1)``-style reference text."""

    def sub(var: str, off: int) -> str:
        if off == 0:
            return var
        return f"{var} {'+' if off > 0 else '-'} {abs(off)}"

    return f"{array}({sub(i, oi)}, {sub(j, oj)})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class FuzzStmt:
    """One body statement: ``lhs = rhs``, optionally guarded by a
    one-line logical IF, optionally a reduction update (in which case
    ``lhs`` also appears as the fold accumulator inside ``rhs``)."""

    lhs: str
    rhs: str
    guard: str | None = None

    def emit(self, indent: str) -> str:
        text = f"{self.lhs} = {self.rhs}"
        if self.guard is not None:
            text = f"IF ({self.guard}) {text}"
        return f"{indent}{text}"


@dataclass
class FuzzLoop:
    """An inner loop: bounds may reference the outer variable (the
    triangular shapes) and the step may be negative."""

    var: str
    low: str
    high: str
    step: int = 1
    body: list[FuzzStmt] = field(default_factory=list)

    def emit(self, indent: str) -> list[str]:
        rng = f"{self.low}, {self.high}"
        if self.step != 1:
            rng += f", {self.step}"
        lines = [f"{indent}DO {self.var} = {rng}"]
        for stmt in self.body:
            lines.append(stmt.emit(indent + "  "))
        lines.append(f"{indent}END DO")
        return lines


@dataclass
class FuzzNest:
    """One outer loop over ``j`` holding prologue statements, inner
    loops, and epilogue statements.  ``independent`` attaches an
    ``!HPF$ INDEPENDENT`` directive with the given NEW/REDUCTION
    clauses to the outer loop; ``around`` wraps the whole nest in an
    enclosing ``(var, low, high)`` loop its statements may reference."""

    var: str
    low: str
    high: str
    step: int = 1
    pre: list[FuzzStmt] = field(default_factory=list)
    inner: list[FuzzLoop] = field(default_factory=list)
    post: list[FuzzStmt] = field(default_factory=list)
    independent: bool = False
    new_vars: tuple[str, ...] = ()
    reduction_vars: tuple[str, ...] = ()
    around: tuple[str, str, str] | None = None

    def emit(self, indent: str) -> list[str]:
        if self.around is not None:
            var, low, high = self.around
            return [
                f"{indent}DO {var} = {low}, {high}",
                *replace(self, around=None).emit(indent + "  "),
                f"{indent}END DO",
            ]
        lines: list[str] = []
        if self.independent:
            clauses = ""
            if self.new_vars:
                clauses += f", NEW({', '.join(self.new_vars)})"
            if self.reduction_vars:
                clauses += f", REDUCTION({', '.join(self.reduction_vars)})"
            lines.append(f"!HPF$ INDEPENDENT{clauses}")
        rng = f"{self.low}, {self.high}"
        if self.step != 1:
            rng += f", {self.step}"
        lines.append(f"{indent}DO {self.var} = {rng}")
        for stmt in self.pre:
            lines.append(stmt.emit(indent + "  "))
        for loop in self.inner:
            lines.extend(loop.emit(indent + "  "))
        for stmt in self.post:
            lines.append(stmt.emit(indent + "  "))
        lines.append(f"{indent}END DO")
        return lines

    def all_stmts(self) -> list[FuzzStmt]:
        stmts = list(self.pre)
        for loop in self.inner:
            stmts.extend(loop.body)
        stmts.extend(self.post)
        return stmts


# ---------------------------------------------------------------------------
# Distribution plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistPlan:
    """How the anchor array (and everything aligned with it) is mapped.

    ``formats`` is the DISTRIBUTE format tuple (e.g. ``("*",
    "BLOCK")``); an empty tuple means fully replicated (no directives
    at all).  ``grid_rank`` is the PROCESSORS rank the formats need.
    """

    formats: tuple[str, ...] = ("*", "BLOCK")

    @property
    def grid_rank(self) -> int:
        return sum(1 for f in self.formats if f != "*")

    @property
    def replicated(self) -> bool:
        return not self.formats

    def describe(self) -> str:
        return "replicated" if self.replicated else ",".join(self.formats)


#: the distribution repertoire, in rough order of tier interest
DIST_PLANS = (
    DistPlan(("*", "BLOCK")),     # column-block: the slab tier's home turf
    DistPlan(("*", "CYCLIC")),    # cyclic columns: still slab-eligible
    DistPlan(("*", "CYCLIC(2)")),  # block-cyclic columns
    DistPlan(("BLOCK", "*")),     # row-block: executor varies along i
    DistPlan(("CYCLIC", "*")),    # cyclic rows
    DistPlan(("BLOCK", "BLOCK")),  # 2-D grid
    DistPlan(()),                 # fully replicated
)


# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------


@dataclass
class FuzzProgram:
    """A complete generated program.  ``emit(procs=...)`` renders
    mini-HPF source with the PROCESSORS directive re-shaped for the
    requested processor count (so sweep callables can re-emit per
    point, like the paper program builders do)."""

    n: int
    procs: int
    dist: DistPlan
    #: 2-D (n, n) arrays; the first is the DISTRIBUTE anchor, the rest
    #: are ALIGNed with it (replicated programs skip the directives)
    arrays: tuple[str, ...] = ("A", "B", "C")
    #: scalars initialized to 0.0 / 1.0 alternately before the nests
    scalars: tuple[str, ...] = ()
    #: a NEW-privatized 1-D work array (length n), or None
    work_array: str | None = None
    nests: list[FuzzNest] = field(default_factory=list)
    #: provenance, embedded as a comment for checked-in corpus files
    seed: int | None = None

    # -- grid shaping ------------------------------------------------------

    def grid_shape(self, procs: int) -> tuple[int, ...]:
        if self.dist.grid_rank <= 1:
            return (procs,)
        # 2-D grids: the most-square factorization, largest dim first
        best = (procs, 1)
        for a in range(2, int(procs**0.5) + 1):
            if procs % a == 0:
                best = (procs // a, a)
        return best

    # -- emission ----------------------------------------------------------

    def emit(self, procs: int | None = None) -> str:
        procs = self.procs if procs is None else procs
        lines = ["PROGRAM FUZZ"]
        if self.seed is not None:
            lines.append(f"! repro.fuzz seed={self.seed}")
        lines.append(f"  PARAMETER (n = {self.n})")
        decls = ", ".join(f"{a}(n,n)" for a in self.arrays)
        lines.append(f"  REAL {decls}")
        if self.work_array is not None:
            lines.append(f"  REAL {self.work_array}(n)")
        if self.scalars:
            lines.append(f"  REAL {', '.join(self.scalars)}")
        if not self.dist.replicated:
            shape = self.grid_shape(procs)
            dims = ", ".join(str(d) for d in shape)
            lines.append(f"!HPF$ PROCESSORS PROCS({dims})")
            anchor = self.arrays[0]
            rest = self.arrays[1:]
            if rest:
                lines.append(
                    f"!HPF$ ALIGN (i, j) WITH {anchor}(i, j) :: "
                    + ", ".join(rest)
                )
            fmt = ", ".join(self.dist.formats)
            lines.append(f"!HPF$ DISTRIBUTE ({fmt}) ONTO PROCS :: {anchor}")
        for k, name in enumerate(self.scalars):
            lines.append(f"  {name} = {'0.0' if k % 2 == 0 else '1.0'}")
        for nest in self.nests:
            lines.extend(nest.emit("  "))
        lines.append("END PROGRAM")
        return "\n".join(lines) + "\n"

    # -- shrink support ----------------------------------------------------

    def clone(self) -> "FuzzProgram":
        def stmts(items: list[FuzzStmt]) -> list[FuzzStmt]:
            return [replace(stmt) for stmt in items]

        return replace(
            self,
            nests=[
                replace(
                    nest,
                    pre=stmts(nest.pre),
                    post=stmts(nest.post),
                    inner=[
                        replace(loop, body=stmts(loop.body))
                        for loop in nest.inner
                    ],
                )
                for nest in self.nests
            ],
        )

    def stmt_count(self) -> int:
        return sum(len(nest.all_stmts()) for nest in self.nests)
