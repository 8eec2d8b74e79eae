"""Array privatization (paper Section 3).

For every loop carrying a ``NEW(array)`` clause:

1. select an alignment target exactly as for scalars (the lhs of a
   statement consuming the array's values, resolved to partitioned
   data);
2. attempt **full privatization**: valid when the target's AlignLevel
   (over all its partitioned dimensions) does not exceed the loop's
   nesting level;
3. otherwise attempt **partial privatization** (Section 3.2): privatize
   only the grid dimensions whose target subscripts are well-defined at
   the loop's level, and keep the array partitioned in the remaining
   grid dimensions by distributing a matching dimension of the array
   itself;
4. if nothing applies (or privatization is disabled), the array stays
   on its declared mapping — replicated when it has no directives,
   which is the disastrous baseline the paper's Table 3 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.expr import ArrayElemRef, ScalarRef
from ..ir.stmt import AssignStmt, LoopStmt
from ..ir.symbols import Symbol
from ..mapping.descriptors import ArrayMapping
from .align_level import subscript_align_level
from .context import AnalysisContext
from .mapping_kinds import AlignedTo, ArrayPrivatization, ReductionMapping
from .partial import build_privatized_mapping, find_matching_array_dim


@dataclass
class ArrayMappingOptions:
    privatize_arrays: bool = True
    partial_privatization: bool = True
    #: the paper's stated future work: infer array privatizability
    #: automatically (Tu–Padua coverage analysis) instead of relying on
    #: NEW clauses — see repro.analysis.array_sections
    auto_privatization: bool = False


@dataclass
class ArrayMappingResult:
    """Outcome of the array privatization pass."""

    privatizations: list[ArrayPrivatization] = field(default_factory=list)
    #: effective mapping per array name (privatized arrays overridden)
    effective: dict[str, ArrayMapping] = field(default_factory=dict)
    #: arrays whose privatization was attempted and failed (reporting)
    failures: list[tuple[str, LoopStmt, str]] = field(default_factory=list)


class ArrayMappingPass:
    def __init__(
        self,
        ctx: AnalysisContext,
        scalar_pass,
        options: ArrayMappingOptions | None = None,
    ):
        self.ctx = ctx
        self.scalar_pass = scalar_pass
        self.options = options or ArrayMappingOptions()

    def run(self) -> ArrayMappingResult:
        result = ArrayMappingResult(effective=dict(self.ctx.array_mappings))
        if not self.options.privatize_arrays:
            return result
        for loop in self.ctx.proc.loops():
            candidates: list[Symbol] = []
            for name in loop.new_vars:
                symbol = self.ctx.proc.symbols.lookup(name)
                if symbol is not None and symbol.is_array:
                    candidates.append(symbol)
            if loop.independent:
                # Paper Sec. 3.1: "phpf is also able to infer the
                # privatizability of an array from a weaker form of a
                # parallel loop directive which indicates that a loop
                # has no true loop-carried value-based dependences" —
                # a bare INDEPENDENT asserts exactly that, so any array
                # whose lhs references contribute memory-based carried
                # dependences must be privatizable.
                candidates.extend(self._independent_candidates(loop, candidates))
            if self.options.auto_privatization:
                candidates.extend(self._auto_candidates(loop, candidates))
            for symbol in candidates:
                if symbol.name in {
                    p.array.name for p in result.privatizations
                }:
                    continue  # already privatized w.r.t. an outer loop
                self._privatize_array(symbol, loop, result)
        return result

    def _independent_candidates(
        self, loop, declared: list[Symbol]
    ) -> list[Symbol]:
        """Arrays inferable from a bare INDEPENDENT directive: written
        in the loop with subscripts invariant w.r.t. it (memory-based
        carried dependences that only privatization can remove — the
        directive guarantees they are not value-based)."""
        from ..ir.expr import ArrayElemRef

        declared_names = {s.name for s in declared}
        names: set[str] = set()
        for stmt in loop.walk():
            for ref in stmt.defs():
                if isinstance(ref, ArrayElemRef):
                    names.add(ref.symbol.name)
        out: list[Symbol] = []
        for name in sorted(names):
            if name in declared_names:
                continue
            symbol = self.ctx.proc.symbols.require(name)
            if self.ctx.priv.array_needs_privatization(symbol, loop):
                out.append(symbol)
        return out

    def _auto_candidates(self, loop, declared: list[Symbol]) -> list[Symbol]:
        """Arrays inferable as privatizable without a NEW clause (the
        paper's future-work integration). Only arrays that actually
        carry privatization-removable memory dependences are proposed."""
        from ..analysis.array_sections import auto_privatizable_arrays

        declared_names = {s.name for s in declared}
        out: list[Symbol] = []
        for symbol in auto_privatizable_arrays(
            self.ctx.proc, self.ctx.cfg, self.ctx.liveness, loop
        ):
            if symbol.name in declared_names:
                continue
            if self.ctx.priv.array_needs_privatization(symbol, loop):
                out.append(symbol)
        return out

    # ------------------------------------------------------------------

    def _privatize_array(
        self, array: Symbol, loop: LoopStmt, result: ArrayMappingResult
    ) -> None:
        ctx = self.ctx
        target = self._select_target(array, loop)
        level = loop.level

        if target is None:
            # No partitioned consumer: privatize fully without an
            # alignment constraint (analogue of a scalar's
            # privatization without alignment).
            mapping = build_privatized_mapping(
                result.effective[array.name],
                None,
                priv_grid_dims=tuple(range(ctx.grid.rank)),
                partitioned_dims={},
            )
            priv = ArrayPrivatization(
                array=array,
                loop=loop,
                privatized_grid_dims=tuple(range(ctx.grid.rank)),
            )
            result.privatizations.append(priv)
            result.effective[array.name] = mapping
            return

        target_mapping = ctx.array_mappings[target.symbol.name]
        target_stmt = ctx.proc.stmt_of_ref(target)

        # SubscriptAlignLevel per distributed grid dim of the target.
        dim_levels: dict[int, int] = {}
        for g, role in enumerate(target_mapping.roles):
            if role.kind != "dist":
                continue
            dim_levels[g] = subscript_align_level(
                target, role.array_dim, target_stmt, ctx.proc, ctx.ssa
            )

        full_level = max(dim_levels.values(), default=0)
        if full_level <= level:
            # Full privatization is valid.
            priv_dims = tuple(sorted(dim_levels))
            mapping = build_privatized_mapping(
                result.effective[array.name],
                target_mapping,
                priv_grid_dims=priv_dims
                or tuple(range(ctx.grid.rank)),
                partitioned_dims={},
            )
            result.privatizations.append(
                ArrayPrivatization(
                    array=array,
                    loop=loop,
                    privatized_grid_dims=priv_dims or tuple(range(ctx.grid.rank)),
                    target=target,
                    align_level=full_level,
                )
            )
            result.effective[array.name] = mapping
            return

        if not self.options.partial_privatization:
            result.failures.append(
                (
                    array.name,
                    loop,
                    f"AlignLevel {full_level} > loop level {level}; "
                    f"partial privatization disabled",
                )
            )
            return

        # Partial privatization: privatize grid dims whose subscript is
        # well-defined at the loop's level; partition the rest.
        priv_dims = tuple(g for g, l in dim_levels.items() if l <= level)
        part_grid_dims = tuple(g for g, l in dim_levels.items() if l > level)
        if not priv_dims:
            result.failures.append(
                (array.name, loop, "no grid dimension is privatizable")
            )
            return
        partitioned_dims: dict[int, int] = {}
        for g in part_grid_dims:
            role = target_mapping.roles[g]
            form = target.forms[role.array_dim]
            driving = {s.name for s in form.symbols} if form is not None else set()
            array_dim = find_matching_array_dim(ctx.proc, array, loop, driving)
            if array_dim is None:
                result.failures.append(
                    (
                        array.name,
                        loop,
                        f"no dimension of {array.name} matches the traversal "
                        f"of grid dim {g}",
                    )
                )
                return
            partitioned_dims[array_dim] = g
        mapping = build_privatized_mapping(
            result.effective[array.name],
            target_mapping,
            priv_grid_dims=priv_dims,
            partitioned_dims=partitioned_dims,
        )
        result.privatizations.append(
            ArrayPrivatization(
                array=array,
                loop=loop,
                privatized_grid_dims=priv_dims,
                partitioned_dims=partitioned_dims,
                target=target,
                align_level=max(
                    (dim_levels[g] for g in priv_dims), default=0
                ),
            )
        )
        result.effective[array.name] = mapping

    # ------------------------------------------------------------------

    def _select_target(
        self, array: Symbol, loop: LoopStmt
    ) -> ArrayElemRef | None:
        """Alignment target: the lhs of a statement consuming the
        array's values inside the loop (resolved to partitioned data),
        preferring consumers whose partitioned dims are traversed
        deepest — same heuristic as for scalars."""
        candidates: list[tuple[int, ArrayElemRef]] = []
        for stmt in loop.walk():
            if not isinstance(stmt, AssignStmt):
                continue
            reads_array = any(
                isinstance(r, ArrayElemRef) and r.symbol.name == array.name
                for r in stmt.rhs.refs()
            )
            if not reads_array:
                continue
            resolved = self._resolve_lhs(stmt)
            if resolved is None:
                continue
            mapping = self.ctx.array_mappings.get(resolved.symbol.name)
            if mapping is None or mapping.is_replicated:
                continue
            score = sum(1 for r in mapping.roles if r.kind == "dist")
            candidates.append((score, resolved))
        if not candidates:
            return None
        return max(candidates, key=lambda t: t[0])[1]

    def _resolve_lhs(self, stmt: AssignStmt) -> ArrayElemRef | None:
        if isinstance(stmt.lhs, ArrayElemRef):
            return stmt.lhs
        if isinstance(stmt.lhs, ScalarRef):
            def_id = self.ctx.ssa.def_of_lhs.get(stmt.lhs.ref_id)
            if def_id is None:
                return None
            mapping = self.scalar_pass.decisions.get(def_id)
            if isinstance(mapping, (AlignedTo, ReductionMapping)):
                return mapping.target
        return None


def run_array_mapping(
    ctx: AnalysisContext, scalar_pass, options: ArrayMappingOptions | None = None
) -> ArrayMappingResult:
    return ArrayMappingPass(ctx, scalar_pass, options).run()
