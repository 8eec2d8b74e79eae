"""The scalar mapping algorithm — paper Figure 3 (``DetermineMapping``)
plus the baseline strategies measured in Table 1.

Strategies:

* ``selected``    — the paper's algorithm: privatization without
  alignment when legal, otherwise consumer alignment unless it causes
  inner-loop communication, otherwise producer alignment; reductions
  get the Section-2.3 mapping.
* ``producer``    — Table 1 column 2: privatize and always align with a
  partitioned producer reference on the defining statement.
* ``replication`` — Table 1 column 1: no privatization, every scalar
  replicated.
* ``consumer``    — ablation: consumer alignment without the inner-loop
  communication veto.
* ``noalign``     — ablation modeling Palermo et al.: every privatizable
  scalar is privatized without alignment, regardless of rhs mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reductions import Reduction, reduction_for_def
from ..analysis.ssa import SSADef
from ..ir.expr import ArrayElemRef, Ref, ScalarRef
from ..ir.stmt import AssignStmt, Stmt
from .align_level import align_level, alignment_valid
from .consumer import classify_use, consumer_candidate
from .context import AnalysisContext
from .locality import (
    Position,
    all_any,
    comm_free,
    position_of_array_ref,
)
from .mapping_kinds import (
    AlignedTo,
    DummyReplicatedRef,
    PrivateNoAlign,
    Replicated,
    ReductionMapping,
    ScalarMapping,
)

STRATEGIES = ("selected", "producer", "replication", "consumer", "noalign")


@dataclass
class ScalarMappingOptions:
    strategy: str = "selected"
    #: Section 2.3 reduction mapping (Table 2 'Alignment' column) vs the
    #: fully replicated reduction scalar (Table 2 'Default' column).
    align_reductions: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


class ScalarMappingPass:
    """Runs the mapping pass; afterwards :attr:`decisions` maps each
    real scalar SSA definition (by def_id) to its ScalarMapping, and
    :meth:`mapping_of_use` resolves uses."""

    def __init__(self, ctx: AnalysisContext, options: ScalarMappingOptions | None = None):
        self.ctx = ctx
        self.options = options or ScalarMappingOptions()
        self.decisions: dict[int, ScalarMapping] = {}
        #: stmt_id -> (Reduction, ReductionMapping) for array-valued
        #: reductions (paper Section 3.1)
        self.array_reductions: dict[int, tuple] = {}
        self.noalign_exam: list[tuple[SSADef, AssignStmt, ScalarMapping]] = []
        self._in_progress: set[int] = set()
        self._grid_rank = ctx.grid.rank

    # ===================================================================
    # Entry point
    # ===================================================================

    def run(self) -> "ScalarMappingPass":
        # Reduction scalars first (paper Section 2.3: "treated in a
        # special manner"), so that initializations and post-loop uses
        # adopt the reduction mapping through the consistency rule.
        for reduction in self.ctx.reductions:
            if reduction.is_array_reduction:
                continue
            for stmt in reduction.update_stmts:
                d = self.ctx.ssa.def_of_assignment(stmt)
                if d is not None:
                    self.determine(d)
        self._map_array_reductions()
        for d in self._real_scalar_defs():
            self.determine(d)
        self._finalize_noalign()
        return self

    def _map_array_reductions(self) -> None:
        """Array-valued reductions (paper Section 3.1): record the
        special mapping per update statement; consumed by the
        partitioner, communication analysis, and the simulator."""
        self.array_reductions = {}
        if self.options.strategy == "replication" or not self.options.align_reductions:
            return
        from .reduction_mapping import map_array_reduction

        for reduction in self.ctx.reductions:
            if not reduction.is_array_reduction:
                continue
            mapping = map_array_reduction(self, reduction)
            if mapping is None:
                continue
            for stmt in reduction.update_stmts:
                self.array_reductions[stmt.stmt_id] = (reduction, mapping)

    def _real_scalar_defs(self):
        """Real scalar defs in program order."""
        for stmt in self.ctx.proc.all_stmts():
            if isinstance(stmt, AssignStmt) and isinstance(stmt.lhs, ScalarRef):
                d = self.ctx.ssa.def_of_assignment(stmt)
                if d is not None:
                    yield d

    # ===================================================================
    # DetermineMapping (paper Fig. 3)
    # ===================================================================

    def determine(self, d: SSADef) -> ScalarMapping | None:
        """Mapping decision for one definition (memoized). Returns None
        while ``d`` is being determined further up the recursion (the
        caller must then treat it as not-yet-mapped)."""
        if d.def_id in self.decisions:
            return self.decisions[d.def_id]
        if d.def_id in self._in_progress:
            return None
        if not isinstance(d.stmt, AssignStmt):
            return self._decide(d, Replicated())
        self._in_progress.add(d.def_id)
        try:
            mapping = self._determine_inner(d, d.stmt)
        finally:
            self._in_progress.discard(d.def_id)
        return self._decide(d, mapping)

    def _determine_inner(self, d: SSADef, stmt: AssignStmt) -> ScalarMapping:
        # Adopt the mapping of any related definition already decided
        # (all reaching defs of a use must share one mapping).
        related = self._related_decided(d)
        if related is not None:
            return related

        strategy = self.options.strategy

        # Reductions are handled specially under every strategy that
        # privatizes (paper Section 2.3).
        reduction = reduction_for_def(self.ctx.reductions, stmt)
        if reduction is not None and strategy != "replication":
            return self._reduction_mapping(d, stmt, reduction)

        if strategy == "replication":
            return Replicated()

        priv_level = self.ctx.priv.deepest_privatization_level(d)
        if priv_level is None:
            return Replicated()
        level = priv_level  # paper: "privatizable at nesting level l"

        if strategy == "noalign":
            return PrivateNoAlign(loop_level=level)

        if strategy == "producer":
            producer = self._select_producer(stmt)
            if producer is not None and self._target_valid(producer, level):
                return AlignedTo(
                    target=producer,
                    align_level=self._align_level(producer),
                    is_consumer=False,
                )
            if self.is_rhs_replicated(stmt):
                return PrivateNoAlign(loop_level=level)
            return Replicated()

        # -- 'selected' (paper Fig. 3) and 'consumer' (no-veto ablation)
        rhs_replicated = self.is_rhs_replicated(stmt)
        tentative: ScalarMapping = Replicated()

        noalign_candidate = rhs_replicated and self.ctx.ssa.is_unique_def(d)

        consumer, forced_replication = self._select_consumer(d)
        align_ref: ArrayElemRef | None = consumer
        is_consumer = True
        if forced_replication:
            # A reached use needs the value on all processors: the
            # definition must stay replicated.
            return Replicated()
        if not rhs_replicated and (
            align_ref is None
            or (
                strategy == "selected"
                and self._consumer_causes_inner_loop_comm(stmt, align_ref)
            )
        ):
            producer = self._select_producer(stmt)
            if producer is not None:
                align_ref = producer
                is_consumer = False
        if align_ref is not None and self._target_valid(align_ref, level):
            tentative = AlignedTo(
                target=align_ref,
                align_level=self._align_level(align_ref),
                is_consumer=is_consumer,
            )
        if noalign_candidate:
            # Deferred: if the rhs is still fully replicated at the end
            # of the pass, privatization without alignment wins.
            self.noalign_exam.append((d, stmt, tentative))
        return tentative

    def _decide(self, d: SSADef, mapping: ScalarMapping) -> ScalarMapping:
        if d.def_id in self.decisions:
            # Already fixed (e.g. by consistency propagation from a
            # related definition decided during recursion).
            return self.decisions[d.def_id]
        self.decisions[d.def_id] = mapping
        # Propagate to every reaching definition of every reached use
        # (paper: identical mapping for all reaching defs of a use).
        for use in self.ctx.ssa.reached_uses(d):
            for other in self.ctx.ssa.reaching_real_defs(use):
                if other.is_real and other.def_id not in self.decisions:
                    self.decisions[other.def_id] = mapping
        return mapping

    def _related_decided(self, d: SSADef) -> ScalarMapping | None:
        for use in self.ctx.ssa.reached_uses(d):
            for other in self.ctx.ssa.reaching_real_defs(use):
                if other.def_id != d.def_id and other.def_id in self.decisions:
                    return self.decisions[other.def_id]
        return None

    def _finalize_noalign(self) -> None:
        """Re-examine the deferred list (paper: "At the end of the
        compiler pass ... if all rhs data on the corresponding statement
        continue to be replicated, the scalar definition is privatized
        without alignment")."""
        for d, stmt, _tentative in self.noalign_exam:
            if self.is_rhs_replicated(stmt, final=True):
                mapping = PrivateNoAlign(loop_level=stmt.nesting_level)
                self.decisions[d.def_id] = mapping
                for use in self.ctx.ssa.reached_uses(d):
                    for other in self.ctx.ssa.reaching_real_defs(use):
                        if other.is_real:
                            self.decisions[other.def_id] = mapping

    # ===================================================================
    # Reduction mapping (paper Section 2.3) — see reduction_mapping.py
    # ===================================================================

    def _reduction_mapping(
        self, d: SSADef, stmt: AssignStmt, reduction: Reduction
    ) -> ScalarMapping:
        from .reduction_mapping import map_reduction

        return map_reduction(self, d, stmt, reduction)

    # ===================================================================
    # Positions, availability, communication
    # ===================================================================

    def array_mapping(self, ref: ArrayElemRef):
        return self.ctx.array_mappings[ref.symbol.name]

    def position_of_ref(self, ref: Ref) -> Position:
        if isinstance(ref, ArrayElemRef):
            return position_of_array_ref(ref, self.array_mapping(ref))
        return self.position_of_scalar_use(ref)

    def position_of_scalar_use(self, use: ScalarRef) -> Position:
        """Where does the value of a scalar use live? Loop indices and
        parameters are known everywhere; otherwise governed by the
        mapping of the use's reaching definitions."""
        symbol = use.symbol
        if symbol.is_loop_var or symbol.value is not None:
            return all_any(self._grid_rank)
        mapping = self.mapping_of_use(use)
        return self.position_of_mapping(mapping)

    def position_of_mapping(self, mapping: ScalarMapping | None) -> Position:
        if mapping is None or mapping.available_everywhere:
            return all_any(self._grid_rank)
        if isinstance(mapping, AlignedTo):
            return position_of_array_ref(
                mapping.target, self.array_mapping(mapping.target)
            )
        if isinstance(mapping, ReductionMapping):
            base = position_of_array_ref(
                mapping.target, self.array_mapping(mapping.target)
            )
            return tuple(
                (all_any(1)[0] if g in mapping.replicated_grid_dims else p)
                for g, p in enumerate(base)
            )
        return all_any(self._grid_rank)

    def mapping_of_use(self, use: ScalarRef) -> ScalarMapping | None:
        """The (shared) mapping of the reaching definitions of a use;
        None when still undecided (treated as replicated — paper: "those
        variables appear to be replicated at this stage")."""
        for d in self.ctx.ssa.reaching_real_defs(use):
            decision = self.decisions.get(d.def_id)
            if decision is not None:
                return decision
        return None

    def executor_position(self, stmt: Stmt) -> Position:
        """Owner-computes executor set of a statement as a Position."""
        if isinstance(stmt, AssignStmt):
            if isinstance(stmt.lhs, ArrayElemRef):
                return position_of_array_ref(stmt.lhs, self.array_mapping(stmt.lhs))
            d = self.ctx.ssa.def_of_lhs.get(stmt.lhs.ref_id)
            if d is not None:
                mapping = self.decisions.get(d)
                return self.position_of_mapping(mapping)
        return all_any(self._grid_rank)

    def ref_needs_comm(self, ref: Ref, stmt: Stmt) -> bool:
        """Does fetching ``ref`` for executing ``stmt`` require
        communication under current mappings? (resolver protocol for
        :mod:`repro.core.consumer`)."""
        return not comm_free(self.position_of_ref(ref), self.executor_position(stmt))

    def scalar_available_everywhere(self, use: ScalarRef) -> bool:
        symbol = use.symbol
        if symbol.is_loop_var or symbol.value is not None:
            return True
        mapping = self.mapping_of_use(use)
        return mapping is None or mapping.available_everywhere

    def is_rhs_replicated(self, stmt: AssignStmt, final: bool = False) -> bool:
        """``IsRhsReplicated`` of Fig. 3. During the pass, undecided
        scalars count as replicated; in the ``final`` re-examination the
        remaining undecided ones still default to replication."""
        for ref in stmt.rhs.refs():
            if isinstance(ref, ArrayElemRef):
                if not self.array_mapping(ref).is_replicated:
                    return False
            elif isinstance(ref, ScalarRef):
                if not self.scalar_available_everywhere(ref):
                    return False
        return True

    # ===================================================================
    # Alignment-target selection
    # ===================================================================

    def _align_level(self, ref: ArrayElemRef) -> int:
        return align_level(
            ref, self.ctx.proc, self.ctx.ssa, self.array_mapping(ref)
        )

    def _target_valid(self, ref: ArrayElemRef, level: int) -> bool:
        return alignment_valid(
            ref, level, self.ctx.proc, self.ctx.ssa, self.array_mapping(ref)
        )

    def _select_consumer(
        self, d: SSADef
    ) -> tuple[ArrayElemRef | None, bool]:
        """Traverse reached uses of ``d`` and pick a consumer alignment
        target. Returns (target_or_None, forced_replication)."""
        candidates: list[tuple[int, ArrayElemRef, Stmt]] = []
        for use in self.ctx.ssa.reached_uses(d):
            use_stmt = self.ctx.ssa.stmt_of_use(use)
            ctx = classify_use(use, use_stmt)
            candidate = consumer_candidate(ctx, self)
            if isinstance(candidate, DummyReplicatedRef):
                # Terminate the traversal (paper).
                return None, True
            if candidate is None:
                continue
            resolved = self._resolve_candidate(candidate)
            if resolved is None:
                continue
            score = self._traversal_score(d.stmt, use_stmt, resolved)
            candidates.append((score, resolved, use_stmt))
        if not candidates:
            return None, False
        best = max(candidates, key=lambda t: t[0])
        return best[1], False

    def _resolve_candidate(self, candidate: Ref) -> ArrayElemRef | None:
        """Resolve a candidate consumer reference to a partitioned array
        reference (recursing through privatizable scalar lhs refs)."""
        if isinstance(candidate, ArrayElemRef):
            if self.array_mapping(candidate).is_replicated:
                return None  # "ignores any consumer reference that
                #               refers to replicated data"
            return candidate
        if isinstance(candidate, ScalarRef):
            def_id = self.ctx.ssa.def_of_lhs.get(candidate.ref_id)
            if def_id is None:
                return None
            mapping = self.determine(self.ctx.ssa.defs[def_id])
            if isinstance(mapping, AlignedTo):
                return mapping.target
            if isinstance(mapping, ReductionMapping):
                return mapping.target
            return None
        return None

    def _traversal_score(
        self, def_stmt: Stmt | None, use_stmt: Stmt, ref: ArrayElemRef
    ) -> int:
        """Heuristic preference: a reference whose distributed dimension
        is traversed in the innermost common loop enclosing the scalar
        definition and the reached use (paper: prefer A(i) over A(1))."""
        if def_stmt is None:
            return 0
        common = self.ctx.proc.common_loops(def_stmt, use_stmt)
        if not common:
            return 0
        innermost = common[-1]
        mapping = self.array_mapping(ref)
        for role in mapping.roles:
            if role.kind != "dist":
                continue
            form = ref.forms[role.array_dim]
            if form is not None and form.coeff(innermost.var) != 0:
                return 1
        return 0

    def _select_producer(self, stmt: AssignStmt) -> ArrayElemRef | None:
        """A partitioned rhs reference on the defining statement."""
        candidates: list[tuple[int, ArrayElemRef]] = []
        for ref in stmt.rhs.refs():
            resolved: ArrayElemRef | None = None
            if isinstance(ref, ArrayElemRef):
                if not self.array_mapping(ref).is_replicated:
                    resolved = ref
            elif isinstance(ref, ScalarRef):
                mapping = self.mapping_of_use(ref)
                if isinstance(mapping, (AlignedTo, ReductionMapping)):
                    resolved = mapping.target
            if resolved is None:
                continue
            score = self._traversal_score(stmt, stmt, resolved)
            candidates.append((score, resolved))
        if not candidates:
            return None
        return max(candidates, key=lambda t: t[0])[1]

    # ===================================================================
    # Inner-loop-communication veto (the cost-model-guided choice)
    # ===================================================================

    def _consumer_causes_inner_loop_comm(
        self, stmt: AssignStmt, consumer: ArrayElemRef
    ) -> bool:
        """Would aligning the definition with ``consumer`` force
        communication *inside the innermost loop* for some rhs reference
        of ``stmt``? (paper: "alignment of def with AlignRef leads to
        inner loop commn. for some RHS ref on stmt")."""
        executor = position_of_array_ref(consumer, self.array_mapping(consumer))
        innermost_level = stmt.nesting_level
        if innermost_level == 0:
            return False
        for ref in stmt.rhs.refs():
            if comm_free(self.position_of_ref(ref), executor):
                continue
            if self.ctx.comm_blocked_level(ref, stmt) >= innermost_level:
                return True
        return False


def run_scalar_mapping(
    ctx: AnalysisContext, options: ScalarMappingOptions | None = None
) -> ScalarMappingPass:
    return ScalarMappingPass(ctx, options).run()
