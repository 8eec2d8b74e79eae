"""Analysis context: one bundle of every program-analysis result the
mapping passes need, built in the canonical pipeline order (paper
Section 2.2: SSA construction, constant propagation and induction
variable recognition precede the mapping pass).

This module provides the *stages* — front-end analysis, induction
substitution, reduction recognition, privatizability, directive
resolution — as standalone functions.
:meth:`repro.core.passes.PassManager.run` calls them in that order,
times them and keeps their results between compiles;
:func:`~repro.core.passes.build_context` is the one-call convenience
that produces an :class:`AnalysisContext` and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.constprop import ConstPropInfo, propagate_constants
from ..analysis.dataflow import LivenessInfo, compute_liveness
from ..analysis.dependence import read_may_see_loop_write
from ..analysis.dominance import DominatorInfo, compute_dominance
from ..analysis.induction import (
    InductionVar,
    find_induction_vars,
    substitute_induction_vars,
)
from ..analysis.privatizable import PrivatizabilityInfo
from ..analysis.reductions import Reduction, find_reductions
from ..analysis.ssa import SSAInfo
from ..ir.cfg import CFG, build_cfg
from ..ir.expr import ArrayElemRef
from ..ir.program import Procedure, ProcessorsSpec
from ..ir.stmt import LoopStmt
from ..mapping.descriptors import ArrayMapping, resolve_mappings
from ..mapping.grid import ProcessorGrid, default_grid


@dataclass
class AnalysisContext:
    """All analyses over one procedure, after induction-variable
    substitution."""

    proc: Procedure
    grid: ProcessorGrid
    cfg: CFG
    dom: DominatorInfo
    liveness: LivenessInfo
    ssa: SSAInfo
    const: ConstPropInfo
    priv: PrivatizabilityInfo
    reductions: list[Reduction]
    inductions: list[InductionVar]
    array_mappings: dict[str, ArrayMapping]
    #: the front end's :attr:`FrontendAnalyses.hoisting` memo, shared by
    #: every context (every grid) built over the same analyses
    _hoisting: dict[tuple[int, int], bool] = field(
        default_factory=dict, repr=False, compare=False
    )

    def hoisting_blocked(self, read: ArrayElemRef, loop: LoopStmt) -> bool:
        """Can ``read`` observe a value written inside ``loop`` (so its
        communication cannot be hoisted out of it)?"""
        key = (read.ref_id, loop.stmt_id)
        blocked = self._hoisting.get(key)
        if blocked is None:
            blocked = self._hoisting[key] = read_may_see_loop_write(
                self.proc, read, loop
            )
        return blocked


@dataclass
class FrontendAnalyses:
    """The SSA-level front end: everything recomputed from scratch when
    a transform pass mutates the statement tree."""

    cfg: CFG
    dom: DominatorInfo
    liveness: LivenessInfo
    ssa: SSAInfo
    const: ConstPropInfo
    #: (ref id, loop id) -> :meth:`AnalysisContext.hoisting_blocked`
    #: verdict: a pure function of the IR these analyses describe, asked
    #: by scalar mapping and again by communication analysis, once per
    #: option ablation and grid
    hoisting: dict[tuple[int, int], bool] = field(
        default_factory=dict, repr=False, compare=False
    )


def analyze_frontend(proc: Procedure) -> FrontendAnalyses:
    """CFG / dominance / liveness / pruned SSA / constant propagation."""
    cfg = build_cfg(proc)
    dom = compute_dominance(cfg)
    liveness = compute_liveness(cfg)
    ssa = SSAInfo(cfg, dom=dom, liveness=liveness)
    const = propagate_constants(ssa)
    return FrontendAnalyses(cfg=cfg, dom=dom, liveness=liveness, ssa=ssa, const=const)


def resolve_grid(
    processors: ProcessorsSpec | None, num_procs: int | None = None
) -> ProcessorGrid:
    """The processor grid: a PROCESSORS directive fixes the shape;
    ``num_procs`` (total processor count) may rescale it
    proportionally."""
    if processors is not None:
        shape = processors.shape
        if num_procs is not None and num_procs != _prod(shape):
            return default_grid(num_procs, rank=len(shape), name=processors.name)
        return ProcessorGrid(name=processors.name, shape=tuple(shape))
    return default_grid(num_procs or 1, rank=1)


def substitute_inductions(
    proc: Procedure, frontend: FrontendAnalyses
) -> list[InductionVar]:
    """Induction-variable recognition and closed-form substitution.
    Mutates the statement tree (and bumps ``proc.ir_epoch``) when any
    substitution applies."""
    found = find_induction_vars(proc, frontend.ssa, frontend.const)
    if not found:
        return []
    return substitute_induction_vars(
        proc, found, cfg=frontend.cfg, ssa=frontend.ssa, dom=frontend.dom
    )


def recognize_reductions(
    proc: Procedure, frontend: FrontendAnalyses
) -> list[Reduction]:
    return find_reductions(proc, frontend.ssa)


def analyze_privatizability(
    proc: Procedure, frontend: FrontendAnalyses
) -> PrivatizabilityInfo:
    return PrivatizabilityInfo(proc, frontend.cfg, frontend.ssa, frontend.liveness)


def resolve_array_directives(
    proc: Procedure, grid: ProcessorGrid
) -> dict[str, ArrayMapping]:
    return resolve_mappings(proc, grid)


def assemble_context(
    proc: Procedure,
    grid: ProcessorGrid,
    frontend: FrontendAnalyses,
    inductions: list[InductionVar],
    reductions: list[Reduction],
    priv: PrivatizabilityInfo,
    array_mappings: dict[str, ArrayMapping],
) -> AnalysisContext:
    return AnalysisContext(
        proc=proc,
        grid=grid,
        cfg=frontend.cfg,
        dom=frontend.dom,
        liveness=frontend.liveness,
        ssa=frontend.ssa,
        const=frontend.const,
        priv=priv,
        reductions=reductions,
        inductions=inductions,
        array_mappings=array_mappings,
        _hoisting=frontend.hoisting,
    )


def _prod(shape) -> int:
    total = 1
    for s in shape:
        total *= s
    return total
