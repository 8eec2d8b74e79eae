"""Compilation driver: the full phpf-style pipeline.

``compile_source`` / ``compile_procedure`` run, in order:

1. parse + lower to IR,
2. CFG / dominance / liveness / pruned SSA / constant propagation,
3. induction-variable recognition and closed-form substitution
   (then re-analysis),
4. reduction recognition, privatizability analysis, directive-driven
   array mapping resolution,
5. **the paper's mapping passes**: scalar mapping (Fig. 3), reduction
   mapping (Sec. 2.3), array privatization incl. partial (Sec. 3),
   control-flow privatization (Sec. 4),
6. owner-computes computation partitioning,
7. communication analysis with message-vectorization placement.

Stages 2-7 are :meth:`repro.core.passes.PassManager.run` (see
``docs/ARCHITECTURE.md``); pass ``manager=`` to reuse one manager's
parsed IR and front-end analyses across compiles, or use
:func:`compile_many` to batch whole ablation sweeps. The result of
every entry point is a
:class:`CompiledProgram` consumed by the performance estimator, the
SPMD simulator, and the reports. What only the simulator reads —
statement closures, the priced slab verdicts — is no pipeline
stage: it is derived from the compiled program on first read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping, MutableMapping

from ..model import SP2, MachineModel
from ..ir.program import Procedure, ProcessorsSpec
from ..mapping.descriptors import ArrayMapping
from ..mapping.grid import ProcessorGrid
from ..partition.owner_computes import ExecutorInfo
from .array_mapping import ArrayMappingResult
from .context import AnalysisContext
from .diskcache import CompileCache, as_compile_cache
from .mapping_kinds import ControlFlowDecision, ScalarMapping
from .passes import PassManager, PipelineTimings
from .scalar_mapping import STRATEGIES, ScalarMappingPass

if TYPE_CHECKING:  # comm/machine/perf types; no runtime dependency
    from ..comm.events import CommReport
    from ..machine.lowering import LoweredIR
    from ..machine.slabexec import SlabReport
    from ..obs import Tracer

@dataclass
class CompilerOptions:
    """Every knob of the reproduction, including the paper's measured
    baselines and the ablations called out in DESIGN.md."""

    strategy: str = "selected"  # Table 1: selected | producer | replication
    align_reductions: bool = True  # Table 2: True=Alignment, False=Default
    privatize_arrays: bool = True  # Table 3: array privatization on/off
    partial_privatization: bool = True  # Table 3: partial privatization
    privatize_control_flow: bool = True  # Section 4
    message_vectorization: bool = True  # cost-model ablation
    #: global message combining across loop nests — the paper's stated
    #: future work ("The phpf compiler does not currently perform that
    #: optimization"), hence off by default
    combine_messages: bool = False
    #: automatic array privatization without NEW clauses — the paper's
    #: other stated future work; off by default to match phpf
    auto_privatize_arrays: bool = False
    num_procs: int | None = None
    machine: MachineModel = field(default_factory=lambda: SP2)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.num_procs is not None and (
            not isinstance(self.num_procs, int)
            or isinstance(self.num_procs, bool)
            or self.num_procs < 1
        ):
            raise ValueError(
                f"num_procs must be a positive processor count, "
                f"got {self.num_procs!r}"
            )

    @classmethod
    def from_overrides(
        cls, base: "CompilerOptions | None" = None, **overrides: Any
    ) -> "CompilerOptions":
        """The one construction site for option variants: start from
        ``base`` (or the defaults), apply ``overrides``, and validate.
        The CLI flag parser, the estimator's per-procs sweep, the table
        variants, and :class:`repro.sweep.SweepSpec` axes all build
        their options here, so an unknown knob fails the same way
        everywhere."""
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown CompilerOptions field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        values = (
            {f.name: getattr(base, f.name) for f in fields(cls)}
            if base is not None
            else {}
        )
        values.update(overrides)
        return cls(**values)

    def overrides_from_defaults(self) -> dict[str, Any]:
        """The fields where this options object differs from the
        defaults — the human-readable part of a sweep label."""
        defaults = CompilerOptions()
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)
        }


@dataclass
class CompiledProgram:
    """Everything the back ends need about one compiled program."""

    proc: Procedure
    options: CompilerOptions
    ctx: AnalysisContext
    scalar_pass: ScalarMappingPass
    array_result: ArrayMappingResult
    cf_decisions: dict[int, ControlFlowDecision]
    executors: dict[int, ExecutorInfo]
    comm: CommReport
    #: per-pass wall-time metrics of this compilation
    timings: PipelineTimings | None = None
    #: the back-end products derived so far, timings row name ->
    #: (ir_epoch, product): pure functions of the fields above, built on
    #: first read and again whenever the procedure's IR moved on
    _derived: dict[str, tuple[int, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: the compiling manager's lowerings by ``(proc.uid, ir_epoch)``:
    #: the closures read nothing but the procedure, so the programs of
    #: one ``Procedure`` (a processor-count family) share theirs
    _lowerings: MutableMapping[tuple[int, int], "LoweredIR"] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _derive(self, name: str, build) -> Any:
        epoch = self.proc.ir_epoch
        held = self._derived.get(name)
        if held is None or held[0] != epoch:
            started = time.perf_counter()
            held = self._derived[name] = (epoch, build(self))
            if self.timings is not None:
                self.timings.record(name, time.perf_counter() - started)
        return held[1]

    def __getstate__(self) -> dict[str, Any]:
        # derived products (closures among them) and their timing rows
        # stay out of pickles: the compile pool and the disk cache ship
        # only what cannot be recomputed
        state = {**self.__dict__, "_derived": {}, "_lowerings": {}}
        if self.timings is not None and self._derived:
            state["timings"] = PipelineTimings(
                {
                    name: timing
                    for name, timing in self.timings.passes.items()
                    if name not in self._derived
                }
            )
        return state

    @property
    def lowering(self) -> "LoweredIR":
        """Statement closures, the simulator's fast path."""
        return self._derive("lowering", _lower)

    @property
    def slabs(self) -> "SlabReport":
        """Per-loop slab plans, the simulator's tier-3 engine, each
        priced against tier 2 for ``tier="auto"``."""
        return self._derive("slabexec", _classify_slabs)

    @property
    def grid(self) -> ProcessorGrid:
        return self.ctx.grid

    @property
    def mappings(self) -> dict[str, ArrayMapping]:
        """Effective array mappings (privatizations applied)."""
        return self.array_result.effective

    def scalar_mapping_of(self, stmt_id: int) -> ScalarMapping | None:
        """Mapping decision of the scalar assignment ``stmt_id``."""
        stmt = self.proc.stmt(stmt_id)
        d = self.ctx.ssa.def_of_assignment(stmt)
        if d is None:
            return None
        return self.scalar_pass.decisions.get(d.def_id)

    def report(self) -> str:
        """Human-readable compilation report (examples use this)."""
        from ..ir.expr import ScalarRef

        lines = [
            f"=== {self.proc.name} ===",
            f"grid: {self.grid.name}{self.grid.shape} "
            f"({self.grid.size} processors), strategy: {self.options.strategy}",
            "",
            "scalar mappings:",
        ]
        for stmt in self.proc.assignments():
            if isinstance(stmt.lhs, ScalarRef):
                mapping = self.scalar_mapping_of(stmt.stmt_id)
                if mapping is not None:
                    lines.append(f"  {stmt}  ->  {mapping}")
        if self.array_result.privatizations:
            lines.append("")
            lines.append("array privatizations:")
            for priv in self.array_result.privatizations:
                lines.append(f"  {priv}")
        if self.array_result.failures:
            lines.append("")
            lines.append("privatization failures:")
            for name, loop, reason in self.array_result.failures:
                lines.append(f"  {name} @ loop {loop.var.name}: {reason}")
        cf_lines = [
            f"  {d}" for d in self.cf_decisions.values()
        ]
        if cf_lines:
            lines.append("")
            lines.append("control flow:")
            lines.extend(cf_lines)
        lines.append("")
        lines.append("communication:")
        lines.append(self.comm.summary())
        return "\n".join(lines)


# The derived back-end products.  Imports are deferred: repro.machine
# and repro.perf depend on repro.core.


def _lower(compiled: CompiledProgram) -> "LoweredIR":
    from ..machine.lowering import lower_procedure

    proc = compiled.proc
    key = (proc.uid, proc.ir_epoch)
    lowered = compiled._lowerings.get(key)
    if lowered is None:
        lowered = compiled._lowerings[key] = lower_procedure(proc)
    return lowered


def _classify_slabs(compiled: CompiledProgram) -> "SlabReport":
    """Every loop's priced slab plan or the reason it has none — built
    once here and shared by every run of the program."""
    from ..machine.slabexec import classify_procedure

    return classify_procedure(compiled)


def _compile(
    manager: PassManager,
    proc: Procedure,
    processors: ProcessorsSpec | None,
    options: CompilerOptions | None,
    timings: PipelineTimings | None,
) -> CompiledProgram:
    options = options or CompilerOptions()
    products, run_timings = manager.run(proc, options, processors)
    all_timings = (timings or PipelineTimings()).merge(run_timings)
    return CompiledProgram(
        proc=proc,
        options=options,
        timings=all_timings,
        _lowerings=manager._lowerings,
        **products,
    )


def compile_procedure(
    proc: Procedure,
    options: CompilerOptions | None = None,
    *,
    manager: PassManager | None = None,
    timings: PipelineTimings | None = None,
    tracer: "Tracer | None" = None,
) -> CompiledProgram:
    """Compile ``proc`` on the grid of its own PROCESSORS directive."""
    manager = manager or PassManager(tracer=tracer)
    return _compile(manager, proc, proc.processors, options, timings)


def compile_source(
    source: str,
    options: CompilerOptions | None = None,
    *,
    manager: PassManager | None = None,
    tracer: "Tracer | None" = None,
) -> CompiledProgram:
    """``tracer`` (repro.obs) instruments the pipeline when no explicit
    ``manager`` is given; a passed-in manager keeps its own tracer.
    Texts that differ only in their PROCESSORS shape compile on one
    shared ``Procedure`` of the manager's, each on its own grid."""
    manager = manager or PassManager(tracer=tracer)
    timings = PipelineTimings()
    proc, processors = manager.parse(source, timings)
    return _compile(manager, proc, processors, options, timings)


# ---------------------------------------------------------------------------
# Batch compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchJob:
    """One unit of :func:`compile_many` work."""

    source: str
    options: CompilerOptions = field(default_factory=CompilerOptions)
    label: str | None = None


_JOB_FIELDS = ("source", "options", "label")


def _as_job(job) -> BatchJob:
    if isinstance(job, BatchJob):
        return job
    if isinstance(job, str):
        return BatchJob(source=job)
    if isinstance(job, Mapping):
        unknown = sorted(set(job) - set(_JOB_FIELDS))
        if unknown:
            raise TypeError(
                f"batch job mapping has unknown field(s) {unknown}; "
                f"expected 'source' (required) plus optional "
                f"'options', 'label'"
            )
        if "source" not in job:
            raise TypeError(
                "batch job mapping is missing the required 'source' field"
            )
        source = job["source"]
        options = job.get("options")
        if options is None:
            options = CompilerOptions()
        elif isinstance(options, Mapping):
            options = CompilerOptions.from_overrides(**options)
        elif not isinstance(options, CompilerOptions):
            raise TypeError(
                f"batch job field 'options' must be a CompilerOptions or a "
                f"mapping of overrides, got {type(options).__name__}"
            )
    elif isinstance(job, (tuple, list)):
        if len(job) != 2:
            raise TypeError(
                f"batch job sequence must be (source, options), "
                f"got {len(job)} element(s)"
            )
        source, options = job
        if not isinstance(options, CompilerOptions):
            raise TypeError(
                f"batch job field 'options' must be a CompilerOptions, "
                f"got {type(options).__name__}"
            )
    else:
        raise TypeError(
            f"cannot interpret {type(job).__name__} as a batch job; pass a "
            f"BatchJob, a source string, a (source, options) pair, or a "
            f"mapping with fields {_JOB_FIELDS}"
        )
    if not isinstance(source, str):
        raise TypeError(
            f"batch job field 'source' must be program text (str), "
            f"got {type(source).__name__}"
        )
    if isinstance(job, Mapping):
        return BatchJob(source=source, options=options, label=job.get("label"))
    return BatchJob(source=source, options=options)


def compile_cached(
    source: str,
    options: CompilerOptions,
    manager: PassManager,
    cache: CompileCache | None,
) -> tuple[CompiledProgram, bool]:
    """One compile through the optional persistent cache: ``(program,
    was a disk hit)``; a warm entry skips the whole pass pipeline."""
    if cache is None:
        return compile_source(source, options, manager=manager), False
    return cache.get_or_compile(
        source,
        options,
        lambda: compile_source(source, options, manager=manager),
    )


def compile_many(
    jobs: Iterable[BatchJob | tuple[str, CompilerOptions] | Mapping | str],
    *,
    manager: PassManager | None = None,
    cache=None,
) -> list[CompiledProgram]:
    """Compile a batch of (source, options) jobs, returning one
    :class:`CompiledProgram` per job in input order.

    The whole batch runs in-process, in job order, under one
    :class:`PassManager` (``manager``, or a fresh one), so option
    ablations of the same program reuse the cached parse and front-end
    analyses however the jobs interleave — that reuse is the speedup.
    Compiles that should spread over processes are a compile-mode
    sweep: ``run_sweep(jobs, mode="pool")``.

    ``cache`` enables the persistent compile cache
    (:mod:`repro.core.diskcache`): pass a :class:`CompileCache`, a
    cache-root path, or True for the default root. Warm entries skip
    the pass pipeline entirely.
    """
    disk_cache = as_compile_cache(cache)
    shared = manager or PassManager()
    return [
        compile_cached(job.source, job.options, shared, disk_cache)[0]
        for job in map(_as_job, jobs)
    ]
