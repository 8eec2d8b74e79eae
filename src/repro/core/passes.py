"""The pass manager: the paper's phase order, written out once.

Section 2.2 of the paper fixes the order — SSA construction, constant
propagation and induction-variable recognition precede the mapping
pass; DetermineMapping, computation partitioning and communication
placement follow — so the order is part of the algorithm, not
configuration: :meth:`PassManager.run` is that order as straight-line
code, each stage under a ``pass:{name}`` span and a row of the
:class:`PipelineTimings` report (``repro compile --timings``), named
by :data:`DEFAULT_PIPELINE`.

What a manager keeps from one compile to the next is the parsed IR per
processor-count family — source texts equal up to the shape of their
one ``!HPF$ PROCESSORS`` directive — and memos keyed on the statement
tree it analysed:

* the IR analyses (SSA-level front end with its hoisting memo,
  inductions, reductions, privatizability) per ``(proc.uid,
  ir_epoch)`` — shared by every processor count;
* the assembled :class:`AnalysisContext` per ``(proc.uid, ir_epoch,
  grid)``, the grid resolved from the compiled text's own directive —
  shared by every option ablation on that grid;
* the lowered closures per ``(proc.uid, ir_epoch)``, built by the first
  read of ``CompiledProgram.lowering`` among the programs compiled from
  that tree, and kept while one of them holds them.

Every ``Procedure.finalize()`` bumps ``ir_epoch``, so a tree changed by
a transform (induction substitution, scalar expansion, inlining) looks
up a key nothing was stored under; the mapping back end is
option-dependent and always runs.
"""

from __future__ import annotations

import hashlib
import re
import time
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ..ir.build import build_procedure
from ..ir.program import Procedure, ProcessorsSpec
from ..lang import parse_program
from ..obs import Metrics, NULL_TRACER, Tracer
from ..mapping.grid import ProcessorGrid
from ..partition.owner_computes import run_partitioning
from .array_mapping import ArrayMappingOptions, run_array_mapping
from .context import (
    AnalysisContext,
    analyze_frontend,
    analyze_privatizability,
    assemble_context,
    recognize_reductions,
    resolve_array_directives,
    resolve_grid,
    substitute_inductions,
)
from .control_flow import ControlFlowOptions, run_control_flow
from .scalar_mapping import ScalarMappingOptions, run_scalar_mapping


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------


@dataclass
class PassTiming:
    name: str
    calls: int = 0
    cache_hits: int = 0
    seconds: float = 0.0


@dataclass
class PipelineTimings:
    """Per-pass wall-time / invocation metrics of one run or, merged,
    of a whole batch."""

    passes: dict[str, PassTiming] = field(default_factory=dict)

    def record(self, name: str, seconds: float, *, cached: bool = False) -> None:
        entry = self.passes.setdefault(name, PassTiming(name=name))
        entry.calls += 1
        entry.seconds += seconds
        if cached:
            entry.cache_hits += 1

    def merge(self, other: "PipelineTimings") -> "PipelineTimings":
        for name, timing in other.passes.items():
            entry = self.passes.setdefault(name, PassTiming(name=name))
            entry.calls += timing.calls
            entry.cache_hits += timing.cache_hits
            entry.seconds += timing.seconds
        return self

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.passes.values())

    def cache_hit(self, name: str) -> bool:
        timing = self.passes.get(name)
        return timing is not None and timing.cache_hits > 0

    def as_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "passes": [
                {
                    "name": t.name,
                    "calls": t.calls,
                    "cache_hits": t.cache_hits,
                    "seconds": t.seconds,
                }
                for t in self.passes.values()
            ],
        }

    def render(self) -> str:
        total = self.total_seconds or 1.0
        width = max([len("pass")] + [len(n) for n in self.passes])
        lines = [
            f"{'pass':<{width}} {'calls':>6} {'cached':>7} {'time':>10} {'share':>7}",
            "-" * (width + 34),
        ]
        for t in self.passes.values():
            lines.append(
                f"{t.name:<{width}} {t.calls:>6} {t.cache_hits:>7} "
                f"{t.seconds * 1e3:>8.2f}ms {100 * t.seconds / total:>6.1f}%"
            )
        lines.append(
            f"{'total':<{width}} {'':>6} {'':>7} {self.total_seconds * 1e3:>8.2f}ms"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The stages
# ---------------------------------------------------------------------------

#: the timings rows of one compile, in phase order (``parse`` precedes
#: them when the compile started from source text); part of the
#: persistent compile cache's fingerprint
DEFAULT_PIPELINE: tuple[str, ...] = (
    "grid",
    "ssa",
    "induction",
    "reductions",
    "privatizability",
    "array-directives",
    "context",
    "scalar-mapping",
    "array-mapping",
    "control-flow",
    "partitioning",
    "comm-analysis",
    "message-combining",
)

#: the rows a held context stands for (the grid, its key, is always
#: resolved), and those of held IR analyses
_CONTEXT_ROWS = DEFAULT_PIPELINE[1:7]
_IR_ROWS = DEFAULT_PIPELINE[1:5]

#: a PROCESSORS directive alone on its line with a literal shape: the
#: name, and the shape's span
_PROCESSORS_LINE = re.compile(
    r"^[ \t]*!HPF\$[ \t]*PROCESSORS[ \t]+([A-Z_][A-Z0-9_]*)[ \t]*"
    r"\(([0-9 \t,]*)\)[ \t]*$",
    re.IGNORECASE | re.MULTILINE | re.ASCII,
)
_PROCESSORS_WORD = re.compile("PROCESSORS", re.IGNORECASE)


def processors_family(source: str) -> tuple[str, ProcessorsSpec | None]:
    """The parse-memo key of ``source`` and the PROCESSORS spec it
    declares.  A text whose one mention of PROCESSORS is a directive
    alone on its line with integer-literal extents is keyed with that
    shape masked out — its processor-count variants share one
    :class:`Procedure` — and its spec is read here.  Any other text (no
    directive, two, a named or signed extent, a directive after code)
    is keyed on itself, and ``None`` says its spec is the parsed one."""
    match = _PROCESSORS_LINE.search(source)
    if match is None or len(_PROCESSORS_WORD.findall(source)) != 1:
        return _sha256(source), None
    extents = match.group(2).split(",")
    if not all(e.strip() for e in extents):
        return _sha256(source), None
    spec = ProcessorsSpec(
        name=match.group(1).upper(), shape=tuple(int(e) for e in extents)
    )
    masked = source[: match.start(2)] + source[match.end(2) :]
    # a prefix no hexdigest has: a family never answers an exact key
    return f"processors:{_sha256(masked)}", spec


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _unrecorded(name: str, build, *args):
    return build(*args)


def _analyze_ir(proc: Procedure, stage=_unrecorded, substitute: bool = True):
    """ssa → induction → reductions → privatizability, each through
    ``stage(name, build, *args)``: ``(frontend, inductions, reductions,
    priv)``.  Induction substitution rewrites the statement tree; when
    it did (``ir_epoch`` moved) the front end is analysed again, so
    everything returned describes the procedure as it now is."""
    frontend = stage("ssa", analyze_frontend, proc)
    inductions = []
    if substitute:
        epoch = proc.ir_epoch
        inductions = stage("induction", substitute_inductions, proc, frontend)
        if proc.ir_epoch != epoch:
            frontend = stage("ssa", analyze_frontend, proc)
    reductions = stage("reductions", recognize_reductions, proc, frontend)
    priv = stage("privatizability", analyze_privatizability, proc, frontend)
    return frontend, inductions, reductions, priv


class PassManager:
    """Runs the pipeline over procedures, keeping front-end analyses
    between compiles and collecting per-stage metrics.

    One manager may serve many compilations (that is the point): its
    memos carry the front end across option ablations and processor
    counts of the same procedure, and its parse cache carries the IR
    across ``compile_source`` calls on texts that differ at most in
    their PROCESSORS shape.  ``metrics`` accumulates timings over
    everything the manager ran.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.metrics = PipelineTimings()
        #: repro.obs tracer wrapping parse and every stage; the
        #: disabled NULL_TRACER by default
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: compiles whose context was reused / built
        self.context_hits = 0
        self.context_misses = 0
        self._parse_cache: dict[str, Procedure] = {}
        self._syntax_tree: tuple[str, Any] | None = None
        self._analyses: dict[tuple[int, int], tuple] = {}
        self._contexts: dict[
            tuple[int, int, ProcessorGrid], AnalysisContext
        ] = {}
        #: lowerings by ``(proc.uid, ir_epoch)``, read and filled by the
        #: programs this manager compiled (``CompiledProgram.lowering``);
        #: an entry lives while one of them holds it
        self._lowerings: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary()
        )

    # -- parsing -----------------------------------------------------------

    def syntax_tree(self, source: str):
        """The AST of ``source``; the last text's is kept (one tree,
        whatever the number of sources a manager sees), so the compiled
        IR and ``Session.run``'s untransformed reference are built from
        one parse — ``build_procedure`` leaves the tree as parsed."""
        if self._syntax_tree is None or self._syntax_tree[0] != source:
            self._syntax_tree = (source, parse_program(source))
        return self._syntax_tree[1]

    def parse(
        self, source: str, timings: PipelineTimings | None = None
    ) -> tuple[Procedure, ProcessorsSpec | None]:
        """Parse + lower ``source``, memoized per processor-count family
        (:func:`processors_family`): ``(proc, processors)``, the IR —
        shared by every text of the family, so batch ablations and
        processor sweeps over one program share every kept analysis —
        and the PROCESSORS spec of this text, which the compile must
        resolve its grid from (``proc.processors`` is the spec of the
        text that was parsed first)."""
        key, processors = processors_family(source)
        started = time.perf_counter()
        with self.tracer.span("parse", cat="compile") as span:
            proc = self._parse_cache.get(key)
            cached = proc is not None
            if proc is None:
                proc = build_procedure(self.syntax_tree(source))
                self._parse_cache[key] = proc
            span.add(cached=cached)
        elapsed = time.perf_counter() - started
        for sink in (timings, self.metrics):
            if sink is not None:
                sink.record("parse", elapsed, cached=cached)
        return proc, processors or proc.processors

    # -- running -----------------------------------------------------------

    def run(
        self,
        proc: Procedure,
        options: Any,
        processors: ProcessorsSpec | None = None,
    ) -> tuple[dict[str, Any], PipelineTimings]:
        """Compile ``proc`` under ``options`` on the grid of
        ``processors`` (default ``proc.processors``; :meth:`parse` says
        which spec a source text declares): the six products a
        :class:`~repro.core.driver.CompiledProgram` is built from, by
        field name, and the timings of this run."""
        timings = PipelineTimings()
        stage = partial(self._stage, timings)
        uid = proc.uid
        grid = stage(
            "grid", resolve_grid, processors or proc.processors, options.num_procs
        )

        ctx = self._contexts.get((uid, proc.ir_epoch, grid))
        if ctx is not None:
            self.context_hits += 1
            for name in _CONTEXT_ROWS:
                stage(name)
        else:
            self.context_misses += 1
            analyses = self._analyses.get((uid, proc.ir_epoch))
            if analyses is not None:
                for name in _IR_ROWS:
                    stage(name)
            else:
                analyses = _analyze_ir(proc, stage)
                # keyed on the tree as analysed: past the substitution
                self._analyses[(uid, proc.ir_epoch)] = analyses
            array_mappings = stage(
                "array-directives", resolve_array_directives, proc, grid
            )
            ctx = stage(
                "context", assemble_context, proc, grid, *analyses, array_mappings
            )
            self._contexts[(uid, proc.ir_epoch, grid)] = ctx

        scalar_pass = stage(
            "scalar-mapping",
            run_scalar_mapping,
            ctx,
            ScalarMappingOptions(
                strategy=options.strategy,
                align_reductions=options.align_reductions,
            ),
        )
        array_result = stage(
            "array-mapping",
            run_array_mapping,
            ctx,
            scalar_pass,
            ArrayMappingOptions(
                privatize_arrays=options.privatize_arrays,
                partial_privatization=options.partial_privatization,
                auto_privatization=options.auto_privatize_arrays,
            ),
        )
        cf_decisions = stage(
            "control-flow",
            run_control_flow,
            ctx,
            ControlFlowOptions(
                privatize_control_flow=options.privatize_control_flow
            ),
        )
        executors = stage(
            "partitioning",
            run_partitioning,
            ctx,
            scalar_pass,
            array_result.effective,
            cf_decisions,
            array_result.privatizations,
        )
        # deferred import: repro.comm depends on repro.core
        from ..comm.analysis import CommAnalysis, CommOptions
        from ..comm.combine import combine_messages

        comm = stage(
            "comm-analysis",
            CommAnalysis(
                ctx,
                scalar_pass,
                array_result.effective,
                executors,
                cf_decisions,
                CommOptions(message_vectorization=options.message_vectorization),
            ).run,
        )
        if options.combine_messages:
            comm = stage("message-combining", combine_messages, comm)
        return {
            "ctx": ctx,
            "scalar_pass": scalar_pass,
            "array_result": array_result,
            "cf_decisions": cf_decisions,
            "executors": executors,
            "comm": comm,
        }, timings

    def _stage(self, timings: PipelineTimings, name: str, build=None, *args):
        """One ``pass:{name}`` span and one timings row around
        ``build(*args)`` — or, without ``build``, the ``cached`` row of
        a product the manager already holds."""
        cached = build is None
        started = time.perf_counter()
        with self.tracer.span(f"pass:{name}", cat="compile") as span:
            product = None if cached else build(*args)
            span.add(cached=cached)
        elapsed = time.perf_counter() - started
        timings.record(name, elapsed, cached=cached)
        self.metrics.record(name, elapsed, cached=cached)
        return product

    # -- obs export --------------------------------------------------------

    def collect_metrics(self, metrics: Metrics) -> Metrics:
        """Export everything the manager accumulated — how many
        compiles reused a kept context, per-stage call/hit/time
        tallies, and the statement-closure counts — into a
        :class:`repro.obs.Metrics` registry."""
        metrics.gauge("compile.cache.hits", self.context_hits)
        metrics.gauge("compile.cache.misses", self.context_misses)
        metrics.gauge(
            "compile.cache.entries", len(self._analyses) + len(self._contexts)
        )
        for name, timing in self.metrics.passes.items():
            metrics.gauge(f"compile.pass[{name}].calls", timing.calls)
            metrics.gauge(
                f"compile.pass[{name}].cache_hits", timing.cache_hits
            )
            metrics.gauge(
                f"compile.pass[{name}].seconds", round(timing.seconds, 6)
            )
        # deferred import: repro.machine depends on repro.core
        from ..machine.lowering import CLOSURE_COUNTS

        for name, count in CLOSURE_COUNTS.items():
            metrics.gauge(name, count)
        return metrics


def build_context(
    proc: Procedure,
    num_procs: int | None = None,
    grid: ProcessorGrid | None = None,
    substitute_inductions: bool = True,
) -> AnalysisContext:
    """Run the front end up to the assembled :class:`AnalysisContext`,
    keeping nothing. If the program has a PROCESSORS directive it fixes
    the grid shape; ``num_procs`` (total processor count) may rescale
    it proportionally; an explicit ``grid`` overrides everything."""
    if grid is None:
        grid = resolve_grid(proc.processors, num_procs)
    analyses = _analyze_ir(proc, substitute=substitute_inductions)
    return assemble_context(
        proc, grid, *analyses, resolve_array_directives(proc, grid)
    )
