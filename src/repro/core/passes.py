"""The pass manager: the compilation pipeline as named, instrumented,
cacheable passes.

The driver used to hard-wire the paper's phases (SSA → induction →
reduction/privatizability → DetermineMapping → partitioning →
communication analysis) as one monolithic function. Here each phase is
a :class:`Pass` with declared inputs/outputs, sequenced by a
:class:`PassManager` that

* caches analysis results in a typed :class:`AnalysisCache` keyed on
  (procedure fingerprint, relevant compiler options), so strategy
  ablations over one procedure re-run only the mapping back end;
* invalidates cached analyses when a transform pass (induction
  substitution, scalar expansion, inlining) mutates the IR — detected
  through ``Procedure.ir_epoch``, which every ``finalize()`` bumps;
* records per-pass wall time and invocation counts into a
  :class:`PipelineTimings` report (``repro compile --timings``).

Passes are looked up in a process-wide registry by name. The core
passes below register themselves at import; the communication passes
are registered by ``repro.comm.passes`` when ``repro.comm`` is
imported (which ``repro/__init__`` always does). That registration is
what breaks the old ``repro.core`` ↔ ``repro.comm`` import cycle:
``repro.core`` never imports ``repro.comm``, it only names its passes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from ..errors import ReproError
from ..ir.build import build_procedure
from ..ir.program import Procedure
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


class PassError(ReproError):
    """Misconfigured or missing pass."""


class UnknownPassError(PassError):
    """A pipeline names a pass that nothing has registered."""


# ---------------------------------------------------------------------------
# Pass descriptors and pipeline state
# ---------------------------------------------------------------------------


@dataclass
class PipelineState:
    """Working state of one compilation: the procedure, the options it
    is compiled under, and the products computed so far."""

    proc: Procedure
    options: Any
    products: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.products[name]

    def __contains__(self, name: str) -> bool:
        return name in self.products


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage.

    ``run`` receives the :class:`PipelineState` and returns a dict of
    the products it provides. ``option_keys`` names the
    ``CompilerOptions`` fields the pass reads — together with the
    option keys of everything it (transitively) requires, they form the
    options part of its cache key.
    """

    name: str
    run: Callable[[PipelineState], dict[str, Any]]
    provides: tuple[str, ...]
    requires: tuple[str, ...] = ()
    option_keys: tuple[str, ...] = ()
    #: mutates the statement tree; triggers cache invalidation and
    #: recomputation of already-computed IR-dependent products
    transforms_ir: bool = False
    #: result depends on the statement tree (False: directives only)
    ir_dependent: bool = True
    #: front-end analyses are cacheable; mapping/comm back-end passes
    #: are cheap relative to their option fan-out and stay uncached
    cacheable: bool = True
    #: predicate on the options deciding whether the pass runs at all
    enabled: Callable[[Any], bool] | None = None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Pass] = {}


def register_pass(p: Pass, *, replace: bool = False) -> Pass:
    if not replace and p.name in _REGISTRY:
        raise PassError(f"pass {p.name!r} is already registered")
    _REGISTRY[p.name] = p
    return p


def registered_pass(name: str) -> Pass:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPassError(
            f"no pass named {name!r} is registered "
            f"(registered: {sorted(_REGISTRY)}); the communication passes "
            "are registered by importing repro.comm"
        ) from None


def registered_passes() -> dict[str, Pass]:
    return dict(_REGISTRY)


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
# Analysis cache
# ---------------------------------------------------------------------------


class CacheKey(NamedTuple):
    pass_name: str
    #: (Procedure.uid, ir_epoch) — the epoch is dropped for passes that
    #: only read directives (ir_dependent=False)
    fingerprint: tuple
    #: ((option name, value), ...) over the pass's transitive option keys
    option_sig: tuple


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0


class AnalysisCache:
    """Pass products keyed on (procedure fingerprint, options)."""

    def __init__(self) -> None:
        self._entries: dict[CacheKey, dict[str, Any]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CacheKey) -> dict[str, Any] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def store(self, key: CacheKey, products: dict[str, Any]) -> None:
        self._entries[key] = products

    def invalidate_stale(self, proc: Procedure) -> int:
        """Drop every entry of ``proc`` recorded at an older IR epoch
        (called after a transform pass mutates the statement tree)."""
        stale = [
            key
            for key in self._entries
            if key.fingerprint[0] == proc.uid
            and len(key.fingerprint) > 1
            and key.fingerprint[1] != proc.ir_epoch
        ]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

#: the paper's pipeline, in phase order; the last two names are
#: registered by repro.comm
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


class PassManager:
    """Sequences a pipeline of registered passes over procedures,
    caching analysis products and collecting per-pass metrics.

    One manager may serve many compilations (that is the point): its
    :class:`AnalysisCache` carries front-end analyses across option
    ablations of the same procedure, and its parse cache carries the
    IR across repeated ``compile_source`` calls on the same text.
    ``metrics`` accumulates timings over everything the manager ran.
    """

    def __init__(
        self,
        pipeline: tuple[str, ...] = DEFAULT_PIPELINE,
        cache: AnalysisCache | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.pipeline = tuple(pipeline)
        self.cache = cache if cache is not None else AnalysisCache()
        self.metrics = PipelineTimings()
        #: repro.obs tracer wrapping parse and every pass execution;
        #: the disabled NULL_TRACER by default
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._parse_cache: dict[str, Procedure] = {}
        self._syntax_tree: tuple[str, Any] | None = None
        self._option_closures: dict[str, tuple[str, ...]] = {}

    # -- parsing -----------------------------------------------------------

    def syntax_tree(self, source: str):
        """The AST of ``source``; the last text's is kept (one tree,
        whatever the number of sources a manager sees), so the compiled
        IR and ``Session.run``'s untransformed reference are built from
        one parse — ``build_procedure`` leaves the tree as parsed."""
        if self._syntax_tree is None or self._syntax_tree[0] != source:
            self._syntax_tree = (source, parse_program(source))
        return self._syntax_tree[1]

    def parse(self, source: str, timings: PipelineTimings | None = None) -> Procedure:
        """Parse + lower ``source``, memoized on the source text. Batch
        ablations over one program therefore share a single IR — and
        with it every cached analysis."""
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        started = time.perf_counter()
        with self.tracer.span("parse", cat="compile") as span:
            proc = self._parse_cache.get(digest)
            cached = proc is not None
            if proc is None:
                proc = build_procedure(self.syntax_tree(source))
                self._parse_cache[digest] = proc
            span.add(cached=cached)
        elapsed = time.perf_counter() - started
        for sink in (timings, self.metrics):
            if sink is not None:
                sink.record("parse", elapsed, cached=cached)
        return proc

    # -- running -----------------------------------------------------------

    def run(
        self,
        proc: Procedure,
        options: Any,
        *,
        targets: tuple[str, ...] | None = None,
        seeds: dict[str, Any] | None = None,
    ) -> tuple[PipelineState, PipelineTimings]:
        """Run the pipeline over ``proc``. ``seeds`` pre-populates
        products (their producing passes are skipped); with ``targets``
        the run stops as soon as all named products exist."""
        state = PipelineState(proc=proc, options=options, products=dict(seeds or {}))
        seeded = frozenset(seeds or ())
        timings = PipelineTimings()
        executed: list[Pass] = []
        for name in self.pipeline:
            if targets is not None and all(t in state.products for t in targets):
                break
            p = registered_pass(name)
            if all(prov in seeded for prov in p.provides):
                continue
            if p.enabled is not None and not p.enabled(options):
                continue
            self._execute(p, state, timings, executed)
            executed.append(p)
        if targets is not None:
            missing = [t for t in targets if t not in state.products]
            if missing:
                raise PassError(
                    f"pipeline {self.pipeline} produced no {missing!r}"
                )
        return state, timings

    def _execute(
        self,
        p: Pass,
        state: PipelineState,
        timings: PipelineTimings,
        executed: list[Pass],
    ) -> None:
        started = time.perf_counter()
        with self.tracer.span(f"pass:{p.name}", cat="compile") as span:
            key = self._cache_key(p, state)
            if key is not None:
                hit = self.cache.lookup(key)
                if hit is not None:
                    state.products.update(hit)
                    span.add(cached=True)
                    self._record(
                        p.name, time.perf_counter() - started, timings, True
                    )
                    return
            missing = [r for r in p.requires if r not in state.products]
            if missing:
                raise PassError(
                    f"pass {p.name!r} requires {missing!r}, not produced by any "
                    f"earlier pass in pipeline {self.pipeline}"
                )
            epoch_before = state.proc.ir_epoch
            products = p.run(state) or {}
            state.products.update(products)
            if p.transforms_ir and state.proc.ir_epoch != epoch_before:
                self._after_ir_mutation(p, state, products, timings, executed)
            elif key is not None:
                self.cache.store(key, products)
            span.add(cached=False)
        self._record(p.name, time.perf_counter() - started, timings, False)

    def _after_ir_mutation(
        self,
        p: Pass,
        state: PipelineState,
        products: dict[str, Any],
        timings: PipelineTimings,
        executed: list[Pass],
    ) -> None:
        """A transform changed the statement tree: purge stale cache
        entries, recompute the IR-dependent products already in flight,
        and re-key the transform's own result at the new epoch (a later
        compile of the now-substituted procedure hits it instead of
        re-running the transform)."""
        self.cache.invalidate_stale(state.proc)
        for earlier in executed:
            if earlier.ir_dependent and not earlier.transforms_ir:
                self._execute(earlier, state, timings, executed=[])
        key = self._cache_key(p, state)
        if key is not None:
            self.cache.store(key, products)

    def _record(
        self, name: str, seconds: float, timings: PipelineTimings, cached: bool
    ) -> None:
        timings.record(name, seconds, cached=cached)
        self.metrics.record(name, seconds, cached=cached)

    # -- obs export --------------------------------------------------------

    def collect_metrics(self, metrics: Metrics) -> Metrics:
        """Export everything the manager accumulated — analysis-cache
        hit rates, per-pass call/hit/time tallies, and the lowering
        LRU's counters — into a :class:`repro.obs.Metrics` registry."""
        stats = self.cache.stats
        metrics.gauge("compile.cache.hits", stats.hits)
        metrics.gauge("compile.cache.misses", stats.misses)
        metrics.gauge("compile.cache.invalidations", stats.invalidations)
        metrics.gauge("compile.cache.entries", len(self.cache))
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

    # -- cache keys --------------------------------------------------------

    def _cache_key(self, p: Pass, state: PipelineState) -> CacheKey | None:
        if not p.cacheable:
            return None
        fingerprint = (
            (state.proc.uid, state.proc.ir_epoch)
            if p.ir_dependent
            else (state.proc.uid,)
        )
        option_sig = tuple(
            (k, getattr(state.options, k)) for k in self._option_closure(p.name)
        )
        return CacheKey(pass_name=p.name, fingerprint=fingerprint, option_sig=option_sig)

    def _option_closure(self, name: str) -> tuple[str, ...]:
        """Option keys a pass depends on, transitively through the
        passes producing its required products — so e.g. everything
        downstream of the grid inherits ``num_procs``."""
        cached = self._option_closures.get(name)
        if cached is not None:
            return cached
        providers: dict[str, Pass] = {}
        for pipeline_name in self.pipeline:
            candidate = registered_pass(pipeline_name)
            for product in candidate.provides:
                providers.setdefault(product, candidate)
        keys: set[str] = set()
        stack = [registered_pass(name)]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            keys.update(current.option_keys)
            for product in current.requires:
                producer = providers.get(product)
                if producer is not None:
                    stack.append(producer)
        closure = tuple(sorted(keys))
        self._option_closures[name] = closure
        return closure


# ---------------------------------------------------------------------------
# The core passes
# ---------------------------------------------------------------------------


def _run_grid(state: PipelineState) -> dict[str, Any]:
    return {"grid": resolve_grid(state.proc, num_procs=state.options.num_procs)}


def _run_frontend(state: PipelineState) -> dict[str, Any]:
    return {"frontend": analyze_frontend(state.proc)}


def _run_induction(state: PipelineState) -> dict[str, Any]:
    return {"inductions": substitute_inductions(state.proc, state["frontend"])}


def _run_reductions(state: PipelineState) -> dict[str, Any]:
    return {"reductions": recognize_reductions(state.proc, state["frontend"])}


def _run_privatizability(state: PipelineState) -> dict[str, Any]:
    return {"priv": analyze_privatizability(state.proc, state["frontend"])}


def _run_array_directives(state: PipelineState) -> dict[str, Any]:
    return {"array_mappings": resolve_array_directives(state.proc, state["grid"])}


def _run_context(state: PipelineState) -> dict[str, Any]:
    return {
        "ctx": assemble_context(
            state.proc,
            state["grid"],
            state["frontend"],
            state["inductions"],
            state["reductions"],
            state["priv"],
            state["array_mappings"],
        )
    }


def _run_scalar_mapping(state: PipelineState) -> dict[str, Any]:
    o = state.options
    return {
        "scalar_pass": run_scalar_mapping(
            state["ctx"],
            ScalarMappingOptions(
                strategy=o.strategy, align_reductions=o.align_reductions
            ),
        )
    }


def _run_array_mapping(state: PipelineState) -> dict[str, Any]:
    o = state.options
    return {
        "array_result": run_array_mapping(
            state["ctx"],
            state["scalar_pass"],
            ArrayMappingOptions(
                privatize_arrays=o.privatize_arrays,
                partial_privatization=o.partial_privatization,
                auto_privatization=o.auto_privatize_arrays,
            ),
        )
    }


def _run_control_flow(state: PipelineState) -> dict[str, Any]:
    return {
        "cf_decisions": run_control_flow(
            state["ctx"],
            ControlFlowOptions(
                privatize_control_flow=state.options.privatize_control_flow
            ),
        )
    }


def _run_partitioning(state: PipelineState) -> dict[str, Any]:
    array_result = state["array_result"]
    return {
        "executors": run_partitioning(
            state["ctx"],
            state["scalar_pass"],
            array_result.effective,
            state["cf_decisions"],
            array_result.privatizations,
        )
    }


register_pass(
    Pass(
        name="grid",
        run=_run_grid,
        provides=("grid",),
        option_keys=("num_procs",),
        ir_dependent=False,
    )
)
register_pass(
    Pass(name="ssa", run=_run_frontend, provides=("frontend",))
)
register_pass(
    Pass(
        name="induction",
        run=_run_induction,
        provides=("inductions",),
        requires=("frontend",),
        transforms_ir=True,
    )
)
register_pass(
    Pass(
        name="reductions",
        run=_run_reductions,
        provides=("reductions",),
        requires=("frontend",),
    )
)
register_pass(
    Pass(
        name="privatizability",
        run=_run_privatizability,
        provides=("priv",),
        requires=("frontend",),
    )
)
register_pass(
    Pass(
        name="array-directives",
        run=_run_array_directives,
        provides=("array_mappings",),
        requires=("grid",),
    )
)
register_pass(
    Pass(
        name="context",
        run=_run_context,
        provides=("ctx",),
        requires=(
            "grid",
            "frontend",
            "inductions",
            "reductions",
            "priv",
            "array_mappings",
        ),
    )
)
register_pass(
    Pass(
        name="scalar-mapping",
        run=_run_scalar_mapping,
        provides=("scalar_pass",),
        requires=("ctx",),
        option_keys=("strategy", "align_reductions"),
        cacheable=False,
    )
)
register_pass(
    Pass(
        name="array-mapping",
        run=_run_array_mapping,
        provides=("array_result",),
        requires=("ctx", "scalar_pass"),
        option_keys=(
            "privatize_arrays",
            "partial_privatization",
            "auto_privatize_arrays",
        ),
        cacheable=False,
    )
)
register_pass(
    Pass(
        name="control-flow",
        run=_run_control_flow,
        provides=("cf_decisions",),
        requires=("ctx",),
        option_keys=("privatize_control_flow",),
        cacheable=False,
    )
)
register_pass(
    Pass(
        name="partitioning",
        run=_run_partitioning,
        provides=("executors",),
        requires=("ctx", "scalar_pass", "array_result", "cf_decisions"),
        cacheable=False,
    )
)


# ---------------------------------------------------------------------------
# Convenience: the classic one-call context builder
# ---------------------------------------------------------------------------


def build_context(
    proc: Procedure,
    num_procs: int | None = None,
    grid: ProcessorGrid | None = None,
    substitute_inductions: bool = True,
) -> AnalysisContext:
    """Run the analysis pipeline up to the assembled
    :class:`AnalysisContext`. If the program has a PROCESSORS directive
    it fixes the grid shape; ``num_procs`` (total processor count) may
    rescale it proportionally; an explicit ``grid`` overrides
    everything."""
    seeds: dict[str, Any] = {}
    if grid is not None:
        seeds["grid"] = grid
    if not substitute_inductions:
        seeds["inductions"] = []
    state, _ = PassManager().run(
        proc,
        SimpleNamespace(num_procs=num_procs),
        targets=("ctx",),
        seeds=seeds,
    )
    return state["ctx"]
