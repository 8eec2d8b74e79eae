"""The stable high-level facade.

:class:`Session` is the supported entry point for programmatic use: it
owns a :class:`~repro.core.passes.PassManager` (so front-end analyses
are shared across compiles), an optional persistent
:class:`~repro.core.diskcache.CompileCache`, and optional
:mod:`repro.obs` tracer/metrics sinks — and exposes the four verbs the
CLI, the table builders, and the benchmark harnesses are built on:

* :meth:`Session.compile`  — source → :class:`CompiledProgram`
* :meth:`Session.estimate` — analytic cost model → ``PerfEstimate``
* :meth:`Session.run`      — simulated execution, validated against
  the sequential interpreter → :class:`RunResult`
* :meth:`Session.sweep`    — an experiment grid through
  :func:`repro.sweep.run_sweep` → ``list[SweepResult]``

Everything here is re-exported from :mod:`repro`; lower-level modules
(`repro.core`, `repro.machine`, …) remain importable but are *internal*
surface and may reorganize between versions (see ``docs/API.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .core.diskcache import CompileCache, as_compile_cache
from .core.driver import (
    CompiledProgram,
    CompilerOptions,
    compile_cached,
    compile_source,
)
from .core.passes import PassManager
from .sweep import SweepJob, SweepResult, SweepSpec, run_sweep

if TYPE_CHECKING:
    from .model import MachineModel
    from .obs import Metrics, Tracer
    from .perf.estimator import PerfEstimate
    from .service import JobHandle, SweepService

#: the supported programmatic surface (re-exported from :mod:`repro`);
#: anything not listed here is internal and may move between versions
__all__ = [
    "CompileCache",
    "CompiledProgram",
    "CompilerOptions",
    "PassManager",
    "RunResult",
    "Session",
    "SweepJob",
    "SweepResult",
    "SweepSpec",
    "compile_source",
    "run_sweep",
]


@dataclass
class RunResult:
    """One simulated execution: the compiled program, the simulator it
    ran on, and the validation verdict against the sequential
    interpreter."""

    compiled: CompiledProgram
    sim: Any
    #: array name → matches the sequential interpreter (empty when the
    #: run was not validated)
    matches: dict[str, bool] = field(default_factory=dict)
    inputs: dict[str, Any] = field(default_factory=dict)
    sequential: Any = None
    cache_hit: bool = False

    @property
    def elapsed(self) -> float:
        """Virtual seconds on the simulated machine."""
        return self.sim.elapsed

    @property
    def messages(self) -> int:
        return self.sim.stats.messages

    @property
    def fetches(self) -> int:
        return self.sim.stats.fetches

    @property
    def unexpected_fetches(self) -> int:
        return self.sim.stats.unexpected_fetches

    @property
    def all_match(self) -> bool:
        return all(self.matches.values())

    @property
    def ok(self) -> bool:
        """The contract ``repro run`` exits 0 on: every array matches
        the sequential interpreter and no fetch arrived unexpectedly."""
        return self.all_match and self.unexpected_fetches == 0

    def gather(self, name: str):
        """The named array, assembled across processors."""
        return self.sim.gather(name)

    def canonical_stats(self) -> dict:
        """Deterministic clocks + traffic record (the CI determinism
        gate byte-compares two of these)."""
        return self.sim.canonical_stats()

    def as_dict(self) -> dict:
        """Flat JSON record in the shared :mod:`repro.records` schema
        (same field names as ``SweepResult.as_dict`` and job
        records)."""
        from .records import result_record, tiers_of

        stats = self.canonical_stats()
        record = result_record(
            "run",
            program=self.compiled.proc.name,
            procs=self.compiled.options.num_procs,
            ok=self.ok,
            matches=self.matches,
            cache_hit=self.cache_hit,
            elapsed_s=self.elapsed,
            messages=self.messages,
            fetches=self.fetches,
            unexpected_fetches=self.unexpected_fetches,
            canonical_stats=stats,
        )
        tiers = tiers_of(stats)
        if tiers is not None:
            record["tiers"] = tiers
        return record


class Session:
    """A configured compiler instance: base options + shared pass
    manager + optional persistent cache and observability sinks.

    ``options`` seeds every compile; keyword ``overrides`` adjust it
    field-wise (``Session(strategy="producer", num_procs=8)``).
    ``cache`` enables the persistent compile cache: ``True`` for the
    default root (``~/.cache/repro``), a path, or a ready
    :class:`CompileCache`.  ``tracer``/``metrics`` are threaded through
    compilation, simulation, and sweeps.

    A fit saved by ``repro calibrate --save`` is applied automatically:
    when the options carry no explicit ``nest_cost_constants``, the
    session loads the saved constants (from the cache root, or the
    root ``use_calibration`` names) into its options, so the tier
    plan prices tiers with the host's own numbers.  ``use_calibration=
    False`` keeps the shipped defaults; an explicit
    ``nest_cost_constants`` in the options always wins.
    """

    def __init__(
        self,
        options: CompilerOptions | None = None,
        *,
        cache: CompileCache | str | os.PathLike | bool | None = None,
        tracer: "Tracer | None" = None,
        metrics: "Metrics | None" = None,
        manager: PassManager | None = None,
        use_calibration: bool | str | os.PathLike = True,
        **overrides: Any,
    ):
        if overrides or options is None:
            options = CompilerOptions.from_overrides(options, **overrides)
        if use_calibration and options.nest_cost_constants is None:
            from .perf.calibrate import load_calibration

            root = (
                use_calibration
                if not isinstance(use_calibration, bool)
                else None
            )
            saved = load_calibration(root)
            if saved:
                options = CompilerOptions.from_overrides(
                    options, nest_cost_constants=saved
                )
        self.options = options
        self.cache = as_compile_cache(cache)
        self.tracer = tracer
        self.metrics = metrics
        self.manager = manager or PassManager(tracer=tracer)
        #: whether the most recent :meth:`compile` was a disk-cache hit
        self.last_cache_hit = False

    # -- options -----------------------------------------------------------

    def options_for(self, **overrides: Any) -> CompilerOptions:
        """The session's options with field overrides applied."""
        if not overrides:
            return self.options
        return CompilerOptions.from_overrides(self.options, **overrides)

    # -- the verbs ---------------------------------------------------------

    def compile(self, source: str, **overrides: Any) -> CompiledProgram:
        """Compile source text under the session options (plus
        ``overrides``), through the persistent cache when enabled."""
        compiled, self.last_cache_hit = compile_cached(
            source, self.options_for(**overrides), self.manager, self.cache
        )
        return compiled

    def estimate(
        self,
        source: str | CompiledProgram,
        *,
        machine: "MachineModel | None" = None,
        pipelined_shifts: bool = False,
        **overrides: Any,
    ) -> "PerfEstimate":
        """Analytic cost-model estimate of ``source`` (or an already
        compiled program)."""
        from .perf.estimator import PerfEstimator

        if isinstance(source, CompiledProgram):
            compiled = source
        else:
            compiled = self.compile(source, **overrides)
        return PerfEstimator(
            compiled, machine, pipelined_shifts=pipelined_shifts
        ).estimate()

    def run(
        self,
        source: str,
        *,
        seed: int = 0,
        validate: bool = True,
        tier: str = "auto",
        **overrides: Any,
    ) -> RunResult:
        """Execute ``source`` on the simulated machine with
        deterministic random inputs (``seed``), cross-checking every
        array against the sequential interpreter unless
        ``validate=False``.  ``tier`` selects the execution engine:
        ``"auto"`` (default) consults the compiled :class:`TierPlan`
        per nest, ``"lowered"``/``"slab"`` force a single tier."""
        import numpy as np

        from .codegen.seq import run_sequential, seeded_inputs
        from .ir.build import build_procedure
        from .machine.simulator import simulate

        compiled = self.compile(source, **overrides)
        cache_hit = self.last_cache_hit

        # A fresh, untransformed procedure — built from the AST the
        # compile parsed — feeds the sequential reference run; its
        # symbol order fixes the rng draws.
        proc = build_procedure(self.manager.syntax_tree(source))
        inputs = seeded_inputs(proc, seed)

        sequential = (
            run_sequential(proc, inputs, metrics=self.metrics)
            if validate else None
        )
        sim = simulate(
            compiled,
            inputs,
            tracer=self.tracer,
            metrics=self.metrics,
            tier=tier,
        )
        matches: dict[str, bool] = {}
        if validate:
            for symbol in compiled.proc.symbols.arrays():
                matches[symbol.name] = bool(
                    np.allclose(
                        sim.gather(symbol.name),
                        sequential.get_array(symbol.name),
                        equal_nan=True,
                    )
                )
        return RunResult(
            compiled=compiled,
            sim=sim,
            matches=matches,
            inputs=inputs,
            sequential=sequential,
            cache_hit=cache_hit,
        )

    def sweep(
        self,
        spec: SweepSpec | Iterable[SweepJob],
        *,
        workers: int | None = None,
        timeout: float | None = None,
        retries: int = 2,
        on_result: Callable[[SweepResult], None] | None = None,
        mode: str = "auto",
    ) -> list[SweepResult]:
        """Run an experiment grid through the sweep engine, sharing the
        session's cache, tracer, and metrics.  ``workers=0`` forces
        serial in-process execution on the session's pass manager.
        ``mode`` selects the execution strategy: ``"pool"`` runs one
        job at a time, ``"batched"`` fuses grid points that differ only
        in machine parameters *or the processor count* into
        lane-vectorized evaluations (and dedupes repeated compiles —
        ``SweepResult.procs_lanes`` reports how many procs sub-groups
        a point's batch fused), ``"auto"`` picks batched exactly when
        some batch has lanes to fuse — results are identical either
        way."""
        return run_sweep(
            spec,
            workers=workers,
            timeout=timeout,
            retries=retries,
            cache=self.cache,
            manager=self.manager,
            tracer=self.tracer,
            metrics=self.metrics,
            on_result=on_result,
            mode=mode,
        )

    def submit(
        self,
        spec: SweepSpec | Iterable[SweepJob],
        *,
        service: "SweepService | str | os.PathLike | None" = None,
        name: str = "",
        exec_mode: str = "auto",
        shards: int | None = None,
    ) -> "JobHandle":
        """Submit an experiment grid to the persistent sweep service
        and return a :class:`~repro.service.JobHandle` immediately.

        Unlike :meth:`sweep`, nothing is evaluated here: the grid is
        persisted to the service's durable queue and runs wherever a
        worker loop (``repro serve``) drains it — surviving client and
        worker restarts, with every finished point recorded in the
        artifact catalog.  ``service`` is a ready
        :class:`~repro.service.SweepService` or a service directory
        (default: the session cache root's ``service/`` sibling).
        ``handle.result()`` blocks for the ordered results;
        ``handle.poll()`` / ``handle.stream_events()`` observe
        progress."""
        from .service import SweepService

        if not isinstance(service, SweepService):
            service = SweepService(
                service,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        return service.submit(
            spec, name=name, exec_mode=exec_mode, shards=shards
        )

    # -- bookkeeping -------------------------------------------------------

    def cache_stats(self) -> dict[str, Any] | None:
        """Disk-cache footprint + this session's hit/miss counters, or
        None when the cache is disabled."""
        return self.cache.stats_dict() if self.cache is not None else None

    def collect_metrics(self, metrics: "Metrics | None" = None) -> "Metrics | None":
        """Fold the pass manager's pipeline counters into ``metrics``
        (defaults to the session's registry)."""
        metrics = metrics if metrics is not None else self.metrics
        if metrics is not None:
            self.manager.collect_metrics(metrics)
        return metrics
