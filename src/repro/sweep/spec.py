"""Sweep grids: what to run, and what comes back.

A :class:`SweepSpec` declares an experiment grid — programs ×
processor counts × ``CompilerOptions`` axes — and expands it into
ordered :class:`SweepJob` records.  The engine
(:func:`repro.sweep.run_sweep`) executes jobs and streams back flat
:class:`SweepResult` records carrying whichever measurements the job's
mode produced:

* ``estimate`` — analytic cost-model times (the paper tables),
* ``simulate`` — virtual clocks, canonical stats, tier coverage, and
  traffic counters from the SPMD machine simulator,
* ``compile``  — the mapping report only.

Both record types are plain picklable dataclasses: jobs travel to pool
workers, results travel back, and ``as_dict()`` serializes a result
for JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from ..core.driver import CompilerOptions

#: a program is source text, or a callable building source for a
#: processor count (the paper generators: ``tomcatv_source(procs=p)``)
ProgramSource = "str | Callable[[int | None], str]"

MODES = ("estimate", "simulate", "compile")


def _describe_options(options: CompilerOptions) -> str:
    parts = []
    for name, value in sorted(options.overrides_from_defaults().items()):
        if name == "num_procs":
            continue  # already carried as the job's procs / "p=" tag
        if name == "machine":
            value = value.name
        parts.append(f"{name}={value}")
    return ",".join(parts)


@dataclass(frozen=True)
class SweepJob:
    """One grid point: compile ``source`` under ``options`` and measure
    it per ``mode``."""

    program: str
    source: str
    options: CompilerOptions = field(default_factory=CompilerOptions)
    mode: str = "estimate"
    #: requested processor count (None: the source's PROCESSORS
    #: directive decides)
    procs: int | None = None
    #: rng seed for generated simulator inputs
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.label:
            procs = self.procs if self.procs is not None else "?"
            described = _describe_options(self.options)
            suffix = f",{described}" if described else ""
            object.__setattr__(
                self, "label", f"{self.program}[p={procs}{suffix}]"
            )

    def result(self, **fields: Any) -> "SweepResult":
        """This point's result record: the identifying fields copied
        from the job, the rest (``ok``, ``worker``, measurements, ...)
        from ``fields``."""
        return SweepResult(
            label=self.label,
            program=self.program,
            mode=self.mode,
            procs=self.procs,
            options=self.options,
            **fields,
        )


@dataclass
class SweepSpec:
    """A declarative grid: ``programs`` × ``procs`` × option ``axes``.

    ``programs`` maps a name to source text or to a callable invoked
    with each processor count (so generated benchmarks re-emit their
    PROCESSORS directive per point).  ``axes`` maps ``CompilerOptions``
    field names to the values to sweep; the cartesian product is taken
    in declaration order.  ``base`` seeds every point's options.
    """

    programs: Mapping[str, Any]
    procs: Sequence[int | None] = (None,)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: CompilerOptions | None = None
    mode: str = "estimate"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if "num_procs" in self.axes:
            raise ValueError(
                "sweep the processor count with SweepSpec.procs, "
                "not an axes entry for num_procs"
            )
        valid = {f.name for f in fields(CompilerOptions)}
        unknown = sorted(set(self.axes) - valid)
        if unknown:
            raise ValueError(
                f"unknown CompilerOptions axis field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )

    def jobs(self) -> list[SweepJob]:
        """Expand to ordered jobs: programs outermost, then procs, then
        the axes product."""
        axis_names = list(self.axes)
        axis_values = [list(self.axes[name]) for name in axis_names]
        expanded: list[SweepJob] = []
        for program, source_spec in self.programs.items():
            for procs in self.procs:
                source = (
                    source_spec(procs)
                    if callable(source_spec)
                    else source_spec
                )
                for combo in product(*axis_values):
                    overrides = dict(zip(axis_names, combo))
                    if procs is not None:
                        overrides["num_procs"] = procs
                    options = CompilerOptions.from_overrides(
                        self.base, **overrides
                    )
                    expanded.append(
                        SweepJob(
                            program=program,
                            source=source,
                            options=options,
                            mode=self.mode,
                            procs=procs,
                            seed=self.seed,
                        )
                    )
        return expanded

    def __len__(self) -> int:
        sizes = [len(values) for values in self.axes.values()]
        total = 1
        for size in sizes:
            total *= size
        return len(self.programs) * len(self.procs) * total


@dataclass
class SweepResult:
    """One grid point's outcome.  Measurement fields are None unless
    the job's mode produced them."""

    label: str
    program: str
    mode: str
    procs: int | None
    options: CompilerOptions
    ok: bool = True
    error: str | None = None
    #: executions needed (1 = first try; crashes/timeouts retry)
    attempts: int = 1
    #: where the point ran: "serial", "worker-N", "serial-fallback",
    #: "batched", "batched-fallback", "catalog" (a service reuse) — or
    #: "abandoned": no run finished, the queue gave the point up after
    #: its shard's last allowed claim (``ok=False``)
    worker: str = "serial"
    #: the compile came from the persistent cache
    cache_hit: bool = False
    #: the compile was skipped entirely: another grid point in the same
    #: run (or another lane of the same batch) had already compiled
    #: this exact (source, options signature)
    compile_dedup: bool = False
    #: wall-clock of the successful execution (compile + measure); for
    #: a batched point, the batch's wall clock amortized over its lanes
    duration_s: float = 0.0
    #: procs sub-groups fused into the batch this point was evaluated
    #: in (1: a dedicated or single-procs evaluation; >1: the procs
    #: axis itself was a lane dimension of one batch)
    procs_lanes: int = 1
    #: why this point left (or degraded within) the batched fast path:
    #: ``"<rung>: <exception summary>"``, None when no rung fired
    fallback_reason: str | None = None
    #: processor-grid size the compiled program actually ran on
    grid_size: int | None = None

    # -- estimate mode -----------------------------------------------------
    total_time: float | None = None
    compute_time: float | None = None
    comm_time: float | None = None

    # -- simulate mode -----------------------------------------------------
    elapsed: float | None = None
    canonical_stats: dict | None = None
    slab_coverage: float | None = None
    messages: int | None = None
    fetches: int | None = None
    unexpected_fetches: int | None = None

    # -- compile mode ------------------------------------------------------
    report: str | None = None

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON record in the shared :mod:`repro.records` schema
        (``kind="sweep-point"``; the virtual clock serializes as
        ``elapsed_s``, per-nest tier decisions surface as ``tiers``)."""
        from ..records import result_record, tiers_of

        record = result_record(
            "sweep-point",
            label=self.label,
            program=self.program,
            mode=self.mode,
            procs=self.procs,
            options=_describe_options(self.options) or "defaults",
            ok=self.ok,
            error=self.error,
            attempts=self.attempts,
            worker=self.worker,
            cache_hit=self.cache_hit,
            compile_dedup=self.compile_dedup,
            duration_s=self.duration_s,
            procs_lanes=self.procs_lanes,
            grid_size=self.grid_size,
        )
        if self.fallback_reason is not None:
            record["fallback_reason"] = self.fallback_reason
        if self.elapsed is not None:
            record["elapsed_s"] = self.elapsed
        tiers = tiers_of(self.canonical_stats)
        if tiers is not None:
            record["tiers"] = tiers
        for name in (
            "total_time",
            "compute_time",
            "comm_time",
            "canonical_stats",
            "slab_coverage",
            "messages",
            "fetches",
            "unexpected_fetches",
            "report",
        ):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        return record
