"""Regeneration of the paper's Tables 1–3.

Each ``table*`` function compiles the corresponding benchmark under the
paper's compiler variants, prices it with the analytic estimator, and
returns a :class:`Table` whose rows mirror the paper's layout
(processor count × compiler version → execution time in seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.driver import CompilerOptions, compile_source
from ..core.passes import PassManager
from ..model import MachineModel
from ..programs import appsp_source, dgefa_source, tomcatv_source
from ..sweep import SweepJob, run_sweep


@dataclass
class Table:
    title: str
    columns: list[str]
    rows: list[tuple[int, list[float]]] = field(default_factory=list)
    notes: str = ""

    def cell(self, procs: int, column: str) -> float:
        col = self.columns.index(column)
        for p, values in self.rows:
            if p == procs:
                return values[col]
        raise KeyError(f"no row for {procs} processors")

    def render(self) -> str:
        width = max(12, max(len(c) for c in self.columns) + 2)
        header = f"{'#Procs':>8} " + " ".join(f"{c:>{width}}" for c in self.columns)
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for procs, values in self.rows:
            cells = " ".join(f"{v:>{width}.3f}" for v in values)
            lines.append(f"{procs:>8} {cells}")
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


def _job(
    program: str,
    source: str,
    procs: int,
    machine: MachineModel | None,
    **overrides,
) -> SweepJob:
    """One estimate-mode grid point.  A custom machine folds into the
    options closure: the pass pipeline never reads it, and the
    estimator prices with ``options.machine``, so the numbers are
    identical to pricing separately — while cache keys stay honest."""
    if machine is not None:
        overrides["machine"] = machine
    return SweepJob(
        program=program,
        source=source,
        procs=procs,
        options=CompilerOptions.from_overrides(**overrides),
        mode="estimate",
    )


def _measure_rows(
    jobs: list[SweepJob], columns: int, manager: PassManager | None
) -> list[list[float]]:
    """Run the table's grid through the sweep engine (serially, on the
    shared manager) and fold the results back into rows."""
    results = run_sweep(jobs, workers=0, manager=manager)
    times: list[float] = []
    for result in results:
        record = result.as_dict()
        if not record["ok"]:
            raise RuntimeError(
                f"table grid point {record['label']} failed:\n{result.error}"
            )
        times.append(record["total_time"])
    return [times[i : i + columns] for i in range(0, len(times), columns)]


def table1_tomcatv(
    n: int = 513,
    niter: int = 5,
    procs: tuple[int, ...] = (1, 2, 4, 8, 16),
    machine: MachineModel | None = None,
    manager: PassManager | None = None,
) -> Table:
    """Paper Table 1: TOMCATV under scalar replication / producer
    alignment / the selected-alignment algorithm."""
    table = Table(
        title=f"Table 1. Performance of TOMCATV, (*, BLOCK), n = {n}",
        columns=["Replication", "Producer Alignment", "Selected Alignment"],
        notes=(
            "Execution time (s), analytic SP2-class cost model. The paper's "
            "claims: replication and producer alignment never achieve "
            "speedup; only the selected alignment does, improving on the "
            "baselines by more than two orders of magnitude at 16 procs."
        ),
    )
    manager = manager or PassManager()
    jobs = []
    for p in procs:
        src = tomcatv_source(n=n, niter=niter, procs=p)
        jobs += [
            _job("tomcatv", src, p, machine, strategy=strategy)
            for strategy in ("replication", "producer", "selected")
        ]
    table.rows = list(zip(procs, _measure_rows(jobs, 3, manager)))
    return table


def table2_dgefa(
    n: int = 1000,
    procs: tuple[int, ...] = (2, 4, 8, 16),
    machine: MachineModel | None = None,
    manager: PassManager | None = None,
) -> Table:
    """Paper Table 2: DGEFA with the pivot reduction scalars replicated
    ('Default') vs aligned with the owning column ('Alignment')."""
    table = Table(
        title=f"Table 2. Performance of DGEFA, (*, CYCLIC), n = {n}",
        columns=["Default", "Alignment"],
        notes=(
            "Execution time (s). 'Default' replicates the maxloc reduction "
            "scalars: every processor runs the pivot search and the pivot "
            "column is broadcast each step. 'Alignment' confines the search "
            "to the owning column; only the pivot index travels."
        ),
    )
    manager = manager or PassManager()
    jobs = []
    for p in procs:
        src = dgefa_source(n=n, procs=p)
        jobs += [
            _job("dgefa", src, p, machine, align_reductions=False),
            _job("dgefa", src, p, machine, align_reductions=True),
        ]
    table.rows = list(zip(procs, _measure_rows(jobs, 2, manager)))
    return table


def table3_appsp(
    n: int = 64,
    niter: int = 5,
    procs: tuple[int, ...] = (2, 4, 8, 16),
    machine: MachineModel | None = None,
    manager: PassManager | None = None,
) -> Table:
    """Paper Table 3: APPSP under 1-D / 2-D distributions with and
    without (partial) array privatization."""
    table = Table(
        title=f"Table 3. Performance of APPSP, n = {n}, niter = {niter}",
        columns=[
            "1-D, No Array Priv.",
            "1-D, Priv.",
            "2-D, No Partial Priv.",
            "2-D, Partial Priv.",
        ],
        notes=(
            "Execution time (s). Without privatization the work array is "
            "replicated: parallelism is lost and its producers are "
            "re-broadcast every sweep step (the paper aborted these runs "
            "after more than a day). Under the 2-D distribution only "
            "partial privatization exposes both levels of parallelism."
        ),
    )
    manager = manager or PassManager()
    jobs = []
    for p in procs:
        src_1d = appsp_source(nx=n, ny=n, nz=n, niter=niter, procs=p, distribution="1d")
        src_2d = appsp_source(nx=n, ny=n, nz=n, niter=niter, procs=p, distribution="2d")
        jobs += [
            _job("appsp-1d", src_1d, p, machine, privatize_arrays=False),
            _job("appsp-1d", src_1d, p, machine),
            _job("appsp-2d", src_2d, p, machine, partial_privatization=False),
            _job("appsp-2d", src_2d, p, machine),
        ]
    table.rows = list(zip(procs, _measure_rows(jobs, 4, manager)))
    return table



# ---------------------------------------------------------------------------
# Simulator-backed miniature tables: the same comparisons, measured by
# actually executing the compiled programs on the simulated machine at
# reduced problem sizes — the execution-grounded cross-check of the
# analytic tables above.
# ---------------------------------------------------------------------------


def _simulate_time(source: str, inputs, options: CompilerOptions) -> float:
    from ..machine.simulator import simulate

    compiled = compile_source(source, options)
    return simulate(compiled, inputs).elapsed


def table1_tomcatv_simulated(
    n: int = 12, niter: int = 2, procs: tuple[int, ...] = (2, 4)
) -> Table:
    """Table 1's comparison, measured by the SPMD machine simulator."""
    from ..programs import tomcatv_inputs

    table = Table(
        title=f"Table 1 (simulator), TOMCATV n = {n}",
        columns=["Replication", "Producer Alignment", "Selected Alignment"],
        notes="Virtual seconds from executing on the simulated machine.",
    )
    inputs = tomcatv_inputs(n)
    for p in procs:
        src = tomcatv_source(n=n, niter=niter, procs=p)
        row = [
            _simulate_time(src, inputs, CompilerOptions(strategy="replication")),
            _simulate_time(src, inputs, CompilerOptions(strategy="producer")),
            _simulate_time(src, inputs, CompilerOptions(strategy="selected")),
        ]
        table.rows.append((p, row))
    return table


def table3_appsp_simulated(
    n: int = 8, niter: int = 2, procs: tuple[int, ...] = (4,)
) -> Table:
    """Table 3's comparison, measured by the SPMD machine simulator."""
    from ..programs import appsp_inputs

    table = Table(
        title=f"Table 3 (simulator), APPSP n = {n}",
        columns=[
            "1-D, No Array Priv.",
            "1-D, Priv.",
            "2-D, No Partial Priv.",
            "2-D, Partial Priv.",
        ],
        notes="Virtual seconds from executing on the simulated machine.",
    )
    inputs = appsp_inputs(n, n, n)
    for p in procs:
        src_1d = appsp_source(nx=n, ny=n, nz=n, niter=niter, procs=p, distribution="1d")
        src_2d = appsp_source(nx=n, ny=n, nz=n, niter=niter, procs=p, distribution="2d")
        row = [
            _simulate_time(src_1d, inputs, CompilerOptions(privatize_arrays=False)),
            _simulate_time(src_1d, inputs, CompilerOptions()),
            _simulate_time(src_2d, inputs, CompilerOptions(partial_privatization=False)),
            _simulate_time(src_2d, inputs, CompilerOptions()),
        ]
        table.rows.append((p, row))
    return table
