"""The six workloads of the end-to-end benchmark.

Each workload is one user journey, written against ``repro``'s public
functions only.  A workload object is built from the seed; it exposes

* ``prime()``    — set-up work before the warm-up operations,
* ``op(spans)``  — one operation.  With :data:`NO_SPANS` it is exactly
  the call a user makes; with a recorder it is the same operation
  decomposed into the public calls of each layer, one span per call,
* ``verify(raw)`` — untimed: problems found in the operation's outputs
  (empty list = correct) and the facts read from what the calls
  returned (exact counts, the stats digest),
* ``probes(spans)`` — standalone measurements of layers that cannot be
  separated from outside inside the operation,
* ``profile()``  — ``cProfile`` call counts of first calls (run in a
  fresh child process, where they repeat exactly),
* ``oracle(sample, rng_seed)`` — an independent check of the outputs.

See README.md for why each workload is here and which layer it loads.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import pstats
import random
from pathlib import Path
from typing import Any

import numpy as np

from repro import (
    SP2,
    PassManager,
    PerfEstimator,
    RunResult,
    Session,
    SweepJob,
    SweepService,
    SweepSpec,
    comparable,
    compile_source,
    parse_and_build,
    parse_program,
    run_sequential,
    run_sweep,
    simulate,
    table1_tomcatv,
    table2_dgefa,
    table3_appsp,
)
from repro.core.diskcache import CompileCache
from repro.core.driver import CompilerOptions
from repro.ir.build import build_procedure
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.sweep import plan_batches

from spans import NO_SPANS

#: per-pass wall times of ``PassManager.metrics`` grouped by the layer
#: that owns the pass
PASS_GROUPS = {
    "analysis.passes_s": ("ssa", "induction", "reductions", "privatizability"),
    "core.mapping_s": (
        "grid",
        "array-directives",
        "context",
        "scalar-mapping",
        "array-mapping",
        "control-flow",
    ),
    "partition.partitioning_s": ("partitioning",),
    "comm.analysis_s": ("comm-analysis", "message-combining"),
    "machine.lowering_s": ("lowering",),
    "machine.slabprep_s": ("slabexec",),
    "perf.tierplan_s": ("tierplan",),
}

#: the machine-parameter lane axis of the grid: the first five
#: ``MACHINE_VARIANTS`` of benchmarks/sweep_gate.py, copied so the
#: benchmark does not change when that gate does
MACHINES = (
    SP2,
    dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6),
    dataclasses.replace(SP2, name="slow-net", alpha=200e-6, beta=1.0 / 5e6),
    dataclasses.replace(SP2, name="fast-cpu", flop_time=1.0 / 500e6),
    dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6),
)
GRID_PROCS = (1, 2, 3, 4, 6, 8, 12)


def sha256_json(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def pass_group_seconds(manager: PassManager) -> dict[str, float]:
    """Compile time the manager spent, whole and per pass group."""
    passes = manager.metrics.passes
    values = {"core.compile_s": manager.metrics.total_seconds}
    for metric, names in PASS_GROUPS.items():
        values[metric] = sum(
            passes[name].seconds for name in names if name in passes
        )
    return values


def profiled_calls(fn) -> int:
    """Total function calls ``cProfile`` counts while ``fn`` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler).total_calls


def seeded_inputs(proc, seed: int) -> dict[str, np.ndarray]:
    """The inputs ``Session.run(seed=...)`` draws for ``proc``."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for symbol in proc.symbols.arrays():
        shape = tuple(symbol.extent(d) for d in range(symbol.rank))
        inputs[symbol.name] = rng.uniform(0.5, 1.5, shape)
    return inputs


def distinct_compiles(jobs: list[SweepJob]) -> list[list[SweepJob]]:
    """``jobs`` grouped by the compile they share (same source, same
    options up to the machine), as the sweep engine fuses them."""
    batches, leftover = plan_batches(jobs)
    groups = [
        [batch.jobs[lane] for lane in lanes]
        for batch in batches
        for lanes in batch.subgroups()
    ]
    return groups + [[jobs[index]] for index in leftover]


def compile_equivalent(jobs: list[SweepJob], spans) -> list[tuple[list[SweepJob], Any]]:
    """Standalone compile of each distinct point on one fresh manager:
    what the grid's compiles cost without the sweep engine."""
    manager = PassManager()
    compiled = []
    for group in distinct_compiles(jobs):
        with spans.span("sweep.compile_equiv"):
            program = compile_source(
                group[0].source, group[0].options, manager=manager
            )
        compiled.append((group, program))
    return compiled


def frontend_probe(sources: list[str], spans) -> None:
    """``lang.parse`` and ``ir.build`` spans over the workload's
    distinct source texts (the two halves of ``parse_and_build``)."""
    for source in dict.fromkeys(sources):
        with spans.span("lang.parse"):
            tree = parse_program(source)
        with spans.span("ir.build"):
            build_procedure(tree)


class Workload:
    name = ""
    #: warm-up operations before the first timed one
    warmups = 1

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch

    def prime(self) -> None:
        pass

    def op(self, spans=NO_SPANS) -> Any:
        raise NotImplementedError

    def verify(self, raw: Any) -> tuple[list[str], dict[str, Any]]:
        raise NotImplementedError

    def probes(self, spans) -> dict[str, float]:
        return {}

    def profile(self) -> dict[str, int]:
        return {}

    def oracle(self, sample: int, rng_seed: int) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# repro run: compile, sequential reference, 16-rank simulation, validation
# ---------------------------------------------------------------------------


class RunWorkload(Workload):
    procs = 16

    def source_text(self) -> str:
        raise NotImplementedError

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.source = self.source_text()

    def session(self) -> Session:
        return Session(num_procs=self.procs, use_calibration=False)

    def op(self, spans=NO_SPANS):
        session = self.session()
        if spans is NO_SPANS:
            result = session.run(self.source, seed=self.seed)
            return result, result.as_dict(), session.manager
        # Session.run, step for step
        with spans.span("core.compile"):
            compiled = session.compile(self.source)
        with spans.span("api.inputs"):
            proc = parse_and_build(self.source)
            inputs = seeded_inputs(proc, self.seed)
        with spans.span("codegen.reference"):
            sequential = run_sequential(proc, inputs)
        with spans.span("machine.simulate"):
            sim = simulate(compiled, inputs, tier="auto")
        with spans.span("api.validate"):
            matches = {
                symbol.name: bool(
                    np.allclose(
                        sim.gather(symbol.name),
                        sequential.get_array(symbol.name),
                    )
                )
                for symbol in compiled.proc.symbols.arrays()
            }
        result = RunResult(
            compiled=compiled,
            sim=sim,
            matches=matches,
            inputs=inputs,
            sequential=sequential,
        )
        with spans.span("records.record"):
            record = result.as_dict()
        return result, record, session.manager

    def verify(self, raw):
        result, record, manager = raw
        problems = []
        if not result.ok:
            bad = sorted(n for n, ok in result.matches.items() if not ok)
            problems.append(
                f"differs from the sequential interpreter on {bad}, "
                f"{result.unexpected_fetches} unexpected fetches"
            )
        if not record["ok"]:
            problems.append("record says ok=false")
        sim = result.sim
        facts = {
            "stats_digest": sha256_json(result.canonical_stats()),
            "machine.slab_instances": sim.slab_instances,
            "machine.interp_instances": sim.interp_instances,
            "machine.slab_coverage": sim.slab_coverage,
            "machine.messages": sim.stats.messages,
            "machine.elements": sim.stats.elements,
            "machine.virtual_elapsed_s": sim.elapsed,
            **pass_group_seconds(manager),
        }
        return problems, facts

    def probes(self, spans):
        frontend_probe([self.source], spans)
        return {}

    def profile(self):
        options = self.session().options
        proc = parse_and_build(self.source)
        inputs = seeded_inputs(proc, self.seed)
        compiled = []
        return {
            "core.compile_py_calls": profiled_calls(
                lambda: compiled.append(
                    compile_source(self.source, options, manager=PassManager())
                )
            ),
            "codegen.reference_py_calls": profiled_calls(
                lambda: run_sequential(proc, inputs)
            ),
            "machine.simulate_py_calls": profiled_calls(
                lambda: simulate(compiled[0], inputs, tier="auto")
            ),
        }


class RunTomcatv(RunWorkload):
    name = "run_tomcatv"

    def source_text(self):
        return tomcatv_source(
            n=33 if self.smoke else 129, niter=1, procs=self.procs
        )


class RunDgefa(RunWorkload):
    name = "run_dgefa"

    def source_text(self):
        return dgefa_source(n=24 if self.smoke else 80, procs=self.procs)


# ---------------------------------------------------------------------------
# repro tables: the paper's three tables, estimate mode
# ---------------------------------------------------------------------------


#: processor counts of Table 1 and of Tables 2-3: the paper's rows, and
#: the first and last of them under ``--smoke``
TABLE_PROCS = {
    False: ((1, 2, 4, 8, 16), (2, 4, 8, 16)),
    True: ((1, 16), (2, 16)),
}


def table_jobs(smoke: bool) -> list[SweepJob]:
    """The 39 estimate-mode points behind Tables 1-3 at their paper
    sizes, in cell order (row by row, table by table).  A copy of the
    grids in ``repro.report.tables``; ``TablesPaper.probes`` checks
    that it prices every cell to the table's own number."""
    procs1, procs23 = TABLE_PROCS[smoke]

    def job(program, source, procs, **overrides):
        return SweepJob(
            program=program,
            source=source,
            procs=procs,
            options=CompilerOptions.from_overrides(**overrides),
            mode="estimate",
        )

    jobs = []
    for p in procs1:
        source = tomcatv_source(n=513, niter=5, procs=p)
        jobs += [
            job("tomcatv", source, p, strategy=strategy)
            for strategy in ("replication", "producer", "selected")
        ]
    for p in procs23:
        source = dgefa_source(n=1000, procs=p)
        jobs += [
            job("dgefa", source, p, align_reductions=False),
            job("dgefa", source, p, align_reductions=True),
        ]
    for p in procs23:
        sources = {
            dist: appsp_source(
                nx=64, ny=64, nz=64, niter=5, procs=p, distribution=dist
            )
            for dist in ("1d", "2d")
        }
        jobs += [
            job("appsp-1d", sources["1d"], p, privatize_arrays=False),
            job("appsp-1d", sources["1d"], p),
            job("appsp-2d", sources["2d"], p, partial_privatization=False),
            job("appsp-2d", sources["2d"], p),
        ]
    return jobs


class TablesPaper(Workload):
    name = "tables_paper"
    warmups = 2

    def op(self, spans=NO_SPANS):
        session = Session(use_calibration=False)
        procs1, procs23 = TABLE_PROCS[self.smoke]
        with spans.span("report.table1"):
            table1 = table1_tomcatv(procs=procs1, manager=session.manager)
        with spans.span("report.table2"):
            table2 = table2_dgefa(procs=procs23, manager=session.manager)
        with spans.span("report.table3"):
            table3 = table3_appsp(procs=procs23, manager=session.manager)
        return (table1, table2, table3), session.manager

    def verify(self, raw):
        (table1, table2, table3), manager = raw
        problems = []
        # the paper's claims, not the printed text (README, findings)
        for procs, (replication, producer, selected) in table1.rows:
            if procs > 1 and not (selected < replication and selected < producer):
                problems.append(f"table 1, P={procs}: selected is not fastest")
        if not table1.cell(16, "Selected Alignment") < table1.cell(
            1, "Selected Alignment"
        ):
            problems.append("table 1: selected alignment shows no speedup")
        for procs, (default, alignment) in table2.rows:
            if not alignment <= default:
                problems.append(f"table 2, P={procs}: alignment is slower")
        for procs, values in table3.rows:
            if min(values[2:]) != values[3]:
                problems.append(
                    f"table 3, P={procs}: partial privatization is not "
                    "the fastest 2-D column"
                )
        self.cells = [
            value
            for table in (table1, table2, table3)
            for _, values in table.rows
            for value in values
        ]
        facts = {
            "stats_digest": sha256_json(self.cells),
            **pass_group_seconds(manager),
        }
        return problems, facts

    def probes(self, spans):
        jobs = table_jobs(self.smoke)
        frontend_probe([job.source for job in jobs], spans)
        with spans.span("sweep.expand"):
            table_jobs(self.smoke)
        with spans.span("sweep.plan"):
            batches, _ = plan_batches(jobs)
        priced = {}
        compiles = compile_equivalent(jobs, spans)
        for group, compiled in compiles:
            for job in group:
                with spans.span("perf.estimate"):
                    estimate = PerfEstimator(
                        compiled, job.options.machine
                    ).estimate()
                priced[job.label] = estimate.total_time
        if [priced[job.label] for job in jobs] != self.cells:
            raise AssertionError(
                "the harness's copy of the table grids no longer prices "
                "the cells the table builders print"
            )
        return {
            "sweep.distinct_compiles": len(compiles),
            "sweep.batches": len(batches),
        }

    def profile(self):
        jobs = table_jobs(self.smoke)
        return {
            "core.compile_py_calls": profiled_calls(
                lambda: compile_equivalent(jobs, NO_SPANS)
            )
        }


# ---------------------------------------------------------------------------
# Session.sweep and the service round trip: one 105-point simulate grid
# ---------------------------------------------------------------------------


class GridWorkload(Workload):
    """Shared by the sweep and service workloads: the grid, the facts
    read from its results, and the scalar-charging oracle."""

    def spec(self) -> SweepSpec:
        small = self.smoke
        return SweepSpec(
            programs={
                "tomcatv": lambda p: tomcatv_source(
                    n=16 if small else 33, niter=1, procs=p
                ),
                "dgefa": lambda p: dgefa_source(
                    n=12 if small else 24, procs=p
                ),
                "appsp": lambda p: appsp_source(
                    nx=6 if small else 8,
                    ny=6 if small else 8,
                    nz=6 if small else 8,
                    niter=1,
                    procs=p,
                ),
            },
            procs=GRID_PROCS,
            axes={"machine": MACHINES[:1] if small else MACHINES},
            mode="simulate",
            seed=self.seed,
        )

    def grid_facts(self, results, n_points: int):
        problems = []
        if len(results) != n_points:
            problems.append(f"{len(results)} results for {n_points} points")
        bad = [r.label for r in results if r is None or not r.ok]
        if bad:
            problems.append(f"{len(bad)} failed grid points, first {bad[0]}")
            return problems, {}
        self.payload = [comparable(r.as_dict()) for r in results]
        facts = {
            "stats_digest": sha256_json(self.payload),
            "machine.messages": sum(r.messages for r in results),
            "machine.virtual_elapsed_s": sum(r.elapsed for r in results),
            "machine.slab_coverage": min(r.slab_coverage for r in results),
        }
        return problems, facts

    def sweep_counts(self, results) -> dict[str, int]:
        return {
            "sweep.distinct_compiles": sum(
                1 for r in results if not r.compile_dedup
            ),
            "sweep.compile_dedup": sum(1 for r in results if r.compile_dedup),
            "sweep.procs_lanes": min(r.procs_lanes for r in results),
            "sweep.fallback_points": sum(
                1 for r in results if r.worker != "batched"
            ),
        }

    def profile(self):
        jobs = self.spec().jobs()
        return {
            "core.compile_py_calls": profiled_calls(
                lambda: compile_equivalent(jobs, NO_SPANS)
            )
        }

    def oracle(self, sample, rng_seed):
        """Scalar charging (``mode="pool"``, one job at a time) must
        give byte-identical clocks and traffic on ``sample`` points
        chosen by ``rng_seed`` (0: the whole grid), compared with the
        last verified operation's payload."""
        jobs = self.spec().jobs()
        indices = list(range(len(jobs)))
        if sample:
            indices = sorted(
                random.Random(rng_seed).sample(indices, min(sample, len(jobs)))
            )
        reference = run_sweep(
            [jobs[i] for i in indices], workers=0, mode="pool"
        )
        expected = [comparable(r.as_dict()) for r in reference]
        got = [self.payload[i] for i in indices]
        if sha256_json(expected) != sha256_json(got):
            differing = [
                jobs[i].label
                for i, a, b in zip(indices, expected, got)
                if a != b
            ]
            return [
                f"scalar charging disagrees on {len(differing)} points, "
                f"first {differing[0]}"
            ]
        return []


class Sweep105(GridWorkload):
    name = "sweep_105"

    def op(self, spans=NO_SPANS):
        session = Session(use_calibration=False)
        spec = self.spec()
        if spans is NO_SPANS:
            return session.sweep(spec, workers=0, mode="auto"), session.manager
        with spans.span("sweep.expand"):
            jobs = spec.jobs()
        with spans.span("sweep.plan"):
            plan_batches(jobs)
        with spans.span("sweep.run"):
            results = session.sweep(jobs, workers=0, mode="auto")
        return results, session.manager

    def verify(self, raw):
        results, manager = raw
        problems, facts = self.grid_facts(results, len(self.spec()))
        if not problems:
            facts.update(self.sweep_counts(results))
            facts.update(pass_group_seconds(manager))
        return problems, facts

    def probes(self, spans):
        jobs = self.spec().jobs()
        frontend_probe([job.source for job in jobs], spans)
        compile_equivalent(jobs, spans)
        return {"sweep.batches": len(plan_batches(jobs)[0])}

def queue_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.glob("queue.sqlite*"))


class ServiceWorkload(GridWorkload):
    """submit -> serve_forever(once=True) -> result() on a service
    directory; subclasses say which directory and what must be reused."""

    def service_dir(self) -> Path:
        raise NotImplementedError

    def round_trip(self, root: Path, spans):
        before = queue_bytes(root)
        with spans.span("service.open"):
            service = SweepService(root)
        try:
            with spans.span("service.submit"):
                handle = service.submit(self.spec())
            with spans.span("service.serve"):
                service.serve_forever(once=True)
            with spans.span("service.result"):
                results = handle.result(timeout=0)
            status = handle.poll()
        finally:
            with spans.span("service.close"):
                service.close()
        return results, status, service.manager, queue_bytes(root) - before

    def op(self, spans=NO_SPANS):
        self.root = self.service_dir()
        return self.round_trip(self.root, spans)

    def expected_reused(self, n_points: int) -> int:
        raise NotImplementedError

    def verify(self, raw):
        results, status, manager, grown = raw
        n_points = len(self.spec())
        problems, facts = self.grid_facts(results, n_points)
        if status.state != "done" or status.failed:
            problems.append(
                f"job {status.state}, {status.failed} failed points"
            )
        if status.reused != self.expected_reused(n_points):
            problems.append(
                f"{status.reused} points reused, expected "
                f"{self.expected_reused(n_points)}"
            )
        if not problems:
            facts.update(
                {
                    "service.shards": status.n_shards,
                    "service.points_done": status.done - status.reused,
                    "service.points_reused": status.reused,
                    "service.queue_bytes_per_point": grown / n_points,
                    **pass_group_seconds(manager),
                }
            )
        return problems, facts

    def catalog_probe(self, spans) -> dict[str, float]:
        """``Catalog.lookup`` over the grid on the last operation's
        service directory, and how often any point was evaluated."""
        jobs = self.spec().jobs()
        service = SweepService(self.root)
        try:
            for job in jobs:
                with spans.span("catalog.lookup"):
                    found = service.catalog.lookup(job)
                if found is None:
                    raise AssertionError(f"{job.label} is not in the catalog")
            evaluations = max(service.catalog.evaluations(j) for j in jobs)
        finally:
            service.close()
        return {"catalog.evaluations_max": evaluations}


class ServiceCold(ServiceWorkload):
    name = "service_cold"
    _serial = 0

    def service_dir(self):
        # a new directory per operation: empty catalog, empty compile cache
        self._serial += 1
        return self.scratch / f"cold-{self._serial}"

    def expected_reused(self, n_points):
        return 0

    def verify(self, raw):
        problems, facts = super().verify(raw)
        if not problems:
            facts.update(self.sweep_counts(raw[0]))
        return problems, facts

    def probes(self, spans):
        values = self.catalog_probe(spans)
        jobs = self.spec().jobs()
        # the same grid without the service, for service.overhead_s
        with spans.span("sweep.run"):
            run_sweep(jobs, workers=0, mode="auto", manager=PassManager())
        cache = CompileCache(self.scratch / "probe-cache")
        keyed = [
            (cache.key(group[0].source, group[0].options), compiled)
            for group, compiled in compile_equivalent(jobs, spans)
        ]
        for key, compiled in keyed:
            with spans.span("diskcache.store"):
                stored = cache.store(key, compiled)
            if not stored:
                raise AssertionError("compile cache refused an entry")
        for key, _ in keyed:
            with spans.span("diskcache.load"):
                loaded = cache.load(key)
            if loaded is None:
                raise AssertionError("compile cache lost an entry")
        values["diskcache.entry_bytes"] = cache.total_bytes() / len(keyed)
        return values


class ServiceWarm(ServiceWorkload):
    name = "service_warm"
    warmups = 5

    def service_dir(self):
        return self.scratch / "warm"

    def prime(self):
        # fill the catalog: one cold round trip, not counted as an operation
        raw = self.round_trip(self.service_dir(), NO_SPANS)
        if raw[1].state != "done" or raw[1].reused:
            raise AssertionError(f"priming the catalog failed: {raw[1]}")

    def expected_reused(self, n_points):
        return n_points

    def verify(self, raw):
        problems, facts = super().verify(raw)
        if facts.get("core.compile_s"):
            problems.append("a warm round trip compiled something")
        return problems, facts

    def probes(self, spans):
        return self.catalog_probe(spans)

    def profile(self):
        return {}  # nothing compiles on the warm path


WORKLOADS = {
    cls.name: cls
    for cls in (
        RunTomcatv,
        RunDgefa,
        TablesPaper,
        Sweep105,
        ServiceCold,
        ServiceWarm,
    )
}
