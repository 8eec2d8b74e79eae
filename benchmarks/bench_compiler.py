"""Throughput of this reproduction itself: compilation speed and
simulator speed (not paper numbers — engineering health metrics).

``test_batch_compile_speedup`` additionally records the per-pass
pipeline timings and the batch-vs-sequential speedup into
``BENCH_compiler.json`` at the repository root, seeding the perf
trajectory across PRs.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core import (
    BatchJob,
    CompilerOptions,
    PipelineTimings,
    compile_many,
    compile_source,
)
from repro.machine import simulate
from repro.perf import PerfEstimator
from repro.programs import (
    appsp_source,
    dgefa_source,
    tomcatv_inputs,
    tomcatv_source,
)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_compiler.json"


@pytest.mark.parametrize(
    "name,source",
    [
        ("tomcatv", tomcatv_source(n=513, niter=5, procs=16)),
        ("dgefa", dgefa_source(n=1000, procs=16)),
        ("appsp-2d", appsp_source(nx=64, ny=64, nz=64, niter=5, procs=16, distribution="2d")),
    ],
)
def test_compile_throughput(benchmark, name, source):
    compiled = benchmark(compile_source, source, CompilerOptions())
    assert compiled.comm is not None


def _ablation_jobs():
    """A realistic batch: every program of the paper's evaluation under
    its table's compiler variants (the ``repro tables`` workload)."""
    sources = [
        tomcatv_source(n=257, niter=3, procs=16),
        dgefa_source(n=500, procs=16),
        appsp_source(nx=32, ny=32, nz=32, niter=2, procs=16, distribution="2d"),
    ]
    variants = [
        CompilerOptions(),
        CompilerOptions(strategy="producer"),
        CompilerOptions(strategy="replication"),
        CompilerOptions(align_reductions=False),
        CompilerOptions(partial_privatization=False),
        CompilerOptions(message_vectorization=False),
        CompilerOptions(combine_messages=True),
    ]
    return [
        BatchJob(source=src, options=opt) for src in sources for opt in variants
    ]


def test_batch_compile_speedup(benchmark):
    """compile_many (one shared PassManager: every job after a
    source's first replays parse + front-end analyses from its cache)
    versus the same jobs compiled sequentially from scratch; the
    ROADMAP's batching/caching health metric."""
    jobs = _ablation_jobs()

    started = time.perf_counter()
    sequential = [compile_source(j.source, j.options) for j in jobs]
    sequential_s = time.perf_counter() - started

    started = time.perf_counter()
    batched = benchmark.pedantic(compile_many, args=(jobs,), rounds=1, iterations=1)
    batch_s = time.perf_counter() - started

    assert len(batched) == len(sequential)
    speedup = sequential_s / batch_s
    sequential_timings = PipelineTimings()
    for compiled in sequential:
        sequential_timings.merge(compiled.timings)
    batch_timings = PipelineTimings()
    for compiled in batched:
        batch_timings.merge(compiled.timings)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "batch_compile_speedup",
                "jobs": len(jobs),
                "sequential_s": round(sequential_s, 4),
                "batch_s": round(batch_s, 4),
                "speedup": round(speedup, 3),
                "sequential_passes": sequential_timings.as_dict(),
                "batch_passes": batch_timings.as_dict(),
            },
            indent=2,
        )
        + "\n"
    )
    benchmark.extra_info["sequential_s"] = round(sequential_s, 4)
    benchmark.extra_info["batch_s"] = round(batch_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup >= 1.5


def test_estimate_throughput(benchmark):
    compiled = compile_source(
        tomcatv_source(n=513, niter=5, procs=16), CompilerOptions()
    )
    estimate = benchmark(lambda: PerfEstimator(compiled).estimate())
    assert estimate.total_time > 0


def test_simulator_throughput(benchmark):
    compiled = compile_source(
        tomcatv_source(n=8, niter=1, procs=4), CompilerOptions()
    )
    inputs = tomcatv_inputs(8)

    def run():
        return simulate(compiled, inputs)

    sim = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sim.stats.unexpected_fetches == 0
