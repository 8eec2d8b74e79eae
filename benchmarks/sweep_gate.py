#!/usr/bin/env python
"""CI sweep + compile-cache gate.

Runs the small paper-table grid (TOMCATV and DGEFA at reduced sizes,
across processor counts and scalar-mapping strategies) through
``repro.sweep.run_sweep`` on a two-worker pool, twice against each of
two fresh persistent cache roots:

* **timing grid** (compile mode): the cold pass compiles every point
  through the full pass pipeline and persists it; the warm pass must
  serve every point from the disk cache.  Five such cold/warm pairs
  run one after the other, each pair in a fresh cache root, and the
  median warm pass must be at least ``--min-speedup`` (default 2.0)
  times faster than the median cold pass (one pair's ratio spreads
  across the threshold on a 2-core host).  Compile mode isolates
  what the cache can actually accelerate — simulation time is paid
  identically cold and warm and would only dilute the signal.
* **stats grid** (simulate mode): cold-vs-warm per-point
  ``canonical_stats`` payloads are byte-compared — a revived pickle
  must drive the simulator to exactly the clocks and traffic a fresh
  compile does, or the cache is lying.

A third, **batched grid** (simulate mode, 3 processor counts × 7
machine-parameter variants = 21 points on TOMCATV) gates the batched
sweep evaluator: run cold through the pool path and cold through the
default ``mode="auto"``, the batched leg must produce byte-identical
``canonical_stats`` with no point off the fast path — machine-parameter
lanes share one lane-vector simulation and the procs axis shares
compiles, so ~21 full jobs collapse to ~3 compiles + 3 simulations.

A fourth, **procs grid** (simulate mode, 7 processor counts × 5
machines over TOMCATV + DGEFA + APPSP = 105 points) gates the procs
axis as a lane dimension: every batched point must report
``procs_lanes == 7`` (all seven processor counts fused as sub-groups
of its batch) and produce ``canonical_stats`` byte-identical to the
pool path.  Both grids' pool/batched wall-clock ratios are printed and
recorded, not gated: a single-shot ratio moves whenever either side is
optimized, and the batched path's wall time has a trajectory in the
end-to-end benchmark (``sweep_105``, ``service_cold``).

With ``--inject-crash``, the pool worker that first claims the first
timing-grid point is killed mid-flight (``os._exit``, through the claim
loop's one fault hook) — the point must be reclaimed and retried
without being lost, proving the queue's recovery path in CI rather
than only in unit tests.

Writes a JSON artifact (``--stats-out``) with the timings, the
speedup, and the disk caches' footprint + per-pass hit counts.

Usage::

    python benchmarks/sweep_gate.py [--workers 2] [--min-speedup 2.0]
                                    [--cache-dir DIR] [--stats-out F]
                                    [--inject-crash] [--verbose]

Exits 0 when every gate holds, 1 otherwise.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from repro.core.diskcache import CompileCache  # noqa: E402
from repro.jobqueue.worker import _FAULT_ENV  # noqa: E402
from repro.model import SP2  # noqa: E402
from repro.programs import (  # noqa: E402
    appsp_source,
    dgefa_source,
    tomcatv_source,
)
from repro.records import comparable  # noqa: E402
from repro.sweep import SweepSpec, run_sweep  # noqa: E402

#: cold/warm pairs of the timing grid whose medians are compared
TIMING_PAIRS = 5

#: seven machine-parameter ablations around the SP2 baseline — the
#: lane axis of the batched grid (3 procs x 7 machines = 21 points)
MACHINE_VARIANTS = (
    SP2,
    dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6),
    dataclasses.replace(SP2, name="slow-net", alpha=200e-6, beta=1.0 / 5e6),
    dataclasses.replace(SP2, name="fast-cpu", flop_time=1.0 / 500e6),
    dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6),
    dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6),
    dataclasses.replace(SP2, name="zero-overhead", stmt_overhead=0.0),
)


def build_jobs(procs, strategies, mode):
    spec = SweepSpec(
        programs={
            "tomcatv": lambda p: tomcatv_source(n=8, niter=1, procs=p),
            "dgefa": lambda p: dgefa_source(n=8, procs=p),
        },
        procs=tuple(procs),
        axes={"strategy": tuple(strategies)},
        mode=mode,
    )
    return spec.jobs()


def run_pass(jobs, workers, cache_root):
    cache = CompileCache(cache_root)
    started = time.perf_counter()
    results = run_sweep(
        jobs, workers=workers, cache=cache, timeout=120, retries=2,
    )
    elapsed = time.perf_counter() - started
    return results, elapsed, cache


def check_pass_pair(name, jobs, cold, warm, failures):
    """Shared cold/warm invariants: nothing lost, nothing failed, cold
    all-miss, warm all-hit."""
    for tag, results in (("cold", cold), ("warm", warm)):
        if len(results) != len(jobs):
            failures.append(f"{name} {tag}: grid points were lost")
        bad = [r for r in results if not r.ok]
        if bad:
            failures.append(f"{name} {tag}: {len(bad)} failed grid "
                            f"point(s), first: {bad[0].error}")
    cold_hits = [r.label for r in cold if r.cache_hit]
    if cold_hits:
        failures.append(f"{name}: cold pass had cache hits: {cold_hits[:3]}")
    warm_misses = [r.label for r in warm if not r.cache_hit]
    if warm_misses:
        failures.append(f"{name}: warm pass had cache misses: "
                        f"{warm_misses[:3]}")


def stats_payload(results) -> bytes:
    """The deterministic record the stats grid is byte-compared on:
    the shared repro.records schema with volatile provenance fields
    (worker, timings, cache hits) stripped."""
    return json.dumps(
        [comparable(r.as_dict()) for r in results], sort_keys=True
    ).encode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--procs", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--stats-out", default=None)
    parser.add_argument("--inject-crash", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    base_root = pathlib.Path(
        args.cache_dir or tempfile.mkdtemp(prefix="repro-sweep-gate-")
    )
    if base_root.exists():
        shutil.rmtree(base_root)
    failures = []

    # -- timing grid: compile mode, warm must be >= min-speedup faster --
    timing_jobs = build_jobs(
        args.procs, ("selected", "consumer", "producer"), "compile"
    )
    print(f"timing grid: {len(timing_jobs)} compile-mode points, "
          f"{args.workers} workers")
    if args.inject_crash:
        # inherited by the pool's children; both passes pay one crash
        os.environ[_FAULT_ENV] = (
            f"exit@evaluating:label={timing_jobs[0].label}:attempts=1"
        )
    # medians of cold/warm pairs, alternated, each pair in a fresh
    # cache root: one pair's ratio straddles the gate on a 2-core host
    colds, warms = [], []
    for pair in range(TIMING_PAIRS):
        root = base_root / f"timing-{pair}"
        cold_pass, t_cold, _ = run_pass(timing_jobs, args.workers, root)
        warm_pass, t_warm, pair_cache = run_pass(timing_jobs, args.workers, root)
        # (the injected crash hits the first pair's passes only)
        os.environ.pop(_FAULT_ENV, None)
        check_pass_pair(f"timing pair {pair}", timing_jobs, cold_pass,
                        warm_pass, failures)
        colds.append(t_cold)
        warms.append(t_warm)
        if pair == 0:
            cold, warm, timing_cache = cold_pass, warm_pass, pair_cache
    t_cold, t_warm = statistics.median(colds), statistics.median(warms)

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    print(f"cold {t_cold:.3f}s, warm {t_warm:.3f}s (medians of "
          f"{TIMING_PAIRS} pairs) -> speedup {speedup:.2f}x "
          f"(gate: >= {args.min_speedup:.1f}x)")
    if speedup < args.min_speedup:
        failures.append(f"warm sweep only {speedup:.2f}x faster "
                        f"(need >= {args.min_speedup:.1f}x)")

    if args.inject_crash and not failures:
        crashed = cold[0]
        if crashed.attempts < 2:
            failures.append("injected crash was not retried "
                            f"(attempts={crashed.attempts})")
        else:
            print(f"injected crash recovered: {crashed.label} ok after "
                  f"{crashed.attempts} attempts on {crashed.worker}")

    # -- stats grid: simulate mode, canonical stats byte-identical -----
    stats_jobs = build_jobs((2, 4), ("selected", "consumer"), "simulate")
    print(f"stats grid: {len(stats_jobs)} simulate-mode points")
    s_cold, _, _ = run_pass(stats_jobs, args.workers, base_root / "stats")
    s_warm, _, stats_cache = run_pass(
        stats_jobs, args.workers, base_root / "stats"
    )
    check_pass_pair("stats", stats_jobs, s_cold, s_warm, failures)
    if stats_payload(s_cold) != stats_payload(s_warm):
        failures.append("canonical stats differ between cold and warm passes")
    else:
        print(f"canonical stats byte-identical across "
              f"{len(stats_jobs)} points")

    # -- batched grid: machine-parameter lanes, one sim per batch ------
    # 3 procs x 7 machine variants; the batched evaluator should pay
    # ~3 compiles + 3 lane-vector simulations where the pool path pays
    # 21 full compile+simulate jobs.  Both legs run cold (fresh cache
    # roots), and their measurement payloads must be byte-identical.
    batched_spec = SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=24, niter=1, procs=p)},
        procs=(2, 4, 8),
        axes={"machine": MACHINE_VARIANTS},
        mode="simulate",
    )
    batched_jobs = batched_spec.jobs()
    print(f"batched grid: {len(batched_jobs)} simulate-mode points "
          f"({len(batched_spec.procs)} procs x {len(MACHINE_VARIANTS)} "
          f"machines)")
    pool_cache = CompileCache(base_root / "batched-pool")
    started = time.perf_counter()
    b_pool = run_sweep(
        batched_jobs, workers=args.workers, cache=pool_cache,
        timeout=120, retries=2, mode="pool",
    )
    t_pool = time.perf_counter() - started
    batched_cache = CompileCache(base_root / "batched")
    started = time.perf_counter()
    b_fast = run_sweep(
        batched_jobs, workers=args.workers, cache=batched_cache,
        timeout=120, retries=2,
    )
    t_batched = time.perf_counter() - started

    for tag, results in (("pool", b_pool), ("batched", b_fast)):
        if len(results) != len(batched_jobs):
            failures.append(f"batched grid {tag}: grid points were lost")
        bad = [r for r in results if not r.ok]
        if bad:
            failures.append(f"batched grid {tag}: {len(bad)} failed "
                            f"point(s), first: {bad[0].error}")
    off_path = [r.label for r in b_fast if r.worker != "batched"]
    if off_path:
        failures.append(f"batched grid: points fell off the fast path: "
                        f"{off_path[:3]}")
    if stats_payload(b_pool) != stats_payload(b_fast):
        failures.append("batched grid: canonical stats differ from the "
                        "pool path")
    else:
        print(f"batched canonical stats byte-identical across "
              f"{len(batched_jobs)} points")
    batched_speedup = t_pool / t_batched if t_batched > 0 else float("inf")
    print(f"pool {t_pool:.3f}s, batched {t_batched:.3f}s -> speedup "
          f"{batched_speedup:.2f}x (recorded, not gated)")

    # -- procs grid: the procs axis itself as a lane dimension ---------
    # 7 processor counts x 3 machines over three paper kernels; the
    # batched evaluator fuses each program's 21 points into one batch
    # of 7 procs sub-groups (one compile + sub-simulation each) and one
    # fused extraction, where the pool path pays 21 full jobs.
    procs_values = (1, 2, 3, 4, 6, 8, 12)
    procs_machines = MACHINE_VARIANTS[:5]
    procs_spec = SweepSpec(
        programs={
            "tomcatv": lambda p: tomcatv_source(n=16, niter=1, procs=p),
            "dgefa": lambda p: dgefa_source(n=12, procs=p),
            "appsp": lambda p: appsp_source(
                nx=6, ny=6, nz=6, niter=1, procs=p
            ),
        },
        procs=procs_values,
        axes={"machine": procs_machines},
        mode="simulate",
    )
    procs_jobs = procs_spec.jobs()
    print(f"procs grid: {len(procs_jobs)} simulate-mode points "
          f"({len(procs_values)} procs x {len(procs_machines)} machines "
          f"x {len(procs_spec.programs)} programs)")
    started = time.perf_counter()
    p_pool = run_sweep(
        procs_jobs, workers=args.workers,
        cache=CompileCache(base_root / "procs-pool"),
        timeout=120, retries=2, mode="pool",
    )
    t_procs_pool = time.perf_counter() - started
    started = time.perf_counter()
    p_fast = run_sweep(
        procs_jobs, workers=args.workers,
        cache=CompileCache(base_root / "procs-batched"),
        timeout=120, retries=2,
    )
    t_procs_batched = time.perf_counter() - started

    for tag, results in (("pool", p_pool), ("batched", p_fast)):
        if len(results) != len(procs_jobs):
            failures.append(f"procs grid {tag}: grid points were lost")
        bad = [r for r in results if not r.ok]
        if bad:
            failures.append(f"procs grid {tag}: {len(bad)} failed "
                            f"point(s), first: {bad[0].error}")
    off_path = [r.label for r in p_fast if r.worker != "batched"]
    if off_path:
        failures.append(f"procs grid: points fell off the fast path: "
                        f"{off_path[:3]}")
    unfused = [r.label for r in p_fast
               if r.procs_lanes != len(procs_values)]
    if unfused:
        failures.append(
            f"procs grid: points whose batch did not fuse all "
            f"{len(procs_values)} procs sub-groups: {unfused[:3]}"
        )
    if stats_payload(p_pool) != stats_payload(p_fast):
        failures.append("procs grid: canonical stats differ from the "
                        "pool path")
    else:
        print(f"procs-lane canonical stats byte-identical across "
              f"{len(procs_jobs)} points")
    procs_speedup = (
        t_procs_pool / t_procs_batched
        if t_procs_batched > 0 else float("inf")
    )
    print(f"pool {t_procs_pool:.3f}s, batched {t_procs_batched:.3f}s -> "
          f"speedup {procs_speedup:.2f}x (recorded, not gated)")

    if args.verbose:
        for r in warm + s_warm + b_fast + p_fast:
            print(f"  {r.label:45s} {r.mode:8s} hit={r.cache_hit} "
                  f"worker={r.worker} {r.duration_s * 1e3:7.1f} ms")

    artifact = {
        "timing_jobs": len(timing_jobs),
        "stats_jobs": len(stats_jobs),
        "workers": args.workers,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "cold_pairs_seconds": colds,
        "warm_pairs_seconds": warms,
        "speedup": t_cold / t_warm if t_warm > 0 else None,
        "min_speedup": args.min_speedup,
        "inject_crash": args.inject_crash,
        # hit counts come from the result records: pool workers hold
        # their own CompileCache handles, so parent-side session
        # counters would read zero under a multi-worker sweep
        "timing_warm_hits": sum(r.cache_hit for r in warm),
        "stats_warm_hits": sum(r.cache_hit for r in s_warm),
        "timing_cache": timing_cache.stats_dict(),
        "stats_cache": stats_cache.stats_dict(),
        "batched_jobs": len(batched_jobs),
        "batched_machine_variants": len(MACHINE_VARIANTS),
        "batched_pool_seconds": t_pool,
        "batched_seconds": t_batched,
        "batched_speedup": batched_speedup,
        "batched_compile_dedups": sum(r.compile_dedup for r in b_fast),
        "procs_jobs": len(procs_jobs),
        "procs_values": list(procs_values),
        "procs_machine_variants": len(procs_machines),
        "procs_pool_seconds": t_procs_pool,
        "procs_batched_seconds": t_procs_batched,
        "procs_speedup": procs_speedup,
        "procs_compile_dedups": sum(r.compile_dedup for r in p_fast),
        "procs_lanes_fused": sum(r.procs_lanes > 1 for r in p_fast),
        "failures": failures,
    }
    if args.stats_out:
        out = pathlib.Path(args.stats_out)
        out.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
        print(f"wrote cache stats artifact to {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("sweep gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
