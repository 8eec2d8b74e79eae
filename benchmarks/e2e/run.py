#!/usr/bin/env python3
"""The end-to-end benchmark: six user journeys, every layer timed from
outside.  See README.md beside this file.

Two ways to run it, both from the root of a checkout:

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line of stdout, the JSON
object the benchmark contract asks for (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--smoke] [--check-repeat] [--out FILE]

runs every workload (or the named ones), untraced then traced, prints
every metric by name with its unit, and exits non-zero when an
operation failed, an output was wrong, or (``--check-repeat``) two
sets of runs of the same code disagree.

Closed loop, one client: workloads run one after another, each in
fresh child processes (child.py), never two at once.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
MARK = "@@e2e "

#: fresh processes per untraced measurement: set-up is paid and timed in
#: each, and the measuring time is split between them, so one process's
#: memory layout cannot bias a run
PROCESSES = 3
#: points the scalar-charging oracle re-evaluates in each timed process
#: (the traced pass re-evaluates the whole grid)
ORACLE_POINTS = 4
#: a child that has not finished by then is killed (the contract allows
#: a run 180 s)
CHILD_TIMEOUT = 170.0

_serial = itertools.count()


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spawn(workload: str, seed: int, phase: str, smoke: bool, **options) -> dict:
    """Run one child to completion and return its ``result`` message,
    plus ``setup_s``: spawn to the child's ``ready``, less the time the
    child spent calibrating, and ``setup_slowdown``: the host slowdown
    it measured meanwhile."""
    scratch = OUT / f"tmp-{os.getpid()}-{next(_serial)}"
    scratch.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # no user cache or saved calibration may change a tier decision
        REPRO_CACHE_DIR=str(scratch / "cache"),
        REPRO_SERVICE_DIR=str(scratch / "service"),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--phase", phase,
        "--scratch", str(scratch),
    ]
    for name, value in options.items():
        command += [f"--{name.replace('_', '-')}", str(value)]
    if smoke:
        command.append("--smoke")
    started = time.time()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    messages = {}
    for line in stdout.splitlines():
        if line.startswith(MARK):
            message = json.loads(line[len(MARK):])
            messages[message["event"]] = message
    if child.returncode != 0 or "result" not in messages:
        raise SystemExit(
            f"{workload}: {phase} child exited {child.returncode} "
            "without a result"
        )
    result = messages["result"]
    if "ready" in messages:
        ready = messages["ready"]
        result["setup_s"] = ready["at"] - started - ready["calibrating_s"]
        result["setup_slowdown"] = statistics.median(ready["slowdowns"])
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload: ``{"correct", "attempted", "failed",
    "metrics", ...}`` with the end-to-end metrics (``trace`` false) or
    the per-layer metrics (``trace`` true)."""
    if trace:
        children = [
            spawn(
                workload, seed, "traced", smoke,
                budget=0 if smoke else seconds,
                min_ops=1 if smoke else 2,
                trace_out=OUT / f"trace_{workload}.json",
            ),
            spawn(workload, seed, "profile", smoke),
        ]
        metrics = {**children[0]["metrics"], **children[1]["metrics"]}
        extra = {
            "traced_ops": children[0]["traced_ops"],
            "trace": children[0]["trace"],
            "versions": children[1]["versions"],
        }
    else:
        processes = 1 if smoke else PROCESSES
        children = [
            spawn(
                workload, seed, "timed", smoke,
                budget=0 if smoke else seconds / processes,
                min_ops=3 if smoke else 1,
                oracle_points=ORACLE_POINTS,
                salt=salt,
            )
            for salt in range(processes)
        ]
        samples = sorted(s for child in children for s in child["samples"])
        # times are divided by the host slowdown measured alongside them
        # (hostspeed.py): each set-up by its own child's, the operations
        # by the whole run's
        slowdown = statistics.median(
            s for child in children for s in child["slowdowns"]
        )
        raw = {"setup_s": statistics.median(c["setup_s"] for c in children)}
        metrics = {
            "setup_s": statistics.median(
                c["setup_s"] / c["setup_slowdown"] for c in children
            ),
            "peak_rss_mb": statistics.median(c["maxrss_kb"] for c in children) / 1024,
        }
        if samples:
            raw["wall_s"] = statistics.median(samples)
            metrics["wall_s"] = raw["wall_s"] / slowdown
        extra = {"samples": samples, "raw": raw, "host_slowdown": slowdown}
    digests = {c.get("facts", {}).get("stats_digest") for c in children} - {None}
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    if len(digests) > 1:
        failed += 1
        problems.append("stats_digest differs between processes of one run")
    return {
        "correct": failed == 0,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "stats_digest": digests.pop() if len(digests) == 1 else None,
        **extra,
    }


def contract_line(run: dict, declared: list[dict], layers: bool) -> str:
    """The contract's last line: exactly ``correct``, ``attempted``,
    ``failed`` and ``metrics``, the latter holding every declared
    metric.  A layer that does no work on this workload reads 0; a
    missing end-to-end metric makes the run incorrect."""
    names = {entry["name"] for entry in declared}
    undeclared = sorted(set(run["metrics"]) - names)
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    correct = run["correct"]
    metrics = {}
    for entry in declared:
        value = run["metrics"].get(entry["name"])
        if value is None:
            correct = correct and layers
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": correct,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------------
# the whole set, for people
# ---------------------------------------------------------------------------


def quartiles(samples: list[float]) -> str:
    if len(samples) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    text = (
        f"q1 {q1:.4f} q3 {q3:.4f} min {samples[0]:.4f} "
        f"max {samples[-1]:.4f} n {len(samples)}"
    )
    if len(samples) > 200:
        # the highest percentile with ten samples beyond it
        text += f" p95 {samples[int(len(samples) * 0.95)]:.4f}"
    return text


def fingerprint(versions: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **versions,
    }


def run_set(names: list[str], seed: int, seconds: float, smoke: bool, contract: dict) -> dict:
    """Every named workload, untraced then traced; prints as it goes."""
    units = {
        entry["name"]: entry["unit"]
        for entry in contract["end_to_end"] + contract["per_layer"]
    }
    workloads = {}
    for name in names:
        timed = measure(name, seed, seconds, False, smoke)
        layers = measure(name, seed, seconds, True, smoke)
        attempted = timed["attempted"] + layers["attempted"]
        failed = timed["failed"] + layers["failed"]
        if timed["stats_digest"] != layers["stats_digest"]:
            failed += 1
            layers["problems"].append("stats_digest differs between passes")
        end_to_end = dict(timed["metrics"], fail_frac=failed / attempted)
        print(f"\n== {name}  seed {seed}  stats_digest {timed['stats_digest']}")
        for metric, value in end_to_end.items():
            print(f"  {metric:34s} {value:14.6g} {units.get(metric, 'ratio')}")
        print(
            f"  as timed, host slowdown {timed['host_slowdown']:.3f}: "
            f"setup_s {timed['raw']['setup_s']:.4f}, wall_s "
            f"{timed['raw'].get('wall_s', 0):.4f} {quartiles(timed['samples'])}"
        )
        print(f"  -- per layer, {layers['traced_ops']} traced operations, {layers['trace']}")
        for metric, value in sorted(layers["metrics"].items()):
            if metric not in units:
                raise SystemExit(f"metric missing from BENCHMARK.json: {metric}")
            print(f"  {metric:34s} {value:14.6g} {units[metric]}")
        for problem in timed["problems"] + layers["problems"]:
            print(f"  !! {problem}")
        workloads[name] = {
            "end_to_end": end_to_end,
            "per_layer": layers["metrics"],
            "stats_digest": timed["stats_digest"],
            "samples": timed["samples"],
            "raw": timed["raw"],
            "host_slowdown": timed["host_slowdown"],
            "attempted": attempted,
            "failed": failed,
            "host": fingerprint(layers["versions"]),
        }
    on_grid = [n for n in ("sweep_105", "service_cold", "service_warm") if n in workloads]
    if len({workloads[n]["stats_digest"] for n in on_grid}) > 1:
        print("!! the sweep and the service disagree on the grid's clocks and traffic")
        workloads[on_grid[0]]["failed"] += 1
    return workloads


#: per-layer values that must repeat bit for bit between two invocations
EXACT = (
    "core.compile_py_calls",
    "codegen.reference_py_calls",
    "machine.simulate_py_calls",
    "machine.slab_instances",
    "machine.interp_instances",
    "machine.slab_coverage",
    "machine.messages",
    "machine.elements",
    "machine.virtual_elapsed_s",
    "sweep.distinct_compiles",
    "sweep.compile_dedup",
    "sweep.batches",
    "sweep.procs_lanes",
    "sweep.fallback_points",
    "service.shards",
    "service.points_done",
    "service.points_reused",
    "catalog.evaluations_max",
)


def compare_sets(first: dict, second: dict, contract: dict) -> list[str]:
    """Where two sets of runs of the same code disagree by more than
    the benchmark's own bounds; prints the table of both."""
    bounds = {e["name"]: e["bound"] for e in contract["end_to_end"]}
    disagreements = []
    print(f"\n{'workload':14s} {'metric':12s} {'first':>12s} {'second':>12s} {'change':>8s} {'bound':>6s}")
    for name in first:
        for metric, bound in bounds.items():
            a = first[name]["end_to_end"].get(metric)
            b = second[name]["end_to_end"].get(metric)
            if a is None or b is None:  # every timed operation failed
                disagreements.append(f"{name} {metric}: not measured")
                continue
            change = abs(b - a) / a
            print(f"{name:14s} {metric:12s} {a:12.5g} {b:12.5g} {change:8.1%} {bound:6.0%}")
            if change > bound:
                disagreements.append(f"{name} {metric}: {a:.5g} vs {b:.5g}")
        if first[name]["stats_digest"] != second[name]["stats_digest"]:
            disagreements.append(f"{name} stats_digest differs")
        for metric in EXACT:
            a = first[name]["per_layer"].get(metric)
            b = second[name]["per_layer"].get(metric)
            if a != b:
                disagreements.append(f"{name} {metric}: {a} vs {b}")
    return disagreements


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    contract = load_contract()
    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro beside the benchmark: nothing to measure", file=sys.stderr)
        return 2
    known = [w["name"] for w in contract["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {known}")

    if args.trace is not None:
        # one measurement for the driver
        if len(names) != 1 or args.seconds is None:
            parser.error("--trace needs one --workload and --seconds")
        run = measure(names[0], args.seed, args.seconds, bool(args.trace), args.smoke)
        for problem in run["problems"]:
            print(f"!! {problem}")
        print(f"stats_digest {run['stats_digest']}")
        if not args.trace:
            print(f"raw {json.dumps(run['raw'])} host_slowdown {run['host_slowdown']:.4f}")
        declared = contract["per_layer" if args.trace else "end_to_end"]
        print(contract_line(run, declared, bool(args.trace)))
        return 0

    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    sets = [run_set(names, args.seed, seconds, args.smoke, contract)]
    problems = []
    if args.check_repeat:
        sets.append(run_set(names, args.seed, seconds, args.smoke, contract))
        problems = compare_sets(sets[0], sets[1], contract)
    for index, workloads in enumerate(sets):
        problems += [
            f"set {index + 1}: {name}: {w['failed']} of {w['attempted']} operations failed"
            for name, w in workloads.items()
            if w["failed"]
        ]
    if args.out:
        args.out.write_text(
            json.dumps({"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "sets": sets}, indent=1) + "\n",
            encoding="utf-8",
        )
    for problem in problems:
        print(f"!! {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
