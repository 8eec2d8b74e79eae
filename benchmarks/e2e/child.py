"""One workload in one fresh process (started by run.py, never by hand).

``--phase timed``   set up, then time untraced operations for
                    ``--budget`` seconds (at least ``--min-ops``);
``--phase traced``  set up, then alternate untraced and traced
                    operations, run the standalone probes and the
                    whole-grid oracle, write the Chrome trace;
``--phase profile`` no set-up: ``cProfile`` call counts of first calls.

Protocol: lines on stdout that start with ``@@e2e `` carry one JSON
object each — ``ready`` when set-up is done (its ``at`` is the
``time.time()`` run.py subtracts its own spawn time from), then
``result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

MARK = "@@e2e "


def emit(event: str, **payload) -> None:
    print(MARK + json.dumps({"event": event, **payload}), flush=True)


class Tally:
    """Operations attempted and failed so far, warm-ups included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: facts of every operation that verified, in order
        self.facts: list[dict] = []
        self.host = HostSpeed()

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def attempt(self, workload, spans=None, op_id: int = 0):
        """One operation and its verification; (wall, cpu) seconds, or
        None when it failed."""
        self.host.before_operation()
        gc.collect()
        self.attempted += 1
        try:
            cpu = time.process_time()
            started = time.perf_counter()
            if spans is None:
                raw = workload.op()
            else:
                with spans.operation(op_id):
                    raw = workload.op(spans)
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
            self.host.after_operation(wall)
            problems, facts = workload.verify(raw)
        except Exception:
            problems = traceback.format_exc().strip().splitlines()[-3:]
        if problems:
            self.fail(problems)
            return None
        self.facts.append(facts)
        return wall, cpu

    def check(self, what: str, fn) -> dict:
        """An untimed check or probe, counted as one operation."""
        self.attempted += 1
        try:
            found = fn()
        except Exception:
            found = traceback.format_exc().strip().splitlines()[-3:]
        if isinstance(found, list):
            if found:
                self.fail([f"{what}: {line}" for line in found])
            return {}
        return found

    def merged_facts(self) -> dict:
        """Per fact: the value every operation agreed on, else the
        median (host timings read from returned objects)."""
        merged = {}
        for name in self.facts[-1] if self.facts else ():
            values = [f[name] for f in self.facts if name in f]
            if all(v == values[0] for v in values):
                merged[name] = values[0]
            elif isinstance(values[0], str):
                self.fail([f"{name} differs between operations of one run"])
            else:
                merged[name] = statistics.median(values)
        return merged

    def result(self, **payload) -> None:
        self.host.calibrate()  # bracket the last operation too
        emit(
            "result",
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems[:8],
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            slowdowns=self.host.slowdowns,
            **payload,
        )


def set_up(workload, tally: Tally) -> None:
    workload.prime()
    for _ in range(workload.warmups):
        tally.attempt(workload)
    tally.host.calibrate()
    emit(
        "ready",
        at=time.time(),
        calibrating_s=tally.host.spent,
        slowdowns=list(tally.host.slowdowns),
    )


def run_oracle(workload, tally: Tally, args) -> None:
    tally.check(
        "oracle",
        lambda: workload.oracle(args.oracle_points, args.seed * 1000 + args.salt),
    )


def timed(workload, args) -> None:
    tally = Tally()
    set_up(workload, tally)
    samples = []
    started = time.perf_counter()
    done = 0
    while done < args.min_ops or time.perf_counter() - started < args.budget:
        measured = tally.attempt(workload)
        if measured is not None:
            samples.append(measured[0])
        done += 1
    run_oracle(workload, tally, args)
    tally.result(samples=samples, facts=tally.merged_facts())


def traced(workload, args, trace_path: Path) -> None:
    from repro.obs import validate_chrome_trace
    from spans import ROOT, Spans

    tally = Tally()
    set_up(workload, tally)
    tally.facts.clear()
    spans = Spans()
    plain, decomposed, waits = [], [], []
    started = time.perf_counter()
    op_id = 0
    while op_id < args.min_ops or time.perf_counter() - started < args.budget:
        measured = tally.attempt(workload)
        if measured is not None:
            plain.append(measured[0])
        measured = tally.attempt(workload, spans, op_id)
        if measured is not None:
            decomposed.append(measured[0])
            waits.append(measured[0] - measured[1])
        op_id += 1
    metrics = tally.merged_facts()
    digest = metrics.pop("stats_digest", None)
    metrics.update(tally.check("probes", lambda: workload.probes(spans)))
    run_oracle(workload, tally, args)

    # a span measured around a call wins over the same layer's own
    # report (core.compile_s: Session.compile vs PassManager.metrics)
    for name, seconds in spans.layer_seconds().items():
        if name != ROOT:
            metrics[f"{name}_s"] = seconds
    instances = metrics.get("machine.slab_instances", 0) + metrics.get(
        "machine.interp_instances", 0
    )
    for layer in ("codegen.reference", "machine.simulate"):
        if instances and metrics.get(f"{layer}_s"):
            metrics[f"{layer.split('.')[0]}.instances_per_s"] = (
                instances / metrics[f"{layer}_s"]
            )
    if "service.serve_s" in metrics:
        metrics["service.overhead_s"] = metrics["service.serve_s"] - metrics.get(
            "sweep.run_s", 0.0
        )
        metrics["service.io_wait_s"] = statistics.median(waits) if waits else 0.0
    metrics["bench.host_slowdown"] = statistics.median(tally.host.slowdowns)
    if plain and decomposed:
        metrics["bench.trace_overhead"] = statistics.median(
            decomposed
        ) / statistics.median(plain)
        metrics["bench.span_coverage"] = spans.coverage()

    trace = spans.to_chrome()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    invalid = validate_chrome_trace(trace)
    if invalid:
        tally.fail([f"trace: {line}" for line in invalid[:3]])
    tally.result(
        metrics=metrics,
        facts={"stats_digest": digest},
        traced_ops=len(decomposed),
        trace=str(trace_path),
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("timed", "traced", "profile"), required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--oracle-points", type=int, default=0)
    parser.add_argument("--salt", type=int, default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import numpy

    import repro
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.scratch)
    if args.phase == "timed":
        timed(workload, args)
    elif args.phase == "traced":
        traced(workload, args, args.trace_out)
    else:
        tally = Tally()
        counts = tally.check("profile", workload.profile)
        tally.result(
            metrics=counts,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "repro": repro.__version__,
            },
        )


if __name__ == "__main__":
    main()
