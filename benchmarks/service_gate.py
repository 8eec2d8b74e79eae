#!/usr/bin/env python
"""CI persistent-sweep-service gate.

Submits the batched-grid workload (21 simulate-mode points on TOMCATV:
3 processor counts × 7 machine-parameter variants) to a fresh service
directory as one durable job sharded across the grid's fusion groups,
then drives it with **two** ``repro serve`` worker subprocesses — and
kills one of them mid-run (the claim loop's one fault hook hard-exits
the process at a named protocol step — by default right after its
first point commit — simulating a kill -9).  The gate holds when:

* the job still completes: the surviving/replacement worker reclaims
  the dead owner's lease and drains the remaining points;
* the job's per-point results are **byte-identical** (shared
  ``repro.records`` schema, volatile provenance fields stripped) to a
  direct serial ``run_sweep`` of the same grid (the default
  ``mode="auto"``, which fuses it into one batch);
* the catalog's audit shows **each grid point evaluated exactly
  once** — completed points were reused from durable state, never
  recomputed (commit-level exactly-once; only uncommitted in-flight
  work may repeat, and the audit counts it when it does);
* a resubmission of the same grid is served entirely from the catalog
  (all points ``reused``, zero new evaluations);
* the service directory holds its one database, ``queue.sqlite``
  (queue and catalog tables, with its ``-wal``/``-shm`` files), and
  ``cache/``, nothing else;
* that database lists no ``results`` table: a result's one stored
  copy is its ``points`` row.

Writes a JSON artifact (``--stats-out``) with the queue/catalog
footprint, the queue's bytes per point after the cold and the warm
round trip (``queue_bytes_per_point``), the service directory's file
list, per-worker shard counts, and the kill diagnostics.

Usage::

    python benchmarks/service_gate.py [--fault exit@committed]
                                      [--service-dir DIR] [--stats-out F]
                                      [--verbose]

Exits 0 when every gate holds, 1 otherwise.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from repro.jobqueue import FAULT_EXIT_CODE  # noqa: E402
from repro.jobqueue.worker import _FAULT_ENV  # noqa: E402
from repro.records import comparable  # noqa: E402
from repro.service import SweepService  # noqa: E402
from repro.sweep import SweepSpec, run_sweep  # noqa: E402

from sweep_gate import MACHINE_VARIANTS  # noqa: E402

#: everything a service directory may hold
SERVICE_FILES = {
    "queue.sqlite", "queue.sqlite-wal", "queue.sqlite-shm", "cache",
}

_SERVE_SNIPPET = """
import sys
from repro.service import SweepService

service = SweepService(sys.argv[1], lease_ttl=30.0)
processed = service.serve_forever(once=True)
print(f"worker processed {processed} shard(s)")
"""


def build_spec() -> SweepSpec:
    from repro.programs import tomcatv_source

    return SweepSpec(
        programs={
            "tomcatv": lambda p: tomcatv_source(n=8, niter=1, procs=p)
        },
        procs=(2, 4, 8),
        axes={"machine": MACHINE_VARIANTS},
        mode="simulate",
    )


def spawn_worker(service_dir, fault=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = env.get("PYTHONHASHSEED", "0")
    env.pop(_FAULT_ENV, None)
    if fault is not None:
        env[_FAULT_ENV] = fault
    return subprocess.Popen(
        [sys.executable, "-c", _SERVE_SNIPPET, str(service_dir)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def queue_bytes(service) -> int:
    """Bytes of the service's ``queue.sqlite`` with its write-ahead log
    checkpointed into it (the log is empty afterwards)."""
    service.queue.conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    return (service.root / "queue.sqlite").stat().st_size


def canon(results) -> bytes:
    return json.dumps(
        [comparable(r.as_dict()) for r in results], sort_keys=True
    ).encode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fault", default="exit@committed", metavar="SPEC",
        help="the doomed worker's fault, ACTION@STEP[:label=L][:attempts=N] "
        "(default: exit@committed — dies after its first point commit)",
    )
    parser.add_argument("--service-dir", default=None)
    parser.add_argument("--stats-out", default=None, metavar="F")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    scratch = None
    if args.service_dir:
        service_dir = pathlib.Path(args.service_dir)
    else:
        scratch = tempfile.mkdtemp(prefix="repro-service-gate-")
        service_dir = pathlib.Path(scratch) / "svc"

    failures: list[str] = []
    stats: dict = {"fault": args.fault}
    spec = build_spec()
    jobs = spec.jobs()
    print(f"service grid: {len(jobs)} simulate-mode points "
          f"(3 procs x {len(MACHINE_VARIANTS)} machines)")

    try:
        # the reference leg: direct serial batched sweep, no service
        started = time.perf_counter()
        reference = run_sweep(jobs, workers=0)
        stats["direct_batched_s"] = round(time.perf_counter() - started, 3)
        if not all(r.ok for r in reference):
            failures.append("direct batched reference sweep had failures")

        # submit once, sharded per point for maximal kill granularity
        client = SweepService(service_dir)
        handle = client.submit(spec, name="service-gate", shards=len(jobs))
        stats["shards"] = handle.poll().n_shards

        started = time.perf_counter()
        doomed = spawn_worker(service_dir, fault=args.fault)
        survivor = spawn_worker(service_dir)
        doomed_out, doomed_err = doomed.communicate(timeout=300)
        if doomed.returncode != FAULT_EXIT_CODE:
            failures.append(
                f"doomed worker exited {doomed.returncode}, expected "
                f"injected kill {FAULT_EXIT_CODE}: {doomed_err.strip()}"
            )
        else:
            print(f"killed worker pid {doomed.pid} ({args.fault})")
        survivor_out, survivor_err = survivor.communicate(timeout=300)
        if survivor.returncode != 0:
            failures.append(
                f"surviving worker failed: {survivor_err.strip()}"
            )
        # the dead pid's lease is reclaimable immediately; one more
        # drain pass picks up anything the survivor exited before
        replacement = spawn_worker(service_dir)
        replacement_out, _ = replacement.communicate(timeout=300)
        stats["service_elapsed_s"] = round(time.perf_counter() - started, 3)
        cold_bytes = queue_bytes(client)
        if args.verbose:
            for tag, out in (("doomed", doomed_out),
                             ("survivor", survivor_out),
                             ("replacement", replacement_out)):
                print(f"  {tag}: {out.strip()}")

        status = handle.poll()
        stats["job"] = status.as_dict()
        if status.state != "done":
            failures.append(
                f"job is {status.state} after worker death "
                f"({status.done}/{status.n_points} points)"
            )
        else:
            results = handle.result(timeout=60)
            print(f"job completed: {status.done}/{status.n_points} points "
                  f"across {status.n_shards} shards despite the kill")
            if canon(results) != canon(reference):
                failures.append(
                    "service results diverge from the direct batched sweep"
                )
            else:
                print(f"canonical stats byte-identical to the direct "
                      f"batched sweep across {len(results)} points")

        evaluations = [client.catalog.evaluations(job) for job in jobs]
        stats["evaluations"] = evaluations
        over = [count for count in evaluations if count != 1]
        if over:
            failures.append(
                f"{len(over)} grid point(s) not evaluated exactly once: "
                f"{sorted(set(evaluations))}"
            )
        else:
            print("catalog audit: every grid point evaluated exactly once")

        # warm resubmission: all catalog, zero recomputation
        second = client.submit(spec, name="service-gate-warm")
        client.serve_forever(once=True)
        stats["queue_bytes_per_point"] = {
            "cold": round(cold_bytes / len(jobs), 1),
            "warm": round(
                (queue_bytes(client) - cold_bytes) / len(jobs), 1
            ),
        }
        warm_status = second.poll()
        stats["warm"] = warm_status.as_dict()
        if warm_status.reused != len(jobs):
            failures.append(
                f"warm resubmission recomputed points: "
                f"{warm_status.reused}/{len(jobs)} reused"
            )
        elif canon(second.result(timeout=60)) != canon(reference):
            failures.append("warm catalog results diverge from reference")
        else:
            print(f"warm resubmission served {warm_status.reused}/"
                  f"{len(jobs)} points from the catalog")

        stats["catalog"] = client.catalog.stats_dict()
        stats["queue_depth"] = client.queue.depth()
        tables = [
            row["name"]
            for row in client.queue.conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        stats["tables"] = sorted(tables)
        if "results" in tables:
            failures.append(
                "queue.sqlite has a results table: a result is stored "
                "twice"
            )
        else:
            print(f"one stored copy per result: "
                  f"{stats['queue_bytes_per_point']['cold']} queue bytes "
                  f"per point cold, "
                  f"{stats['queue_bytes_per_point']['warm']} warm")
        client.close()

        files = sorted(path.name for path in service_dir.iterdir())
        stats["service_dir_files"] = files
        stray = sorted(set(files) - SERVICE_FILES)
        if stray:
            failures.append(
                f"service directory holds more than queue.sqlite and "
                f"cache/: {stray}"
            )
        else:
            print(f"service directory holds {', '.join(files)}")
    finally:
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle_out:
            json.dump(stats, handle_out, indent=1, sort_keys=True,
                      default=str)
            handle_out.write("\n")
        print(f"wrote stats to {args.stats_out}")

    if failures:
        print()
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("service gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
