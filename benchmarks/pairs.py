#!/usr/bin/env python3
"""Alternated parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 0-9

Section 8 of the choosing-metrics guide, once: both trees are byte-
compiled (``compileall``) and their ``benchmarks/e2e/out/`` cleared, so
neither side pays for stale bytecode or leftovers; then for every seed
the driver form

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds R --trace 0

runs in each tree, the side going first alternating from seed to seed;
``R`` is the ``run_seconds`` of the parent tree's ``BENCHMARK.json``, the
run length the benchmark itself uses, for both sides.
Every run is printed, then each side's median and quartiles per
end-to-end metric, the pairs the change won (ties count for neither),
``failed``, and whether the medians differ by more than the distance
between the parent's quartiles.  ``--trace 1`` prints the per-layer
metrics of the same pairs instead (one traced run a side is the usual).
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_of(text: str) -> list[int]:
    """``"0-9"`` or ``"0,3,20-22"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def prepare(tree: Path) -> None:
    if not (tree / "benchmarks" / "e2e" / "run.py").is_file():
        raise SystemExit(f"{tree}: no benchmarks/e2e/run.py")
    compileall.compile_dir(str(tree / "src"), quiet=1)
    shutil.rmtree(tree / "benchmarks" / "e2e" / "out", ignore_errors=True)


def run_seconds(parent: Path) -> float:
    """The run length the benchmark's contract sets, read at the parent."""
    return json.loads((parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The contract line of one driver-form run in ``tree``."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{tree}: run.py exited {done.returncode}\n{done.stdout}{done.stderr}"
        )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "failed": line["failed"],
        **{name: m["value"] for name, m in line["metrics"].items()},
    }


def spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", type=seeds_of)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        prepare(tree)
    seconds = run_seconds(trees["parent"])

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for turn, seed in enumerate(args.seeds):
        order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(trees[side], args.workload, seed, seconds, args.trace)
            runs[side].append(run)
            shown = " ".join(
                f"{name}={value:.6g}" for name, value in run.items() if value
            )
            print(f"{args.workload} seed {seed} {side:6s} {shown}", flush=True)

    metrics = [
        name for name in runs["parent"][0]
        if name != "failed" and any(r[name] for r in runs["parent"] + runs["change"])
    ]
    print(f"\n{args.workload}: {len(args.seeds)} pairs, seeds {args.seeds}")
    for name in metrics:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = spread(parent), spread(change)
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        delta = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "n/a"
        line = (
            f"  {name:30s} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  {delta}  "
            f"change lower in {lower}, higher in {higher} of {len(parent)}"
        )
        if len(parent) >= 4:  # fewer runs have no quartiles to speak of
            apart = abs(cmed - pmed) > pq3 - pq1
            line += (
                f"; medians {'apart by more than' if apart else 'within'} "
                f"the parent's interquartile distance"
            )
        print(line)
    for side, side_runs in runs.items():
        print(f"  failed ({side}): {sum(r['failed'] for r in side_runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
