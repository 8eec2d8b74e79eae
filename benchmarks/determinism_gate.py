#!/usr/bin/env python
"""CI determinism gate.

Runs ``python -m repro run`` twice on the same program in two
*separate* processes — under two different ``PYTHONHASHSEED`` values,
so that set and string-keyed dict order differ between them — and
byte-compares the ``--stats-json`` output.  The payload
(``SPMDSimulator.canonical_stats``) keys per-event traffic on the
stable event ordinal, so two runs of the same source must be
byte-identical — any drift means communication charging picked up a
run-varying input again (the ``id(event)`` coalescing-key bug this
gate was built to catch) or orders its work by a hash.

Two legs: tomcatv (the stencil the gate was built on) and DGEFA, whose
update sweep fetches the pivot column inside every takeover — the
fetch-replay kernel, which groups its work in dicts keyed on tuples
that contain strings.  ``--procs 1`` runs both legs on one rank,
DGEFA's one-rank update nest (L04) included.

Usage::

    python benchmarks/determinism_gate.py [--n 33] [--niter 2]
                                          [--procs 8] [--verbose]

``--n`` and ``--niter`` size the tomcatv leg; ``--procs`` is both
legs' processor count.  DGEFA's size is fixed.

Exits 0 on byte-identical stats, 1 on mismatch (with a unified diff).
"""

import argparse
import difflib
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from repro.programs import dgefa_source, tomcatv_source  # noqa: E402

#: the two processes' ``PYTHONHASHSEED`` values: explicit and different
#: (0 would switch hash randomization off in both)
HASH_SEEDS = ("1", "2")

#: the DGEFA leg's size (at P = 4: 23 fetching takeovers, 824 replayed
#: elements)
DGEFA_N = 24


def run_once(
    program: pathlib.Path, procs: int, stats: pathlib.Path, hash_seed: str
) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            str(program),
            "--procs",
            str(procs),
            "--stats-json",
            str(stats),
        ],
        check=True,
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL if not VERBOSE else None,
    )


def compare(tmpdir: pathlib.Path, name: str, source: str, procs: int) -> bool:
    """One leg: two runs of ``source``, one per hash seed."""
    program = tmpdir / f"{name}.hpf"
    program.write_text(source)
    outputs = []
    for hash_seed in HASH_SEEDS:
        stats = tmpdir / f"{name}_hashseed{hash_seed}.json"
        run_once(program, procs, stats, hash_seed)
        outputs.append(stats.read_bytes())
    a, b = outputs
    if a == b:
        print(
            f"determinism gate PASSED: two {name} runs (procs={procs}, "
            f"PYTHONHASHSEED {' and '.join(HASH_SEEDS)}) produced "
            f"byte-identical stats ({len(a)} bytes)"
        )
        return True
    print(f"determinism gate FAILED: {name} stats differ between runs")
    diff = difflib.unified_diff(
        a.decode().splitlines(keepends=True),
        b.decode().splitlines(keepends=True),
        fromfile=f"hashseed{HASH_SEEDS[0]}/stats.json",
        tofile=f"hashseed{HASH_SEEDS[1]}/stats.json",
    )
    sys.stdout.writelines(diff)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=33, help="tomcatv grid size")
    parser.add_argument("--niter", type=int, default=2)
    parser.add_argument(
        "--procs", type=int, default=8, help="processor count of both legs"
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    global VERBOSE
    VERBOSE = args.verbose

    legs = [
        (
            "tomcatv",
            tomcatv_source(n=args.n, niter=args.niter, procs=args.procs),
            args.procs,
        ),
        ("dgefa", dgefa_source(n=DGEFA_N, procs=args.procs), args.procs),
    ]
    with tempfile.TemporaryDirectory(prefix="determinism-gate-") as tmp:
        # every leg runs, so one report shows every kernel that drifted
        passed = [compare(pathlib.Path(tmp), *leg) for leg in legs]
    return 0 if all(passed) else 1


VERBOSE = False

if __name__ == "__main__":
    raise SystemExit(main())
