"""``repro.fuzz`` — the differential tier-parity fuzzer.

A seeded random program generator for the mini-HPF subset
(:mod:`~repro.fuzz.generator`), a differential harness that runs each
program through both engines, ``tier="auto"``,
pool-vs-batched sweeps, and the DetermineMapping-vs-replication
baseline (:mod:`~repro.fuzz.harness`), a greedy structural shrinker
for failing programs (:mod:`~repro.fuzz.shrink`), and the campaign
runner behind ``repro fuzz`` and the CI ``fuzz-smoke`` job
(:mod:`~repro.fuzz.runner`).

>>> from repro.fuzz import generate, check_program
>>> program = generate(seed=7)
>>> check_program(program, procs_list=(1, 3))
[]
"""

from .generator import GenConfig, generate
from .grammar import DistPlan, FuzzLoop, FuzzNest, FuzzProgram, FuzzStmt
from .harness import (
    Divergence,
    check_mapping,
    check_program,
    check_sequential,
    check_sweep,
    check_tiers,
)
from .runner import Finding, FuzzReport, run_campaign
from .shrink import shrink

__all__ = [
    "Divergence",
    "DistPlan",
    "Finding",
    "FuzzLoop",
    "FuzzNest",
    "FuzzProgram",
    "FuzzReport",
    "FuzzStmt",
    "GenConfig",
    "check_mapping",
    "check_program",
    "check_sequential",
    "check_sweep",
    "check_tiers",
    "generate",
    "run_campaign",
    "shrink",
]
