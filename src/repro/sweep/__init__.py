"""Experiment-grid sweeps over the compiler and simulator.

Declare a grid with :class:`SweepSpec`, run it with
:func:`run_sweep` (``mode="auto"|"pool"`` picks the
execution strategy), consume ordered :class:`SweepResult` records.
"""

from .batched import Batch, plan_batches
from .engine import execute_job, run_sweep
from .spec import MODES, SweepJob, SweepResult, SweepSpec

__all__ = [
    "Batch",
    "MODES",
    "SweepJob",
    "SweepResult",
    "SweepSpec",
    "execute_job",
    "plan_batches",
    "run_sweep",
]
