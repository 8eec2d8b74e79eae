"""Lane-stacked machines: one simulation or estimate, many machine models.

The batched sweep evaluator (:mod:`repro.sweep.batched`) exploits a
structural fact of the simulator: machine parameters are *write-only*
during a run.  Values, validity masks, control flow, fetch schedules,
and tier decisions never read the clocks, so two grid points that
differ only in simulator parameters (alpha/beta/flop rate) execute the
exact same instruction stream — only the ``dt`` values charged to the
virtual clocks differ.

A :class:`VectorMachine` makes those ``dt`` values *vectors*: it stacks
the parameter fields of ``lanes`` scalar
:class:`~repro.model.MachineModel` instances into ``(lanes,)`` arrays
and inherits every pricing formula from
:class:`~repro.model.CostFormulas` — the same text the scalar model
runs, evaluated elementwise.  Over such a machine
:class:`~repro.machine.stats.Clocks` sees ``machine.lanes`` and keeps
``(lanes,)`` vectors per rank instead of floats.

Bitwise parity is by construction: IEEE-754 elementwise numpy ops in
one operation order produce, per lane, exactly the doubles the scalar
run produces (``np.add.accumulate`` is strictly sequential down the
instance axis; ``np.maximum`` agrees with ``max`` on non-NaN floats;
machine-independent quantities — trip counts, spans, element counts —
stay python scalars so no transcendental is re-evaluated in numpy).

The processor count is never a lane: it changes the compiled program
(mappings, executors, communication events), so the batched sweep runs
one sub-simulation and one estimate per grid shape, and every
collective here receives its span as a plain int.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..model import CostFormulas, MachineModel


class VectorMachine(CostFormulas):
    """``lanes`` machine models evaluated elementwise.

    Every parameter field is the ``(lanes,)`` float64 stack of the
    models' values, so each inherited cost method returns the
    ``(lanes,)`` vector of per-model costs and lane ``m`` is bitwise
    ``models[m]``'s answer.  The class defines no formula of its own.
    """

    def __init__(self, models: Sequence[MachineModel]):
        if not models:
            raise ValueError("VectorMachine needs at least one lane")
        self.models = tuple(models)
        self.lanes = len(self.models)
        self.name = f"vector[{','.join(m.name for m in self.models)}]"

        def stack(field: str) -> np.ndarray:
            return np.asarray(
                [getattr(m, field) for m in self.models], dtype=np.float64
            )

        self.alpha = stack("alpha")
        self.beta = stack("beta")
        self.flop_time = stack("flop_time")
        self.stmt_overhead = stack("stmt_overhead")
        #: per-lane when the models disagree, scalar int otherwise (the
        #: common case; scaling by it is exact either way)
        sizes = {m.element_bytes for m in self.models}
        self.element_bytes = (
            sizes.pop() if len(sizes) == 1 else stack("element_bytes")
        )
