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

The processor count is a parameter of a lane, not a second mechanism:
the batched sweep runs one sub-simulation per grid shape, and the
estimator prices a whole procs × machine grid in one pass by reading
the per-lane ``grid_shapes`` a :class:`VectorMachine` may carry.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..model import CostFormulas, MachineModel


class VectorMachine(CostFormulas):
    """``lanes`` machine models evaluated elementwise.

    Every parameter field is the ``(lanes,)`` float64 stack of the
    models' values, so each inherited cost method returns the
    ``(lanes,)`` vector of per-model costs and lane ``m`` is bitwise
    ``models[m]``'s answer.

    ``grid_shapes`` (optional, one processor-grid shape per lane) makes
    the processor count a per-lane quantity as well: ``procs`` is then
    the ``(lanes,)`` vector of ``prod(shape)`` and
    :class:`~repro.perf.estimator.PerfEstimator` reads the shapes to
    price every lane on its own grid.
    """

    def __init__(
        self,
        models: Sequence[MachineModel],
        grid_shapes: Sequence[Sequence[int]] | None = None,
    ):
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
        self.grid_shapes = None
        self.procs = None
        if grid_shapes is not None:
            self.grid_shapes = tuple(
                tuple(int(d) for d in shape) for shape in grid_shapes
            )
            if len(self.grid_shapes) != self.lanes:
                raise ValueError(
                    f"grid_shapes must supply one shape per lane: got "
                    f"{len(self.grid_shapes)} for {self.lanes} lane(s)"
                )
            self.procs = np.asarray(
                [math.prod(shape) for shape in self.grid_shapes],
                dtype=np.int64,
            )
            if np.any(self.procs < 1):
                raise ValueError("every lane needs procs >= 1")

    # -- per-lane processor counts -----------------------------------------
    #
    # The collectives take ``procs`` as a plain int (every lane prices
    # the same span — a machine-lane simulation) or as a ``(lanes,)`` int
    # vector (each lane has its own count — the estimator's procs-lane
    # pass).  A vector is priced by running the inherited scalar-``procs``
    # formula once per distinct count and keeping, per lane, the answer
    # for that lane's count — so each lane is the scalar formula's value
    # by definition, early returns for ``procs <= 1`` included.

    def _per_lane(self, formula, elements: int, procs):
        if np.ndim(procs) == 0:
            return formula(self, elements, procs)
        procs = np.asarray(procs)
        out = np.zeros(self.lanes, dtype=np.float64)
        for count in np.unique(procs):
            out = np.where(
                procs == count, formula(self, elements, int(count)), out
            )
        return out

    def broadcast_time(self, elements: int, procs):
        return self._per_lane(CostFormulas.broadcast_time, elements, procs)

    def reduce_time(self, elements: int, procs):
        return self._per_lane(CostFormulas.reduce_time, elements, procs)

    def gather_time(self, elements: int, procs):
        return self._per_lane(CostFormulas.gather_time, elements, procs)

    def alltoall_time(self, elements: int, procs):
        return self._per_lane(CostFormulas.alltoall_time, elements, procs)
