"""Cost-driven tier selection: which engine runs each loop nest.

The simulator has three execution tiers — the tree-walking interpreter
(tier 1), the lowered closures (tier 2), and the vectorized slab engine
(tier 3).  Tier 3 used to take over every nest it *could*; on nests
with tiny per-entry lane counts the prepare/commit overhead loses to
plain tier-2 dispatch (the DGEFA regression).  In the paper's spirit —
mapping decisions driven by a cost model, not fixed heuristics — the
tier plan combines the nests the slab classifier built a plan for
with :meth:`repro.perf.PerfEstimator.nest_cost` and records, per such
nest, whether the slab engine is *predicted* to win.

The product is a :class:`TierPlan`, derived from the
:class:`~repro.core.driver.CompiledProgram` (its slab report, and the
nest-cost constants its options carry) the first time a simulator
asks for ``tier="auto"``.  A decision never regresses below tier 2:
"lowered" just means the slab engine leaves the nest to the closures,
and any slab bail already falls back to tier 2 statement-by-statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NestDecision:
    """One nest's verdict: the predicted times under each tier and the
    chosen engine."""

    loop_id: int
    #: "slab" or "lowered"
    choice: str
    #: "predicted-win" | "predicted-loss" | estimator failure reason
    reason: str
    tier2_time: float = 0.0
    tier3_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "loop_id": self.loop_id,
            "choice": self.choice,
            "reason": self.reason,
            "tier2_time": self.tier2_time,
            "tier3_time": self.tier3_time,
        }


@dataclass
class TierPlan:
    """Per-eligible-nest tier decisions, keyed on the loop's statement
    id at ``ir_epoch`` (a stale plan is rebuilt on the next read, like
    a stale lowering)."""

    ir_epoch: int
    decisions: dict[int, NestDecision] = field(default_factory=dict)

    def choice(self, loop_id: int) -> str | None:
        """The decision for one nest, or None if the nest was never
        eligible (the runtime then has nothing to consult)."""
        d = self.decisions.get(loop_id)
        return d.choice if d is not None else None

    def slab_loops(self) -> set[int]:
        return {
            sid
            for sid, d in self.decisions.items()
            if d.choice == "slab"
        }

    def summary(self) -> dict[str, int]:
        slab = sum(1 for d in self.decisions.values() if d.choice == "slab")
        return {
            "eligible": len(self.decisions),
            "slab": slab,
            "lowered": len(self.decisions) - slab,
        }

    def as_dict(self) -> dict:
        return {
            "ir_epoch": self.ir_epoch,
            "decisions": [
                d.as_dict()
                for _, d in sorted(self.decisions.items())
            ],
        }


def build_tierplan(proc, slabs, estimator) -> TierPlan:
    """Decide each nest with a slab plan by the per-nest cost inequality
    (see docs/COSTMODEL.md).  ``slabs`` is the program's
    :class:`~repro.machine.slabexec.SlabReport`; ``estimator`` any
    object with a ``nest_cost(loop)`` method (normally a
    :class:`~repro.perf.PerfEstimator`)."""
    plan = TierPlan(ir_epoch=proc.ir_epoch)
    eligible = slabs.eligible_loops()
    if not eligible:
        return plan
    for loop in proc.all_stmts():
        sid = loop.stmt_id
        if sid not in eligible:
            continue
        try:
            cost = estimator.nest_cost(loop)
        except Exception as exc:  # never fail a run over a prediction
            plan.decisions[sid] = NestDecision(
                loop_id=sid,
                choice="slab",  # eligible and unpriceable: keep legacy
                reason=f"estimate failed: {exc}",
            )
            continue
        win = cost.slab_wins
        plan.decisions[sid] = NestDecision(
            loop_id=sid,
            choice="slab" if win else "lowered",
            reason="predicted-win" if win else "predicted-loss",
            tier2_time=cost.tier2_time,
            tier3_time=cost.tier3_time,
        )
    return plan
