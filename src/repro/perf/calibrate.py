"""Calibrate the tier-choice cost constants on the current host.

:meth:`PerfEstimator.nest_cost` decides tier 2 vs tier 3 per nest from
four host-side constants (``C_T2_STMT``, ``C_PREP``, ``C_VEC``,
``C_ELEM``) whose shipped defaults were measured on one reference
interpreter.  This module re-fits them from micro-benchmarks run *here*:
it generates a family of synthetic single-nest programs (one processor,
no communication, ``stmts`` self-contained statements inside an
``entries × n`` loop pair), times each under the forced tier-2 lowered
interpreter and the forced tier-3 slab engine, and solves the same two
linear forms the estimator prices with:

* ``tier2 = b + C_T2_STMT · instances``
* ``tier3 = b + C_PREP · entries + C_VEC · stmts · entries
  + C_ELEM · instances``

by least squares (the intercept ``b`` absorbs per-run simulator setup,
which ``nest_cost`` does not model).  Only the *ratios* of the
constants steer tier selection, so modest timing noise is tolerable;
the min over ``repeats`` runs is kept per configuration.

Apply a fit programmatically with
``PerfEstimator(compiled, nest_cost_constants=result.constants)``, or
print the suggestion with ``repro calibrate``.  ``repro calibrate
--save`` persists the fit under the cache root
(:func:`save_calibration`); from then on :class:`repro.api.Session`
(and hence the CLI and the tier plan) applies it by default —
``use_calibration=False`` / ``--no-calibration`` opts out, and an
explicit ``nest_cost_constants`` in the options always wins.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: saved-fit schema version (bumped on layout changes; a reader seeing
#: an unknown version treats the file as absent, never as an error)
CALIBRATION_SCHEMA = 1

#: file name of the persisted fit under the cache root
CALIBRATION_FILENAME = "calibration.json"

#: (stmts, entries, n) per synthetic nest — chosen so the design matrix
#: separates the per-entry, per-statement-per-entry, and per-element
#: columns while the slowest tier-2 run stays under ~0.5 s
DEFAULT_CONFIGS: tuple[tuple[int, int, int], ...] = (
    (1, 100, 64),
    (1, 400, 64),
    (4, 100, 64),
    (4, 300, 64),
    (2, 200, 128),
    (1, 60, 1024),
    (6, 80, 96),
)

#: fitted constants are clamped here: a noisy fit must not suggest a
#: zero/negative cost (which would make one tier free)
MIN_CONSTANT = 1e-12


def nest_source(stmts: int, entries: int, n: int) -> str:
    """A mini-HPF program holding exactly one takeover-candidate nest:
    ``stmts`` independent elementwise self-updates over ``n`` lanes,
    entered ``entries`` times, on a single processor (so no charge ever
    leaves the host — the wall clock is pure interpreter/slab work)."""
    arrays = ", ".join(f"A{k}(n)" for k in range(stmts))
    align = ""
    if stmts > 1:
        others = ", ".join(f"A{k}" for k in range(1, stmts))
        align = f"\n!HPF$ ALIGN (i) WITH A0(i) :: {others}"
    body = "\n".join(
        f"      A{k}(i) = A{k}(i) * 0.5 + 0.25" for k in range(stmts)
    )
    return f"""
PROGRAM CALIB
  PARAMETER (n = {n}, m = {entries})
  REAL {arrays}
  INTEGER t, i
!HPF$ PROCESSORS PROCS(1){align}
!HPF$ DISTRIBUTE (BLOCK) :: A0
  DO t = 1, m
    DO i = 1, n
{body}
    END DO
  END DO
END PROGRAM
"""


@dataclass
class CalibrationResult:
    """A fitted set of nest-cost constants plus fit diagnostics."""

    #: fitted values, keyed like the :class:`PerfEstimator` attributes
    constants: dict[str, float]
    #: the shipped class defaults, for comparison
    defaults: dict[str, float]
    #: coefficient of determination per fitted form
    r2: dict[str, float]
    repeats: int
    #: one record per synthetic configuration (sizes + both timings)
    samples: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "constants": dict(self.constants),
            "defaults": dict(self.defaults),
            "r2": dict(self.r2),
            "repeats": self.repeats,
            "samples": [dict(s) for s in self.samples],
        }

    def render(self) -> str:
        lines = [
            f"nest-cost calibration: {len(self.samples)} synthetic "
            f"nests, min of {self.repeats} repeats",
            "",
            f"{'constant':<12} {'default':>12} {'fitted':>12} {'ratio':>8}",
        ]
        for name in ("C_T2_STMT", "C_PREP", "C_VEC", "C_ELEM"):
            default = self.defaults[name]
            fitted = self.constants[name]
            lines.append(
                f"{name:<12} {default:>12.3e} {fitted:>12.3e} "
                f"{fitted / default:>8.2f}"
            )
        lines.append(
            "fit quality: tier2 R²={tier2:.4f}, tier3 R²={tier3:.4f}"
            .format(**self.r2)
        )
        overrides = ", ".join(
            f'"{name}": {value:.3e}'
            for name, value in self.constants.items()
        )
        lines.append("")
        lines.append("suggested override:")
        lines.append(
            f"  PerfEstimator(compiled, nest_cost_constants="
            f"{{{overrides}}})"
        )
        return "\n".join(lines)


def calibration_path(root: "str | os.PathLike | None" = None) -> Path:
    """Where a saved fit lives: ``<cache root>/calibration.json``
    (the same root resolution as the persistent compile cache —
    ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``)."""
    from ..core.diskcache import default_cache_dir

    base = Path(root).expanduser() if root else default_cache_dir()
    return base / CALIBRATION_FILENAME


def save_calibration(
    result: CalibrationResult, root: "str | os.PathLike | None" = None
) -> Path:
    """Persist ``result`` under the cache root; returns the path.  The
    write is atomic (tmp + rename) like the compile-cache stores, so a
    concurrent reader never sees a torn file."""
    path = calibration_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CALIBRATION_SCHEMA,
        "saved_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **result.as_dict(),
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_calibration(
    root: "str | os.PathLike | None" = None,
) -> "dict[str, float] | None":
    """The saved nest-cost constants, or None when no (readable,
    current-schema, positive-valued) fit has been saved.  Never raises:
    an unusable file behaves exactly like an absent one, so auto-apply
    can run unconditionally."""
    path = calibration_path(root)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("schema") != CALIBRATION_SCHEMA:
            return None
        constants = {
            str(name): float(value)
            for name, value in payload["constants"].items()
        }
    except Exception:
        return None
    valid = {"C_T2_STMT", "C_PREP", "C_VEC", "C_ELEM"}
    if set(constants) != valid:
        return None
    if any(value <= 0 for value in constants.values()):
        return None
    return constants


def _r2(observed, predicted) -> float:
    import numpy as np

    observed = np.asarray(observed)
    residual = float(np.sum((observed - predicted) ** 2))
    spread = float(np.sum((observed - observed.mean()) ** 2))
    return 1.0 - residual / spread if spread > 0 else 1.0


def calibrate(
    repeats: int = 3,
    verbose: bool = False,
    configs: Sequence[tuple[int, int, int]] | None = None,
) -> CalibrationResult:
    """Fit the four nest-cost constants on this host (takes a few
    seconds).  ``configs`` overrides the synthetic nest sizes — each is
    ``(stmts, entries, n)``."""
    import numpy as np

    from ..core.driver import CompilerOptions, compile_source
    from ..machine.simulator import simulate
    from .estimator import PerfEstimator

    configs = tuple(configs if configs is not None else DEFAULT_CONFIGS)
    if not configs:
        raise ValueError("calibrate needs at least one configuration")
    repeats = max(1, int(repeats))

    samples: list[dict[str, Any]] = []
    for stmts, entries, n in configs:
        source = nest_source(stmts, entries, n)
        compiled = compile_source(source, CompilerOptions(num_procs=1))
        rng = np.random.default_rng(0)
        inputs = {
            symbol.name: rng.uniform(
                0.5, 1.5, tuple(symbol.extent(d) for d in range(symbol.rank))
            )
            for symbol in compiled.proc.symbols.arrays()
        }
        timings = {}
        for tier in ("lowered", "slab"):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                simulate(compiled, inputs, tier=tier)
                best = min(best, time.perf_counter() - start)
            timings[tier] = best
        sample = {
            "stmts": stmts,
            "entries": entries,
            "n": n,
            "instances": stmts * entries * n,
            "tier2_s": timings["lowered"],
            "tier3_s": timings["slab"],
        }
        samples.append(sample)
        if verbose:
            print(
                f"  stmts={stmts} entries={entries} n={n}: "
                f"tier2 {timings['lowered'] * 1e3:.1f}ms, "
                f"tier3 {timings['slab'] * 1e3:.1f}ms"
            )

    instances = np.array([s["instances"] for s in samples], dtype=float)
    entries = np.array([s["entries"] for s in samples], dtype=float)
    stmt_entries = np.array(
        [s["stmts"] * s["entries"] for s in samples], dtype=float
    )
    t2 = np.array([s["tier2_s"] for s in samples])
    t3 = np.array([s["tier3_s"] for s in samples])
    ones = np.ones_like(instances)

    design2 = np.stack([ones, instances], axis=1)
    coef2, *_ = np.linalg.lstsq(design2, t2, rcond=None)
    design3 = np.stack([ones, entries, stmt_entries, instances], axis=1)
    coef3, *_ = np.linalg.lstsq(design3, t3, rcond=None)

    constants = {
        "C_T2_STMT": max(float(coef2[1]), MIN_CONSTANT),
        "C_PREP": max(float(coef3[1]), MIN_CONSTANT),
        "C_VEC": max(float(coef3[2]), MIN_CONSTANT),
        "C_ELEM": max(float(coef3[3]), MIN_CONSTANT),
    }
    defaults = {
        name: float(getattr(PerfEstimator, name)) for name in constants
    }
    r2 = {
        "tier2": _r2(t2, design2 @ coef2),
        "tier3": _r2(t3, design3 @ coef3),
    }
    return CalibrationResult(
        constants=constants,
        defaults=defaults,
        r2=r2,
        repeats=repeats,
        samples=samples,
    )
