"""The priced slab plans' per-nest choices at the sweep's measured points.

``PerfEstimator.nest_cost`` prices tier 2 against tier 3 with four
fixed class constants (``C_T2_STMT``, ``C_PREP``, ``C_VEC``,
``C_ELEM``).  These tests pin the decisions those constants make, not
any timing: a change to a constant, to ``nest_cost`` or to the slab
classifier that moves a nest to the other engine fails here.  The
table is the per-point one of docs/COSTMODEL.md, where each choice is
set beside the measured time of both engines.

Loops are keyed by their pre-order ordinal (``L03``), the key of
``canonical_stats()["tiers"]``: statement ids drift across compiles.
"""

import json

import pytest

from repro import Session
from repro.cli import main
from repro.codegen.seq import seeded_inputs
from repro.core.driver import CompilerOptions, compile_source
from repro.ir.stmt import LoopStmt
from repro.machine import simulate
from repro.machine.slabexec import NestPlan
from repro.perf.estimator import PerfEstimator
from repro.programs import appsp_source, dgefa_source, tomcatv_source


def _choices(compiled) -> dict[str, str]:
    loops = (s for s in compiled.proc.all_stmts() if isinstance(s, LoopStmt))
    ordinal = {s.stmt_id: i for i, s in enumerate(loops)}
    return {
        f"L{ordinal[sid]:02d}": verdict.choice
        for sid, verdict in sorted(
            compiled.slabs.verdicts.items(),
            key=lambda item: ordinal[item[0]],
        )
        if isinstance(verdict, NestPlan)
    }


def _all(choice: str, *loops: str) -> dict[str, str]:
    return {loop: choice for loop in loops}


APPSP_LOWERED = _all("lowered", "L03", "L05", "L08")

#: (point, source, expected choice per eligible loop)
POINTS = [
    ("appsp-8-p4",
     appsp_source(nx=8, ny=8, nz=8, niter=1, procs=4), APPSP_LOWERED),
    ("appsp-8-p16",
     appsp_source(nx=8, ny=8, nz=8, niter=1, procs=16), APPSP_LOWERED),
    # (one rank: the rank-1 update L04 is a nest on one fixed executor
    # set, taken whole like its multi-rank counterpart)
    ("dgefa-24-p1", dgefa_source(n=24, procs=1),
     {**_all("slab", "L02", "L04"), **_all("lowered", "L01", "L03", "L05")}),
    ("dgefa-24-p16", dgefa_source(n=24, procs=16),
     {**_all("slab", "L02", "L04"), **_all("lowered", "L01", "L03", "L05")}),
    # (one rank: the column nests run on the one rank, so their choices
    # are P = 4's)
    ("tomcatv-33-p1", tomcatv_source(n=33, niter=1, procs=1),
     _all("slab", "L01", "L02", "L03", "L04", "L05", "L07", "L09", "L10")),
    ("tomcatv-33-p4", tomcatv_source(n=33, niter=1, procs=4),
     _all("slab", "L01", "L02", "L03", "L04", "L05", "L07", "L09", "L10")),
    ("dgefa-80-p16", dgefa_source(n=80, procs=16),
     _all("slab", "L01", "L02", "L03", "L04", "L05")),
]


@pytest.mark.parametrize(
    "source, expected",
    [(source, expected) for _, source, expected in POINTS],
    ids=[name for name, _, _ in POINTS],
)
def test_choices_at_the_measured_points(source, expected):
    compiled = compile_source(source, CompilerOptions())
    assert _choices(compiled) == dict(sorted(expected.items()))


class TestClassConstantsPriceThePlan:
    """The four class constants are the plan's one source of prices:
    scaling one of them on the class moves DGEFA n=24, P=16's nests
    the way its term in ``nest_cost`` says."""

    SOURCE = dgefa_source(n=24, procs=16)
    LOOPS = ("L01", "L02", "L03", "L04", "L05")

    @pytest.mark.parametrize(
        "name, factor, slab",
        [
            # dearer tier-2 dispatch: every eligible nest goes to slab
            ("C_T2_STMT", 1e3, LOOPS),
            # dearer slab overhead or lanes: every nest stays lowered
            ("C_PREP", 1e3, ()),
            ("C_VEC", 1e3, ()),
            ("C_ELEM", 1e3, ()),
            # cheaper slab set-up: the small nests move to slab too
            ("C_PREP", 1e-3, LOOPS),
            ("C_VEC", 1e-3, ("L01", "L02", "L04", "L05")),
        ],
        ids=["t2-stmt-x1e3", "prep-x1e3", "vec-x1e3", "elem-x1e3",
             "prep-x1e-3", "vec-x1e-3"],
    )
    def test_scaling_a_constant_moves_the_plan(
        self, name, factor, slab, monkeypatch
    ):
        monkeypatch.setattr(
            PerfEstimator, name, getattr(PerfEstimator, name) * factor
        )
        compiled = compile_source(self.SOURCE, CompilerOptions())
        assert _choices(compiled) == {
            loop: "slab" if loop in slab else "lowered" for loop in self.LOOPS
        }


#: constants under which the slab engine never wins: a file carrying
#: them, if anything read it, would move DGEFA's L02 and L04 to tier 2
EXTREME = {"C_T2_STMT": 1e-9, "C_PREP": 10.0, "C_VEC": 10.0, "C_ELEM": 1.0}


def _write_fit(root) -> None:
    """A host fit in the layout the removed ``repro calibrate --save``
    wrote to ``<cache root>/calibration.json``."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "calibration.json").write_text(
        json.dumps({"schema": 1, "constants": EXTREME})
    )


class TestNoFileChangesADecision:
    """Tier decisions depend on the program alone: a ``calibration.json``
    under the cache root, from ``REPRO_CACHE_DIR`` or ``--cache-dir``,
    is never read."""

    SOURCE = dgefa_source(n=24, procs=16)
    EXPECTED = dict(POINTS[3][2])
    #: the engines that ran: L05 sits inside L04, so a slab L04 leaves
    #: it no run of its own
    RAN = {"L01": "lowered", "L02": "slab", "L03": "lowered", "L04": "slab"}

    def test_session_ignores_the_cache_root(self, tmp_path, monkeypatch):
        _write_fit(tmp_path / "env")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        compiled = Session().compile(self.SOURCE)
        assert _choices(compiled) == dict(sorted(self.EXPECTED.items()))

    @pytest.mark.parametrize("root", ["env", "flag"])
    def test_run_json_tiers_ignore_the_cache_root(
        self, root, tmp_path, monkeypatch
    ):
        program = tmp_path / "dgefa.hpf"
        program.write_text(self.SOURCE)
        out = tmp_path / "run.json"
        argv = ["run", str(program), "--procs", "16", "--json", str(out)]
        _write_fit(tmp_path / root)
        if root == "env":
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / root))
        else:
            argv += ["--cache-dir", str(tmp_path / root)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["tiers"] == self.RAN


class TestAFailedPriceNeverFailsARun:
    """A nest whose price cannot be computed keeps its slab plan: under
    ``tier="auto"`` it runs exactly as under ``tier="slab"``, and the
    clocks and traffic are still those of the lowered closures."""

    def test_auto_runs_every_plan(self, monkeypatch):
        def refuse(self, loop):
            raise ArithmeticError("no price")

        monkeypatch.setattr(PerfEstimator, "nest_cost", refuse)
        source = dgefa_source(n=12, procs=4)
        runs = {}
        for tier in ("auto", "slab", "lowered"):
            compiled = compile_source(source, CompilerOptions(num_procs=4))
            runs[tier] = simulate(
                compiled, seeded_inputs(compiled.proc, 0), tier=tier
            ).canonical_stats()
        assert runs["auto"]["tiers"] == runs["slab"]["tiers"]
        assert "slab" in runs["auto"]["tiers"].values()
        for key in ("clocks", "stats"):
            assert runs["auto"][key] == runs["lowered"][key]
