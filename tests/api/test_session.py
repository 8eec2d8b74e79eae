"""The repro.api facade: Session round-trips match the CLI paths they
replaced, options consolidation validates, and the deprecated entry
points warn."""

import json
import re

import pytest

import repro
from repro import RunResult, Session, SweepSpec
from repro.cli import main
from repro.core.driver import CompilerOptions, compile_source
from repro.programs import dgefa_source, tomcatv_source

TOMCATV = tomcatv_source(n=8, niter=1, procs=2)
DGEFA = dgefa_source(n=8, procs=2)


def canonical(report: str) -> str:
    """Statement ids come from a process-global counter; renumber them
    in order of first appearance before comparing reports."""
    mapping = {}

    def renumber(match):
        return mapping.setdefault(match.group(0), f"S{len(mapping) + 1}")

    return re.sub(r"\bS\d+\b", renumber, report)


class TestFacadeExports:
    def test_top_level_surface(self):
        for name in (
            "Session", "RunResult", "SweepSpec", "SweepJob", "SweepResult",
            "run_sweep", "CompileCache",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestSessionCompile:
    def test_matches_compile_source(self):
        session = Session(num_procs=2)
        direct = compile_source(TOMCATV, CompilerOptions(num_procs=2))
        via_session = session.compile(TOMCATV)
        assert canonical(via_session.report()) == canonical(direct.report())

    def test_overrides_per_call(self):
        session = Session(num_procs=2)
        compiled = session.compile(TOMCATV, strategy="producer")
        assert compiled.options.strategy == "producer"
        assert compiled.options.num_procs == 2
        # the session's own options are untouched
        assert session.options.strategy == "selected"

    def test_constructor_override_validation(self):
        with pytest.raises(ValueError, match="not_a_field"):
            Session(not_a_field=True)

    def test_shared_manager_reuses_frontend(self):
        session = Session()
        session.compile(TOMCATV)
        session.compile(TOMCATV, strategy="producer")
        assert session.manager.metrics.passes["ssa"].cache_hits >= 1


class TestSessionRunEquivalence:
    """Session.run must report exactly what ``repro run`` reports."""

    @pytest.mark.parametrize(
        "source,procs", [(TOMCATV, 2), (DGEFA, 2)], ids=["tomcatv", "dgefa"]
    )
    def test_run_matches_cli(self, source, procs, tmp_path, capsys):
        program = tmp_path / "prog.hpf"
        program.write_text(source)
        stats_path = tmp_path / "stats.json"
        code = main([
            "run", str(program), "--procs", str(procs), "--seed", "0",
            "--stats-json", str(stats_path),
        ])
        cli_out = capsys.readouterr().out
        cli_stats = json.loads(stats_path.read_text())

        session = Session(num_procs=procs)
        result = session.run(source, seed=0)

        assert (code == 0) == result.ok
        assert result.canonical_stats() == cli_stats
        assert (
            f"virtual time {result.elapsed * 1e3:.3f} ms on "
            f"{result.compiled.grid.size} processors; "
            f"{result.messages} messages, {result.fetches} fetches "
            f"({result.unexpected_fetches} unexpected)"
        ) in cli_out
        for name, match in result.matches.items():
            assert f"  {name:8s} matches sequential: {match}" in cli_out

    def test_run_validates_against_sequential(self):
        result = Session(num_procs=2).run(TOMCATV)
        assert result.ok and result.all_match
        assert set(result.matches)  # every array checked

    @pytest.mark.parametrize("tier", ["lowered", "slab", "auto"])
    def test_run_validates_agreeing_nan_results(self, tier):
        """A NaN the simulator and the reference both compute is a
        match, not a mismatch: ``inf * 0.0`` in every element of A."""
        src = (
            "PROGRAM NF\n  PARAMETER (n = 8)\n  REAL A(n), B(n)\n  REAL X\n"
            "!HPF$ ALIGN (i) WITH A(i) :: B\n!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  X = 1E999\n  DO i = 1, n\n    A(i) = X * 0.0 + 1E999\n"
            "  END DO\nEND PROGRAM\n"
        )
        result = Session(num_procs=4).run(src, tier=tier)
        assert result.sim.gather("A").tobytes() == (
            result.sequential.get_array("A").tobytes()
        )
        assert all(result.sim.gather("A") != result.sim.gather("A"))  # NaN
        assert result.ok and result.matches == {"A": True, "B": True}

    def test_run_without_validation(self):
        result = Session(num_procs=2).run(TOMCATV, validate=False)
        assert result.matches == {} and result.sequential is None
        assert result.elapsed > 0

    def test_run_parses_the_source_once(self, monkeypatch):
        """The compile and the untransformed reference procedure are
        built from one AST (``PassManager.syntax_tree``); the reference
        is still a procedure of its own, numbered after the compiled
        one, and its symbol order draws the same inputs."""
        from repro.core import passes
        from repro.ir import parse_and_build
        from repro.codegen.seq import seeded_inputs

        parses = []
        parse = passes.parse_program
        monkeypatch.setattr(
            passes, "parse_program",
            lambda source: (parses.append(source), parse(source))[1],
        )
        session = Session(num_procs=2)
        result = session.run(TOMCATV, seed=3)
        assert result.ok and parses == [TOMCATV]
        reference = result.sequential.proc
        assert reference is not result.compiled.proc
        first = lambda proc: min(s.stmt_id for s in proc.all_stmts())
        assert first(reference) > first(result.compiled.proc)
        again = seeded_inputs(parse_and_build(TOMCATV), 3)
        assert list(again) == list(result.inputs)
        for name, values in again.items():
            assert values.tobytes() == result.inputs[name].tobytes()
        session.run(TOMCATV, seed=4)
        assert parses == [TOMCATV]

    def test_run_counts_the_reference_takeovers(self):
        """``seq.takeover[loop=S..]`` / ``seq.bail[reason]`` land in the
        session's metrics (``repro run --metrics`` prints them), beside
        the slab engine's and the closure gauges."""
        from repro.obs import Metrics

        metrics = Metrics()
        session = Session(num_procs=2, metrics=metrics)
        result = session.run(TOMCATV)
        taken = {
            k: v for k, v in metrics.counters.items()
            if k.startswith("seq.takeover[loop=S")
        }
        assert sorted(taken.values()) == [1] * 5
        assert not any(k.startswith("seq.bail[") for k in metrics.counters)
        loops = {s.stmt_id for s in result.sequential.proc.all_stmts()}
        assert {int(k[len("seq.takeover[loop=S"):-1]) for k in taken} <= loops
        bad = TOMCATV.replace("DO i = 2, n - 1\n        X(i,j)", "DO i = 2, n + 1\n        X(i,j)")
        assert bad != TOMCATV
        with pytest.raises(repro.errors.InterpreterError):
            session.run(bad)
        assert metrics.counters["seq.bail[subscript out of bounds for X]"] >= 1
        session.collect_metrics()
        emitted = metrics.gauges["lowering.closures_emitted"]
        assert 0 < metrics.gauges["lowering.closures_built"] < emitted

    def test_bare_simulate_runs_the_session_default(self):
        """``simulate`` and ``SPMDSimulator`` default to ``tier="auto"``,
        like ``Session.run``: the same inputs give the same clocks,
        traffic and per-nest engines."""
        from repro.machine.simulator import SPMDSimulator, simulate

        source = tomcatv_source(n=17, procs=4)
        result = Session().run(source)
        compiled = compile_source(source)
        sim = simulate(compiled, result.inputs)
        assert sim.tier == SPMDSimulator(compiled).tier == "auto"
        assert result.sim.tier == "auto"
        assert sim.canonical_stats() == result.canonical_stats()

    def test_run_seed_changes_inputs_not_stats_keys(self):
        a = Session(num_procs=2).run(TOMCATV, seed=0)
        b = Session(num_procs=2).run(TOMCATV, seed=1)
        assert set(a.canonical_stats()) == set(b.canonical_stats())
        assert a.inputs["X"].sum() != b.inputs["X"].sum()


class TestSessionEstimateEquivalence:
    def test_estimate_matches_cli_sweep(self, tmp_path, capsys):
        program = tmp_path / "prog.hpf"
        program.write_text(TOMCATV)
        code = main(["estimate", str(program), "--procs", "2", "4"])
        assert code == 0
        cli_out = capsys.readouterr().out

        session = Session()
        for procs in (2, 4):
            estimate = session.estimate(TOMCATV, num_procs=procs)
            line = (
                f"{procs:>6} {estimate.total_time:>11.4f}s "
                f"{estimate.compute_time:>11.4f}s {estimate.comm_time:>11.4f}s"
            )
            assert line in cli_out

    def test_estimate_accepts_compiled_program(self):
        session = Session(num_procs=2)
        compiled = session.compile(TOMCATV)
        assert session.estimate(compiled).total_time == pytest.approx(
            session.estimate(TOMCATV).total_time
        )


class TestSessionSweep:
    def test_sweep_uses_session_cache(self, tmp_path):
        session = Session(cache=tmp_path)
        spec = SweepSpec(programs={"tomcatv": TOMCATV}, procs=(2,))
        cold = session.sweep(spec, workers=0)
        warm = session.sweep(spec, workers=0)
        assert not cold[0].cache_hit and warm[0].cache_hit
        assert warm[0].total_time == cold[0].total_time

    def test_sweep_results_match_estimate(self):
        session = Session()
        (result,) = session.sweep(
            SweepSpec(programs={"tomcatv": TOMCATV}, procs=(2,)), workers=0
        )
        assert result.total_time == pytest.approx(
            session.estimate(TOMCATV, num_procs=2).total_time
        )


class TestDiskCacheOnCli:
    def test_cache_dir_flag_populates_and_hits(self, tmp_path, capsys):
        program = tmp_path / "prog.hpf"
        program.write_text(TOMCATV)
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            assert main([
                "compile", str(program), "--procs", "2",
                "--cache-dir", str(cache_dir),
            ]) == 0
        out1, out2 = capsys.readouterr().out.split("grid:")[1:]
        assert out1.splitlines()[0] == out2.splitlines()[0]
        assert len(list(cache_dir.glob("??/*.pkl"))) == 1

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        program = tmp_path / "prog.hpf"
        program.write_text(TOMCATV)
        cache_dir = tmp_path / "cache"
        main(["compile", str(program), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1 and stats["root"] == str(cache_dir)
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert len(list(cache_dir.glob("??/*.pkl"))) == 0

    def test_run_with_disk_cache_identical_stats(self, tmp_path, capsys):
        program = tmp_path / "prog.hpf"
        program.write_text(DGEFA)
        cache_dir = tmp_path / "cache"
        stats = []
        for tag in ("cold", "warm"):
            path = tmp_path / f"{tag}.json"
            assert main([
                "run", str(program), "--procs", "2",
                "--cache-dir", str(cache_dir), "--stats-json", str(path),
            ]) == 0
            stats.append(path.read_bytes())
        capsys.readouterr()
        assert stats[0] == stats[1]


class TestRetiredShims:
    """The deprecated compatibility shims are gone (see the migration
    table in docs/API.md): the replacements are Session.estimate and
    the per-table builders on a shared manager."""

    def test_estimate_performance_removed(self):
        assert not hasattr(repro, "estimate_performance")
        import repro.perf as perf

        assert not hasattr(perf, "estimate_performance")
        assert "estimate_performance" not in perf.__all__

    def test_all_tables_removed(self):
        assert not hasattr(repro, "all_tables")
        import repro.report as report

        assert not hasattr(report, "all_tables")
        assert "all_tables" not in report.__all__

    def test_replacement_surface_exists(self):
        compiled = compile_source(TOMCATV, CompilerOptions(num_procs=2))
        estimate = Session().estimate(compiled)
        assert estimate.total_time > 0
        assert callable(repro.table1_tomcatv)

    def test_calibrate_module_removed(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.perf.calibrate")

    def test_options_have_no_nest_cost_constants(self):
        """The tier plan prices with the estimator's class constants
        only; no option carries a replacement set."""
        import repro.core.driver as driver

        assert not hasattr(driver, "NEST_COST_CONSTANTS")
        with pytest.raises(TypeError, match="nest_cost_constants"):
            CompilerOptions(nest_cost_constants={"C_PREP": 1e-4})

    def test_estimator_takes_no_nest_cost_constants(self):
        from repro.perf.estimator import PerfEstimator

        compiled = compile_source(TOMCATV, CompilerOptions(num_procs=2))
        with pytest.raises(TypeError, match="nest_cost_constants"):
            PerfEstimator(compiled, nest_cost_constants={"C_PREP": 1e-4})

    @pytest.mark.parametrize("value", [True, "fit-dir", 0, None])
    def test_use_calibration_accepts_only_false(self, value):
        """The host calibration is removed; the keyword stays only so
        that ``use_calibration=False`` callers keep working."""
        assert Session(use_calibration=False).options == CompilerOptions()
        with pytest.raises(TypeError, match="host calibration was removed"):
            Session(use_calibration=value)

    def test_run_has_no_event_buffer_keyword(self):
        import inspect

        assert list(inspect.signature(Session.run).parameters) == [
            "self", "source", "seed", "validate", "tier", "overrides"
        ]

    def test_package_metadata_reads_the_one_version(self):
        """pyproject.toml used to carry its own, stale, version."""
        import pathlib
        import tomllib

        root = pathlib.Path(__file__).resolve().parents[2]
        meta = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert repro.__version__ == "1.4.0"


class TestCompileManyJobs:
    def test_mapping_jobs(self):
        from repro.core.driver import compile_many

        compiled = compile_many([
            {"source": TOMCATV, "options": {"num_procs": 2}},
            {"source": TOMCATV, "options": CompilerOptions(num_procs=4)},
            {"source": TOMCATV},
        ])
        assert [c.options.num_procs for c in compiled] == [2, 4, None]

    def test_mapping_job_unknown_field_named(self):
        from repro.core.driver import compile_many

        with pytest.raises(TypeError, match="optoins"):
            compile_many([{"source": TOMCATV, "optoins": {}}])

    def test_mapping_job_missing_source(self):
        from repro.core.driver import compile_many

        with pytest.raises(TypeError, match="source"):
            compile_many([{"options": {}}])

    def test_from_overrides_unknown_field(self):
        with pytest.raises(ValueError, match="warp_speed"):
            CompilerOptions.from_overrides(warp_speed=9)

    def test_from_overrides_base(self):
        base = CompilerOptions(strategy="producer")
        derived = CompilerOptions.from_overrides(base, num_procs=8)
        assert derived.strategy == "producer" and derived.num_procs == 8
        assert base.num_procs is None
