"""CLI tests (driving repro.cli.main directly)."""

import pytest

from repro.cli import main
from repro.programs import dgefa_source


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.hpf"
    path.write_text(
        "PROGRAM DEMO\n"
        "  PARAMETER (n = 16)\n"
        "  REAL A(n), B(n)\n"
        "  REAL t\n"
        "!HPF$ PROCESSORS P(4)\n"
        "!HPF$ ALIGN B(i) WITH A(i)\n"
        "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
        "  DO i = 2, n - 1\n"
        "    t = B(i - 1) + B(i + 1)\n"
        "    A(i) = 0.5 * t\n"
        "  END DO\n"
        "END PROGRAM\n"
    )
    return str(path)


#: the name of the removed tree-walking tier, in two pieces so that a
#: search of the sources for it finds only the documentation
RETIRED_TIER = "interp" "reted"


class TestUserErrors:
    """A user input error ends in argparse's one line on stderr, ``repro
    <command>: error: <message>``, and exit code 2 — never a traceback."""

    @pytest.mark.parametrize("argv,command,message", [
        *(
            ([command, "{program}", "--procs", "0"], command,
             "argument --procs: expected an integer >= 1, got '0'")
            for command in ("run", "compile", "estimate", "profile", "sweep")
        ),
        (["jobs", "submit", "{program}", "--procs", "0"], "jobs submit",
         "argument --procs: expected an integer >= 1, got '0'"),
        (["run", "{program}", "--seed", "-1"], "run",
         "argument --seed: expected an integer >= 0, got '-1'"),
        (["sweep", "{program}", "--axis", "strategy=bogus"], "sweep",
         "strategy must be one of"),
        (["sweep", "{program}", "--axis", "alpha=abc"], "sweep",
         "unknown CompilerOptions field(s) ['alpha']"),
        (["run", "{missing}"], "run", "cannot read "),
        (["run", "{unparsable}"], "run", "expected ')'"),
        (["fuzz", "--count", "-1"], "fuzz",
         "argument --count: expected an integer >= 0, got '-1'"),
        (["profile", "{program}", "--top", "-1"], "profile",
         "argument --top: expected an integer >= 0, got '-1'"),
        (["fuzz", "--scale", "nan"], "fuzz",
         "argument --scale: expected a finite number > 0, got 'nan'"),
        (["run", "{program}", "--tier", RETIRED_TIER], "run",
         f"argument --tier: invalid choice: '{RETIRED_TIER}'"),
        (["sweep", "{program}", "--exec", "batched"], "sweep",
         "argument --exec: invalid choice: 'batched'"),
        (["sweep", "{program}", "--workers", "-2"], "sweep",
         "argument --workers: expected an integer >= 0, got '-2'"),
        (["jobs", "submit", "{program}", "--shards", "0"], "jobs submit",
         "argument --shards: expected an integer >= 1, got '0'"),
        (["jobs", "submit", "{program}", "--timeout", "nan"], "jobs submit",
         "argument --timeout: expected a finite number > 0, got 'nan'"),
        (["jobs", "watch", "1", "--timeout", "nan"], "jobs watch",
         "argument --timeout: expected a finite number > 0, got 'nan'"),
        (["serve", "--workers", "0"], "serve",
         "argument --workers: expected an integer >= 1, got '0'"),
        (["serve", "--max-shards", "-1"], "serve",
         "argument --max-shards: expected an integer >= 0, got '-1'"),
        (["serve", "--poll", "nan"], "serve",
         "argument --poll: expected a finite number > 0, got 'nan'"),
        (["serve", "--lease-ttl", "-5"], "serve",
         "argument --lease-ttl: expected a finite number > 0, got '-5'"),
        (["serve", "--idle-timeout", "-1"], "serve",
         "argument --idle-timeout: expected a finite number > 0, got '-1'"),
        (["catalog", "gc", "--max-age-days", "-1", "--dry-run"],
         "catalog gc",
         "argument --max-age-days: expected a finite number >= 0, "
         "got '-1'"),
        # removed with the host calibration: the top-level parser
        # reports both, so the line has no subcommand in its prefix
        (["calibrate"], None,
         "argument command: invalid choice: 'calibrate'"),
        (["run", "{program}", "--no-calibration"], None,
         "unrecognized arguments: --no-calibration"),
    ])
    def test_one_line_and_exit_code_2(
        self, argv, command, message, program_file, tmp_path, capsys
    ):
        unparsable = tmp_path / "bad.hpf"
        unparsable.write_text("PROGRAM BAD\n  REAL A(8\nEND PROGRAM\n")
        paths = {
            "program": program_file,
            "missing": str(tmp_path / "missing.hpf"),
            "unparsable": str(unparsable),
        }
        with pytest.raises(SystemExit) as exit_info:
            main([word.format(**paths) for word in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1, err
        prog = f"repro {command}" if command else "repro"
        assert err.startswith(f"{prog}: error: {message}"), err


class TestCompile:
    def test_report_printed(self, program_file, capsys):
        assert main(["compile", program_file]) == 0
        out = capsys.readouterr().out
        assert "scalar mappings" in out
        assert "aligned with A(I)" in out

    def test_spmd_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--spmd"]) == 0
        out = capsys.readouterr().out
        assert "SPMD node program" in out
        assert "SHIFT_EXCHANGE" in out

    def test_strategy_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--strategy", "replication"]) == 0
        out = capsys.readouterr().out
        assert "replicated" in out

    def test_procs_override(self, program_file, capsys):
        assert main(["compile", program_file, "--procs", "8"]) == 0
        out = capsys.readouterr().out
        assert "8 processors" in out

    def test_bad_strategy_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["compile", program_file, "--strategy", "bogus"])

    def test_timings_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--timings"]) == 0
        out = capsys.readouterr().out
        assert "pipeline timings:" in out
        for pass_name in ("parse", "ssa", "scalar-mapping", "comm-analysis"):
            assert pass_name in out

    def test_no_timings_by_default(self, program_file, capsys):
        assert main(["compile", program_file]) == 0
        assert "pipeline timings:" not in capsys.readouterr().out


class TestEstimate:
    def test_sweep(self, program_file, capsys):
        assert main(["estimate", program_file, "--procs", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "compute" in out
        assert out.count("s ") >= 2

    def test_combine_flag_accepted(self, program_file, capsys):
        assert (
            main(["estimate", program_file, "--procs", "4", "--combine-messages"])
            == 0
        )


class TestRun:
    def test_validates_against_sequential(self, program_file, capsys):
        assert main(["run", program_file, "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "matches sequential: True" in out
        assert "0 unexpected" in out

    def test_procs_defaults_to_the_programs_grid(self, tmp_path, capsys):
        """Without ``--procs`` a run uses the ``!HPF$ PROCESSORS`` grid,
        like ``compile``, ``sweep`` and ``Session.run``."""
        program = tmp_path / "dgefa.hpf"
        program.write_text(dgefa_source(n=24, procs=16))
        assert main(["run", str(program)]) == 0
        assert "on 16 processors" in capsys.readouterr().out

    def test_seed_determinism(self, program_file, capsys):
        main(["run", program_file, "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", program_file, "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestTables:
    def test_single_fast_table(self, capsys):
        assert main(["tables", "--table", "2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "DGEFA" in out
        assert "Alignment" in out

    def test_multiple_tables(self, capsys):
        assert main(["tables", "--table", "2", "3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "DGEFA" in out and "APPSP" in out

    def test_timings_flag(self, capsys):
        assert main(["tables", "--table", "2", "--fast", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "pipeline timings (all tables):" in out
        assert "scalar-mapping" in out
        # the DGEFA row compiles one source under two variants: the
        # shared manager must report front-end cache hits
        import re

        row = next(l for l in out.splitlines() if l.startswith("ssa "))
        cached = int(re.split(r"\s+", row.strip())[2])
        assert cached >= 1


class TestStdin:
    def test_dash_reads_stdin(self, monkeypatch, capsys):
        import io

        source = (
            "PROGRAM P\n  REAL A(8)\n!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 1, 8\n    A(i) = 1.0\n  END DO\nEND PROGRAM\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(source))
        assert main(["compile", "-", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "=== P ===" in out


class TestExplainAndProfile:
    def test_explain_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "diagnostics:" in out

    def test_profile_command(self, program_file, capsys):
        assert main(["profile", program_file, "--procs", "4", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "statements by compute time" in out
        assert "transfers by time" in out


class TestTraceFlag:
    def test_run_with_trace(self, program_file, tmp_path, capsys):
        """``--trace`` takes a path; the event-count form is an
        argparse error that says what to write instead."""
        for count in ("5", "0"):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", program_file, "--procs", "4", "--trace", count])
            assert exit_info.value.code == 2
            assert "--trace OUT.json" in capsys.readouterr().err
        out_path = tmp_path / "5.json"
        assert main(
            ["run", program_file, "--procs", "4", "--trace", str(out_path)]
        ) == 0
        assert out_path.exists()
        assert "trace:" not in capsys.readouterr().out


class TestObsFlags:
    def test_trace_path_writes_chrome_json(self, program_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        assert (
            main(["run", program_file, "--procs", "4", "--trace", str(out_path)])
            == 0
        )
        assert f"to {out_path}" in capsys.readouterr().out
        chrome = json.loads(out_path.read_text())
        assert validate_chrome_trace(chrome) == []
        names = {e["name"] for e in chrome["traceEvents"]}
        assert any(n.startswith("pass:") for n in names)
        assert any(n.startswith("simulate[") for n in names)

    def test_metrics_flag_prints_registry(self, program_file, capsys):
        assert main(["run", program_file, "--procs", "4", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "sim.messages" in out
        assert "compile.cache.misses" in out

    def test_metrics_json(self, program_file, tmp_path):
        import json

        out_path = tmp_path / "metrics.json"
        assert (
            main(
                ["run", program_file, "--procs", "4",
                 "--metrics-json", str(out_path)]
            )
            == 0
        )
        loaded = json.loads(out_path.read_text())
        assert "sim.messages" in loaded["gauges"]
        assert loaded["gauges"]["lowering.closures_emitted"] > 0

    def test_stats_json_is_byte_identical_across_runs(
        self, program_file, tmp_path, capsys
    ):
        first = tmp_path / "s1.json"
        second = tmp_path / "s2.json"
        assert (
            main(["run", program_file, "--procs", "4",
                  "--stats-json", str(first)]) == 0
        )
        assert (
            main(["run", program_file, "--procs", "4",
                  "--stats-json", str(second)]) == 0
        )
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        import json

        payload = json.loads(first.read_text())
        assert set(payload) == {"procs", "clocks", "stats", "tiers"}

    def test_estimate_does_not_mutate_namespace(self, program_file, capsys):
        """The sweep builds fresh options per procs value; the argparse
        namespace keeps the original list."""
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["estimate", program_file, "--procs", "1", "4"]
        )
        assert args.func(args) == 0
        capsys.readouterr()
        assert args.procs == [1, 4]
        assert not hasattr(args, "procs_single")


class TestSweepCommand:
    def test_table_output(self, program_file, capsys):
        assert main(["sweep", program_file, "--procs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out
        assert "2 points" in out
        assert "0 failed" in out

    def test_json_output(self, program_file, capsys):
        import json

        assert main(
            ["sweep", program_file, "--procs", "2", "--json",
             "--measure", "estimate"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["ok"] is True
        assert "total_time" in records[0]

    def test_axis_flag(self, program_file, capsys):
        assert main(
            ["sweep", program_file, "--procs", "2",
             "--axis", "strategy=selected,producer",
             "--measure", "compile"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 points" in out

    @pytest.mark.parametrize(
        "old", [["--sweep-mode", "estimate"], ["--mode", "batched"]]
    )
    def test_rejects_retired_spellings(self, program_file, old, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", program_file, "--procs", "2", *old])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_machine_axis(self, program_file):
        with pytest.raises(SystemExit):
            main(["sweep", program_file, "--axis", "machine=a,b"])

    def test_rejects_unknown_axis_field(self, program_file):
        with pytest.raises(SystemExit):
            main(["sweep", program_file, "--axis", "warp_factor=9"])


class TestFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--count", "4", "--sweep-every", "4"]) == 0
        out = capsys.readouterr().out
        assert "4/4 programs checked" in out
        assert "0 divergent" in out

    def test_divergent_campaign_exits_nonzero(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.fuzz import harness as harness_mod
        from repro.fuzz import runner as runner_mod

        real = harness_mod.check_tiers

        def broken(source, procs, **kwargs):
            divergences, reference = real(source, procs, **kwargs)
            if procs == 3:
                divergences = divergences + [
                    harness_mod.Divergence(
                        kind="clocks", detail="injected", procs=procs
                    )
                ]
            return divergences, reference

        monkeypatch.setattr(harness_mod, "check_tiers", broken)
        artifacts = tmp_path / "artifacts"
        assert main([
            "fuzz", "--count", "1", "--sweep-every", "0",
            "--shrink-steps", "5", "--artifacts", str(artifacts),
        ]) == 1
        out = capsys.readouterr().out
        assert "1 divergent" in out
        assert (artifacts / "findings.json").exists()
        assert list(artifacts.glob("divergence_*.hpf"))
