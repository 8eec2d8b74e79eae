"""Report/table module tests (small sizes for speed)."""

import pathlib

import pytest

from repro.report import Table, table1_tomcatv, table2_dgefa, table3_appsp


class TestTableContainer:
    def test_cell_lookup(self):
        table = Table(title="t", columns=["a", "b"], rows=[(2, [1.0, 2.0])])
        assert table.cell(2, "a") == 1.0
        assert table.cell(2, "b") == 2.0

    def test_missing_row(self):
        table = Table(title="t", columns=["a"], rows=[(2, [1.0])])
        with pytest.raises(KeyError):
            table.cell(4, "a")

    def test_missing_column(self):
        table = Table(title="t", columns=["a"], rows=[(2, [1.0])])
        with pytest.raises(ValueError):
            table.cell(2, "zz")

    def test_render_layout(self):
        table = Table(
            title="Demo", columns=["left", "right"],
            rows=[(1, [0.5, 1.5]), (2, [0.25, 0.75])],
            notes="a note",
        )
        text = table.render()
        assert "Demo" in text
        assert "#Procs" in text
        assert "a note" in text
        assert "0.500" in text and "0.750" in text


class TestTableGenerators:
    def test_table1_small(self):
        table = table1_tomcatv(n=33, niter=1, procs=(1, 4))
        assert table.columns == [
            "Replication",
            "Producer Alignment",
            "Selected Alignment",
        ]
        assert len(table.rows) == 2
        assert all(v > 0 for _, row in table.rows for v in row)

    def test_table2_small(self):
        table = table2_dgefa(n=64, procs=(2, 4))
        assert table.columns == ["Default", "Alignment"]
        assert len(table.rows) == 2

    def test_table3_small(self):
        table = table3_appsp(n=8, niter=1, procs=(2, 4))
        assert len(table.columns) == 4
        assert len(table.rows) == 2

    def test_custom_machine(self):
        from repro.model import MachineModel

        fast = MachineModel(alpha=1e-9, beta=1e-12, flop_time=1e-10)
        t_default = table2_dgefa(n=64, procs=(4,))
        t_fast = table2_dgefa(n=64, procs=(4,), machine=fast)
        assert t_fast.cell(4, "Alignment") < t_default.cell(4, "Alignment")


class TestProgramSources:
    """The benchmark program generators emit valid, compilable source."""

    def test_tomcatv_parses(self):
        from repro.ir import parse_and_build
        from repro.programs import tomcatv_source

        proc = parse_and_build(tomcatv_source(n=16, niter=1, procs=2))
        assert proc.symbols.require("X").rank == 2

    def test_dgefa_parses(self):
        from repro.ir import parse_and_build
        from repro.programs import dgefa_source

        proc = parse_and_build(dgefa_source(n=16, procs=2))
        assert proc.symbols.require("A").dims == ((1, 16), (1, 16))

    def test_appsp_variants_parse(self):
        from repro.ir import parse_and_build
        from repro.programs import appsp_source

        for dist in ("1d", "2d"):
            for clause in (True, False):
                proc = parse_and_build(
                    appsp_source(
                        nx=8, ny=8, nz=8, niter=1, procs=4,
                        distribution=dist, use_new_clause=clause,
                    )
                )
                loops = list(proc.loops())
                has_new = any(l.new_vars for l in loops)
                assert has_new == clause

    def test_appsp_bad_distribution(self):
        from repro.programs import appsp_source

        with pytest.raises(ValueError):
            appsp_source(distribution="3d")

    def test_figures_parse(self):
        from repro.ir import parse_and_build
        from repro.programs import (
            figure1_source,
            figure2_source,
            figure4_source,
            figure5_source,
            figure6_source,
            figure7_source,
        )

        for source in (
            figure1_source(),
            figure2_source(),
            figure4_source(),
            figure5_source(),
            figure6_source(),
            figure7_source(),
        ):
            parse_and_build(source)

    def test_input_generators_deterministic(self):
        import numpy as np

        from repro.programs import dgefa_inputs, tomcatv_inputs

        a1 = dgefa_inputs(8)["A"]
        a2 = dgefa_inputs(8)["A"]
        assert np.array_equal(a1, a2)
        x1 = tomcatv_inputs(8)["X"]
        x2 = tomcatv_inputs(8)["X"]
        assert np.array_equal(x1, x2)

    def test_dgefa_inputs_diagonally_dominant(self):
        import numpy as np

        a = dgefa_inputs = __import__(
            "repro.programs", fromlist=["dgefa_inputs"]
        ).dgefa_inputs(8)["A"]
        for k in range(8):
            assert abs(a[k, k]) > np.abs(np.delete(a[k], k)).sum() / 8


class TestSimulatorBackedTables:
    def test_table1_simulated_shape(self):
        from repro.report import table1_tomcatv_simulated

        table = table1_tomcatv_simulated(n=12, niter=2, procs=(4,))
        selected = table.cell(4, "Selected Alignment")
        assert selected < table.cell(4, "Replication")
        assert selected < table.cell(4, "Producer Alignment")

    def test_table3_simulated_shape(self):
        from repro.report import table3_appsp_simulated

        table = table3_appsp_simulated(n=8, niter=2, procs=(4,))
        assert table.cell(4, "2-D, Partial Priv.") < table.cell(
            4, "2-D, No Partial Priv."
        )
        assert table.cell(4, "1-D, Priv.") < table.cell(4, "1-D, No Array Priv.")


class TestCommittedTables:
    """The paper tables at paper sizes are the committed texts, byte
    for byte — ``benchmarks/output/table2_dgefa.txt`` once sat a whole
    estimator change (PR 6's exact triangular trip counts) behind what
    ``repro tables`` printed, and nothing noticed."""

    OUTPUT = (
        pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "output"
    )

    @pytest.mark.parametrize("name, build", [
        ("table1_tomcatv", table1_tomcatv),
        ("table2_dgefa", table2_dgefa),
        ("table3_appsp", table3_appsp),
    ])
    def test_rendered_table_equals_committed_text(self, name, build):
        committed = (self.OUTPUT / f"{name}.txt").read_text()
        assert build().render() + "\n" == committed
