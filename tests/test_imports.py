"""``repro.comm`` depends on ``repro.core``, never the other way round
at import time: the one place core reaches comm is the function-level
``from ..comm.analysis import …`` / ``from ..comm.combine import …`` in
``PassManager.run`` (``core/passes.py``) — the idiom ``core/driver.py``
uses for ``repro.machine`` and ``repro.perf`` — so the two packages
import cleanly in either order and ``core/driver.py`` itself names
``repro.comm`` under ``TYPE_CHECKING`` only."""

import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _import_ok(statement: str) -> None:
    result = subprocess.run(
        [sys.executable, "-c", statement],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_core_then_comm():
    _import_ok("import repro.core, repro.comm")


def test_comm_then_core():
    _import_ok("import repro.comm, repro.core")


def test_core_alone_supports_analysis():
    _import_ok(
        "import repro.core; "
        "from repro.ir.build import parse_and_build; "
        "src = 'PROGRAM P\\n  REAL A(8)\\n!HPF$ DISTRIBUTE (BLOCK) :: A\\n"
        "  DO i = 1, 8\\n    A(i) = 1.0\\n  END DO\\nEND PROGRAM\\n'; "
        "ctx = repro.core.build_context(parse_and_build(src)); "
        "assert ctx.grid.size >= 1"
    )


def test_driver_has_no_runtime_comm_import():
    driver = (
        pathlib.Path(SRC) / "repro" / "core" / "driver.py"
    ).read_text()
    runtime = [
        line
        for line in driver.splitlines()
        if "comm" in line and ("import" in line)
        and "TYPE_CHECKING" not in line
        and not line.strip().startswith("#")
    ]
    # the only comm reference may live under `if TYPE_CHECKING:`
    for line in runtime:
        assert line.startswith("    from ..comm"), line
        start = driver.splitlines().index(line)
        preceding = driver.splitlines()[:start]
        assert any("if TYPE_CHECKING:" in p for p in preceding[-2:]), line
