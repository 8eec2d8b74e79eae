"""Shared fixtures: canonical paper program fragments, and the paper's
three tables at paper size."""

import pytest

from repro.core import PassManager
from repro.ir import build_cfg, parse_and_build
from repro.analysis.ssa import build_ssa
from repro.report import table1_tomcatv, table2_dgefa, table3_appsp


@pytest.fixture(scope="session")
def paper_tables():
    """Tables 1–3 at the paper's sizes (the generators' defaults), built
    once per session: ``tests/test_report.py`` pins their rendered text
    and ``tests/integration/test_paper_claims.py`` reads their rows."""
    manager = PassManager()
    return {
        "table1_tomcatv": table1_tomcatv(manager=manager),
        "table2_dgefa": table2_dgefa(manager=manager),
        "table3_appsp": table3_appsp(manager=manager),
    }


FIG1_SRC = """
PROGRAM fig1
  PARAMETER (n = 10)
  REAL A(n), B(n), C(n), D(n), E(n), F(n)
  REAL x, y, z
  INTEGER m, i
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
  m = 2
  DO i = 2, n - 1
    m = m + 1
    x = B(i) + C(i)
    y = A(i) + B(i)
    z = E(i) + F(i)
    A(i + 1) = y / z
    D(m) = x / z
  END DO
END PROGRAM
"""


@pytest.fixture
def fig1_proc():
    return parse_and_build(FIG1_SRC)


@pytest.fixture
def fig1_cfg(fig1_proc):
    return build_cfg(fig1_proc)


@pytest.fixture
def fig1_ssa(fig1_cfg):
    return build_ssa(fig1_cfg)
