"""Shared benchmark fixtures.

``output_dir`` is ``benchmarks/output/``, where the simulator benchmark
writes the Chrome trace and metrics JSON that CI uploads.  The paper's
tables and claims are not benchmarks: ``repro tables`` prints them and
``tests/integration/test_paper_claims.py`` asserts them.
"""

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
