"""Every simulator engine against a frozen record of what a run sends.

``golden_traffic.json`` holds, for the three kernels and every program
of ``tests/corpus`` at P = 1, 3 and 4 (inputs seeded with 0), what the
run communicated and where it left the machine: the message, element,
fetch and reduction counts, ``unexpected_fetches``, the fetched
elements per communication event (keyed by event ordinal, as
``canonical_stats`` keys them), and a sha256 each of the clocks
snapshot and of the store (every rank's data and validity bytes of
every array, and every scalar's slots).

The record was taken once, from the per-statement SPMD interpreter the
simulator had before its lowered closures: an engine that evaluated
each statement instance by walking its expression tree on one executor
rank at a time.  It shared the store, the fetch charge, the reduction
combine and the compiler's executor decisions with the engines that
run now, but not their closures, executor tables or slab plan: a change
there that moves a message or a clock tick fails here even when the
engines move together.  Regenerate it only for a deliberate change of
the cost model, and review the diff.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import CompilerOptions, compile_source
from repro.fuzz.harness import make_inputs
from repro.machine import simulate
from repro.programs import appsp_source, dgefa_source, tomcatv_source

HERE = pathlib.Path(__file__).resolve().parent
SNAPSHOT = HERE / "golden_traffic.json"
CORPUS = HERE.parent / "corpus"

PROCS = (1, 3, 4)

#: program name -> its source at a processor count
KERNELS = {
    "tomcatv": lambda procs: tomcatv_source(n=17, niter=1, procs=procs),
    "dgefa": lambda procs: dgefa_source(n=12, procs=procs),
    "appsp": lambda procs: appsp_source(nx=8, ny=8, nz=8, niter=1, procs=procs),
}

COUNTS = ("messages", "elements", "fetches", "reductions", "unexpected_fetches")


def source_of(program: str, procs: int) -> str:
    if program in KERNELS:
        return KERNELS[program](procs)
    return (CORPUS / f"{program}.hpf").read_text()


def programs() -> list[str]:
    return [*KERNELS, *(path.stem for path in sorted(CORPUS.glob("*.hpf")))]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(sim) -> dict:
    """What the snapshot holds of one finished run."""
    canonical = sim.canonical_stats()
    stats = canonical["stats"]
    store = sim.store
    memory = hashlib.sha256()
    for name in sorted(store.data):
        memory.update(store.data[name].tobytes())
        memory.update(store.valid[name].tobytes())
    for name in sorted(store.scalars):
        memory.update(repr((store.scalars[name], store.scalar_valid[name])).encode())
    return {
        **{key: stats[key] for key in COUNTS},
        "per_event_fetches": stats["per_event_fetches"],
        "clocks_sha256": _sha256(json.dumps(canonical["clocks"]).encode()),
        "store_sha256": memory.hexdigest(),
    }


def run(program: str, procs: int, tier: str) -> dict:
    source = source_of(program, procs)
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    return record(simulate(compiled, make_inputs(source, 0), tier=tier))


def _snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())["runs"]


RUNS = sorted(_snapshot())


def test_the_snapshot_covers_the_kernels_and_the_corpus():
    assert RUNS == sorted(
        f"{program}/P{procs}" for program in programs() for procs in PROCS
    )
    runs = _snapshot()
    assert all(runs[f"{p}/P1"]["messages"] == 0 for p in programs())
    assert sum(run["messages"] > 0 for run in runs.values()) > len(programs())


@pytest.mark.parametrize("tier", ["lowered", "slab"])
@pytest.mark.parametrize("key", RUNS)
def test_traffic_clocks_and_store_match_the_snapshot(key, tier):
    program, procs = key.split("/P")
    assert run(program, int(procs), tier) == _snapshot()[key]
