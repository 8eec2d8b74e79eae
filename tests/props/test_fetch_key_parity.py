"""Parity: the three tiers send the same *messages*, not just the same
number of them.

Every tier inserts its coalescing keys — one per message — into the
one ``SPMDSimulator._fetch_keys_seen`` set, all built by
``SPMDSimulator._coalesce_key``.  ``stats.messages`` is only that set's
size; here the sets themselves must be equal, on the three kernels and
on every program of the checked-in fuzz corpus.
"""

import pathlib

import pytest

from repro.codegen.seq import seeded_inputs
from repro.core import CompilerOptions, compile_source
from repro.machine import simulate
from repro.programs import appsp_source, dgefa_source, tomcatv_source

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

KERNELS = {
    "tomcatv": tomcatv_source(n=12, niter=2, procs=4),
    "dgefa": dgefa_source(n=12, procs=4),
    "appsp": appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
}
PROGRAMS = {
    **KERNELS,
    **{path.stem: path.read_text() for path in sorted(CORPUS.glob("*.hpf"))},
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_tiers_open_the_same_messages(name):
    compiled = compile_source(PROGRAMS[name], CompilerOptions(num_procs=4))
    inputs = seeded_inputs(compiled.proc, 0)
    sims = {
        tier: simulate(compiled, dict(inputs), tier=tier)
        for tier in ("interpreted", "lowered", "slab")
    }
    keys = {tier: sim._fetch_keys_seen for tier, sim in sims.items()}
    assert keys["lowered"] == keys["interpreted"]
    assert keys["slab"] == keys["interpreted"]
    # one shape per kind of key, whoever built it
    assert {(key[0], len(key)) for key in keys["slab"]} <= {("evt", 5), ("raw", 6)}
    if name in KERNELS:
        # not vacuous: the kernels send messages, and take nests over
        assert keys["slab"] and sims["slab"].slab_instances
