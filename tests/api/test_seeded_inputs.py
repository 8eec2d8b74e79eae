"""One seeded dataset, four consumers.

``Session.run``, the per-job sweep engine, the batched sweep engine and
the fuzz harness all draw their input arrays through
``repro.codegen.seq.seeded_inputs``; this pins that what each of them
hands to the simulator is byte-identical to the helper's own draw (the
symbol order of the compiled procedure and of a fresh parse agree), so
a grid point, a ``repro run`` and a fuzz replay of the same source and
seed are the same experiment.
"""

import pytest

from repro.api import Session
from repro.codegen.seq import seeded_inputs
from repro.fuzz.harness import make_inputs
from repro.ir.build import parse_and_build
from repro.machine import simulator
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.sweep import SweepJob, run_sweep

SOURCES = {
    "tomcatv": tomcatv_source(n=9, niter=1, procs=4),
    "dgefa": dgefa_source(n=8, procs=4),
    "appsp": appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4),
}


def _bytes(inputs: dict) -> dict:
    return {
        name: (a.dtype.str, a.shape, a.tobytes()) for name, a in inputs.items()
    }


@pytest.fixture
def seen(monkeypatch):
    """Input dicts handed to ``simulate``, in call order."""
    calls = []
    real = simulator.simulate

    def recording(compiled, inputs=None, **kwargs):
        calls.append(_bytes(inputs))
        return real(compiled, inputs, **kwargs)

    monkeypatch.setattr(simulator, "simulate", recording)
    return calls


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("seed", (0, 1))
def test_four_call_sites_draw_identical_arrays(name, seed, seen):
    source = SOURCES[name]
    expected = _bytes(seeded_inputs(parse_and_build(source), seed))
    assert list(expected) and all(e[2] for e in expected.values())

    result = Session(use_calibration=False).run(source, seed=seed)
    assert _bytes(result.inputs) == expected

    job = SweepJob(program=name, source=source, mode="simulate", seed=seed)
    for mode in ("pool", "batched"):
        (point,) = run_sweep([job], workers=0, mode=mode)
        assert point.ok, point.error

    assert _bytes(make_inputs(source, seed)) == expected

    # Session.run, the per-job engine, the batched engine
    assert len(seen) == 3
    assert all(inputs == expected for inputs in seen)


def test_seeds_differ():
    proc = parse_and_build(SOURCES["dgefa"])
    assert _bytes(seeded_inputs(proc, 0)) != _bytes(seeded_inputs(proc, 1))
