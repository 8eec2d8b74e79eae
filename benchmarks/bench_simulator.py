"""Simulator engine benchmark: tier-3 slab kernels vs tier-2 lowered
closures vs the tree-walking interpreter, plus the cost-driven
``tier="auto"`` mode that consults the compiled TierPlan per nest.

Every run asserts **bit-for-bit identity** across all four paths —
virtual clocks, traffic statistics, and complete per-rank memory state
— before any timing is trusted; the identity asserts double as the
CI divergence gate (``BENCH_SIM_SMOKE=1`` shrinks the problem sizes
for the smoke job; full mode uses the paper's problem sizes).  All
three paper programs must keep >=80% of their loop instances on the
slab path and beat the lowered engine in both the blanket-slab and
auto tiers at full size; the smoke job gates coverage on all three
and allows 10% timing noise on the auto ratio.  The sequential
reference (``run_sequential`` on the untransformed procedure, lowered
beforehand like the compiled program is) is timed in the same process
and must not cost more than the slab-tier simulation it validates —
``reference_vs_slab <= 1.0``, a ratio, at every size.  The
disabled-tracer overhead is the median over alternated pairs of runs —
a single pair on this host reads anywhere from 0.7 to 1.5.  Results —
including the per-nest tier decisions and how many takeovers each nest
committed — land in ``BENCH_simulator.json`` at the repository root.
"""

import gc
import json
import os
import pathlib
import statistics
import time

import pytest

from repro.codegen.seq import run_sequential
from repro.core import CompilerOptions, compile_source
from repro.ir.build import parse_and_build
from repro.ir.stmt import LoopStmt
from repro.machine import simulate
from repro.obs import Metrics, Tracer, validate_chrome_trace
from repro.programs import (
    appsp_inputs,
    appsp_source,
    dgefa_inputs,
    dgefa_source,
    tomcatv_inputs,
    tomcatv_source,
)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
SMOKE = os.environ.get("BENCH_SIM_SMOKE") == "1"

#: accumulated across the parametrized timing tests, rewritten on each
#: update so an -x abort still leaves a consistent file
_RESULTS: dict[str, dict] = {}

#: per-program floors on the recorded metrics; identity is always
#: asserted, these additionally gate the speedups and slab coverage
if SMOKE:
    # smoke sizes run in milliseconds: the auto-vs-lowered ratio only
    # guards against a gross regression, real floors live in full mode
    _SMOKE_GATES = {"slab_coverage": 0.8, "speedup_auto_vs_lowered": 0.8}
    _JOBS = [
        (
            "tomcatv",
            tomcatv_source(n=33, niter=1, procs=8),
            tomcatv_inputs(33),
            dict(_SMOKE_GATES),
        ),
        ("dgefa", dgefa_source(n=40, procs=4), dgefa_inputs(40),
         dict(_SMOKE_GATES)),
        (
            "appsp-2d",
            appsp_source(nx=8, ny=8, nz=8, niter=1, procs=4, distribution="2d"),
            appsp_inputs(8, 8, 8),
            dict(_SMOKE_GATES),
        ),
    ]
else:
    _FULL_GATES = {
        "slab_coverage": 0.8,
        "speedup_vs_lowered": 1.0,
        "speedup_auto_vs_lowered": 1.0,
    }
    _JOBS = [
        # the paper's tomcatv problem size; the ISSUE's slab targets
        (
            "tomcatv",
            tomcatv_source(n=513, niter=1, procs=16),
            tomcatv_inputs(513),
            {
                "speedup": 3.0,
                "speedup_slab": 10.0,
                "speedup_vs_lowered": 2.5,
                **_FULL_GATES,
            },
        ),
        ("dgefa", dgefa_source(n=120, procs=16), dgefa_inputs(120),
         dict(_FULL_GATES)),
        (
            "appsp-2d",
            appsp_source(nx=16, ny=16, nz=16, niter=1, procs=16, distribution="2d"),
            appsp_inputs(16, 16, 16),
            dict(_FULL_GATES),
        ),
    ]


def assert_identical(fast, slow):
    """The whole observable machine state, bit for bit."""
    assert fast.clocks.snapshot() == slow.clocks.snapshot()
    assert fast.stats.as_dict() == slow.stats.as_dict()
    for fm, sm in zip(fast.memories, slow.memories):
        for name in sm.arrays:
            assert fm.arrays[name].tobytes() == sm.arrays[name].tobytes(), name
            assert fm.valid[name].tobytes() == sm.valid[name].tobytes(), name
        assert fm.scalars == sm.scalars
        assert fm.scalar_valid == sm.scalar_valid


#: alternated (default, disabled-tracer) run pairs behind one
#: ``tracer_overhead`` reading
TRACER_PAIRS = 5


def _tracer_overhead(compiled, inputs):
    """Disabled-tracer overhead of the slab tier: the same run with an
    explicit disabled Tracer attached must cost what the default
    (NULL_TRACER) run costs — the obs hooks are one attribute load and
    one branch.  The median ratio over ``TRACER_PAIRS`` pairs,
    alternating which side runs first so host drift cancels; also
    returns the last traced simulation for the identity asserts."""
    ratios = []
    for pair in range(TRACER_PAIRS):
        seconds = {}
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            started = time.perf_counter()
            sim = simulate(
                compiled, inputs, tier="slab",
                tracer=Tracer(enabled=False) if traced else None,
            )
            seconds[traced] = time.perf_counter() - started
            if traced:
                traced_sim = sim
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios), traced_sim


def _slab_counts(compiled, inputs):
    """Takeovers committed and fetched elements replayed inside them,
    per nest, under the blanket slab tier — keyed on the loop's
    pre-order ordinal like ``tier_decisions`` (statement ids drift
    across compiles).  An untimed run: metrics stay off the clock."""
    metrics = Metrics()
    simulate(compiled, inputs, tier="slab", metrics=metrics)
    loops = [s for s in compiled.proc.all_stmts() if isinstance(s, LoopStmt)]
    ordinal = {f"S{loop.stmt_id}": f"L{k:02d}" for k, loop in enumerate(loops)}
    counts = {}
    for kind in ("takeover", "fetch_replay"):
        prefix = f"slab.{kind}[loop="
        counts[kind] = {
            ordinal[key[len(prefix):-1]]: int(count)
            for key, count in sorted(metrics.counters.items())
            if key.startswith(prefix)
        }
    return counts


def _write_json():
    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "simulator_fast_path",
                "mode": "smoke" if SMOKE else "full",
                "programs": _RESULTS,
            },
            indent=2,
        )
        + "\n"
    )


@pytest.mark.parametrize(
    "name,source,inputs,gates", _JOBS, ids=[j[0] for j in _JOBS]
)
def test_engine_speedups(name, source, inputs, gates):
    compiled = compile_source(source, CompilerOptions())
    # The tiers are timed on the same footing: the products each one
    # derives from the compiled program on first read exist up front.
    assert compiled.lowering.assigns
    tierplan = compiled.tierplan  # plans over compiled.slabs

    # Collector off for the four single-shot timings: a full collection
    # landing inside one ~12 ms smoke-size run reads as that tier being
    # 3x slower, and which run it lands in moves with how many objects
    # the process happened to allocate before (it moved when `import
    # repro` stopped loading concurrent.futures).
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        slow = simulate(compiled, inputs, tier="interpreted")
        interpreted_s = time.perf_counter() - started

        started = time.perf_counter()
        fast = simulate(compiled, inputs, tier="lowered")
        lowered_s = time.perf_counter() - started

        started = time.perf_counter()
        slab = simulate(compiled, inputs, tier="slab")
        slab_s = time.perf_counter() - started

        started = time.perf_counter()
        auto = simulate(compiled, inputs, tier="auto")
        auto_s = time.perf_counter() - started
    finally:
        gc.enable()

    tracer_overhead, traced = _tracer_overhead(compiled, inputs)
    counts = _slab_counts(compiled, inputs)

    # The reference Session.run validates against, as a run pays for
    # it: emitting the closures' source is part of every reference run.
    proc = parse_and_build(source)
    started = time.perf_counter()
    run_sequential(proc, inputs)
    reference_s = time.perf_counter() - started

    assert_identical(fast, slow)
    assert_identical(slab, slow)
    assert_identical(auto, slow)
    assert_identical(traced, slow)
    for array in inputs:
        assert fast.gather(array).tobytes() == slow.gather(array).tobytes()
        assert slab.gather(array).tobytes() == slow.gather(array).tobytes()
        assert auto.gather(array).tobytes() == slow.gather(array).tobytes()

    measured = {
        "speedup": interpreted_s / lowered_s,
        "speedup_slab": interpreted_s / slab_s,
        "speedup_vs_lowered": lowered_s / slab_s,
        "speedup_auto_vs_lowered": lowered_s / auto_s,
        "slab_coverage": slab.slab_coverage,
        "slab_coverage_auto": auto.slab_coverage,
    }
    _RESULTS[name] = {
        "interpreted_s": round(interpreted_s, 4),
        "lowered_s": round(lowered_s, 4),
        "slab_s": round(slab_s, 4),
        "auto_s": round(auto_s, 4),
        "reference_s": round(reference_s, 4),
        "reference_vs_slab": round(reference_s / slab_s, 3),
        **{k: round(v, 3) for k, v in measured.items()},
        "tracer_overhead": round(tracer_overhead, 4),
        "tracer_pairs": TRACER_PAIRS,
        # coverage/traffic columns (identical across tiers by the
        # asserts above)
        "messages": slab.stats.messages,
        "elements": slab.stats.elements,
        "fetches": slab.stats.fetches,
        # per-nest decision breakdown: what the TierPlan predicted and
        # what the auto run actually chose, on stable loop ordinals
        "tierplan": tierplan.summary(),
        "tier_decisions": auto.canonical_stats()["tiers"],
        # takeovers each nest committed under the blanket slab tier,
        # and the fetched elements replayed inside them
        "takeovers": counts["takeover"],
        "fetch_replay": counts["fetch_replay"],
        "paper_size": not SMOKE,
    }
    _write_json()
    for metric, floor in gates.items():
        assert measured[metric] >= floor, (
            f"{name}: {metric} only {measured[metric]:.3f} (need >={floor})"
        )
    assert reference_s <= slab_s, (
        f"{name}: the sequential reference took {reference_s:.4f} s, the "
        f"slab-tier simulation it validates {slab_s:.4f} s"
    )
    if not SMOKE and name == "tomcatv":
        # the ISSUE's acceptance bound; smoke sizes are milliseconds and
        # too noisy for a 2% ratio, so only the paper size asserts
        assert tracer_overhead <= 1.02, (
            f"{name}: disabled-tracer slab run {tracer_overhead:.4f}x "
            f"the default run, median of {TRACER_PAIRS} alternated pairs "
            "(need <=1.02)"
        )


def _variants():
    return [
        ("selected", CompilerOptions()),
        ("producer", CompilerOptions(strategy="producer")),
        ("replication", CompilerOptions(strategy="replication")),
        ("noalign", CompilerOptions(strategy="noalign")),
        ("no-align-reductions", CompilerOptions(align_reductions=False)),
        ("no-partial-priv", CompilerOptions(partial_privatization=False)),
        ("no-msg-vec", CompilerOptions(message_vectorization=False)),
        ("combine", CompilerOptions(combine_messages=True)),
    ]


_SMALL = [
    ("tomcatv", tomcatv_source(n=8, niter=2, procs=4), tomcatv_inputs(8)),
    ("dgefa", dgefa_source(n=10, procs=4), dgefa_inputs(10)),
    (
        "appsp-2d",
        appsp_source(nx=6, ny=6, nz=6, niter=1, procs=4, distribution="2d"),
        appsp_inputs(6, 6, 6),
    ),
]


def test_trace_and_metrics_artifacts(output_dir):
    """An enabled run emits a valid Chrome trace and a metrics JSON;
    both land in ``benchmarks/output/`` (CI uploads them), and tracing
    does not perturb the machine state."""
    from repro.core.passes import PassManager

    source = tomcatv_source(n=33, niter=1, procs=8)
    inputs = tomcatv_inputs(33)
    tracer = Tracer()
    metrics = Metrics()
    manager = PassManager(tracer=tracer)
    compiled = compile_source(source, CompilerOptions(), manager=manager)
    traced = simulate(compiled, inputs, tracer=tracer, metrics=metrics)
    manager.collect_metrics(metrics)

    plain = simulate(compiled, inputs)
    assert_identical(traced, plain)

    assert len(tracer) > 0
    chrome = tracer.to_chrome()
    assert validate_chrome_trace(chrome) == []
    names = {e["name"] for e in chrome["traceEvents"]}
    assert any(n.startswith("pass:") for n in names)
    assert any(n.startswith("simulate[") for n in names)

    trace_path = output_dir / "trace_tomcatv.json"
    tracer.write(str(trace_path))
    assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
    metrics_path = output_dir / "metrics_tomcatv.json"
    metrics.write(str(metrics_path))
    loaded = json.loads(metrics_path.read_text())
    assert loaded["gauges"]["sim.messages"] == plain.stats.messages
    assert loaded["gauges"]["sim.slab_coverage"] >= 0.8


@pytest.mark.parametrize("vname,options", _variants(), ids=[v[0] for v in _variants()])
@pytest.mark.parametrize(
    "pname,source,inputs", _SMALL, ids=[p[0] for p in _SMALL]
)
def test_identity_under_every_ablation(pname, source, inputs, vname, options):
    """Bit-for-bit parity on all three paper programs under every
    mapping-strategy and optimization ablation, across all three
    execution engines."""
    compiled = compile_source(source, options)
    slab = simulate(compiled, inputs, tier="slab")
    fast = simulate(compiled, inputs, tier="lowered")
    slow = simulate(compiled, inputs, tier="interpreted")
    assert_identical(fast, slow)
    assert_identical(slab, slow)


# -- the fuzz corpus as extra identity gates --------------------------------

_CORPUS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "tests" / "corpus")
    .glob("*.hpf")
)


@pytest.mark.parametrize("path", _CORPUS, ids=[p.stem for p in _CORPUS])
def test_identity_on_fuzz_corpus(path):
    """The checked-in fuzz survivors (feature-diverse generated
    programs plus every minimized divergence class a campaign has
    found) hold bit-for-bit identity across all four engine modes —
    the same gate the paper programs get, on shapes they never hit."""
    from repro.fuzz.harness import make_inputs

    source = path.read_text()
    for procs in (3, 4):
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        inputs = make_inputs(source, 0)
        slow = simulate(compiled, dict(inputs), tier="interpreted")
        fast = simulate(compiled, dict(inputs), tier="lowered")
        slab = simulate(compiled, dict(inputs), tier="slab")
        auto = simulate(compiled, dict(inputs), tier="auto")
        assert_identical(fast, slow)
        assert_identical(slab, slow)
        assert_identical(auto, slow)
