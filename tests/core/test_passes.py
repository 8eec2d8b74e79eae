"""PassManager / PipelineTimings unit tests."""

import pytest

from repro.core import (
    DEFAULT_PIPELINE,
    CompilerOptions,
    PassManager,
    build_context,
    compile_procedure,
    compile_source,
)
from repro.ir.build import parse_and_build

STENCIL = (
    "PROGRAM STEN\n"
    "  REAL A(32), B(32)\n"
    "  REAL t\n"
    "!HPF$ PROCESSORS P(4)\n"
    "!HPF$ ALIGN B(i) WITH A(i)\n"
    "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
    "  DO i = 2, 31\n"
    "    t = B(i - 1) + B(i + 1)\n"
    "    A(i) = 0.5 * t\n"
    "  END DO\n"
    "END PROGRAM\n"
)

# KK = KK + 2 each iteration: a recognized induction variable, so the
# induction pass substitutes its closed form and mutates the IR.
INDUCTION = (
    "PROGRAM IND\n"
    "  REAL A(64), B(64)\n"
    "  INTEGER KK\n"
    "!HPF$ PROCESSORS P(4)\n"
    "!HPF$ DISTRIBUTE (BLOCK) :: A, B\n"
    "  KK = 0\n"
    "  DO i = 1, 32\n"
    "    KK = KK + 2\n"
    "    A(KK) = B(KK)\n"
    "  END DO\n"
    "END PROGRAM\n"
)


def test_rows_are_the_default_pipeline():
    """``message-combining`` is the one conditional stage."""
    manager = PassManager()
    proc = parse_and_build(STENCIL)
    _, combined = manager.run(proc, CompilerOptions(combine_messages=True))
    assert tuple(combined.passes) == DEFAULT_PIPELINE
    _, plain = manager.run(proc, CompilerOptions())
    assert tuple(plain.passes) == DEFAULT_PIPELINE[:-1]


@pytest.mark.parametrize("name", ("lowering", "slabexec"))
def test_derived_products_are_not_passes(name):
    """They are read off the CompiledProgram, not scheduled."""
    assert len(DEFAULT_PIPELINE) == 13
    assert name not in DEFAULT_PIPELINE
    compiled = compile_source(STENCIL, CompilerOptions(combine_messages=True))
    assert name not in compiled.timings.passes


def test_run_produces_all_products():
    manager = PassManager()
    state, timings = manager.run(parse_and_build(STENCIL), CompilerOptions())
    for product in (
        "ctx",
        "scalar_pass",
        "array_result",
        "cf_decisions",
        "executors",
        "comm",
    ):
        assert product in state, product
    assert timings.total_seconds > 0
    assert set(timings.passes) >= {"ssa", "scalar-mapping", "comm-analysis"}


def test_second_compile_hits_analysis_cache():
    manager = PassManager()
    proc = parse_and_build(STENCIL)
    compile_procedure(proc, CompilerOptions(), manager=manager)
    second = compile_procedure(
        proc, CompilerOptions(strategy="producer"), manager=manager
    )
    for cached_pass in ("ssa", "reductions", "privatizability", "context"):
        assert second.timings.cache_hit(cached_pass), cached_pass
    # mapping back end is option-dependent and re-runs
    assert not second.timings.cache_hit("scalar-mapping")
    assert manager.context_hits > 0


def test_cache_distinguishes_options():
    """num_procs is part of the key of the context — the grid and
    everything resolved against it."""
    manager = PassManager()
    proc = parse_and_build(STENCIL)
    a = compile_procedure(proc, CompilerOptions(num_procs=4), manager=manager)
    b = compile_procedure(proc, CompilerOptions(num_procs=8), manager=manager)
    assert a.grid.size == 4
    assert b.grid.size == 8
    assert not b.timings.cache_hit("grid")
    assert not b.timings.cache_hit("context")
    # IR analyses don't depend on the grid and are still shared
    assert b.timings.cache_hit("ssa")


def test_transform_pass_invalidates_and_reruns_frontend():
    manager = PassManager()
    proc = parse_and_build(INDUCTION)
    epoch_before = proc.ir_epoch
    first = compile_procedure(proc, CompilerOptions(), manager=manager)
    assert first.ctx.inductions, "expected KK to be recognized as induction var"
    assert proc.ir_epoch > epoch_before
    # the substitution forced a frontend recompute within the first run
    assert first.timings.passes["ssa"].calls == 2
    # second compile: the substituted IR + its inductions replay from cache
    second = compile_procedure(proc, CompilerOptions(), manager=manager)
    assert second.timings.cache_hit("ssa")
    assert second.timings.cache_hit("induction")
    assert second.ctx.inductions == first.ctx.inductions
    assert second.report() == first.report()


def test_external_mutation_invalidates_cache():
    """Any finalize() after a tree change (e.g. scalar expansion)
    bumps the epoch; the manager must not serve stale analyses."""
    manager = PassManager()
    proc = parse_and_build(STENCIL)
    first = compile_procedure(proc, CompilerOptions(), manager=manager)
    proc.finalize()  # simulate an out-of-pipeline transform
    second = compile_procedure(proc, CompilerOptions(), manager=manager)
    assert not second.timings.cache_hit("ssa")
    assert second.report() == first.report()


def test_parse_cache_shares_ir():
    manager = PassManager()
    a = compile_source(STENCIL, CompilerOptions(), manager=manager)
    b = compile_source(STENCIL, CompilerOptions(), manager=manager)
    assert a.proc is b.proc
    assert b.timings.cache_hit("parse")
    assert a.report() == b.report()


def test_option_ablations_share_one_context(monkeypatch):
    """Strategy ablations on one grid share the context; every grid
    shares the IR analyses, and with them the hoisting verdicts."""
    from repro.core import context

    queries = []
    query = context.read_may_see_loop_write

    def counting(proc, read, loop):
        queries.append((read.ref_id, loop.stmt_id))
        return query(proc, read, loop)

    monkeypatch.setattr(context, "read_may_see_loop_write", counting)
    manager = PassManager()
    proc = parse_and_build(STENCIL)
    selected, producer, replication = (
        compile_procedure(proc, CompilerOptions(strategy=strategy), manager=manager)
        for strategy in ("selected", "producer", "replication")
    )
    assert selected.ctx is producer.ctx is replication.ctx
    asked = len(queries)
    assert asked == len(set(queries)) > 0
    wider = compile_procedure(proc, CompilerOptions(num_procs=8), manager=manager)
    assert wider.ctx is not selected.ctx
    frontend = manager._analyses[(proc.uid, proc.ir_epoch)][0]
    assert wider.ctx._hoisting is selected.ctx._hoisting is frontend.hoisting
    assert len(frontend.hoisting) == asked
    assert len(queries) == asked  # the other grid asked nothing again
    assert (manager.context_hits, manager.context_misses) == (2, 2)


def test_build_context_result_is_never_handed_to_a_compile():
    from repro.mapping.grid import default_grid

    manager = PassManager()
    proc = parse_and_build(INDUCTION)
    special = build_context(
        proc, grid=default_grid(16, rank=1), substitute_inductions=False
    )
    assert special.grid.size == 16 and not special.inductions
    compiled = compile_procedure(proc, CompilerOptions(), manager=manager)
    assert compiled.ctx is not special
    assert compiled.grid.size == 4 and compiled.ctx.inductions
    assert not compiled.timings.cache_hit("context")


def test_build_context_seeds_and_overrides():
    from repro.mapping.grid import default_grid

    proc = parse_and_build(STENCIL)
    ctx = build_context(proc)
    assert ctx.grid.size == 4  # PROCESSORS P(4)
    override = default_grid(16, rank=1)
    assert build_context(parse_and_build(STENCIL), grid=override).grid.size == 16
    assert build_context(parse_and_build(STENCIL), num_procs=8).grid.size == 8
    no_subst = build_context(parse_and_build(INDUCTION), substitute_inductions=False)
    assert no_subst.inductions == []
    subst = build_context(parse_and_build(INDUCTION))
    assert subst.inductions


def test_timings_render_and_merge():
    manager = PassManager()
    compiled = compile_source(STENCIL, CompilerOptions(), manager=manager)
    rendered = compiled.timings.render()
    assert "parse" in rendered and "comm-analysis" in rendered and "total" in rendered
    merged = compiled.timings.merge(
        compile_source(STENCIL, CompilerOptions(), manager=manager).timings
    )
    assert merged.passes["parse"].calls == 2
    data = merged.as_dict()
    assert data["total_seconds"] > 0
    assert any(p["name"] == "ssa" for p in data["passes"])
