"""compile_many batch API: cache-reuse results must be bit-identical
(modulo global statement numbering) to fresh sequential compiles, for
every ablation-flag combination."""

import re

import pytest

from repro.core import (
    BatchJob,
    CompilerOptions,
    PassManager,
    compile_many,
    compile_source,
)
from repro.programs import appsp_source, dgefa_source, tomcatv_source


def canonical(report: str) -> str:
    """Statement ids come from a process-global counter, so two parses
    of the same source label the same statements differently; renumber
    them in order of first appearance before comparing reports."""
    mapping: dict[str, str] = {}

    def renumber(match: re.Match) -> str:
        return mapping.setdefault(match.group(0), f"S{len(mapping) + 1}")

    return re.sub(r"\bS\d+\b", renumber, report)


ABLATIONS = [
    CompilerOptions(),
    CompilerOptions(combine_messages=True),
    CompilerOptions(auto_privatize_arrays=True),
    CompilerOptions(message_vectorization=False),
    CompilerOptions(
        combine_messages=True,
        auto_privatize_arrays=True,
        message_vectorization=False,
    ),
    CompilerOptions(strategy="producer"),
    CompilerOptions(align_reductions=False),
    CompilerOptions(partial_privatization=False),
]


@pytest.mark.parametrize(
    "name,source",
    [
        ("tomcatv", tomcatv_source(n=65, niter=2, procs=8)),
        ("dgefa", dgefa_source(n=100, procs=8)),
        (
            "appsp",
            appsp_source(
                nx=8, ny=8, nz=8, niter=1, procs=8, distribution="2d",
                use_new_clause=False,
            ),
        ),
    ],
)
def test_batch_matches_fresh_compiles(name, source):
    batch = compile_many([BatchJob(source=source, options=o) for o in ABLATIONS])
    assert len(batch) == len(ABLATIONS)
    for options, compiled in zip(ABLATIONS, batch):
        fresh = compile_source(source, options)
        assert canonical(compiled.report()) == canonical(fresh.report()), options
        assert len(compiled.comm.events) == len(fresh.comm.events)
        assert len(compiled.comm.reduces) == len(fresh.comm.reduces)
    # all ablations of one source share the analysis cache: every job
    # after the first replays parse + front end from cache
    for compiled in batch[1:]:
        assert compiled.timings.cache_hit("parse")
        assert compiled.timings.cache_hit("ssa")
        assert compiled.timings.cache_hit("privatizability")


def test_batch_preserves_job_order_across_sources():
    sources = {
        "tomcatv": tomcatv_source(n=33, niter=1, procs=4),
        "dgefa": dgefa_source(n=50, procs=4),
    }
    jobs = [
        BatchJob(source=sources["tomcatv"], options=CompilerOptions(), label="t-sel"),
        BatchJob(source=sources["dgefa"], options=CompilerOptions(), label="d-sel"),
        BatchJob(
            source=sources["tomcatv"],
            options=CompilerOptions(strategy="replication"),
            label="t-rep",
        ),
    ]
    results = compile_many(jobs)
    assert results[0].proc.name == "TOMCATV"
    assert results[1].proc.name == "DGEFA"
    assert results[2].proc.name == "TOMCATV"
    assert results[2].options.strategy == "replication"
    # one shared manager: jobs 0 and 2 share one parsed procedure
    assert results[0].proc is results[2].proc


def test_batch_accepts_tuples_and_plain_sources():
    src = tomcatv_source(n=33, niter=1, procs=4)
    results = compile_many([src, (src, CompilerOptions(strategy="producer"))])
    assert results[0].options.strategy == "selected"
    assert results[1].options.strategy == "producer"


def test_batch_interleaved_sources_keep_job_order_and_parse_once():
    """Jobs alternating between sources come back in job order, and
    the shared manager still parses each source exactly once."""
    tomcatv = tomcatv_source(n=33, niter=1, procs=4)
    dgefa = dgefa_source(n=50, procs=4)
    jobs = [
        BatchJob(tomcatv, CompilerOptions()),
        BatchJob(dgefa, CompilerOptions(align_reductions=False)),
        BatchJob(tomcatv, CompilerOptions(strategy="producer")),
        BatchJob(dgefa, CompilerOptions()),
    ]
    results = compile_many(jobs)
    fresh = [compile_source(j.source, j.options) for j in jobs]
    for compiled, expected in zip(results, fresh):
        assert canonical(compiled.report()) == canonical(expected.report())
    assert [r.timings.cache_hit("parse") for r in results] == [
        False, False, True, True,
    ]
    assert results[0].proc is results[2].proc
    assert results[1].proc is results[3].proc


def test_batch_with_explicit_manager_retains_cache():
    manager = PassManager()
    src = tomcatv_source(n=33, niter=1, procs=4)
    compile_many([(src, CompilerOptions())], manager=manager)
    followup = compile_source(src, CompilerOptions(strategy="producer"), manager=manager)
    assert followup.timings.cache_hit("parse")
    assert followup.timings.cache_hit("ssa")


class TestNumProcsValidation:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="num_procs"):
            CompilerOptions(num_procs=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="num_procs"):
            CompilerOptions(num_procs=-4)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="num_procs"):
            CompilerOptions(num_procs=2.5)

    def test_none_and_positive_accepted(self):
        assert CompilerOptions(num_procs=None).num_procs is None
        assert CompilerOptions(num_procs=16).num_procs == 16
