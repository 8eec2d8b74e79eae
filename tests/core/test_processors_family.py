"""Processor-count families: source texts that differ only in the shape
of their one ``!HPF$ PROCESSORS`` directive parse once per manager and
share one ``Procedure`` (one set of statement ids, one set of IR
analyses, one lowering), while each compile still runs on its own
directive's grid.

Every variant compiled on one shared manager must be indistinguishable
from the same text compiled on a fresh manager: the report, the
communication events, the executor positions, the estimate, and what
both simulator engines do.  Texts the pre-scan cannot read (and the
shapes no grid has) compile — or fail — exactly as they do alone.
"""

import math
import re
from pathlib import Path

import pytest

from repro.codegen.seq import seeded_inputs
from repro.core import CompilerOptions, PassManager, compile_source
from repro.core.passes import processors_family
from repro.errors import ReproError
from repro.machine import lowering, simulate
from repro.mapping.grid import default_grid
from repro.perf.estimator import PerfEstimator
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.report.tables import table1_tomcatv, table2_dgefa, table3_appsp

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

PROCS = (1, 2, 3, 4, 8)
#: a 2-D grid of each processor count
SHAPES_2D = {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (4, 2)}

DIRECTIVE = re.compile(r"(!HPF\$ PROCESSORS \w+)\(([^)]*)\)")


def _with_shape(source: str, shape: tuple[int, ...]) -> str:
    extents = ", ".join(map(str, shape))
    return DIRECTIVE.sub(lambda m: f"{m.group(1)}({extents})", source, count=1)


def _directive_shape(source: str) -> tuple[int, ...]:
    return tuple(int(e) for e in DIRECTIVE.search(source).group(2).split(","))


def _corpus_variants(path: Path) -> list[str]:
    text = path.read_text()
    if len(_directive_shape(text)) == 1:
        return [_with_shape(text, (p,)) for p in PROCS]
    return [_with_shape(text, SHAPES_2D[p]) for p in PROCS]


#: program -> its source at every processor count of PROCS
FAMILIES = {
    "tomcatv": [tomcatv_source(n=10, niter=1, procs=p) for p in PROCS],
    "dgefa": [dgefa_source(n=10, procs=p) for p in PROCS],
    "appsp-1d": [
        appsp_source(nx=6, ny=6, nz=6, niter=1, procs=p, distribution="1d")
        for p in PROCS
    ],
    "appsp-2d": [
        appsp_source(nx=6, ny=6, nz=6, niter=1, procs=p, distribution="2d")
        for p in PROCS
    ],
    **{
        path.stem: _corpus_variants(path)
        for path in sorted(CORPUS.glob("*.hpf"))
        if "PROCESSORS" in path.read_text()
    },
}


def _ordinals(compiled) -> dict[int, int]:
    return {
        stmt.stmt_id: k for k, stmt in enumerate(compiled.proc.all_stmts())
    }


def _by_ordinal(text: str, ordinals: dict[int, int]) -> str:
    """``text`` with every statement id written as its ordinal: two
    parses of one text number their statements differently."""
    return re.sub(
        r"\bS(\d+)\b",
        lambda m: f"S#{ordinals.get(int(m.group(1)), m.group(0))}",
        text,
    )


def _facts(compiled) -> dict:
    """What a compile of one variant decided and what running it does,
    free of statement ids."""
    ordinals = _ordinals(compiled)
    facts = {
        "grid": (compiled.grid.name, compiled.grid.shape),
        "report": _by_ordinal(compiled.report(), ordinals),
        "events": [
            (event.ordinal, _by_ordinal(str(event), ordinals))
            for event in compiled.comm.events
        ],
        "executors": sorted(
            (ordinals[sid], info.kind, repr(info.position), info.union_dims)
            for sid, info in compiled.executors.items()
        ),
        "estimate": PerfEstimator(compiled).estimate().total_time,
    }
    inputs = seeded_inputs(compiled.proc, 0)
    for tier in ("lowered", "slab"):
        try:
            stats = simulate(compiled, inputs, tier=tier).canonical_stats()
        except ReproError as exc:
            stats = (type(exc).__name__, str(exc))
        facts[tier] = stats
    return facts


def _outcome(source: str, options: CompilerOptions, manager: PassManager):
    try:
        compiled = compile_source(source, options, manager=manager)
    except ReproError as exc:
        return (type(exc).__name__, str(exc)), None
    return _facts(compiled), compiled


def _own_shape(source: str, options: CompilerOptions) -> tuple[int, ...]:
    """The directive's shape, or its rescale to ``num_procs``."""
    shape = _directive_shape(source)
    if options.num_procs in (None, math.prod(shape)):
        return shape
    return default_grid(options.num_procs, rank=len(shape)).shape


@pytest.mark.parametrize("program", sorted(FAMILIES))
def test_family_compiles_equal_fresh_compiles(program):
    sources = FAMILIES[program]
    # every text on its own grid, and the first rescaled to four
    # processors: a grid the shared context key must tell apart
    jobs = [(source, CompilerOptions()) for source in sources]
    jobs.append((sources[0], CompilerOptions(num_procs=4)))
    shared = PassManager()
    procs = set()
    for source, options in jobs:
        family, compiled = _outcome(source, options, shared)
        fresh, _ = _outcome(source, options, PassManager())
        assert family == fresh, (program, options)
        if compiled is not None:
            procs.add(compiled.proc.uid)
            assert compiled.grid.shape == _own_shape(source, options)
    assert len(procs) == 1
    parse = shared.metrics.passes["parse"]
    assert (parse.calls, parse.cache_hits) == (len(jobs), len(jobs) - 1)


def test_a_family_shares_its_analyses_and_lowering(monkeypatch):
    lowered = []
    lower = lowering.lower_procedure

    def counting(proc):
        lowered.append(proc.uid)
        return lower(proc)

    monkeypatch.setattr(lowering, "lower_procedure", counting)
    manager = PassManager()
    programs = [
        compile_source(source, CompilerOptions(), manager=manager)
        for source in FAMILIES["tomcatv"]
    ]
    assert [c.grid.size for c in programs] == list(PROCS)
    assert len({c.proc.uid for c in programs}) == 1
    assert manager.metrics.passes["ssa"].cache_hits == len(PROCS) - 1
    for compiled in programs:
        simulate(compiled, seeded_inputs(compiled.proc, 0), tier="lowered")
    assert lowered == [programs[0].proc.uid]
    assert all(c.lowering is programs[0].lowering for c in programs)


def test_paper_tables_parse_one_text_per_program():
    """Table 1 sweeps one TOMCATV text, Table 2 one DGEFA text, Table 3
    a 1-D and a 2-D APPSP text, each over the processor counts."""
    manager = PassManager()
    table1_tomcatv(n=17, niter=1, procs=(1, 2, 4, 8, 16), manager=manager)
    table2_dgefa(n=20, procs=(2, 4, 8, 16), manager=manager)
    table3_appsp(n=8, niter=1, procs=(2, 4, 8, 16), manager=manager)
    parse = manager.metrics.passes["parse"]
    assert parse.calls == 5 * 3 + 4 * 2 + 4 * 4  # one per table cell
    assert parse.calls - parse.cache_hits == 4
    assert len(manager._parse_cache) == 4


# ---------------------------------------------------------------------------
# Directive forms the pre-scan does not read, and shapes no grid has
# ---------------------------------------------------------------------------

STENCIL = """PROGRAM STEN
  PARAMETER (np = 4)
  REAL A(32), B(32)
  REAL t
{directive}
!HPF$ ALIGN B(i) WITH A(i)
!HPF$ DISTRIBUTE (BLOCK) :: A
  DO i = 2, 31
    t = B(i - 1) + B(i + 1)
    A(i) = 0.5 * t
  END DO
END PROGRAM
"""

#: form -> (its directive lines, whether a sibling text of the same
#: family shares its parse)
FORMS = {
    "none": ("", False),
    "two": ("!HPF$ PROCESSORS P(4)\n!HPF$ PROCESSORS Q(2)", False),
    "named-extent": ("!HPF$ PROCESSORS P(np)", False),
    # keyed on itself, this text is its family's masked text
    "no-extent": ("!HPF$ PROCESSORS P()", False),
    "lowercase": ("!hpf$ processors p(4)", True),
    "after-code": ("  t = 0.0 !HPF$ PROCESSORS P(4)", False),
    "zero": ("!HPF$ PROCESSORS P(0)", True),
    "negative": ("!HPF$ PROCESSORS P(-2)", False),
    "2-D on a 1-D distribution": ("!HPF$ PROCESSORS P(2, 2)", True),
}

#: the sibling compiled first: the same program on another shape
SIBLINGS = {
    "lowercase": "!hpf$ processors p(2)",
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("num_procs", (None, 2))
def test_unread_forms_compile_or_fail_as_alone(form, num_procs):
    directive, shares = FORMS[form]
    source = STENCIL.format(directive=directive)
    sibling = STENCIL.format(
        directive=SIBLINGS.get(form, "!HPF$ PROCESSORS P(8)")
    )
    options = CompilerOptions(num_procs=num_procs)
    manager = PassManager()
    compile_source(sibling, options, manager=manager)
    family, _ = _outcome(source, options, manager)
    fresh, _ = _outcome(source, options, PassManager())
    assert family == fresh
    assert manager.metrics.passes["parse"].cache_hits == int(shares)
    assert (processors_family(source)[1] is not None) == shares


def test_the_unread_forms_still_fail_with_their_typed_errors():
    """What the parity above compares: the shapes no grid has fail in
    grid or mapping resolution, the malformed texts in the front end."""
    expected = {
        "two": "DirectiveError",
        "after-code": "ParseError",
        "zero": "MappingError",
        "negative": "MappingError",
        "2-D on a 1-D distribution": "MappingError",
    }
    for form, error in expected.items():
        source = STENCIL.format(directive=FORMS[form][0])
        outcome, compiled = _outcome(source, CompilerOptions(), PassManager())
        assert compiled is None and outcome[0] == error, (form, outcome)
