"""The paper's claims, one row each: (claim id, the sentence
EXPERIMENTS.md prints, a predicate).

The predicates of Tables 1–3 read the rows ``repro.report`` builds at
the paper's sizes (the session's ``paper_tables``, whose rendered text
``tests/test_report.py`` pins); the other rows compile at paper size.
``test_experiments_quotes_every_row`` keeps EXPERIMENTS.md in step: each
sentence appears there (up to line wrapping) and each ✔ opens one.  A
figure's ✔ opens a sentence of ``FIGURES`` and names the module of
``tests/core`` that asserts it.
"""

import pathlib

import pytest

from repro.comm.events import CommEvent
from repro.core import CompilerOptions, compile_procedure, compile_source
from repro.core.expansion import expand_scalars
from repro.ir import ScalarRef
from repro.perf import PerfEstimator, memory_report
from repro.programs import appsp_source, figure1_source, figure7_source, tomcatv_source
from repro.report import table1_tomcatv_simulated, table3_appsp_simulated

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOMCATV = tomcatv_source(n=513, niter=5, procs=16)
FIGURE1 = figure1_source(n=513, procs=16)
FIGURE7 = figure7_source(n=513, procs=16)


def appsp(distribution, **kwargs):
    return appsp_source(
        nx=64, ny=64, nz=64, niter=5, procs=16, distribution=distribution, **kwargs
    )


def compiled(source, **options):
    return compile_source(source, CompilerOptions(**options))


def estimate(source, **options):
    return PerfEstimator(compiled(source, **options)).estimate()


def seconds(source, **options):
    return estimate(source, **options).total_time


def rising(xs):
    return all(b > a for a, b in zip(xs, xs[1:]))


def falling(xs):
    return rising(xs[::-1])


def below(xs, ys):
    return all(x < y for x, y in zip(xs, ys))


def producer_flat(t):
    """Flat from P = 2 on, above the serial time, and the privatized
    scalars' inner-loop transfers are the whole price at P = 16."""
    producer, cost = t[1][1], estimate(TOMCATV, strategy="producer")
    inner = sum(
        c.time for c in cost.event_costs
        if isinstance(c.event, CommEvent) and c.event.is_inner_loop
        and isinstance(c.event.ref, ScalarRef)
    )
    return (
        max(producer[1:]) < 1.01 * min(producer[1:]) and min(producer[1:]) > producer[0]
        and inner > 0.99 * cost.total_time
    )


def only_selected_scales(t):
    replication, producer, selected = t[1]
    return (
        falling(selected) and f"{selected[0] / selected[-1]:.1f}" == "14.8"
        and min(replication[1:] + producer[1:]) > selected[0]
    )


def overhead_share(t):
    """The overhead grows at most by the log-tree factor from P = 2 to
    16 (log2 16 = 4), and its share of the Alignment time rises."""
    overhead = [d - a for d, a in zip(*t[2])]
    shares = [100 * o / a for o, a in zip(overhead, t[2][1])]
    return (
        [f"{o:.2f}" for o in overhead[::3]] == ["0.22", "0.80"]
        and overhead[-1] <= 4 * overhead[0] and rising(shares)
        and [f"{s:.2g}" for s in shares] == ["1.4", "5.2", "13", "27"]
    )


def nopriv_worst(t):
    nopriv_1d, priv_1d, nopart_2d, part_2d = t[3]
    return (
        all(max(row) in (row[0], row[2]) for row in zip(*t[3]))
        and below(priv_1d, nopriv_1d) and below(part_2d, nopart_2d)
        and rising(nopriv_1d) and rising(nopart_2d)
    )


def full_privatization_fails(t):
    """Within 2x of no privatization at every P, not scaling, and the
    compiler records why the NEW array C stayed replicated."""
    nopriv_1d, _, nopart_2d, _ = t[3]
    failures = compiled(appsp("2d"), partial_privatization=False).array_result.failures
    [(name, loop, reason)] = failures
    return (
        all(0.5 < b / a < 2 for a, b in zip(nopriv_1d, nopart_2d)) and rising(nopart_2d)
        and (name, loop.new_vars, loop.level) == ("C", ("C",), 2)
        and reason.startswith("AlignLevel 3 > loop level 2")
    )


def crossover(t):
    _, priv_1d, _, part_2d = t[3]
    cells = [part_2d[0], priv_1d[0], priv_1d[-1], part_2d[-1]]
    return [f"{c:.2f}" for c in cells] == ["0.39", "1.30", "0.17", "1.10"]


def no_control_flow_privatization(t):
    replicated = compiled(FIGURE7, privatize_control_flow=False).comm.events
    return (
        not compiled(FIGURE7).comm.events and replicated
        and {(e.ref.symbol.name, e.pattern.kind) for e in replicated} == {("B", "broadcast")}
        and seconds(FIGURE7) < seconds(FIGURE7, privatize_control_flow=False)
    )


def auto_privatization(t):
    """Per distribution, the inferred privatization is the declared one
    at the same price; with neither, APPSP prices as unprivatized."""
    for dist, partial in (("1d", False), ("2d", True)):
        deleted = appsp(dist, use_new_clause=False)
        inferred, declared = compiled(deleted, auto_privatize_arrays=True), compiled(appsp(dist))
        [priv] = inferred.array_result.privatizations
        [want] = declared.array_result.privatizations
        if not (
            (priv.array.name, priv.is_partial) == ("C", partial)
            and (priv.privatized_grid_dims, priv.partitioned_dims)
            == (want.privatized_grid_dims, want.partitioned_dims)
            and PerfEstimator(inferred).estimate().total_time == seconds(appsp(dist))
            and seconds(deleted) == seconds(appsp(dist), privatize_arrays=False)
        ):
            return False
    return True


def message_combining(t):
    before, after = estimate(TOMCATV).comm_time, estimate(TOMCATV, combine_messages=True).comm_time
    events = [len(compiled(TOMCATV, combine_messages=c).comm.events) for c in (False, True)]
    return (
        events == [16, 4] and round(before / after) == 3
        and (f"{before:.3f}", f"{after:.3f}") == ("0.014", "0.005")
    )


def expansion(t):
    expanded = compile_procedure(expand_scalars(TOMCATV, num_procs=16).proc, CompilerOptions())
    privatized = compiled(TOMCATV)
    memory = [memory_report(c).total_bytes for c in (privatized, expanded)]
    times = [f"{PerfEstimator(c).estimate().total_time:.2f}" for c in (privatized, expanded)]
    return round(memory[1] / memory[0]) == 3 and times == ["0.19", "0.23"]


def simulated_table3(t):
    table = table3_appsp_simulated(n=8, niter=2, procs=(4,))
    nopriv_1d, priv_1d, nopart_2d, part_2d = table.rows[0][1]
    return priv_1d < nopriv_1d and part_2d < nopart_2d


CLAIMS = [
    ("table1-replication", "replication degrades monotonically with P",
     lambda t: rising(t[1][0])),
    ("table1-producer", "producer alignment is flat — dominated by per-element "
     "inner-loop transfers of the privatized scalars", producer_flat),
    ("table1-selected", "only selected alignment speeds up (14.8× at P = 16)",
     only_selected_scales),
    ("table1-two-orders", "selected beats the worst baseline by ~2500× (> 2 "
     "orders of magnitude)",
     lambda t: round(max(t[1][0][-1], t[1][1][-1]) / t[1][2][-1], -2) == 2500),
    ("table2-wins", "Alignment wins at every P", lambda t: below(t[2][1], t[2][0])),
    ("table2-scales", "both versions scale (the elimination itself is parallel "
     "across columns)", lambda t: falling(t[2][0]) and falling(t[2][1])),
    ("table2-share", "the Default's extra overhead grows only with the log-tree "
     "factor (0.22 s → 0.80 s) while its share of the runtime grows from 1.4% at "
     "P = 2 through 5.2% and 13% to 27% at P = 16", overhead_share),
    ("table3-nopriv", "the no-privatization variants are the worst at every P "
     "and get *worse* as P grows", nopriv_worst),
    ("table3-full-priv-fails", '"2-D, No Partial Priv." lands in the same '
     "disaster regime as no privatization at all (full privatization fails: "
     "AlignLevel 3 > NEW-loop level 2 — verified by the compiler's recorded "
     "failure reason)", full_privatization_fails),
    ("table3-crossover", "the paper's crossover reproduces exactly: 2-D is "
     "faster at P = 2 (0.39 s vs 1.30 s) and 1-D at P = 16 (0.17 s vs 1.10 s)",
     crossover),
    ("ablation-veto", "never better than the full algorithm; identical on "
     "TOMCATV's main nest, loses on Fig. 1-style code",
     lambda t: seconds(TOMCATV) == seconds(TOMCATV, strategy="consumer")
     and seconds(FIGURE1) < seconds(FIGURE1, strategy="consumer")),
    ("ablation-noalign", "worse than selected alignment on TOMCATV (partitioned "
     "rhs data fetched by every processor executing the unguarded statements)",
     lambda t: seconds(TOMCATV) < seconds(TOMCATV, strategy="noalign")),
    ("ablation-reduction", "loses to the Section-2.3 mapping on DGEFA (Table 2)",
     lambda t: below(t[2][1], t[2][0])),
    ("ablation-partial", "loses on 2-D APPSP (Table 3)",
     lambda t: below(t[3][3], t[3][2])),
    ("ablation-placement", "prices TOMCATV > 10× above the vectorizing model",
     lambda t: seconds(TOMCATV, message_vectorization=False) > 10 * seconds(TOMCATV)),
    ("ablation-control-flow", "predicate broadcasts appear on Fig. 7 where the "
     "privatized version needs none", no_control_flow_privatization),
    ("future-auto-privatization", "with APPSP's `NEW(C)` clause deleted, the "
     "Tu–Padua-style inference reconstructs exactly the clause-declared decision "
     "(full privatization under 1-D, partial under 2-D) and recovers the "
     "privatized performance; without inference the kernel falls into the "
     "replication regime", auto_privatization),
    ("future-message-combining", "TOMCATV's 16 per-reference halo transfers "
     "collapse to 4 combined exchanges; communication time drops ~3× (0.014 s → "
     "0.005 s at n = 513, P = 16)", message_combining),
    ("related-expansion", "expansion needs about 3× the memory of "
     "privatization, which is also faster (0.19 s against 0.23 s)", expansion),
    ("simulated-table1", "selected alignment beats both baselines at P = 2 and 4",
     lambda t: all(row[2] < min(row[:2]) for _, row in table1_tomcatv_simulated(
         n=12, niter=2, procs=(2, 4)).rows)),
    ("simulated-table3", "each privatized variant beats its unprivatized one",
     simulated_table3),
]

FIGURES = [
    ("all four decisions identical; B/C transfers vectorized at level 0; y's "
     "transfer is the only inner-loop event", "test_figure1.py"),
    ("`consumer_candidate` returns `A(i)` / DUMMY respectively; `q` stays "
     "replicated; no H transfers, G transfers present", "test_figure2.py"),
    ("exactly 2 and 3", "test_figure4.py"),
    ("`ReductionMapping(replicated_grid_dims=(1,))`; zero transfers for A; one "
     "allreduce per `i` iteration", "test_figure5.py"),
    ("failure recorded with the AlignLevel reason when partial privatization is "
     "disabled; partial privatization produces exactly `priv=(1,)`, "
     "`partitioned={1: 0}`", "test_figure6.py"),
    ("both decisions privatized; zero communication events for the whole "
     "fragment", "test_figure7.py"),
]


@pytest.fixture(scope="module")
def columns(paper_tables):
    """Table k's columns, each in ascending processor count, at ``[k]``."""
    return {
        k: [list(column) for column in zip(*(row for _, row in table.rows))]
        for k, table in enumerate(paper_tables.values(), start=1)
    }


@pytest.mark.parametrize(
    "sentence, predicate", [row[1:] for row in CLAIMS], ids=[row[0] for row in CLAIMS]
)
def test_claim(columns, sentence, predicate):
    assert predicate(columns), sentence


def test_experiments_quotes_every_row():
    """A ✔ cannot be added or reworded without a row that asserts it."""
    lines = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines()
    text = " ".join(" ".join(lines).split())
    sentences = [row[1] for row in CLAIMS] + [s for s, _ in FIGURES]
    assert [s for s in sentences if s not in text] == []
    assert sum(f"✔ {s}" in text for s in sentences) == text.count("✔")
    for sentence, module in FIGURES:
        [line] = [line for line in lines if sentence in line]
        assert f"`tests/core/{module}`" in line
        assert (ROOT / "tests" / "core" / module).is_file()
