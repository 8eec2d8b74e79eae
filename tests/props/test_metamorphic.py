"""Metamorphic properties of the simulator's cost model.

Traffic is a function of the distribution descriptors alone, and time
is traffic and work priced by the machine's parameters.  Two
consequences need no reference engine to check:

* doubling every price (``alpha``, ``beta``, ``flop_time``,
  ``stmt_overhead``) doubles every clock entry exactly: every charge is
  a sum of products of one price with a count, folded with ``+`` and
  ``max``, and multiplying a double by two is exact, so the doubled run
  must equal twice the plain run bit for bit, with the same traffic;
* one rank holds every element, so a run at P = 1 sends nothing.

Both run under the lowered and slab engines on the three kernels, the
fuzz corpus and fuzz seeds 0-19.
"""

import dataclasses

import pytest

from repro.core import CompilerOptions, compile_source
from repro.fuzz import generate
from repro.fuzz.harness import make_inputs
from repro.machine import simulate

from ..machine.test_golden_traffic import programs, source_of

#: program name -> its source at a processor count: the kernels and the
#: corpus at the golden snapshot's sizes, then generated programs
PROGRAMS = {
    **{
        name: lambda procs, name=name: source_of(name, procs)
        for name in programs()
    },
    **{
        f"seed{seed:02d}": lambda procs, seed=seed: generate(seed).emit(procs)
        for seed in range(20)
    },
}

ENGINES = ("lowered", "slab")


def _compile(program, procs):
    source = PROGRAMS[program](procs)
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    return compiled, make_inputs(source, 0)


@pytest.mark.parametrize("tier", ENGINES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_doubling_every_price_doubles_every_clock(program, tier):
    compiled, inputs = _compile(program, 4)
    plain = simulate(compiled, dict(inputs), tier=tier)
    machine = plain.machine
    dearer = dataclasses.replace(
        machine,
        alpha=2 * machine.alpha,
        beta=2 * machine.beta,
        flop_time=2 * machine.flop_time,
        stmt_overhead=2 * machine.stmt_overhead,
    )
    doubled = simulate(compiled, dict(inputs), machine=dearer, tier=tier)
    assert doubled.stats.as_dict() == plain.stats.as_dict()
    twice = {
        field: [2 * t for t in times]
        for field, times in plain.clocks.snapshot().items()
    }
    assert doubled.clocks.snapshot() == twice
    assert plain.elapsed > 0


@pytest.mark.parametrize("tier", ENGINES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_one_rank_sends_nothing(program, tier):
    compiled, inputs = _compile(program, 1)
    stats = simulate(compiled, inputs, tier=tier).stats
    assert stats.messages == stats.elements == 0
