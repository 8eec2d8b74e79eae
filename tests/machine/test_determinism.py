"""Determinism of communication charging and error transparency.

The coalescing key used to embed ``id(event)``, which varies across
runs, GC, and pickle round-trips; it is now the event's stable
per-compile ordinal.  These tests pin the guarantee: the same compiled
program charges identically on every tier no matter how many times it
runs or how it traveled — and the narrowed lowering/slab guards let
genuine programming errors surface instead of silently changing tier.
"""

import pickle

import numpy as np
import pytest

from repro.core import CompilerOptions, compile_source
from repro.machine import simulate
from repro.machine.simulator import SPMDSimulator
from repro.programs import tomcatv_inputs, tomcatv_source

TIERS = ("interpreted", "lowered", "slab")


def _observables(sim: SPMDSimulator):
    memory = [
        (
            {n: a.tobytes() for n, a in m.arrays.items()},
            {n: v.tobytes() for n, v in m.valid.items()},
            dict(m.scalars),
            dict(m.scalar_valid),
        )
        for m in sim.memories
    ]
    return sim.clocks.snapshot(), sim.stats.as_dict(), memory


@pytest.fixture(scope="module")
def compiled():
    return compile_source(
        tomcatv_source(n=16, niter=2, procs=4), CompilerOptions()
    )


@pytest.fixture(scope="module")
def inputs():
    return tomcatv_inputs(16)


class TestEngineSwitch:
    def test_tier_is_the_only_engine_knob(self):
        """``tier=`` is the one way to pick an engine; a second switch
        (or a per-run event buffer) coming back fails here by name."""
        import inspect

        expected = ["compiled", "machine", "tracer", "metrics", "tier"]
        init = list(inspect.signature(SPMDSimulator.__init__).parameters)
        assert init == ["self", *expected]
        assert list(inspect.signature(simulate).parameters) == [
            "compiled", "inputs", *expected[1:]
        ]
        assert inspect.signature(simulate).parameters["tier"].default == "slab"

    def test_unknown_tier_is_refused(self, compiled):
        for bad in (None, "fast", ""):
            with pytest.raises(ValueError, match="tier must be"):
                SPMDSimulator(compiled, tier=bad)


class TestOrdinals:
    def test_every_event_gets_a_distinct_ordinal(self, compiled):
        ordinals = [e.ordinal for e in compiled.comm.events]
        assert ordinals == list(range(len(ordinals)))

    def test_ordinals_survive_pickle(self, compiled):
        clone = pickle.loads(pickle.dumps(compiled))
        assert [e.ordinal for e in clone.comm.events] == [
            e.ordinal for e in compiled.comm.events
        ]

    def test_combined_events_keep_their_ordinal(self):
        compiled = compile_source(
            tomcatv_source(n=12, niter=1, procs=4),
            CompilerOptions(combine_messages=True),
        )
        ordinals = [e.ordinal for e in compiled.comm.events]
        assert all(o >= 0 for o in ordinals)
        assert len(set(ordinals)) == len(ordinals)
        for event in compiled.comm.events:
            for absorbed in event.aliases + event.combined_with:
                assert absorbed.ordinal >= 0


class TestDeterministicCharging:
    @pytest.mark.parametrize("tier", TIERS)
    def test_same_program_twice_charges_identically(
        self, compiled, inputs, tier
    ):
        first = simulate(compiled, inputs, tier=tier)
        second = simulate(compiled, inputs, tier=tier)
        assert _observables(first) == _observables(second)

    @pytest.mark.parametrize("tier", TIERS)
    def test_pickle_round_trip_charges_identically(
        self, compiled, inputs, tier
    ):
        clone = pickle.loads(pickle.dumps(compiled))
        original = simulate(compiled, inputs, tier=tier)
        round_tripped = simulate(clone, inputs, tier=tier)
        assert _observables(original) == _observables(round_tripped)

    def test_unassigned_ordinals_are_normalized(self, compiled, inputs):
        """Hand-built reports (ordinal = -1 everywhere) still charge
        deterministically: the simulator assigns list-order ordinals."""
        clone = pickle.loads(pickle.dumps(compiled))
        for event in clone.comm.events:
            event.ordinal = -1
        sim = SPMDSimulator(clone)
        assert [e.ordinal for e in clone.comm.events] == list(
            range(len(clone.comm.events))
        )
        for name, values in inputs.items():
            sim.set_array(name, values)
        sim.run()
        reference = simulate(compiled, inputs)
        assert _observables(sim) == _observables(reference)


class TestErrorTransparency:
    def test_injected_nameerror_propagates_from_lowering(
        self, compiled, monkeypatch
    ):
        """A programming error hit while lowering a statement must
        surface — the old bare ``except Exception`` guards silently
        left the statement interpreted."""
        from repro.ir.stmt import AssignStmt
        from repro.machine import lowering

        original = lowering._ExprCompiler.emit

        def sabotaged(self, expr):
            _undefined_helper_  # noqa: F821 — the injected bug
            return original(self, expr)

        monkeypatch.setattr(lowering._ExprCompiler, "emit", sabotaged)
        assert any(
            isinstance(s, AssignStmt) for s in compiled.proc.all_stmts()
        )
        with pytest.raises(NameError):
            lowering.lower_procedure(compiled.proc)

    def test_runtime_nameerror_in_closure_propagates(self, inputs):
        """A NameError raised while *executing* a lowered closure also
        surfaces instead of being swallowed into a fallback."""
        from repro.machine import lowering

        compiled_fresh = compile_source(
            tomcatv_source(n=16, niter=2, procs=4), CompilerOptions()
        )
        original = lowering._ExprCompiler.emit

        def sabotaged(self, expr):
            emitted = original(self, expr)
            return lowering._Emitted(
                f"(_undefined_helper_ and {emitted.code})",
                is_int=emitted.is_int,
            )

        monkeypatch_ctx = pytest.MonkeyPatch()
        try:
            monkeypatch_ctx.setattr(
                lowering._ExprCompiler, "emit", sabotaged
            )
            # the derived product is built (and kept) under sabotage
            assert compiled_fresh.lowering.assigns
        finally:
            monkeypatch_ctx.undo()
        with pytest.raises(NameError):
            simulate(compiled_fresh, inputs, tier="lowered")

    def test_injected_nameerror_propagates_from_slab_prepare(
        self, compiled, inputs, monkeypatch
    ):
        from repro.machine import slabexec

        def exploding_prepare(self, low, high, step, env):
            raise NameError("injected bug in slab prepare")

        monkeypatch.setattr(slabexec.NestPlan, "prepare", exploding_prepare)
        with pytest.raises(NameError):
            simulate(compiled, inputs, tier="slab")

    def test_numeric_fold_errors_still_fall_back(self):
        """Constant division by zero keeps the interpreter's runtime
        error semantics — lowering declines the fold, and the guarded
        statement never executes."""
        src = """
PROGRAM guard
  REAL A(8)
  INTEGER i
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE (BLOCK) :: A
  DO i = 1, 8
    IF (i .GT. 99) THEN
      A(i) = 1.0 / (1 - 1)
    ELSE
      A(i) = 2.0
    END IF
  END DO
END PROGRAM
"""
        compiled = compile_source(src, CompilerOptions())
        sim = simulate(compiled, {"A": np.zeros(8)})
        assert np.all(sim.gather("A") == 2.0)


class TestNarrowedSlabGuards:
    """The remaining slab-side guards (inner-bound evaluation while
    NestPlan builds an entry's domain, owner lookup in the vectorized
    fetch path) bail only on their canonical error types; programming
    errors propagate."""

    @staticmethod
    def _patch_eval_bound(monkeypatch, exc):
        import sys

        from repro.machine import lowering

        original = lowering.FastPath.eval_bound

        def sabotaged(self, expr, env):
            if "Plan.prepare" in sys._getframe(1).f_code.co_qualname:
                raise exc
            return original(self, expr, env)

        monkeypatch.setattr(lowering.FastPath, "eval_bound", sabotaged)

    def test_nameerror_in_inner_bound_eval_propagates(
        self, compiled, inputs, monkeypatch
    ):
        self._patch_eval_bound(
            monkeypatch, NameError("injected bug in bound lowering")
        )
        with pytest.raises(NameError):
            simulate(compiled, inputs, tier="slab")

    def test_interpreter_error_in_inner_bound_eval_bails(
        self, compiled, inputs, monkeypatch
    ):
        from repro.errors import InterpreterError
        from repro.obs import Metrics

        self._patch_eval_bound(
            monkeypatch, InterpreterError("bound not evaluable here")
        )
        metrics = Metrics()
        sim = simulate(
            compiled, inputs, tier="slab",
            metrics=metrics,
        )
        reference = simulate(compiled, inputs, tier="interpreted")
        assert _observables(sim) == _observables(reference)
        assert metrics.counters[
            "slab.bail[inner bounds not evaluable]"
        ] >= 1

    @staticmethod
    def _patch_candidates(monkeypatch, exc):
        import sys

        from repro.machine import lowering

        original = lowering._ArrayAccess.owners

        def sabotaged(self, offs):
            if "_fetch_read" in sys._getframe(1).f_code.co_qualname:
                raise exc
            return original(self, offs)

        monkeypatch.setattr(lowering._ArrayAccess, "owners", sabotaged)

    def test_typeerror_in_owner_lookup_propagates(
        self, compiled, inputs, monkeypatch
    ):
        self._patch_candidates(
            monkeypatch, TypeError("injected bug in owner lookup")
        )
        with pytest.raises(TypeError):
            simulate(compiled, inputs, tier="slab")

    def test_mapping_error_in_owner_lookup_bails(
        self, compiled, inputs, monkeypatch
    ):
        from repro.errors import MappingError
        from repro.obs import Metrics

        self._patch_candidates(
            monkeypatch, MappingError("index outside the template")
        )
        metrics = Metrics()
        sim = simulate(
            compiled, inputs, tier="slab",
            metrics=metrics,
        )
        reference = simulate(compiled, inputs, tier="interpreted")
        assert _observables(sim) == _observables(reference)
        assert metrics.counters["slab.bail[owner lookup failed]"] >= 1
