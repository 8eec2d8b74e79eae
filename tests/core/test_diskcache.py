"""The persistent compile cache: content addressing, corruption
safety, and — the contract everything else rides on — byte-identical
simulation results whether a program was compiled fresh or revived
from disk."""

import json
import pickle

import pytest

from repro.core import diskcache, passes
from repro.core.diskcache import (
    CACHE_SCHEMA,
    CompileCache,
    as_compile_cache,
    default_cache_dir,
    options_signature,
    pipeline_fingerprint,
)
from repro.core.driver import CompilerOptions, compile_source
from repro.machine.simulator import simulate
from repro.programs import tomcatv_inputs, tomcatv_source

SRC = tomcatv_source(n=8, niter=1, procs=2)
OPTS = CompilerOptions(num_procs=2)


def _compile():
    return compile_source(SRC, OPTS)


def _stats(compiled):
    inputs = tomcatv_inputs(8)
    return json.dumps(
        simulate(compiled, inputs).canonical_stats(), sort_keys=True
    )


class TestKeys:
    def test_key_is_stable(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.key(SRC, OPTS) == cache.key(SRC, OPTS)

    def test_key_varies_with_source(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.key(SRC, OPTS) != cache.key(SRC + "\n", OPTS)

    def test_key_varies_with_options(self, tmp_path):
        cache = CompileCache(tmp_path)
        other = CompilerOptions(num_procs=2, strategy="producer")
        assert cache.key(SRC, OPTS) != cache.key(SRC, other)

    def test_key_varies_with_machine(self, tmp_path):
        from repro.model import MachineModel

        cache = CompileCache(tmp_path)
        other = CompilerOptions.from_overrides(
            OPTS, machine=MachineModel(alpha=1e-9)
        )
        assert cache.key(SRC, OPTS) != cache.key(SRC, other)

    def test_key_varies_with_pipeline(self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        key = cache.key(SRC, OPTS)
        monkeypatch.setattr(passes, "DEFAULT_PIPELINE", ("grid", "ssa"))
        assert cache.key(SRC, OPTS) != key

    def test_key_is_pinned(self, tmp_path, monkeypatch):
        """Re-captured when the nest-cost constants left the options
        signature (an entry written before then misses once and is
        recomputed).  A new key here orphans every existing cache —
        bump ``CACHE_SCHEMA`` on purpose, never by accident."""
        monkeypatch.setattr(diskcache, "_package_version", lambda: "pinned")
        source = (
            "PROGRAM STEN\n"
            "  REAL A(32), B(32)\n"
            "!HPF$ PROCESSORS P(4)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 2, 31\n"
            "    A(i) = B(i - 1) + B(i + 1)\n"
            "  END DO\n"
            "END PROGRAM\n"
        )
        options = CompilerOptions(num_procs=4, strategy="producer")
        assert CompileCache(tmp_path).key(source, options) == (
            "a17f917d17160c854f698d7c58802cec7adc0743a58f78b36e6e94f2bc2ae1f5"
        )

    def test_options_signature_covers_every_field(self):
        signature = options_signature(OPTS)
        import dataclasses

        for field in dataclasses.fields(CompilerOptions):
            assert f"{field.name}=" in signature

    def test_fingerprint_includes_schema(self, monkeypatch):
        fingerprint = pipeline_fingerprint()
        assert fingerprint == pipeline_fingerprint()
        monkeypatch.setattr(diskcache, "CACHE_SCHEMA", CACHE_SCHEMA + 1)
        bumped = pipeline_fingerprint()
        assert bumped != fingerprint
        monkeypatch.setattr(passes, "DEFAULT_PIPELINE", ("ssa",))
        assert pipeline_fingerprint() != bumped


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = CompileCache(tmp_path)
        compiled, hit = cache.get_or_compile(SRC, OPTS, _compile)
        assert not hit
        again, hit = cache.get_or_compile(SRC, OPTS, _compile)
        assert hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert _stats(compiled) == _stats(again)

    def test_canonical_stats_identical_cold_vs_warm(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold, _ = cache.get_or_compile(SRC, OPTS, _compile)
        warm, hit = cache.get_or_compile(SRC, OPTS, _compile)
        assert hit
        assert _stats(cold) == _stats(warm)

    def test_warm_program_report_matches(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold, _ = cache.get_or_compile(SRC, OPTS, _compile)
        warm, _ = cache.get_or_compile(SRC, OPTS, _compile)
        assert cold.report() == warm.report()

    def test_entry_count_and_clear(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.get_or_compile(SRC, OPTS, _compile)
        assert cache.entry_count() == 1
        assert cache.total_bytes() > 0
        assert cache.clear() == 1
        assert cache.entry_count() == 0


class TestCorruptionSafety:
    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CompileCache(tmp_path)
        key = cache.key(SRC, OPTS)
        cache.get_or_compile(SRC, OPTS, _compile)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:40])
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()
        # and the round-trip after recovery still matches a fresh build
        recovered, hit = cache.get_or_compile(SRC, OPTS, _compile)
        assert not hit
        assert _stats(recovered) == _stats(_compile())

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        key = cache.key(SRC, OPTS)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle at all")
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        key = cache.key(SRC, OPTS)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as handle:
            pickle.dump(("repro-compile-cache", CACHE_SCHEMA + 1, None), handle)
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1

    def test_stale_pipeline_fingerprint_recompiles(self, tmp_path):
        for module, name, stale in (
            (passes, "DEFAULT_PIPELINE", ("grid", "ssa")),
            (diskcache, "CACHE_SCHEMA", CACHE_SCHEMA - 1),
        ):
            cache = CompileCache(tmp_path / name)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, name, stale)
                cache.get_or_compile(SRC, OPTS, _compile)
            # same source+options under the real pipeline: different
            # key, so the stale entry is simply never consulted
            compiled, hit = cache.get_or_compile(SRC, OPTS, _compile)
            assert not hit
            assert cache.entry_count() == 2
            assert _stats(compiled) == _stats(_compile())

    def test_store_failure_degrades_gracefully(self, tmp_path):
        cache = CompileCache(tmp_path / "root")
        compiled = _compile()

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("nope")

        assert cache.store("ab" * 32, Unpicklable()) is False
        assert cache.stats.store_errors == 1
        # a real program still stores fine afterwards
        assert cache.store(cache.key(SRC, OPTS), compiled) is True


class TestUnpickledIdentity:
    def test_revived_procedure_gets_fresh_uid(self, tmp_path):
        """A revived CompiledProgram must never alias the uid-keyed
        lowering/analysis caches of live procedures."""
        cache = CompileCache(tmp_path)
        cold, _ = cache.get_or_compile(SRC, OPTS, _compile)
        warm, hit = cache.get_or_compile(SRC, OPTS, _compile)
        assert hit
        assert warm.proc.uid != cold.proc.uid


class TestHelpers:
    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_cache_dir_xdg(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro"

    def test_as_compile_cache_forms(self, tmp_path):
        assert as_compile_cache(None) is None
        assert as_compile_cache(False) is None
        cache = CompileCache(tmp_path)
        assert as_compile_cache(cache) is cache
        assert as_compile_cache(tmp_path).root == tmp_path
        assert as_compile_cache(True).root == default_cache_dir()

    def test_stats_dict_shape(self, tmp_path):
        cache = CompileCache(tmp_path)
        stats = cache.stats_dict()
        assert stats["root"] == str(tmp_path)
        assert stats["entries"] == 0
        assert stats["schema"] == CACHE_SCHEMA
        assert set(stats["session"]) == {
            "hits", "misses", "stores", "corrupt", "store_errors",
        }


class TestCompileManyIntegration:
    def test_compile_many_uses_cache(self, tmp_path):
        from repro.core.driver import compile_many

        cache = CompileCache(tmp_path)
        jobs = [
            {"source": SRC, "options": {"num_procs": 2}},
            {"source": SRC, "options": {"num_procs": 4}},
        ]
        compile_many(jobs, cache=cache)
        assert cache.stats.misses == 2 and cache.stats.stores == 2
        compile_many(jobs, cache=cache)
        assert cache.stats.hits == 2
