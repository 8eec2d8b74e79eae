"""Unit tests of the repro.obs tracing + metrics primitives."""

import json

import pytest

from repro.obs import (
    Metrics,
    NULL_TRACER,
    Tracer,
    validate_chrome_trace,
)
from repro.obs.tracer import _NULL_SPAN


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", tid=3, items=7):
            pass
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["tid"] == 3
        assert event["args"] == {"items": 7}
        assert event["dur"] >= 0.0

    def test_span_add_attaches_args(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.add(found=2)
        assert tracer.events[0]["args"] == {"found": 2}

    def test_instant_and_counter(self):
        tracer = Tracer()
        tracer.instant("tick", src=1, dst=2)
        tracer.counter("queue", depth=4)
        phs = [e["ph"] for e in tracer.events]
        assert phs == ["i", "C"]
        assert tracer.events[0]["s"] == "t"
        assert tracer.events[1]["args"] == {"depth": 4}

    def test_timestamps_are_monotonic(self):
        tracer = Tracer()
        for i in range(5):
            tracer.instant(f"e{i}")
        stamps = [e["ts"] for e in tracer.events]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work", cost="should not even allocate"):
            tracer.instant("tick")
            tracer.counter("queue", depth=1)
        assert len(tracer) == 0

    def test_disabled_span_is_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b") is _NULL_SPAN
        assert NULL_TRACER.span("c") is _NULL_SPAN
        _NULL_SPAN.add(anything=1)  # no-op, no error

    def test_clear(self):
        tracer = Tracer()
        tracer.instant("tick")
        tracer.clear()
        assert len(tracer) == 0

    def test_chrome_export_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.instant("inner")
        chrome = tracer.to_chrome()
        assert validate_chrome_trace(chrome) == []
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_rejects_bad_event(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0}]}
        )
        assert any("pid" in p for p in problems)
        assert any("dur" in p for p in problems)

    def test_rejects_negative_ts(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "x", "ph": "i", "ts": -1, "pid": 0, "tid": 0}
                ]
            }
        )
        assert any("ts" in p for p in problems)

    def test_accepts_empty(self):
        assert validate_chrome_trace({"traceEvents": []}) == []


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.inc("a", 2)
        metrics.inc("b", 0.5)
        assert metrics.counters == {"a": 3, "b": 0.5}

    def test_gauges_overwrite(self):
        metrics = Metrics()
        metrics.gauge("x", 1)
        metrics.gauge("x", 9)
        assert metrics.gauges["x"] == 9

    def test_histograms_summarize(self):
        metrics = Metrics()
        for v in (1, 2, 3):
            metrics.observe("h", v)
        summary = metrics.histograms["h"].as_dict()
        assert summary == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                           "mean": 2.0}

    def test_empty_histogram_mean_is_none(self):
        from repro.obs import Histogram

        assert Histogram().as_dict()["mean"] is None

    def test_as_dict_is_sorted_and_json_stable(self):
        metrics = Metrics()
        metrics.inc("z")
        metrics.inc("a")
        metrics.gauge("m", 1)
        first = json.dumps(metrics.as_dict(), sort_keys=True)
        second = json.dumps(metrics.as_dict(), sort_keys=True)
        assert first == second
        assert list(metrics.as_dict()["counters"]) == ["a", "z"]

    def test_merge(self):
        left, right = Metrics(), Metrics()
        left.inc("c", 1)
        right.inc("c", 2)
        right.gauge("g", 5)
        left.observe("h", 1)
        right.observe("h", 10)
        left.merge(right)
        assert left.counters["c"] == 3
        assert left.gauges["g"] == 5
        merged = left.histograms["h"].as_dict()
        assert merged["count"] == 2
        assert merged["min"] == 1.0 and merged["max"] == 10.0

    def test_write_round_trip(self, tmp_path):
        metrics = Metrics()
        metrics.inc("messages", 6)
        metrics.observe("per_event", 3)
        path = tmp_path / "metrics.json"
        metrics.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["messages"] == 6
        assert loaded["histograms"]["per_event"]["count"] == 1

    def test_render_mentions_every_name(self):
        metrics = Metrics()
        metrics.inc("count.one")
        metrics.gauge("gauge.two", 2)
        metrics.observe("hist.three", 3)
        text = metrics.render()
        for name in ("count.one", "gauge.two", "hist.three"):
            assert name in text
        assert Metrics().render() == "  (no metrics recorded)"


class TestEndToEnd:
    """The obs layer wired through compile + simulate."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.core import CompilerOptions, compile_source
        from repro.core.passes import PassManager
        from repro.machine import simulate
        from repro.programs import tomcatv_inputs, tomcatv_source

        tracer = Tracer()
        metrics = Metrics()
        manager = PassManager(tracer=tracer)
        compiled = compile_source(
            tomcatv_source(n=12, niter=1, procs=4),
            CompilerOptions(),
            manager=manager,
        )
        sim = simulate(
            compiled, tomcatv_inputs(12), tracer=tracer, metrics=metrics
        )
        manager.collect_metrics(metrics)
        return tracer, metrics, sim

    def test_span_taxonomy(self, traced_run):
        tracer, _, _ = traced_run
        names = {e["name"] for e in tracer.events}
        assert "parse" in names
        assert any(n.startswith("pass:") for n in names)
        assert any(n.startswith("simulate[") for n in names)
        # a fully-slabbed run reports takeovers; the lowered tier's
        # per-fetch msg.startup instants are checked below
        assert "slab.takeover" in names
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_lowered_tier_emits_message_startups(self, traced_run):
        from repro.machine import simulate
        from repro.programs import tomcatv_inputs

        _, _, sim = traced_run
        tracer = Tracer()
        lowered = simulate(
            sim.compiled,
            tomcatv_inputs(12),
            tier="lowered",
            tracer=tracer,
        )
        startups = [
            e for e in tracer.events if e["name"] == "msg.startup"
        ]
        assert len(startups) == lowered.stats.messages
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_metrics_cover_all_layers(self, traced_run):
        _, metrics, sim = traced_run
        gauges = metrics.gauges
        assert gauges["sim.messages"] == sim.stats.messages
        assert gauges["sim.slab_coverage"] == round(sim.slab_coverage, 6)
        assert "compile.cache.misses" in gauges
        assert gauges["lowering.closures_emitted"] > 0
        assert metrics.histograms["sim.messages_per_event"].count > 0
        # sum of per-event message counts = total coalesced startups
        # attributed to placed events
        assert (
            metrics.histograms["sim.messages_per_event"].total
            <= sim.stats.messages
        )

    def test_tracing_does_not_disable_the_slab_tier(self, traced_run):
        _, _, sim = traced_run
        assert sim.slab_coverage > 0.8

    def test_collect_metrics_is_idempotent(self, traced_run):
        _, metrics, sim = traced_run
        before = json.dumps(metrics.as_dict(), sort_keys=True)
        sim.collect_metrics(metrics)
        after = json.dumps(metrics.as_dict(), sort_keys=True)
        assert before == after
