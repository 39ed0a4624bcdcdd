"""Unit tests for :mod:`repro.obs`: tracer, metrics registry, exporters.

Trace-propagation tests that exercise the serving stack (engine pool
workers, federation fan-out) live in
``tests/test_obs_propagation.py``; this file pins the subsystem's own
contracts — span lifecycle and parenting, the no-op fast path, histogram
quantile math, Prometheus rendering and the exporter formats.
"""

from __future__ import annotations

import io
import json
import re
import threading
from pathlib import Path

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    NOOP_TRACER,
    JsonlExporter,
    MetricsRegistry,
    NoopTracer,
    RingBufferExporter,
    Span,
    TraceContext,
    Tracer,
    default_registry,
    export_jsonl,
    percentile,
    render_span_tree,
    summarize_latencies,
)
from repro.providers.execution import ExecutionStats


def make_tracer(ring: RingBufferExporter | None = None, timer=None):
    ring = ring if ring is not None else RingBufferExporter()
    return Tracer(timer=timer, exporters=(ring,)), ring


class TestTracer:
    def test_nested_spans_parent_automatically(self):
        tracer, ring = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        spans = ring.spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # finish order
        assert spans[1].parent_id is None

    def test_sibling_spans_share_the_parent(self):
        tracer, ring = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = ring.spans()[0], ring.spans()[1]
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_simulated_clock_gives_exact_durations(self):
        fake = [10.0]
        tracer, ring = make_tracer(timer=lambda: fake[0])
        with tracer.span("outer"):
            fake[0] = 10.25
            with tracer.span("inner"):
                fake[0] = 10.75
        by_name = {s.name: s for s in ring.spans()}
        assert by_name["inner"].duration_ms == pytest.approx(500.0)
        assert by_name["outer"].duration_ms == pytest.approx(750.0)

    def test_exception_marks_error_and_propagates(self):
        tracer, ring = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = ring.spans()
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"
        assert span.end is not None

    def test_attach_adopts_remote_parent_across_threads(self):
        tracer, ring = make_tracer()
        captured: dict[str, Span] = {}

        def worker(ctx: TraceContext) -> None:
            with tracer.attach(ctx):
                with tracer.span("child") as child:
                    captured["child"] = child

        with tracer.span("parent") as parent:
            ctx = tracer.context()
            thread = threading.Thread(target=worker, args=(ctx,))
            thread.start()
            thread.join()
        child = captured["child"]
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_attach_none_is_a_noop_scope(self):
        tracer, ring = make_tracer()
        with tracer.attach(None):
            with tracer.span("root") as span:
                pass
        assert span.parent_id is None

    def test_context_is_none_outside_any_span(self):
        tracer, _ = make_tracer()
        assert tracer.context() is None
        assert tracer.current() is None

    def test_detached_start_end_exports(self):
        fake = [0.0]
        tracer, ring = make_tracer(timer=lambda: fake[0])
        span = tracer.start("manual")
        fake[0] = 0.001
        tracer.end(span, status="error")
        assert ring.spans() == [span]
        assert span.status == "error"
        assert span.duration_ms == pytest.approx(1.0)


class TestNoopTracer:
    def test_disabled_and_falsy(self):
        assert NOOP_TRACER.enabled is False
        with NOOP_TRACER.span("anything") as sp:
            assert not sp
            sp.set("k", "v").set_status("error")  # all no-ops, chainable
        assert NOOP_TRACER.context() is None

    def test_span_and_attach_return_shared_singletons(self):
        # Zero allocation on the hot path: every call hands back the
        # same objects.
        assert NOOP_TRACER.span("a") is NOOP_TRACER.span("b")
        assert NOOP_TRACER.attach(None) is NOOP_TRACER.attach(None)
        assert NoopTracer().span("x") is NOOP_TRACER.span("x")


class TestPercentileHelpers:
    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 51.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([], 0.5) == 0.0

    def test_summarize_latencies(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0
        assert set(summary) == {"mean", "p50", "p95", "p99", "max"}
        assert summarize_latencies([]) == {
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }


class TestMetricsRegistry:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", ("endpoint",), "help text")
        family.labels("a").inc()
        family.labels("a").inc(2)
        family.labels("b").inc()
        assert family.labels("a").value == 3
        assert family.total() == 4
        assert family.label_values() == ["a", "b"]
        assert family.get("missing") is None

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth").labels()
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 4.0

    def test_redeclaration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("n", ("x",))
        assert registry.counter("n", ("x",)) is first
        with pytest.raises(ValueError):
            registry.gauge("n", ("x",))
        with pytest.raises(ValueError):
            registry.counter("n", ("x", "y"))

    def test_label_arity_is_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("n", ("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")

    def test_histogram_quantiles_bracket_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms").labels()
        for value in [0.2, 0.4, 1.5, 3.0, 8.0, 40.0, 90.0, 400.0]:
            hist.observe(value)
        assert hist.count == 8
        assert hist.min == 0.2
        assert hist.max == 400.0
        summary = hist.summary()
        # Monotone and clamped: p50 <= p95 <= p99 <= max, all within range.
        assert 0.2 <= summary["p50"] <= summary["p95"] <= summary["p99"] <= 400.0
        assert summary["max"] == 400.0
        assert summary["mean"] == pytest.approx(sum(
            [0.2, 0.4, 1.5, 3.0, 8.0, 40.0, 90.0, 400.0]) / 8)

    def test_histogram_single_observation_is_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms").labels()
        hist.observe(7.5)
        summary = hist.summary()
        assert summary["p50"] == 7.5
        assert summary["p99"] == 7.5
        assert summary["max"] == 7.5

    def test_histogram_overflow_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms").labels()
        hist.observe(99999.0)  # beyond the last bound
        bounds = hist.bucket_counts()
        assert bounds[-1] == (float("inf"), 1)
        assert all(count == 0 for _, count in bounds[:-1])
        assert hist.quantile(0.5) == 99999.0

    def test_histogram_exemplar_window(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms", exemplar_window=3).labels()
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(value)
        assert hist.samples() == (2.0, 3.0, 4.0)
        plain = registry.histogram("other").labels()
        plain.observe(1.0)
        assert plain.samples() == ()

    def test_collect_is_one_consistent_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", ("endpoint",), "c help").labels("e").inc()
        registry.histogram("h").labels().observe(2.0)
        snap = registry.collect()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["series"][("e",)] == 1
        hist = snap["h"]["series"][()]
        assert hist["count"] == 1
        assert hist["summary"]["max"] == 2.0
        assert hist["samples"] == ()

    def test_render_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("req_total", ("ep",), "requests").labels("a b").inc(3)
        registry.histogram(
            "lat_ms", buckets=(1.0, 10.0)
        ).labels().observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{ep="a b"} 3' in text
        assert 'lat_ms_bucket{le="1"} 0' in text
        assert 'lat_ms_bucket{le="10"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 1' in text
        assert "lat_ms_sum 5" in text
        assert "lat_ms_count 1" in text

    def test_reset_clears_series_keeps_declarations(self):
        registry = MetricsRegistry()
        family = registry.counter("n", ("x",))
        family.labels("a").inc()
        registry.reset()
        assert family.total() == 0
        assert registry.family("n") is family

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            DEFAULT_LATENCY_BUCKETS_MS
        )


def _finished_span(tracer: Tracer, name: str, parent=None) -> Span:
    span = tracer.start(name, parent=parent)
    return tracer.end(span)


class TestExporters:
    def test_ring_buffer_caps_and_groups(self):
        ring = RingBufferExporter(capacity=2)
        tracer = Tracer(exporters=(ring,))
        for name in ("a", "b", "c"):
            _finished_span(tracer, name)
        assert len(ring) == 2
        assert [s.name for s in ring.spans()] == ["b", "c"]
        traces = ring.traces()
        assert set(traces) == {s.trace_id for s in ring.spans()}
        ring.clear()
        assert len(ring) == 0

    def test_ring_trace_filters_by_id(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=(ring,))
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        _finished_span(tracer, "unrelated")
        got = ring.trace(root.trace_id)
        assert {s.name for s in got} == {"root", "child"}

    def test_jsonl_exporter_writes_one_line_per_span(self):
        buffer = io.StringIO()
        tracer = Tracer(exporters=(JsonlExporter(buffer),))
        with tracer.span("a") as span:
            span.set("k", "v")
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attrs"] == {"k": "v"}
        assert record["status"] == "ok"

    def test_export_jsonl_roundtrips(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=(ring,))
        _finished_span(tracer, "x")
        text = export_jsonl(ring.spans())
        assert json.loads(text.strip())["name"] == "x"

    def test_render_span_tree_indents_and_annotates(self):
        fake = [0.0]
        ring = RingBufferExporter()
        tracer = Tracer(timer=lambda: fake[0], exporters=(ring,))
        with tracer.span("root") as root:
            root.set("cache", "miss")
            fake[0] = 0.001
            with tracer.span("child") as child:
                child.set_status("error")
                fake[0] = 0.002
        tree = render_span_tree(ring.spans())
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert "cache=miss" in lines[0]
        assert lines[1].startswith("  child")
        assert "[error]" in lines[1]

    def test_render_span_tree_orphans_render_as_roots(self):
        tracer = Tracer()
        parent = _finished_span(tracer, "lost-parent")
        child = tracer.start("survivor", parent=parent)
        tracer.end(child)
        tree = render_span_tree([child])  # parent rolled out of the ring
        assert tree.splitlines()[0].startswith("survivor")


class TestEngineMetricCatalog:
    """``docs/observability.md`` lists every ``engine_*`` family."""

    @staticmethod
    def _documented() -> dict[str, tuple[str, tuple[str, ...]]]:
        doc = Path(__file__).resolve().parent.parent / "docs" / "observability.md"
        rows = {}
        for line in doc.read_text(encoding="utf-8").splitlines():
            match = re.match(r"\| `(engine_\w+)` \| (\w+) \| (.+) \|$", line)
            if match:
                name, kind, labels = match.groups()
                rows[name] = (kind, tuple(re.findall(r"`(\w+)`", labels)))
        return rows

    def test_table_names_every_family_with_its_kind_and_labels(self):
        collected = ExecutionStats().metrics.collect()
        registered = {
            name: (info["type"], info["labelnames"])
            for name, info in collected.items()
        }
        assert registered == self._documented()

    def test_process_wide_table_names_every_view_memo_family(self):
        import repro.core.views.factory  # noqa: F401  (declares them)

        doc = Path(__file__).resolve().parent.parent / "docs" / "observability.md"
        documented = {
            name: (kind, (label,))
            for name, kind, label in re.findall(
                r"^\| `(views_memo_\w+)` \| (\w+) \| `(\w+)` \|",
                doc.read_text(encoding="utf-8"),
                re.MULTILINE,
            )
        }
        registered = {
            name: (info["type"], info["labelnames"])
            for name, info in default_registry().collect().items()
            if name.startswith("views_memo_")
        }
        assert registered == documented
        assert "views_memo_patches" in registered
