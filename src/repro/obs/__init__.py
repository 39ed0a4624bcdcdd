"""`repro.obs` — the observability subsystem.

Everything in the serving stack that measures itself goes through this
package: hierarchical request tracing (:class:`Tracer` / :class:`Span`),
label-aware metrics (:class:`MetricsRegistry`) and exporters (in-memory
ring buffer, JSONL traces, Prometheus-style text exposition).  The
execution engine's :class:`~repro.providers.execution.ExecutionStats`
is a thin view over a :class:`MetricsRegistry`; stats views and
benchmarks use :func:`percentile` / :func:`summarize_latencies`; no
other module may grow its own timing or counter state
(``tests/test_obs_encapsulation.py`` enforces this).

Tracing is off by default — engines carry :data:`NOOP_TRACER`, whose
spans are shared falsy singletons costing a few attribute lookups per
instrumented block.  Enable it by assigning a real :class:`Tracer`
(``engine.tracer = Tracer(exporters=(ring,))`` or
``federation.set_tracer(tracer)``).

See ``docs/observability.md`` for the span model, metric naming
conventions and exporter formats.

**Stability: public.**
"""

from repro.obs.export import (
    JsonlExporter,
    RingBufferExporter,
    export_jsonl,
    render_span_tree,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    percentile,
    summarize_latencies,
)
from repro.obs.trace import NOOP_TRACER, NoopTracer, Span, TraceContext, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "RingBufferExporter",
    "Span",
    "TraceContext",
    "Tracer",
    "default_registry",
    "export_jsonl",
    "percentile",
    "render_span_tree",
    "summarize_latencies",
]
