"""Static scan: observability primitives live in :mod:`repro.obs` only.

Before the subsystem existed, three modules carried their own
nearest-rank ``_percentile`` and the engine kept a private latency
summary.  Those are now :func:`repro.obs.metrics.percentile` /
:func:`~repro.obs.metrics.summarize_latencies` and the
:class:`~repro.obs.metrics.MetricsRegistry` histograms — and this test
keeps it that way: any ``src/repro`` module outside ``repro/obs/``
that re-grows its own percentile math, latency summarizer or span/metric
types fails here with a pointer at the shared implementation.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Pattern → what to use instead.  Matched line-by-line against every
#: ``src/repro`` module outside ``repro/obs/``.
FORBIDDEN = {
    r"\bdef\s+_?percentile\b": "repro.obs.metrics.percentile",
    r"\bdef\s+_latency_summary\b": "repro.obs.metrics.summarize_latencies",
    r"\bdef\s+summarize_latencies\b": "repro.obs.metrics.summarize_latencies",
    r"\bclass\s+(Counter|Gauge|Histogram|MetricsRegistry)\b":
        "repro.obs.metrics",
    r"\bclass\s+(Span|Tracer|TraceContext)\b": "repro.obs.trace",
    r"\bstatistics\.(quantiles|median)\b": "repro.obs.metrics.percentile",
}


def _scannable_modules() -> list[Path]:
    modules = [
        path
        for path in sorted(SRC.rglob("*.py"))
        if "obs" not in path.relative_to(SRC).parts
    ]
    assert len(modules) > 20, "scan looks broken: too few modules found"
    return modules


def test_no_module_outside_obs_regrows_timing_or_counter_state():
    violations: list[str] = []
    for path in _scannable_modules():
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for pattern, replacement in FORBIDDEN.items():
                if re.search(pattern, line):
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{number}: "
                        f"{line.strip()!r} — use {replacement}"
                    )
    assert violations == [], "\n".join(violations)


def test_the_scan_actually_matches_the_old_idioms():
    """Guard the guard: the patterns must still catch the code they were
    written to ban (a regex typo would make the scan pass vacuously)."""
    old_idioms = [
        "def _percentile(samples: list[float], q: float) -> float:",
        "def percentile(samples, fraction):",
        "def _latency_summary(samples):",
        "class Tracer:",
        "class MetricsRegistry:",
        "p50 = statistics.quantiles(samples, n=4)",
    ]
    for idiom in old_idioms:
        assert any(
            re.search(pattern, idiom) for pattern in FORBIDDEN
        ), f"no pattern matches {idiom!r}"


def test_obs_owns_the_one_percentile_implementation():
    """Parse every ``src/repro`` module: the only function (at any
    nesting, methods included) named like a percentile is
    :func:`repro.obs.metrics.percentile`."""
    from repro.providers import execution

    definitions = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and "percentile" in node.name.lower()):
                definitions.append(
                    f"{path.relative_to(SRC.parent).as_posix()}:{node.name}"
                )
    assert definitions == ["repro/obs/metrics.py:percentile"]
    assert execution.summarize_latencies.__module__ == "repro.obs.metrics"
