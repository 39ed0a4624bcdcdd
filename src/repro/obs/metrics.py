"""Label-aware metrics: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds metric *families* (a name, a kind, a
tuple of label names); each distinct label-value combination gets its
own child series.  All mutation and collection happens under a single
registry lock, so a :meth:`MetricsRegistry.collect` call sees one
consistent cut across every family — the property the engine's stats
table and health report both build on.

Histograms use fixed bucket boundaries, so p50/p95/p99 come from bucket
interpolation without storing samples; an optional bounded *exemplar
window* additionally retains the most recent raw observations for
callers that need exact recent samples (the engine's per-endpoint
latency snapshots).

Module helpers :func:`percentile` and :func:`summarize_latencies` are
the one shared implementation of nearest-rank percentiles — stats
views and benchmarks use these instead of growing private copies
(enforced by ``tests/test_obs_encapsulation.py``).

**Stability: public** via :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Iterable, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "percentile",
    "summarize_latencies",
]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (need not be sorted)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def summarize_latencies(samples: Sequence[float]) -> dict[str, float]:
    """The repo-standard latency summary: mean/p50/p95/p99/max."""
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "p99": percentile(samples, 0.99),
        "max": max(samples),
    }


#: Default histogram boundaries, in milliseconds: sub-millisecond cache
#: hits up through multi-second degraded fetches.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """Monotonically increasing count; one series of a counter family."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down; one series of a gauge family."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram; quantiles without retaining samples.

    ``observe`` is O(log buckets).  Quantile estimates interpolate
    linearly within the owning bucket and are clamped to the exact
    observed min/max, so ``p50 <= p95 <= p99 <= max`` always holds.
    With ``exemplar_window > 0`` the most recent raw observations are
    also kept (bounded deque) for exact-sample consumers.
    """

    __slots__ = (
        "_lock",
        "buckets",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_exemplars",
    )

    def __init__(
        self,
        lock: threading.RLock,
        buckets: tuple[float, ...],
        exemplar_window: int = 0,
    ):
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # +1 for +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._exemplars: deque[float] | None = (
            deque(maxlen=exemplar_window) if exemplar_window > 0 else None
        )

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            if self._count == 0:
                self._min = self._max = value
            else:
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += 1
            self._sum += value
            if self._exemplars is not None:
                self._exemplars.append(value)

    # -- reads --------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def min(self) -> float:
        with self._lock:
            return self._min

    def samples(self) -> tuple[float, ...]:
        """The exemplar window (empty when the window is disabled)."""
        with self._lock:
            if self._exemplars is None:
                return ()
            return tuple(self._exemplars)

    def quantile(self, fraction: float) -> float:
        with self._lock:
            return self._quantile_locked(fraction)

    def _quantile_locked(self, fraction: float) -> float:
        if self._count == 0:
            return 0.0
        rank = max(1, round(fraction * self._count))
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[i - 1] if i > 0 else self._min
                upper = (
                    self.buckets[i] if i < len(self.buckets) else self._max
                )
                position = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(self._max, max(self._min, estimate))
            cumulative += bucket_count
        return self._max  # pragma: no cover - unreachable

    def summary(self) -> dict[str, float]:
        """mean/p50/p95/p99/max estimated from buckets (exact mean/max)."""
        with self._lock:
            if self._count == 0:
                return {
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
                }
            return {
                "mean": self._sum / self._count,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "max": self._max,
            }

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style."""
        with self._lock:
            out: list[tuple[float, int]] = []
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, self._counts):
                cumulative += bucket_count
                out.append((bound, cumulative))
            out.append((float("inf"), self._count))
            return out


class _Family:
    """One named metric family: kind + label names + child series."""

    __slots__ = ("name", "kind", "help", "labelnames", "children", "_lock", "_opts")

    def __init__(
        self,
        name: str,
        kind: str,
        labelnames: tuple[str, ...],
        help_text: str,
        lock: threading.RLock,
        opts: dict[str, Any],
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.children: dict[tuple[str, ...], Any] = {}
        self._lock = lock
        self._opts = opts

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(
            self._lock,
            self._opts.get("buckets", DEFAULT_LATENCY_BUCKETS_MS),
            self._opts.get("exemplar_window", 0),
        )

    def labels(self, *labelvalues: str) -> Any:
        """The child series for *labelvalues* (created on first use)."""
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames},"
                f" got {labelvalues!r}"
            )
        key = tuple(str(v) for v in labelvalues)
        child = self.children.get(key)
        if child is None:
            with self._lock:
                child = self.children.get(key)
                if child is None:
                    child = self._make_child()
                    self.children[key] = child
        return child

    def get(self, *labelvalues: str) -> Any | None:
        """The child for *labelvalues*, or None — never creates."""
        return self.children.get(tuple(str(v) for v in labelvalues))

    def label_values(self, position: int = 0) -> list[str]:
        """Distinct values seen for the label at *position*."""
        with self._lock:
            return sorted({key[position] for key in self.children})

    def total(self) -> float:
        """Sum of every child's value (counter/gauge families only)."""
        with self._lock:
            return sum(child._value for child in self.children.values())


class MetricsRegistry:
    """A process- or engine-scoped collection of metric families.

    Families are created idempotently by :meth:`counter` /
    :meth:`gauge` / :meth:`histogram`; re-declaring with the same name
    returns the existing family (kind and labels must match).
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- declaration --------------------------------------------------------

    def _declare(
        self, name: str, kind: str, labelnames: Iterable[str], help_text: str,
        **opts: Any,
    ) -> _Family:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already declared as"
                        f" {family.kind}{family.labelnames}"
                    )
                return family
            family = _Family(name, kind, labelnames, help_text, self._lock, opts)
            self._families[name] = family
            return family

    def counter(
        self, name: str, labelnames: Iterable[str] = (), help_text: str = ""
    ) -> _Family:
        return self._declare(name, "counter", labelnames, help_text)

    def gauge(
        self, name: str, labelnames: Iterable[str] = (), help_text: str = ""
    ) -> _Family:
        return self._declare(name, "gauge", labelnames, help_text)

    def histogram(
        self,
        name: str,
        labelnames: Iterable[str] = (),
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
        exemplar_window: int = 0,
    ) -> _Family:
        return self._declare(
            name, "histogram", labelnames, help_text,
            buckets=buckets, exemplar_window=exemplar_window,
        )

    def family(self, name: str) -> _Family | None:
        return self._families.get(name)

    # -- collection ---------------------------------------------------------

    def collect(self) -> dict[str, dict[str, Any]]:
        """One consistent snapshot of every family, taken under the lock.

        Counter/gauge series collect to their value; histogram series to
        ``{"count", "sum", "min", "max", "summary", "buckets", "samples"}``.
        """
        with self._lock:
            out: dict[str, dict[str, Any]] = {}
            for name, family in self._families.items():
                series: dict[tuple[str, ...], Any] = {}
                for key, child in family.children.items():
                    if family.kind == "histogram":
                        series[key] = {
                            "count": child._count,
                            "sum": child._sum,
                            "min": child._min,
                            "max": child._max,
                            "summary": child.summary(),
                            "buckets": child.bucket_counts(),
                            "samples": child.samples(),
                        }
                    else:
                        series[key] = child._value
                out[name] = {
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "series": series,
                }
            return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (counters get ``_total``
        left to the caller's naming; histograms expose ``_bucket`` /
        ``_sum`` / ``_count`` series)."""
        lines: list[str] = []
        collected = self.collect()
        for name in sorted(collected):
            info = collected[name]
            if info["help"]:
                lines.append(f"# HELP {name} {info['help']}")
            lines.append(f"# TYPE {name} {info['type']}")
            labelnames = info["labelnames"]
            for key in sorted(info["series"]):
                value = info["series"][key]
                if info["type"] == "histogram":
                    for bound, count in value["buckets"]:
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        labels = _labels(labelnames, key, extra=("le", le))
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = _labels(labelnames, key)
                    lines.append(f"{name}_sum{labels} {_fmt(value['sum'])}")
                    lines.append(f"{name}_count{labels} {value['count']}")
                else:
                    labels = _labels(labelnames, key)
                    lines.append(f"{name}{labels} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every child series (family declarations survive)."""
        with self._lock:
            for family in self._families.values():
                family.children.clear()


def _fmt(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _labels(
    labelnames: tuple[str, ...],
    labelvalues: tuple[str, ...],
    extra: tuple[str, str] | None = None,
) -> str:
    pairs = [
        f'{n}="{_escape(v)}"' for n, v in zip(labelnames, labelvalues)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (sqlite query timing lands here)."""
    return _DEFAULT
