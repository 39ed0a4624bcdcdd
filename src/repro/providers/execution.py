"""The provider execution layer.

Every consumer of metadata providers — the query evaluator, the generated
discovery interface, exploration, workbook sessions — routes fetches
through one :class:`ExecutionEngine` instead of calling the
:class:`~repro.providers.registry.EndpointRegistry` directly.  The engine
owns the cross-cutting concerns the paper's UI-side design implies but a
naive reproduction scatters per call site:

* **canonical request keys** — one fetch is identified by its endpoint
  URI plus the request's inputs and the context fields the endpoint
  declares it reads (:func:`~repro.providers.base.reads_context`), so
  identical fetches are recognisable wherever — and for whomever — they
  originate;
* **caching** — a TTL/LRU result cache keyed on those request keys,
  invalidated explicitly (:meth:`ExecutionEngine.invalidate`) and
  implicitly whenever the catalog mutates or the spec is swapped.
  Validity is **per entry and dependency-aware**: each entry carries the
  catalog stamp taken before its fetch, and a read checks only that
  entry — kept when no domain its endpoint declares has moved (the store
  versions each metadata domain separately, :mod:`repro.catalog.domains`),
  patched from the write-ahead log when only patchable domains moved,
  dropped otherwise.  Endpoints with no declaration fall back to
  invalidate-on-any-write — never less correct than the old monolithic
  counter, just slower;
* **request-scoped memoisation** — :meth:`ExecutionEngine.scope` opens a
  memo so one logical operation (a search, an overview generation) never
  re-invokes an endpoint for the same key, even with the cache disabled;
* **parallel fan-out** — :meth:`ExecutionEngine.execute_many` executes
  independent fetches on a thread pool with deterministic, input-ordered
  results and per-call fault containment;
* **resilience** — per-endpoint **circuit breakers** (closed → open →
  half-open) stop hammering a persistently failing endpoint, request
  **deadline budgets** skip fetches a caller can no longer afford, and
  **stale-while-revalidate** lets an open breaker or exhausted deadline
  serve an expired cache entry, explicitly marked stale (see
  ``docs/resilience.md``);
* **middleware** — a retry/backoff policy (deadline-capped)
  composing with :mod:`repro.providers.faults` (transient outages and
  timeouts retry; contract violations do not) and envelope validation at
  the boundary;
* **instrumentation** — :class:`ExecutionStats`, a thin view over a
  :class:`repro.obs.MetricsRegistry`: per-endpoint call counts, latency
  percentiles, cache hits/misses, retries, errors, truncation events,
  breaker state and stale/skip counters, surfaced via
  ``DiscoveryInterface.stats``, :meth:`ExecutionEngine.health`, the
  CLI's ``--stats`` flag / ``health`` / ``metrics`` subcommands and
  Prometheus exposition.  Every hot path additionally emits
  :mod:`repro.obs` trace spans (``engine.execute`` → ``engine.fetch`` →
  ``provider.invoke``, plus the batch span) when a tracer is installed;
  the default no-op tracer costs nothing.

Configuration is one frozen, engine-wide :class:`ExecutionPolicy` of
five knobs: global defaults (:meth:`ExecutionPolicy.defaults`) and
per-deployment tweaks (:meth:`ExecutionPolicy.replace`).  Fetches
uniformly return a :class:`FetchOutcome` envelope (ok | error | stale |
skipped).  What the engine knows about an endpoint — its callable and
its declarations — is one :class:`~repro.providers.registry.Registration`
record, looked up once per key, estimate or revalidation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from dataclasses import replace as _dataclass_replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from repro.catalog.domains import PATCHABLE_DOMAINS
from repro.catalog.events import EventLog, OpaqueEventRecord
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    HumboldtError,
    MissingInputError,
    ProviderError,
)
from repro.providers.base import (
    ProviderRequest,
    ProviderResult,
    RequestContext,
)
from repro.providers.faults import is_transient
from repro.providers.registry import EndpointRegistry
from repro.obs.metrics import MetricsRegistry, summarize_latencies
from repro.obs.trace import NOOP_TRACER, TraceContext, Tracer

if TYPE_CHECKING:  # imported for type hints only; no runtime cycle
    from repro.catalog.store import CatalogStore
    from repro.util.clock import SimulationClock

#: A fully canonicalised fetch identity: endpoint URI, sorted inputs,
#: and the context fields that can change a provider's answer.
RequestKey = tuple[str, tuple[tuple[str, str], ...], str, str, int]


def request_key(
    endpoint: str,
    request: ProviderRequest,
    fields: "frozenset[str] | None" = None,
) -> RequestKey:
    """Canonical cache key for one fetch.

    Input order is irrelevant to providers, so inputs are sorted.
    *fields* names the context fields that can change the endpoint's
    answer (its :func:`~repro.providers.base.reads_context`
    declaration); every other field gets a blank slot (``""``, ``""``,
    ``0``), so requests differing only there share one key.  ``None``
    means undeclared: user, team and limit all participate.
    """
    context = request.context
    inputs = tuple(sorted(request.inputs.items()))
    if fields is None:
        return (endpoint, inputs, context.user_id, context.team_id, context.limit)
    return (
        endpoint,
        inputs,
        context.user_id if "user_id" in fields else "",
        context.team_id if "team_id" in fields else "",
        context.limit if "limit" in fields else 0,
    )


def _request_from_key(key: RequestKey) -> ProviderRequest:
    """Rebuild the request a cache key canonicalises (inverse of
    :func:`request_key`).  Fields the key left blank come back blank:
    the endpoint declared it does not read them, and a shared entry has
    no single requester to restore (see
    :func:`~repro.providers.base.patches_with`)."""
    return ProviderRequest(
        inputs=dict(key[1]),
        context=RequestContext(
            user_id=key[2], team_id=key[3], limit=key[4]
        ),
    )


# -- instrumentation --------------------------------------------------------

#: Exact latency samples retained per endpoint — the size of the latency
#: histogram's exemplar window; a rolling window bounds memory on
#: long-lived engines.
LATENCY_WINDOW = 1024

#: Per-endpoint counter fields, in the order :meth:`ExecutionStats.snapshot`
#: reports them.  Each becomes one ``engine_<field>_total{endpoint=...}``
#: counter family on the stats registry.
_COUNTER_FIELDS: tuple[tuple[str, str], ...] = (
    ("calls", "Endpoint invocations (each retry attempt is an invocation)."),
    ("errors", "Fetches that ultimately raised."),
    ("retries", "Retry attempts beyond the first invocation."),
    ("cache_hits", "Fetches answered from the result cache."),
    ("cache_misses", "Fetches that had to invoke a provider."),
    ("dedups", "In-batch duplicates of a pending miss in execute_many."),
    ("truncations", "Provider results truncated to the declared limit."),
    ("invalidations", "Cache entries found invalid when read, and dropped."),
    ("delta_patches", "Cache entries patched from write-ahead events when read."),
    ("delta_fallbacks", "Patch attempts that fell back to drop-and-refetch."),
    ("estimates", "Cardinality estimates served without invoking the endpoint."),
    ("fetches_skipped", "Fetches the planner proved unnecessary."),
    ("stale_served", "Expired cache entries served (breaker open / deadline spent)."),
    ("deadline_skips", "Fetches not attempted because the deadline was spent."),
    ("breaker_rejections", "Fetches rejected by an open circuit breaker."),
    ("breaker_opens", "closed->open transitions of the endpoint's breaker."),
)

#: The columns of :meth:`ExecutionStats.render`: (header, counter, width).
_RENDER_COLUMNS: tuple[tuple[str, str, int], ...] = (
    ("calls", "calls", 6),
    ("hits", "cache_hits", 6),
    ("miss", "cache_misses", 6),
    ("dedup", "dedups", 6),
    ("err", "errors", 5),
    ("retry", "retries", 6),
    ("trunc", "truncations", 6),
    ("inval", "invalidations", 6),
    ("patch", "delta_patches", 6),
    ("dfall", "delta_fallbacks", 6),
    ("est", "estimates", 5),
    ("skip", "fetches_skipped", 6),
    ("stale", "stale_served", 6),
    ("dskip", "deadline_skips", 6),
    ("brej", "breaker_rejections", 5),
)

#: Breaker states encoded onto the ``engine_breaker_state`` gauge.
_BREAKER_STATE_CODES = {"closed": 0.0, "open": 1.0, "half-open": 2.0}
_BREAKER_STATE_NAMES = {code: name for name, code in _BREAKER_STATE_CODES.items()}

_ZERO_LATENCY_SUMMARY = {
    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
}


@dataclass(frozen=True)
class EndpointStatsSnapshot:
    """An immutable point-in-time copy of one endpoint's counters.

    This is what :meth:`ExecutionStats.endpoint` hands out: it shares no
    state with the engine, so callers can neither race the engine's
    bookkeeping nor corrupt it by mutation.  ``latencies_ms`` is the
    latency histogram's exemplar window — the most recent
    :data:`LATENCY_WINDOW` raw samples.
    """

    calls: int = 0
    errors: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedups: int = 0
    truncations: int = 0
    invalidations: int = 0
    delta_patches: int = 0
    delta_fallbacks: int = 0
    estimates: int = 0
    fetches_skipped: int = 0
    stale_served: int = 0
    deadline_skips: int = 0
    breaker_rejections: int = 0
    breaker_opens: int = 0
    breaker_state: str = "closed"
    latencies_ms: tuple[float, ...] = ()

    def latency_summary(self) -> dict[str, float]:
        return summarize_latencies(self.latencies_ms)


class ExecutionStats:
    """Thread-safe per-endpoint execution metrics — a thin view over a
    :class:`repro.obs.MetricsRegistry`.

    The writing side lands on labelled metric families in :attr:`metrics`:
    :meth:`count` on the counters ``engine_<field>_total{endpoint=...}``,
    :meth:`record_call` on those and the ``engine_invoke_latency_ms``
    histogram (fixed buckets plus an exact exemplar window), and
    :meth:`record_breaker_state` on the ``engine_breaker_state`` gauge.
    The reading side — :meth:`total`, :meth:`endpoint`, :meth:`snapshot`,
    :meth:`render` — derives everything from **one** registry collection,
    so the stats table, the health report and the Prometheus exposition
    (``self.metrics.render_prometheus()``) cannot disagree about the same
    fetches.

    ``calls`` counts actual endpoint invocations (each retry attempt is
    an invocation), so "a repeated operation performed zero duplicate
    fetches" is assertable as an unchanged ``total("calls")``.
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {
            fname: self.metrics.counter(
                f"engine_{fname}_total", ("endpoint",), help_text
            )
            for fname, help_text in _COUNTER_FIELDS
        }
        self._latency = self.metrics.histogram(
            "engine_invoke_latency_ms",
            ("endpoint",),
            "Provider invocation latency (terminal middleware timing).",
            exemplar_window=LATENCY_WINDOW,
        )
        self._breaker = self.metrics.gauge(
            "engine_breaker_state",
            ("endpoint",),
            "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
        )
        self._counters["coalesced_bumps"] = self.metrics.counter(
            "engine_coalesced_bumps_total",
            (),
            "Version bumps the store saved by coalescing event batches.",
        )

    # -- recording (called by the engine) ---------------------------------

    def count(self, name: str, endpoint: str, n: int = 1) -> None:
        """Add *n* to counter *name* of *endpoint*.

        *name* is a :data:`_COUNTER_FIELDS` name or ``coalesced_bumps``
        (engine-wide, so *endpoint* is not used).  Any other name raises
        ``KeyError``: a typo cannot mint a new series.
        """
        family = self._counters[name]
        if family.labelnames:
            family.labels(endpoint).inc(n)
        else:
            family.labels().inc(n)

    def record_call(self, endpoint: str, latency_ms: float) -> None:
        self._counters["calls"].labels(endpoint).inc()
        self._latency.labels(endpoint).observe(latency_ms)

    def record_breaker_state(self, endpoint: str, state: str) -> None:
        self._breaker.labels(endpoint).set(_BREAKER_STATE_CODES.get(state, 0.0))

    # -- reading -----------------------------------------------------------

    def total(self, name: str) -> int:
        """Counter *name* summed over every endpoint (names as :meth:`count`)."""
        return int(self._counters[name].total())

    @property
    def cache_hit_rate(self) -> float:
        hits, misses = self.total("cache_hits"), self.total("cache_misses")
        return hits / (hits + misses) if hits + misses else 0.0

    def endpoint(self, uri: str) -> EndpointStatsSnapshot:
        """Counters for one endpoint (zeros if never fetched).

        Built from a single registry collection, so every field of the
        snapshot describes the same instant.
        """
        collected = self.metrics.collect()
        key = (uri,)
        values = {
            fname: int(collected[f"engine_{fname}_total"]["series"].get(key, 0))
            for fname, _ in _COUNTER_FIELDS
        }
        hist = collected["engine_invoke_latency_ms"]["series"].get(key)
        state = collected["engine_breaker_state"]["series"].get(key, 0.0)
        return EndpointStatsSnapshot(
            breaker_state=_BREAKER_STATE_NAMES.get(state, "closed"),
            latencies_ms=tuple(hist["samples"]) if hist else (),
            **values,
        )

    def snapshot(self) -> dict:
        """A JSON-friendly copy of every counter.

        Totals and per-endpoint rows come from one registry collection —
        the stats table and the health report derive from the same cut,
        so their columns cannot disagree mid-update under concurrency.
        """
        collected = self.metrics.collect()
        uris: set[str] = set()
        for fname, _ in _COUNTER_FIELDS:
            uris.update(k[0] for k in collected[f"engine_{fname}_total"]["series"])
        uris.update(k[0] for k in collected["engine_invoke_latency_ms"]["series"])
        endpoints: dict[str, dict] = {}
        for uri in sorted(uris):
            key = (uri,)
            entry: dict = {
                fname: int(collected[f"engine_{fname}_total"]["series"].get(key, 0))
                for fname, _ in _COUNTER_FIELDS
            }
            state = collected["engine_breaker_state"]["series"].get(key, 0.0)
            entry["breaker_state"] = _BREAKER_STATE_NAMES.get(state, "closed")
            hist = collected["engine_invoke_latency_ms"]["series"].get(key)
            entry["latency_ms"] = (
                dict(hist["summary"]) if hist else dict(_ZERO_LATENCY_SUMMARY)
            )
            endpoints[uri] = entry
        totals = {
            fname: sum(e[fname] for e in endpoints.values())
            for fname, _ in _COUNTER_FIELDS
        }
        totals["coalesced_bumps"] = int(
            collected["engine_coalesced_bumps_total"]["series"].get((), 0)
        )
        return {"totals": totals, "endpoints": endpoints}

    def render(self) -> str:
        """Plain-text stats table for the CLI's ``--stats`` flag."""
        snap = self.snapshot()

        def row(label: str, values: dict) -> str:
            return f"{label:<32}" + "".join(
                f"{values[fname]:>{width}}" for _, fname, width in _RENDER_COLUMNS
            )

        header = {fname: head for head, fname, _ in _RENDER_COLUMNS}
        lines = [row("endpoint", header) + f"{'p50 ms':>8}{'p95 ms':>8}"]
        for uri, s in snap["endpoints"].items():
            lat = s["latency_ms"]
            lines.append(row(uri, s) + f"{lat['p50']:>8.2f}{lat['p95']:>8.2f}")
        totals = snap["totals"]
        lines.append(row("TOTAL", totals))
        lines.append(f"coalesced version bumps: {totals['coalesced_bumps']}")
        return "\n".join(lines)

    def reset(self) -> None:
        self.metrics.reset()


# -- policy ------------------------------------------------------------------

#: The continuation a middleware wraps: the rest of the stack.
CallNext = Callable[[str, ProviderRequest], ProviderResult]
#: A middleware: observe/transform a call, then delegate to ``call_next``.
Middleware = Callable[[str, ProviderRequest, CallNext], ProviderResult]

#: First retry delay; each later retry waits ``BACKOFF_MULTIPLIER`` times
#: longer (25, 50, 100 ms …), capped by the request's remaining deadline.
BACKOFF_BASE_MS = 25.0
BACKOFF_MULTIPLIER = 2.0
#: Result-cache bound (least recently used out); the view memo shares it.
CACHE_MAX_ENTRIES = 2048
#: How long past its TTL an entry stays servable as stale, under an open
#: breaker or a spent deadline.
STALE_GRACE_S = 900.0
#: Seconds an open breaker waits before admitting its one half-open probe.
BREAKER_RESET_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ExecutionPolicy:
    """Immutable engine configuration, applying to every endpoint and
    every caller::

        policy = ExecutionPolicy.defaults()
        policy = policy.replace(attempts=3, cache_ttl_s=60.0)

    ``replace`` returns a new policy; instances are frozen and safely
    shareable.  What a deployment has never needed to tune is a module
    constant instead (``BACKOFF_BASE_MS``, ``CACHE_MAX_ENTRIES``,
    ``STALE_GRACE_S``, ``BREAKER_RESET_TIMEOUT_S``).
    """

    #: Total invocation attempts per fetch (1 = no retries).
    attempts: int = 1
    #: Freshness time-to-live in seconds; 0 disables caching.
    cache_ttl_s: float = 300.0
    breaker_enabled: bool = True
    #: Consecutive fetch failures (post-retry) that trip the breaker.
    breaker_failure_threshold: int = 5
    #: Thread-pool width for :meth:`ExecutionEngine.execute_many`;
    #: 1 degrades to serial execution.
    max_workers: int = 8

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")

    @classmethod
    def defaults(cls) -> "ExecutionPolicy":
        """The frozen global defaults (one shared instance)."""
        global _DEFAULT_POLICY
        if _DEFAULT_POLICY is None:
            _DEFAULT_POLICY = cls()
        return _DEFAULT_POLICY

    replace = _dataclass_replace


_DEFAULT_POLICY: "ExecutionPolicy | None" = None


# -- outcomes, health, deadlines ---------------------------------------------


class FetchStatus(Enum):
    """How a fetch concluded — the four arms of a :class:`FetchOutcome`."""

    #: A fresh result: live fetch or unexpired cache entry.
    OK = "ok"
    #: The endpoint was invoked and failed (post-retry).
    ERROR = "error"
    #: An expired cache entry served under an open breaker or exhausted
    #: deadline; the result is usable but explicitly degraded.
    STALE = "stale"
    #: The fetch was never attempted (open breaker / spent deadline) and
    #: no stale fallback existed.
    SKIPPED = "skipped"


@dataclass(frozen=True)
class ProviderHealth:
    """One provider's condition within a degraded operation."""

    provider: str
    endpoint: str
    status: str  # a FetchStatus value: "ok" | "error" | "stale" | "skipped"
    detail: str = ""

    @property
    def degraded(self) -> bool:
        return self.status != FetchStatus.OK.value


@dataclass(frozen=True)
class FetchOutcome:
    """The uniform envelope every engine fetch returns.

    Exactly one of ``result``/``error`` carries the payload for ``ok``
    and ``error`` outcomes; ``stale`` outcomes carry a result *and* a
    reason, ``skipped`` outcomes carry the error that would have been
    raised (:class:`~repro.errors.CircuitOpenError` or
    :class:`~repro.errors.DeadlineExceededError`).  ``status`` is
    inferred from ``result``/``error`` when not given, which keeps the
    historical two-field construction working.
    """

    endpoint: str
    result: ProviderResult | None = None
    error: HumboldtError | None = None
    status: FetchStatus | None = None
    #: Human-readable degradation note ("circuit open; serving cached
    #: result 320s past TTL"); empty for fresh outcomes.
    reason: str = ""

    def __post_init__(self) -> None:
        if self.status is None:
            inferred = (
                FetchStatus.ERROR if self.error is not None else FetchStatus.OK
            )
            object.__setattr__(self, "status", inferred)

    @property
    def ok(self) -> bool:
        """Whether a usable result is present (fresh **or** stale)."""
        return self.error is None

    @property
    def fresh(self) -> bool:
        return self.status is FetchStatus.OK

    @property
    def stale(self) -> bool:
        return self.status is FetchStatus.STALE

    @property
    def skipped(self) -> bool:
        return self.status is FetchStatus.SKIPPED

    @property
    def degraded(self) -> bool:
        """True when the outcome is anything but a fresh success."""
        return self.status is not FetchStatus.OK

    def health_marker(self, provider: str = "") -> ProviderHealth:
        """This outcome as a :class:`ProviderHealth` marker."""
        detail = self.reason or (str(self.error) if self.error else "")
        return ProviderHealth(
            provider=provider or self.endpoint,
            endpoint=self.endpoint,
            status=self.status.value,
            detail=detail,
        )


@dataclass(frozen=True)
class Deadline:
    """A request-level budget in the engine's timer coordinates.

    Created by :meth:`ExecutionEngine.deadline` and threaded through
    evaluator/discovery/exploration fan-outs; once spent, remaining
    fetches are skipped (or served stale), not attempted.
    """

    expires_at: float
    budget_ms: float = 0.0

    def remaining_ms(self, now: float) -> float:
        return max(0.0, (self.expires_at - now) * 1000.0)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Errors an endpoint raises because the request was wrong (a team view
#: asked for by a team-less caller).  They never count as breaker
#: failures: one caller's bad request must not open the breaker for all.
CALLER_ERRORS = (MissingInputError,)


class CircuitBreaker:
    """One endpoint's closed → open → half-open state machine.

    An open breaker admits one probe :data:`BREAKER_RESET_TIMEOUT_S`
    after it tripped; the probe's result closes or re-opens it.  Not
    self-locking: the engine mutates it under its own lock.  Time is
    whatever the engine's clock says, so simulation-clock engines test
    every transition without sleeping.
    """

    def __init__(self, failure_threshold: int):
        self.failure_threshold = failure_threshold
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probing = False

    def allow(self, now: float) -> bool:
        """Whether a fetch may proceed; transitions open → half-open."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at < BREAKER_RESET_TIMEOUT_S:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probing = False
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probing = False
            self.state = BreakerState.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probing = False
            self._trip(now)
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self._trip(now)

    def retry_after_s(self, now: float) -> float:
        """Seconds until an open breaker admits a probe (0 if not open)."""
        if self.state is not BreakerState.OPEN:
            return 0.0
        return max(0.0, BREAKER_RESET_TIMEOUT_S - (now - self.opened_at))

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.consecutive_failures = max(
            self.consecutive_failures, self.failure_threshold
        )


class _Stamp(NamedTuple):
    """What a cached result is valid as of: the registry version, the
    store's total and per-domain versions (``None`` for a store without
    them), and the store's event-log offset (``None`` without a log)."""

    registry: int
    store: int
    domains: "dict[str, int] | None"
    offset: "int | None"


@dataclass(slots=True)
class _CacheEntry:
    """One cache slot.  Entries past ``fresh_until`` but within
    ``stale_until`` are only servable through the stale-while-revalidate
    path, explicitly marked.  ``stamp`` is taken before the fetch and is
    checked, and moved forward, each time the entry is read (see
    :meth:`ExecutionEngine._revalidate`)."""

    fresh_until: float
    stale_until: float
    result: ProviderResult
    stamp: _Stamp


class ExecutionEngine:
    """Cached, parallel, instrumented, resilient execution of fetches.

    Thread-safety contract: one engine is safe to share across request
    threads and tenants.  Its policy is fixed when it is built.  The
    cache, breakers and stats are guarded by the engine lock; an
    endpoint gets a breaker on its first counted failure, and a fetch
    looks it up without the lock.  Request-scoped state (:meth:`scope`
    memos, active deadlines) is per-thread and explicitly handed to pool
    workers by :meth:`execute_many`.  Concurrent misses on one key are
    not coalesced: each invokes the provider.  See
    "The engine's concurrency contract" in ``docs/execution.md`` for
    the full contract.
    """

    def __init__(
        self,
        registry: EndpointRegistry,
        store: "CatalogStore | None" = None,
        policy: ExecutionPolicy | None = None,
        middlewares: Sequence[Middleware] = (),
        clock: "SimulationClock | None" = None,
        tracer: "Tracer | None" = None,
    ):
        self.registry = registry
        self.store = store
        self._timer: Callable[[], float] = time.perf_counter
        self._sleep: Callable[[float], None] = time.sleep
        if clock is not None:
            # A simulation-clock engine: time only moves when something
            # sleeps, so TTLs, breakers and deadlines are deterministic.
            self._timer = clock.now
            self._sleep = lambda seconds: clock.advance(seconds=seconds)
        self.stats = ExecutionStats()
        #: The span source for every instrumented path.  The default is
        #: the shared no-op tracer (falsy spans, no allocation); assign a
        #: real :class:`repro.obs.Tracer` — or call
        #: :meth:`enable_tracing` — to turn tracing on.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._lock = threading.RLock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._policy = policy if policy is not None else ExecutionPolicy.defaults()
        self._cache: OrderedDict[RequestKey, _CacheEntry] = OrderedDict()
        coalesced = getattr(store, "coalesced_bumps", 0)
        self._seen_coalesced_bumps = (
            coalesced if isinstance(coalesced, int) else 0
        )
        self._memos = threading.local()
        self._ambient = threading.local()
        self._pool: ThreadPoolExecutor | None = None
        # Innermost first: validation sits at the boundary, retries wrap
        # it (so a transient failure re-enters validation too), and
        # caller-supplied middlewares observe the whole stack.
        chain: CallNext = self._invoke
        chain = self._wrap(_validation_middleware, chain)
        chain = self._wrap(self._retry_middleware, chain)
        for middleware in reversed(tuple(middlewares)):
            chain = self._wrap(middleware, chain)
        self._chain = chain

    # -- tracing -------------------------------------------------------------

    def enable_tracing(self, *exporters: object) -> Tracer:
        """Build and install a :class:`repro.obs.Tracer` on this engine.

        The tracer runs on the engine's own clock, so a
        simulation-clock engine produces exact simulated-time spans.
        Returns the tracer (callers usually also hand it a ring buffer:
        ``tracer = engine.enable_tracing(RingBufferExporter())``).
        """
        tracer = Tracer(timer=self._timer, exporters=tuple(exporters))
        self.tracer = tracer
        return tracer

    # -- policy ------------------------------------------------------------

    @property
    def policy(self) -> ExecutionPolicy:
        """The policy the engine was built with; it never changes."""
        return self._policy

    # -- deadlines ---------------------------------------------------------

    def deadline(self, budget_ms: float | None = None) -> Deadline | None:
        """A :class:`Deadline` starting now, or None for "no budget"
        (``None``, 0 or negative)."""
        if budget_ms is None or budget_ms <= 0:
            return None
        return Deadline(
            expires_at=self._timer() + budget_ms / 1000.0, budget_ms=budget_ms
        )

    def _deadline_stack(self) -> list:
        stack = getattr(self._ambient, "deadlines", None)
        if stack is None:
            stack = self._ambient.deadlines = []
        return stack

    def _current_deadline(self) -> Deadline | None:
        stack = getattr(self._ambient, "deadlines", None)
        return stack[-1] if stack else None

    # -- the public fetch API ----------------------------------------------

    def execute(
        self,
        endpoint: str,
        request: ProviderRequest,
        deadline: Deadline | None = None,
    ) -> FetchOutcome:
        """One fetch through cache, breaker, deadline and middleware.

        Never raises for provider failures — every arm of the resilience
        layer maps to a :class:`FetchOutcome` status:

        * fresh cache hit or successful invocation → ``ok``;
        * invocation failed post-retry → ``error`` (breaker notified);
        * breaker open / deadline spent, expired-but-in-grace cache entry
          available → ``stale``;
        * breaker open / deadline spent, no fallback → ``skipped``.
        """
        tracer = self.tracer
        key = self._key(endpoint, request)
        if not tracer.enabled:
            # Untraced fast path: the cache-hit case is the hottest line
            # in the engine and pays nothing for observability here.
            cached = self._lookup(key)
            if cached is not None:
                self.stats.count("cache_hits", endpoint)
                return FetchOutcome(endpoint, result=cached)
            self.stats.count("cache_misses", endpoint)
            return self._run_gated(endpoint, request, key, deadline)
        with tracer.span("engine.execute") as sp:
            sp.set("endpoint", endpoint)
            cached = self._lookup(key)
            if cached is not None:
                self.stats.count("cache_hits", endpoint)
                sp.set("cache", "hit")
                return FetchOutcome(endpoint, result=cached)
            self.stats.count("cache_misses", endpoint)
            sp.set("cache", "miss")
            outcome = self._run_gated(endpoint, request, key, deadline)
            sp.set("outcome", outcome.status.value)
            return outcome

    def execute_many(
        self,
        calls: Sequence[tuple[str, ProviderRequest]],
        deadline: Deadline | None = None,
    ) -> list[FetchOutcome]:
        """Execute *calls* concurrently; outcomes align with the input.

        Duplicate request keys within the batch are fetched once.  Each
        failing call yields a :class:`FetchOutcome` carrying its error —
        one broken endpoint never poisons its neighbours (§6.1 fault
        containment, now in one place instead of per call site).  A
        *deadline* applies per call: fetches starting after it expires
        are skipped (or served stale), not attempted.
        """
        tracer = self.tracer
        with tracer.span("engine.execute_many") as batch_sp:
            keys = [self._key(endpoint, request) for endpoint, request in calls]
            outcomes: dict[RequestKey, FetchOutcome] = {}
            hit_keys: set[RequestKey] = set()
            pending: list[tuple[RequestKey, str, ProviderRequest]] = []
            for key, (endpoint, request) in zip(keys, calls):
                if key in outcomes:
                    # A duplicate of a key already answered by the cache is
                    # another hit; a duplicate of a pending miss shares that
                    # miss's single execution — counting it as a hit inflated
                    # cache_hit_rate, so it gets its own counter.
                    if key in hit_keys:
                        self.stats.count("cache_hits", endpoint)
                    else:
                        self.stats.count("dedups", endpoint)
                    continue
                cached = self._lookup(key)
                if cached is not None:
                    self.stats.count("cache_hits", endpoint)
                    hit_keys.add(key)
                    outcomes[key] = FetchOutcome(endpoint, result=cached)
                else:
                    self.stats.count("cache_misses", endpoint)
                    outcomes[key] = FetchOutcome(endpoint)  # placeholder
                    pending.append((key, endpoint, request))

            # The caller's request-scoped memo (if a scope is open) travels
            # with the submitted work: pool workers push it onto their own
            # thread-local stack so parallel And/Or branches see — and feed —
            # the same memo the serial path would.  The trace context rides
            # along identically, so worker-side spans parent under this
            # batch instead of rooting orphan traces.
            caller_stack = self._memo_stack()
            scope_memo = caller_stack[-1] if caller_stack else None
            caller_ctx = tracer.context() if tracer.enabled else None

            def run_one(
                key: RequestKey, endpoint: str, request: ProviderRequest
            ) -> FetchOutcome:
                with tracer.attach(caller_ctx):
                    if scope_memo is None:
                        return self._run_gated(endpoint, request, key, deadline)
                    stack = self._memo_stack()
                    stack.append(scope_memo)
                    try:
                        return self._run_gated(endpoint, request, key, deadline)
                    finally:
                        stack.pop()

            if len(pending) > 1 and self._policy.max_workers > 1:
                futures = [
                    self._executor().submit(run_one, key, endpoint, request)
                    for key, endpoint, request in pending
                ]
                finished = [future.result() for future in futures]
            else:
                finished = [
                    run_one(key, endpoint, request)
                    for key, endpoint, request in pending
                ]
            for (key, _, _), outcome in zip(pending, finished):
                outcomes[key] = outcome
            if batch_sp:
                batch_sp.set("calls", len(calls))
                batch_sp.set("hits", len(hit_keys))
                batch_sp.set("ran", len(pending))
            return [outcomes[key] for key in keys]

    def estimate(self, endpoint: str, request: ProviderRequest) -> int | None:
        """Predict the fetch's result cardinality without invoking it.

        Sources, in order of trust:

        1. **the cache** — a live cached result for this exact request
           key answers with its payload size (exact for list results, an
           upper bound where entries repeat an id; counted without
           flattening, since shared keys make this the common path), and
           the later fetch will be a hit, so planning on it is free;
        2. **the endpoint's estimator hook** — declared via
           :func:`~repro.providers.base.estimates_with` or
           ``registry.register(..., estimator=...)``; cheap index-size
           arithmetic supplied by the provider author.

        Returns ``None`` when neither source can say — the planner then
        treats the branch's cardinality as unknown.  Estimates order
        query evaluation; they never replace a fetch, so a wrong hook
        costs speed, not correctness (and a hook that raises is treated
        as "no estimate", same fault containment as fetches).
        """
        registration = self.registry.registration(endpoint)
        key = request_key(
            endpoint, request, registration.context if registration else None
        )
        cached = self._lookup(key)
        if cached is not None:
            self.stats.count("estimates", endpoint)
            return cached.payload_size()
        estimator = registration.estimator if registration else None
        if estimator is None:
            return None
        try:
            value = estimator(request)
        except Exception:
            return None
        if value is None:
            return None
        self.stats.count("estimates", endpoint)
        return max(0, int(value))

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Open a request-scoped memo for one logical operation.

        Within the scope, repeated fetches of one request key reuse the
        first result regardless of TTL — a single search evaluating
        ``owned_by: alex | owned_by: alex`` must not pay twice.  Scopes
        nest; the memo dies with the outermost exit.
        """
        stack = self._memo_stack()
        stack.append({} if not stack else stack[-1])
        try:
            yield
        finally:
            stack.pop()

    def invalidate(self, endpoint: str | None = None) -> None:
        """Drop cached results — all of them, or one endpoint's.

        Called on spec swap; catalog mutation invalidates automatically
        through the store's ``version`` counter.  Dropped entries are
        gone for the stale-while-revalidate path too — an invalidated
        result is *wrong*, not merely old, so serving it marked "stale"
        would still be serving a lie.  Declarations live on the
        registry's records and are not touched.
        """
        with self._lock:
            if endpoint is None:
                self._cache.clear()
            else:
                for key in [k for k in self._cache if k[0] == endpoint]:
                    del self._cache[key]

    @property
    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- health ------------------------------------------------------------

    def health(self, snapshot: dict | None = None) -> dict[str, dict]:
        """A JSON-friendly resilience report, per endpoint URI.

        Merges breaker state (live, including time-to-probe) with the
        degradation counters of :class:`ExecutionStats`.  Backs the CLI's
        ``health`` subcommand.  Pass a :meth:`ExecutionStats.snapshot`
        to derive the report and other views (the health table's footer,
        say) from one consistent cut of the counters.
        """
        if snapshot is None:
            snapshot = self.stats.snapshot()
        snap = snapshot["endpoints"]
        now = self._timer()
        with self._lock:
            breakers = {
                uri: (
                    breaker.state.value,
                    breaker.consecutive_failures,
                    breaker.retry_after_s(now),
                )
                for uri, breaker in self._breakers.items()
            }
        report: dict[str, dict] = {}
        for uri in sorted(set(snap) | set(breakers)):
            s = snap.get(uri, {})
            state, failures, retry_after = breakers.get(
                uri, (BreakerState.CLOSED.value, 0, 0.0)
            )
            report[uri] = {
                "breaker": state,
                "consecutive_failures": failures,
                "retry_after_s": round(retry_after, 3),
                "calls": s.get("calls", 0),
                "errors": s.get("errors", 0),
                "stale_served": s.get("stale_served", 0),
                "deadline_skips": s.get("deadline_skips", 0),
                "breaker_rejections": s.get("breaker_rejections", 0),
                "delta_patches": s.get("delta_patches", 0),
                "delta_fallbacks": s.get("delta_fallbacks", 0),
            }
        return report

    def render_health(self) -> str:
        """Plain-text health table (CLI ``health`` subcommand).

        Rows and the coalesced-bumps footer derive from **one** stats
        snapshot — historically the footer re-read the live counter, so
        a concurrent write stream could make the table disagree with
        its own footer.
        """
        snapshot = self.stats.snapshot()
        report = self.health(snapshot)
        lines = [
            f"{'endpoint':<32}{'breaker':>10}{'fails':>7}{'retry s':>9}"
            f"{'calls':>7}{'err':>5}{'stale':>7}{'dskip':>7}{'brej':>6}"
            f"{'patch':>7}{'dfall':>7}"
        ]
        for uri, row in report.items():
            lines.append(
                f"{uri:<32}{row['breaker']:>10}"
                f"{row['consecutive_failures']:>7}"
                f"{row['retry_after_s']:>9.1f}"
                f"{row['calls']:>7}{row['errors']:>5}"
                f"{row['stale_served']:>7}{row['deadline_skips']:>7}"
                f"{row['breaker_rejections']:>6}"
                f"{row['delta_patches']:>7}{row['delta_fallbacks']:>7}"
            )
        if len(lines) == 1:
            lines.append("(no fetches recorded)")
        lines.append(
            "coalesced version bumps:"
            f" {snapshot['totals']['coalesced_bumps']}"
        )
        return "\n".join(lines)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the lazily-created thread pool, joining its workers.

        Idempotent; a later :meth:`execute_many` lazily recreates the
        pool, so closing is safe even on engines that keep serving.
        Without this, every engine leaked its workers for the process
        lifetime.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- cache internals ----------------------------------------------------

    def _key(self, endpoint: str, request: ProviderRequest) -> RequestKey:
        """The request key of one fetch through this engine, keyed on the
        endpoint's registered context declaration."""
        registration = self.registry.registration(endpoint)
        return request_key(
            endpoint, request, registration.context if registration else None
        )

    def _memo_stack(self) -> list[dict]:
        stack = getattr(self._memos, "stack", None)
        if stack is None:
            stack = self._memos.stack = []
        return stack

    def _lookup(self, key: RequestKey) -> ProviderResult | None:
        stack = self._memo_stack()
        if stack and key in stack[-1]:
            return stack[-1][key]
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                return None
            now = self._timer()
            if now >= entry.stale_until:
                del self._cache[key]
                return None
            if now >= entry.fresh_until:
                # Expired but within the stale grace window: a miss for
                # the fresh path, retained for stale-while-revalidate
                # (which checks it when it reads it).
                return None
            if not self._revalidate(key, entry):
                return None
            self._cache.move_to_end(key)
            return entry.result

    def _lookup_stale(self, key: RequestKey) -> tuple[ProviderResult, float] | None:
        """An expired-but-in-grace entry and its age past TTL, if any.

        The entry is checked against the catalog like any other read: an
        invalidated result is wrong, not merely old, so it is dropped
        rather than served as stale.
        """
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                return None
            now = self._timer()
            if now >= entry.stale_until:
                del self._cache[key]
                return None
            if not self._revalidate(key, entry):
                return None
            return (entry.result, max(0.0, now - entry.fresh_until))

    def _remember(
        self,
        key: RequestKey,
        result: ProviderResult,
        stamp: _Stamp,
        ttl_s: float,
    ) -> None:
        """Cache *result* under the stamp taken before its fetch, for the
        *ttl_s* the fetch started under.

        A write that landed while the fetch ran is caught when the entry
        is read: the stamp predates it, so the read patches or drops the
        entry if the write touched a domain the endpoint depends on.
        """
        stack = self._memo_stack()
        if stack:
            stack[-1][key] = result
        if ttl_s <= 0:
            return
        with self._lock:
            fresh_until = self._timer() + ttl_s
            self._cache[key] = _CacheEntry(
                fresh_until, fresh_until + STALE_GRACE_S, result, stamp
            )
            self._cache.move_to_end(key)
            while len(self._cache) > CACHE_MAX_ENTRIES:
                self._cache.popitem(last=False)

    def _stamp(self) -> _Stamp:
        """The registry and catalog versions as of now.

        Taken before an endpoint is invoked, so a write racing the fetch
        is newer than the stamp its result is cached under.  The store's
        total version is read before its domain counters and those before
        the log offset: a store bumps domains before the total and logs a
        record before either, so every write the total counts shows in
        the counters, and every bump the counters show has its record
        before the offset.
        """
        registry_version = self.registry.version
        store = self.store
        if store is None:
            return _Stamp(registry_version, -1, None, None)
        version = store.version
        domains = getattr(store, "domain_versions", None)
        log = getattr(store, "events", None)
        self._mirror_coalesced_bumps()
        return _Stamp(
            registry_version,
            version,
            domains if isinstance(domains, dict) else None,
            log.offset if isinstance(log, EventLog) else None,
        )

    def _revalidate(self, key: RequestKey, entry: _CacheEntry) -> bool:
        """Bring one entry up to date with the catalog, or drop it.

        Returns whether the entry may be served (lock held):

        * registry or store unchanged since the entry's stamp → serve;
        * only domains outside the endpoint's dependencies moved →
          restamp and serve.  The restamp keeps the entry's log offset,
          so a later patch still sees those records;
        * only patchable domains moved → hand the endpoint's patcher the
          log records since the entry's offset; serve what it returns;
        * anything else — a hard domain, an opaque record on a domain the
          endpoint reads, a truncated log, an undeclared endpoint, a
          declining or failing patcher, a registry swap — drops the
          entry, and the read is a miss.
        """
        stamp = entry.stamp
        if stamp.registry != self.registry.version:
            return self._drop(key)
        store = self.store
        if store is None or store.version == stamp.store:
            return True
        # Keep the registry version checked above: a swap racing this
        # read must still show on the entry's next read.
        current = self._stamp()._replace(registry=stamp.registry)
        if stamp.domains is None or current.domains is None:
            return self._drop(key)
        endpoint = key[0]
        registration = self.registry.registration(endpoint)
        deps = registration.domains if registration else None
        if deps is None:
            return self._drop(key)
        moved = {
            domain
            for domain in deps
            if current.domains.get(domain) != stamp.domains.get(domain)
        }
        if not moved:
            entry.stamp = current._replace(offset=stamp.offset)
            return True
        if moved - PATCHABLE_DOMAINS or stamp.offset is None:
            return self._drop(key)
        patcher = registration.patcher
        if patcher is None:
            return self._drop(key)
        records, next_offset, truncated = store.events.since(stamp.offset)
        if truncated or any(
            isinstance(r, OpaqueEventRecord) and r.domain in deps
            for r in records
        ):
            return self._drop(key)
        try:
            patched = patcher(_request_from_key(key), entry.result, records)
        except Exception:
            patched = None
        if patched is None:
            self.stats.count("delta_fallbacks", endpoint)
            return self._drop(key)
        entry.result = patched
        entry.stamp = current._replace(offset=next_offset)
        self.stats.count("delta_patches", endpoint)
        return True

    def _drop(self, key: RequestKey) -> bool:
        """Drop an entry found invalid on read; returns False (lock held)."""
        del self._cache[key]
        self.stats.count("invalidations", key[0])
        return False

    def _mirror_coalesced_bumps(self) -> None:
        """Fold the store's saved-bump counter into the stats."""
        total = getattr(self.store, "coalesced_bumps", 0)
        if isinstance(total, int) and total > self._seen_coalesced_bumps:
            with self._lock:
                if total > self._seen_coalesced_bumps:
                    self.stats.count(
                        "coalesced_bumps", "", total - self._seen_coalesced_bumps
                    )
                    self._seen_coalesced_bumps = total

    # -- execution internals -------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        """The fan-out pool, built lazily **under the engine lock** so two
        first-callers racing can never each build (and one leak) a pool."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._policy.max_workers,
                    thread_name_prefix="humboldt-exec",
                )
            return self._pool

    def _run_gated(
        self,
        endpoint: str,
        request: ProviderRequest,
        key: RequestKey,
        deadline: Deadline | None,
    ) -> FetchOutcome:
        """Post-cache-miss execution: deadline and breaker gates, then the
        middleware chain, mapping every arm to a :class:`FetchOutcome`."""
        with self.tracer.span("engine.fetch") as sp:
            if sp:
                sp.set("endpoint", endpoint)
            policy = self._policy
            now = self._timer()
            if deadline is not None and deadline.expired(now):
                self.stats.count("deadline_skips", endpoint)
                stale = self._stale_outcome(endpoint, key, "deadline exhausted")
                if sp:
                    sp.set("gate", "deadline")
                    sp.set("outcome", "stale" if stale is not None else "skipped")
                if stale is not None:
                    return stale
                return FetchOutcome(
                    endpoint,
                    error=DeadlineExceededError(endpoint, deadline.budget_ms),
                    status=FetchStatus.SKIPPED,
                    reason="deadline exhausted",
                )
            # Read without the lock: an endpoint that has never failed
            # has no breaker, so its fetches take no breaker lock at all.
            breaker = self._breakers.get(endpoint) if policy.breaker_enabled else None
            if breaker is not None:
                with self._lock:
                    before = breaker.state
                    allowed = breaker.allow(now)
                    if breaker.state is not before:
                        self.stats.record_breaker_state(
                            endpoint, breaker.state.value
                        )
                    retry_after = breaker.retry_after_s(now)
                if not allowed:
                    self.stats.count("breaker_rejections", endpoint)
                    stale = self._stale_outcome(endpoint, key, "circuit open")
                    if sp:
                        sp.set("gate", "breaker")
                        sp.set(
                            "outcome", "stale" if stale is not None else "skipped"
                        )
                    if stale is not None:
                        return stale
                    return FetchOutcome(
                        endpoint,
                        error=CircuitOpenError(endpoint, retry_after),
                        status=FetchStatus.SKIPPED,
                        reason="circuit open",
                    )
            stamp = self._stamp()
            stack = self._deadline_stack()
            stack.append(deadline)
            ok = False
            try:
                result = self._execute(endpoint, request)
                ok = True
            except HumboldtError as exc:
                # A caller error says the request was wrong, not that the
                # endpoint is down: it answered, so it counts as a success.
                ok = isinstance(exc, CALLER_ERRORS)
                if sp:
                    sp.set("outcome", "error")
                    sp.set("error", type(exc).__name__)
                return FetchOutcome(endpoint, error=exc)
            finally:
                stack.pop()
                # Also on an unexpected exception, so that a half-open
                # probe never stays in flight.
                if policy.breaker_enabled:
                    self._breaker_record(endpoint, ok)
            self._remember(key, result, stamp, policy.cache_ttl_s)
            if sp:
                sp.set("outcome", "ok")
            return FetchOutcome(endpoint, result=result)

    def _stale_outcome(
        self, endpoint: str, key: RequestKey, reason: str
    ) -> FetchOutcome | None:
        """A stale-while-revalidate outcome, if the cache holds one."""
        held = self._lookup_stale(key)
        if held is None:
            return None
        result, age_s = held
        self.stats.count("stale_served", endpoint)
        return FetchOutcome(
            endpoint,
            result=result,
            status=FetchStatus.STALE,
            reason=f"{reason}; serving cached result {age_s:.0f}s past TTL",
        )

    def _breaker_record(self, endpoint: str, ok: bool) -> None:
        """Record a fetch result on the endpoint's breaker, creating it
        on the endpoint's first failure that counts.  A success of an
        endpoint that has never failed records nothing."""
        if ok and endpoint not in self._breakers:
            return
        now = self._timer()
        with self._lock:
            breaker = self._breakers.get(endpoint)
            if breaker is None:  # a breaker, once made, is never removed
                breaker = self._breakers[endpoint] = CircuitBreaker(
                    self._policy.breaker_failure_threshold
                )
            before = breaker.state
            if ok:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
            if breaker.state is not before:
                self.stats.record_breaker_state(endpoint, breaker.state.value)
                if breaker.state is BreakerState.OPEN:
                    self.stats.count("breaker_opens", endpoint)

    def breaker_state(self, endpoint: str) -> BreakerState:
        """The endpoint's current breaker state (CLOSED if untracked)."""
        with self._lock:
            breaker = self._breakers.get(endpoint)
            return breaker.state if breaker is not None else BreakerState.CLOSED

    def _execute(self, endpoint: str, request: ProviderRequest) -> ProviderResult:
        try:
            result = self._chain(endpoint, request)
        except ProviderError:
            self.stats.count("errors", endpoint)
            raise
        limit = request.context.limit
        if limit > 0 and result.payload_size() >= limit:
            self.stats.count("truncations", endpoint)
        return result

    def _wrap(self, middleware: Middleware, call_next: CallNext) -> CallNext:
        def wrapped(endpoint: str, request: ProviderRequest) -> ProviderResult:
            return middleware(endpoint, request, call_next)

        return wrapped

    def _invoke(self, endpoint: str, request: ProviderRequest) -> ProviderResult:
        """Terminal stage: resolve and call, timing the invocation."""
        resolved = self.registry.resolve(endpoint)
        with self.tracer.span("provider.invoke") as sp:
            if sp:
                sp.set("endpoint", endpoint)
            started = self._timer()
            try:
                return resolved(request)
            finally:
                self.stats.record_call(
                    endpoint, (self._timer() - started) * 1000.0
                )

    def _retry_middleware(
        self, endpoint: str, request: ProviderRequest, call_next: CallNext
    ) -> ProviderResult:
        """Retry transient failures with deadline-capped backoff.

        The active request deadline (pushed by :meth:`_run_gated`, so
        worker threads see their own) bounds the schedule two ways: an
        expired deadline stops retrying immediately, and a backoff delay
        never sleeps past the remaining budget.
        """
        attempts = self._policy.attempts
        deadline = self._current_deadline()
        attempt = 1
        while True:
            try:
                return call_next(endpoint, request)
            except ProviderError as exc:
                if attempt >= attempts or not is_transient(exc):
                    raise
                now = self._timer()
                if deadline is not None and deadline.expired(now):
                    raise
                delay_ms = BACKOFF_BASE_MS * BACKOFF_MULTIPLIER ** (attempt - 1)
                if deadline is not None:
                    delay_ms = min(delay_ms, deadline.remaining_ms(now))
                self.stats.count("retries", endpoint)
                if delay_ms > 0:
                    self._sleep(delay_ms / 1000.0)
                attempt += 1


def _validation_middleware(
    endpoint: str, request: ProviderRequest, call_next: CallNext
) -> ProviderResult:
    """Enforce the response envelope at the execution boundary."""
    result = call_next(endpoint, request)
    if not isinstance(result, ProviderResult):
        raise ProviderError(
            endpoint,
            f"endpoint returned {type(result).__name__}, expected ProviderResult",
        )
    return result.validate(endpoint)
