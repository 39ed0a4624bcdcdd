"""The concurrent multi-tenant load harness.

Drives a deterministic workload (see :mod:`repro.load.workload`) over a
shared :class:`~repro.workbook.app.WorkbookApp` from a thread pool —
many simulated sessions in flight at once, the serving shape every
single-request bench so far has ignored.  Each tenant (team) gets its
own customization (a hidden overview provider), so the run continuously
exercises tenant isolation while hammering the engine's cache and
breaker paths.

The harness verifies isolation *inline*: every overview op checks that
the tenant's own hidden provider is absent and that no *other* tenant's
hide leaked into this tenant's tabs.  Violations are counted in the
report — the acceptance gate is zero.

Usage::

    report = run_load(store, LoadConfig(sessions=1000, concurrency=32))
    print(report.render())
    json.dumps(report.to_dict())
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.catalog.store import CatalogStore
from repro.load.workload import LoadConfig, SessionScript, build_workload
from repro.obs.export import RingBufferExporter, render_span_tree
from repro.obs.metrics import percentile
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    CallNext,
    ExecutionEngine,
    ExecutionPolicy,
    ProviderRequest,
    ProviderResult,
)
from repro.providers.registry import EndpointRegistry
from repro.workbook.app import WorkbookApp


def latency_middleware(latency_ms: float):
    """An engine middleware adding fixed latency per provider invocation,
    simulating the round-trip to a remote metadata service, so every
    cache miss pays for the invocation it makes."""
    delay_s = latency_ms / 1000.0

    def middleware(
        endpoint: str, request: ProviderRequest, call_next: CallNext
    ) -> ProviderResult:
        if delay_s > 0:
            time.sleep(delay_s)
        return call_next(endpoint, request)

    return middleware


@dataclass
class LoadReport:
    """Everything one harness run measured, JSON-friendly via
    :meth:`to_dict`."""

    config: LoadConfig
    ops: int = 0
    errors: int = 0
    wall_s: float = 0.0
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    isolation_checks: int = 0
    isolation_violations: int = 0
    #: Top-N slowest op traces (``config.trace_slowest`` > 0 enables
    #: tracing); each entry carries the op root's kind/arg/duration plus
    #: its full span list and a rendered tree.
    slowest: list[dict] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed operations per second of wall clock."""
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        totals = self.stats.get("totals", {})
        hits = totals.get("cache_hits", 0)
        misses = totals.get("cache_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    def _all_latencies(self) -> list[float]:
        merged: list[float] = []
        for samples in self.latencies_ms.values():
            merged.extend(samples)
        return merged

    def percentiles(self, kind: str = "") -> dict[str, float]:
        """p50/p95/p99/max over one op kind, or over everything."""
        samples = (
            self.latencies_ms.get(kind, []) if kind else self._all_latencies()
        )
        return {
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "p99": percentile(samples, 0.99),
            "max": max(samples) if samples else 0.0,
        }

    def to_dict(self) -> dict:
        totals = self.stats.get("totals", {})
        return {
            "sessions": self.config.sessions,
            "concurrency": self.config.concurrency,
            "seed": self.config.seed,
            "provider_latency_ms": self.config.provider_latency_ms,
            "ops": self.ops,
            "errors": self.errors,
            "wall_s": round(self.wall_s, 4),
            "throughput_ops_s": round(self.throughput, 2),
            "hit_rate": round(self.hit_rate, 4),
            "latency_ms": {
                "overall": self.percentiles(),
                **{
                    kind: self.percentiles(kind)
                    for kind in sorted(self.latencies_ms)
                },
            },
            "provider_calls": totals.get("calls", 0),
            "degradation": {
                "stale_served": totals.get("stale_served", 0),
                "deadline_skips": totals.get("deadline_skips", 0),
                "breaker_rejections": totals.get("breaker_rejections", 0),
                "errors": totals.get("errors", 0),
            },
            "isolation": {
                "checks": self.isolation_checks,
                "violations": self.isolation_violations,
            },
            "slowest": self.slowest,
            "write_path": {
                "delta_patches": totals.get("delta_patches", 0),
                "delta_fallbacks": totals.get("delta_fallbacks", 0),
                "coalesced_bumps": totals.get("coalesced_bumps", 0),
                "invalidations": totals.get("invalidations", 0),
            },
        }

    def render(self) -> str:
        d = self.to_dict()
        overall = d["latency_ms"]["overall"]
        return (
            f"{d['ops']} ops / {d['wall_s']}s "
            f"= {d['throughput_ops_s']} ops/s, "
            f"p50 {overall['p50']:.2f} ms, p99 {overall['p99']:.2f} ms, "
            f"hit rate {d['hit_rate']:.3f}, "
            f"{d['provider_calls']} provider calls, "
            f"{d['write_path']['delta_patches']} delta patches, "
            f"{d['write_path']['coalesced_bumps']} coalesced bumps, "
            f"{d['isolation']['violations']} isolation violations"
        )

    def render_slowest(self) -> str:
        """The slowest-ops block: one span tree per traced op."""
        if not self.slowest:
            return "slowest ops: tracing disabled (config.trace_slowest=0)"
        lines = [f"slowest {len(self.slowest)} ops:"]
        for entry in self.slowest:
            lines.append(
                f"-- {entry['op']} {entry['arg']!r} "
                f"{entry['duration_ms']:.2f} ms"
            )
            lines.append(entry["tree"])
        return "\n".join(lines)


class LoadHarness:
    """Runs one workload over one engine configuration.

    Owns the app/engine it builds; a harness is single-use — build,
    :meth:`run`, read the report.
    """

    def __init__(
        self,
        store: CatalogStore,
        config: LoadConfig,
        policy: ExecutionPolicy | None = None,
    ):
        self.config = config
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(store))
        middlewares = (
            (latency_middleware(config.provider_latency_ms),)
            if config.provider_latency_ms > 0
            else ()
        )
        if policy is None:
            policy = ExecutionPolicy.defaults().replace(
                max_workers=max(2, min(8, config.concurrency))
            )
        self.engine = ExecutionEngine(
            registry,
            store=store,
            policy=policy,
            middlewares=middlewares,
        )
        # Tracing is opt-in (config.trace_slowest > 0): every session op
        # gets a root span, engine/evaluator spans nest under it, and the
        # report reconstructs the slowest op traces from the ring buffer.
        self._ring: RingBufferExporter | None = None
        if config.trace_slowest > 0:
            self._ring = RingBufferExporter()
            self.engine.enable_tracing(self._ring)
        self.app = WorkbookApp(store, registry=registry, engine=self.engine)
        # One coalescing event stream shared by every session thread:
        # "stream" ops buffer usage events here, so sustained write
        # pressure arrives at the store as batched single-bump commits.
        self.stream = store.stream(window_s=config.coalesce_window_s)
        # Monotonic suffix for synthetic lineage sinks; unique ids keep
        # concurrent edge appends cycle-free by construction.
        self._lineage_seq = itertools.count()
        self._lock = threading.Lock()
        self._latencies: dict[str, list[float]] = {}
        self._errors = 0
        self._isolation_checks = 0
        self._isolation_violations = 0
        # Tenant setup: each team hides a different overview provider
        # (rotating), which must stay invisible to every other tenant.
        self._hidden_by_team: dict[str, str] = {}
        overview = [p.name for p in self.app.spec.visible_in("overview")]
        teams = sorted(t.id for t in store.teams())
        for index, team_id in enumerate(teams):
            if not overview:
                break
            hidden = overview[index % len(overview)]
            self.app.customization.team_layer(team_id).hide(hidden)
            self._hidden_by_team[team_id] = hidden

    # -- session driving ---------------------------------------------------

    def _check_overview_isolation(self, team_id: str, tabs) -> None:
        """Count tenant-customization leaks in an overview tab strip."""
        names = {tab.provider_name for tab in tabs}
        own_hidden = self._hidden_by_team.get(team_id)
        with self._lock:
            self._isolation_checks += 1
            if own_hidden is not None and own_hidden in names:
                self._isolation_violations += 1
        # A provider hidden only by *other* tenants must still be served
        # to this one — a disappearance means state bled across tenants.
        foreign_hidden = {
            hidden
            for team, hidden in self._hidden_by_team.items()
            if team != team_id and hidden != own_hidden
        }
        leaked = foreign_hidden - names
        if leaked:
            with self._lock:
                self._isolation_violations += len(leaked)

    def _run_op(self, session, op) -> None:
        if op.kind == "search":
            session.search(op.arg, limit=20)
        elif op.kind == "overview":
            tabs = session.open_browse()
            self._check_overview_isolation(session.team_id, tabs)
        elif op.kind == "explore":
            session.select_artifact(op.arg)
            session.explore_selection(limit=5)
        elif op.kind == "suggest":
            session.suggest(op.arg, limit=8)
        elif op.kind == "touch":
            self.app.store.record(op.arg, session.user_id, "view")
        elif op.kind == "stream":
            # A burst of usage events through the shared coalescing
            # stream — the streaming write path under test.
            for index in range(self.config.stream_burst):
                action = "view" if index % 2 == 0 else "open"
                self.stream.record(op.arg, session.user_id, action)
        elif op.kind == "lineage":
            self.app.store.lineage.add_edge(
                op.arg, f"load-derived-{next(self._lineage_seq)}", "derives"
            )
        else:  # pragma: no cover - workload only emits known kinds
            raise ValueError(f"unknown op kind {op.kind!r}")

    def _run_session(self, script: SessionScript) -> tuple[int, int]:
        """Run one script; returns (ops completed, errors)."""
        session = self.app.session(script.user_id, script.team_id)
        completed = errors = 0
        local: dict[str, list[float]] = {}
        tracer = self.engine.tracer
        for op in script.ops:
            started = time.perf_counter()
            try:
                with tracer.span(f"op.{op.kind}") as span:
                    if span:
                        span.set("arg", op.arg)
                        span.set("user", script.user_id)
                    self._run_op(session, op)
            except Exception:
                errors += 1
            else:
                completed += 1
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            local.setdefault(op.kind, []).append(elapsed_ms)
        with self._lock:
            self._errors += errors
            for kind, samples in local.items():
                self._latencies.setdefault(kind, []).extend(samples)
        return completed, errors

    def run(self, scripts: list[SessionScript] | None = None) -> LoadReport:
        """Execute the workload with ``config.concurrency`` worker threads."""
        if scripts is None:
            scripts = build_workload(self.app.store, self.config)
        started = time.perf_counter()
        completed = 0
        with ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix="load-session",
        ) as pool:
            for done, _ in pool.map(self._run_session, scripts):
                completed += done
        # Drain any usage events still buffered in the coalescing window
        # before the stats snapshot, so the report reflects every write.
        self.stream.flush()
        wall_s = time.perf_counter() - started
        self.app.close()
        return LoadReport(
            config=self.config,
            ops=completed,
            errors=self._errors,
            wall_s=wall_s,
            latencies_ms=self._latencies,
            stats=self.engine.stats.snapshot(),
            isolation_checks=self._isolation_checks,
            isolation_violations=self._isolation_violations,
            slowest=self._slowest_block(),
        )

    def _slowest_block(self) -> list[dict]:
        """Reconstruct the top-N slowest op traces from the ring buffer."""
        if self._ring is None:
            return []
        roots = [
            span
            for span in self._ring.spans()
            if span.parent_id is None and span.name.startswith("op.")
        ]
        roots.sort(key=lambda span: span.duration_ms or 0.0, reverse=True)
        block: list[dict] = []
        for root in roots[: self.config.trace_slowest]:
            spans = self._ring.trace(root.trace_id)
            block.append(
                {
                    "op": root.name,
                    "arg": root.attrs.get("arg", ""),
                    "duration_ms": round(root.duration_ms or 0.0, 3),
                    "spans": [span.to_dict() for span in spans],
                    "tree": render_span_tree(spans),
                }
            )
        return block


def run_load(
    store: CatalogStore,
    config: LoadConfig | None = None,
    policy: ExecutionPolicy | None = None,
) -> LoadReport:
    """Build a harness, run the seeded workload, return the report."""
    return LoadHarness(store, config or LoadConfig(), policy=policy).run()
