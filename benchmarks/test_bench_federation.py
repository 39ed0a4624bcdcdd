"""BENCH_federation — search over 4 member catalogs vs one monolith.

Two sub-experiments over one corpus partitioned round-robin into 4
disjoint members:

* **healthy fan-out (wall clock)** — the study-task query mix runs on
  the merged monolith and on the federation with caching disabled, so
  every search pays full provider work on both sides.  Each query runs
  on both, one after the other, so host-speed drift cannot favour
  either side's samples.  The federated
  p50 must stay within a small constant factor of the monolith's (the
  member loop adds per-member planning and a merge, not asymptotic
  cost), and every returned entry must be attributed to the member
  that owns it — zero cross-catalog leakage.

* **one slow member (simulated clock)** — every provider leaf of one
  member burns a 250ms latency spike and fails on every invocation.
  With the breaker off each search waits out the member's full retry
  schedule; with the member guard on (threshold 3) the first three
  failing searches trip that member's breaker and later searches skip
  it instantly, returning partial results.  Degradation-on p99 must be
  **strictly** below fan-out-waiting p99.  Text-only queries are left
  out of this run: the member answers them from its own token index
  without reaching a provider leaf.

Emits ``benchmarks/results/BENCH_federation.json`` plus the text table.
Set ``BENCH_FEDERATION_SMOKE=1`` for the small-catalog CI smoke run.
"""

import json
import math
import os
import time
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.federation import federate
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    RequestContext,
)
from repro.providers.faults import FlakyEndpoint, LatencySpikeEndpoint
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog
from repro.synth.workload import query_pool
from repro.util.clock import SimulationClock

PARTS = 4
SLOW_MEMBER = "cat3"
SPIKE_MS = 250.0
ATTEMPTS = 3
THRESHOLD = 3
#: Enough searches that the three breaker-warming failures fall outside
#: the p99 nearest-rank index.
SLOW_SEARCHES = 400
#: Federated p50 must stay within this factor of the monolith p50: the
#: fan-out re-does the same total scoring work in 4 smaller slices plus
#: a merge, so a small constant bound is the "comparable" claim.
P50_FACTOR = 4.0
#: Searches per side in the healthy fan-out (at least; whole rounds of
#: the query pool, interleaved one for one), so each p50 rests on
#: enough samples to compare against the 4x bound.
MIN_HEALTHY_SEARCHES = 250

_rows: dict[str, dict] = {}


def _smoke() -> bool:
    return bool(os.environ.get("BENCH_FEDERATION_SMOKE"))


def _corpus():
    n_tables = 80 if _smoke() else 400
    events = 1500 if _smoke() else 8000
    return generate_catalog(
        SynthConfig(seed=11, n_tables=n_tables, usage_events=events)
    )


def _percentile(sorted_values: list[float], q: float) -> float:
    index = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def _context(store) -> tuple[str, str]:
    user = store.users()[0]
    teams = store.teams_of(user.id)
    return user.id, teams[0].id if teams else ""


def test_bench_federation_healthy_fanout_comparable_p50():
    store = _corpus()
    user_id, team_id = _context(store)
    queries = query_pool(store)
    rounds = math.ceil(MIN_HEALTHY_SEARCHES / len(queries))
    no_cache = ExecutionPolicy.defaults().replace(cache_ttl_s=0)

    engine = ExecutionEngine(EndpointRegistry(), store=store, policy=no_cache)
    install_builtin_endpoints(engine.registry, BuiltinProviders(store))
    mono = QueryEvaluator(
        store, engine, QueryLanguage(default_spec()),
        Ranker(FieldResolver(store)),
    )
    federation, partition = federate(store, PARTS, policy=no_cache)
    mono_ms: list[float] = []
    fed_ms: list[float] = []
    leakage = 0
    checked = 0
    for _ in range(rounds):
        for query in queries:
            started = time.perf_counter()
            mono.search(
                query,
                context=RequestContext(user_id=user_id, team_id=team_id),
                limit=50,
            )
            mono_ms.append((time.perf_counter() - started) * 1000.0)
            started = time.perf_counter()
            result = federation.search(
                query, user_id=user_id, team_id=team_id, limit=50
            )
            fed_ms.append((time.perf_counter() - started) * 1000.0)
            assert not result.degraded
            for entry in result.entries:
                checked += 1
                if partition.assignment[entry.ref.artifact_id] != entry.ref.catalog_id:
                    leakage += 1
    engine.close()
    federation.close()

    mono_ms.sort()
    fed_ms.sort()
    row = {
        "searches": len(fed_ms),
        "monolith_p50_ms": _percentile(mono_ms, 50),
        "monolith_p99_ms": _percentile(mono_ms, 99),
        "federated_p50_ms": _percentile(fed_ms, 50),
        "federated_p99_ms": _percentile(fed_ms, 99),
        "p50_ratio": _percentile(fed_ms, 50) / max(_percentile(mono_ms, 50), 1e-9),
        "entries_checked": checked,
        "leaked_entries": leakage,
    }
    _rows["healthy_fanout"] = row

    assert leakage == 0, f"{leakage} entries attributed to the wrong catalog"
    assert checked > 0
    assert row["federated_p50_ms"] <= row["monolith_p50_ms"] * P50_FACTOR, (
        f"federated p50 {row['federated_p50_ms']:.2f}ms not comparable to "
        f"monolith {row['monolith_p50_ms']:.2f}ms (bound {P50_FACTOR}x)"
    )


def _provider_queries(store) -> list[str]:
    """The query mix minus text-only queries: those are answered from
    the member's own token index, reach no provider leaf, and so cannot
    meet the slow member's injected fault."""
    language = QueryLanguage(default_spec())
    return [
        query for query in query_pool(store)
        if any(b.provider is not None for b in language.compile(query).bindings)
    ]


def _run_slow_member(store, degradation_on: bool) -> dict:
    clock = SimulationClock()
    policy = ExecutionPolicy.defaults().replace(attempts=ATTEMPTS)
    if degradation_on:
        # Federation-wide threshold; only the slow member ever fails.
        policy = policy.replace(breaker_failure_threshold=THRESHOLD)
    else:
        policy = policy.replace(breaker_enabled=False)
    federation, _ = federate(store, PARTS, policy=policy, clock=clock)
    user_id, team_id = _context(store)

    # The slow member: every invocation of every one of its provider
    # leaves burns a full simulated spike and then fails, so without a
    # breaker each search pays SPIKE x ATTEMPTS per leaf it reaches.
    registry = federation.member_engine(SLOW_MEMBER).registry
    for uri in list(registry):
        broken = LatencySpikeEndpoint(
            FlakyEndpoint(registry.resolve(uri), fail_on=lambda i: True, name=uri),
            clock,
            [SPIKE_MS],
        )
        registry.register(uri, broken, replace=True)

    queries = _provider_queries(store)
    latencies: list[float] = []
    degraded = partial = rejections = 0
    for index in range(SLOW_SEARCHES):
        query = queries[index % len(queries)]
        started = clock.now()
        result = federation.search(
            query, user_id=user_id, team_id=team_id, limit=50
        )
        latencies.append((clock.now() - started) * 1000.0)
        degraded += int(result.degraded)
        partial += int(SLOW_MEMBER in result.failed)
        rejections += sum(
            marker.provider == SLOW_MEMBER and marker.detail == "circuit open"
            for marker in result.health
        )
    row = {
        "p50_ms": _percentile(sorted(latencies), 50),
        "p99_ms": _percentile(sorted(latencies), 99),
        "mean_ms": sum(latencies) / len(latencies),
        "degraded_searches": degraded,
        "partial_searches": partial,
        "breaker_state_after": federation.member_health()[SLOW_MEMBER]["breaker"],
        "breaker_rejections": rejections,
    }
    federation.close()
    return row


def test_bench_federation_slow_member_bounded_tail():
    store = _corpus()
    off = _run_slow_member(store, degradation_on=False)
    on = _run_slow_member(store, degradation_on=True)
    _rows["slow_member_breaker_off"] = off
    _rows["slow_member_breaker_on"] = on
    _rows["_meta"] = {
        "artifacts": store.artifact_count,
        "parts": PARTS,
        "slow_member": SLOW_MEMBER,
        "searches": SLOW_SEARCHES,
        "spike_ms": SPIKE_MS,
        "attempts": ATTEMPTS,
        "failure_threshold": THRESHOLD,
        "smoke": _smoke(),
    }

    # Every search still answers (partial results), on both configs.
    assert off["degraded_searches"] == SLOW_SEARCHES
    assert on["degraded_searches"] == SLOW_SEARCHES
    assert on["partial_searches"] == SLOW_SEARCHES

    # Fan-out-waiting pays the full retry schedule on the slow member.
    assert off["p50_ms"] >= SPIKE_MS * ATTEMPTS
    assert on["breaker_state_after"] == "open"

    # The headline: degradation-on strictly bounds the tail.
    assert on["p99_ms"] < off["p99_ms"], (
        f"degradation-on p99 {on['p99_ms']:.1f}ms not strictly below "
        f"fan-out-waiting {off['p99_ms']:.1f}ms"
    )
    assert on["p50_ms"] < off["p50_ms"]


def test_bench_federation_report():
    assert "healthy_fanout" in _rows, "healthy fan-out benchmark did not run"
    assert "slow_member_breaker_on" in _rows, "slow-member benchmark did not run"
    healthy = _rows["healthy_fanout"]
    lines = [
        "healthy fan-out (wall clock, caching disabled):",
        f"  monolith   p50={healthy['monolith_p50_ms']:.2f}ms "
        f"p99={healthy['monolith_p99_ms']:.2f}ms",
        f"  federated  p50={healthy['federated_p50_ms']:.2f}ms "
        f"p99={healthy['federated_p99_ms']:.2f}ms "
        f"(p50 ratio {healthy['p50_ratio']:.2f}x, bound {P50_FACTOR:.0f}x)",
        f"  leakage: {healthy['leaked_entries']}/{healthy['entries_checked']} "
        "entries misattributed",
        "",
        "one slow member (simulated clock):",
        f"{'config':>16}{'p50 ms':>9}{'p99 ms':>9}{'mean ms':>9}"
        f"{'partial':>9}{'breaker':>9}{'rejects':>9}",
    ]
    for label in ("slow_member_breaker_off", "slow_member_breaker_on"):
        row = _rows[label]
        lines.append(
            f"{label[12:]:>16}{row['p50_ms']:>9.1f}{row['p99_ms']:>9.1f}"
            f"{row['mean_ms']:>9.1f}{row['partial_searches']:>9}"
            f"{row['breaker_state_after']:>9}{row['breaker_rejections']:>9}"
        )
    meta = _rows["_meta"]
    lines.append(
        f"\n{meta['parts']} members, {meta['searches']} searches, one slow "
        f"member ({meta['spike_ms']:.0f}ms spike x {meta['attempts']} "
        f"attempts), threshold {meta['failure_threshold']}, "
        f"{meta['artifacts']} artifacts"
    )
    write_result(
        "BENCH_federation",
        "Federated fan-out vs monolith, and tail latency under one slow "
        "member: degradation on vs off",
        "\n".join(lines),
    )
    path = Path(RESULTS_DIR) / "BENCH_federation.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_rows, indent=2) + "\n", encoding="utf-8")
