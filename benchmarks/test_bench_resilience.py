"""BENCH_resilience — circuit breakers under a persistently failing provider.

One leaf of a two-leaf Or query is broken for the whole run: every
invocation burns a 250ms latency spike (on a simulation clock) and then
fails, and the retry middleware pays that three times per fetch.  The
workload runs the same 400 searches twice:

* **breaker off** — every search re-invokes the broken endpoint and pays
  the full retry schedule before surfacing the failure;
* **breaker on** (failure threshold 3) — the first three fetch failures
  trip the endpoint's breaker, after which searches skip the broken leaf
  instantly and return degraded results from the healthy leaf.

Latency is simulated-clock time per search (error or result — either way
it is what a user waits), so the numbers are exact and deterministic.
The breaker-on p99 must be **strictly** below breaker-off.  Emits
``benchmarks/results/BENCH_resilience.json`` plus the usual text table.

Set ``BENCH_RESILIENCE_SMOKE=1`` to run on a smaller catalog (CI smoke).
"""

import json
import math
import os
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.errors import ProviderError
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import ExecutionEngine, ExecutionPolicy
from repro.providers.faults import FlakyEndpoint, LatencySpikeEndpoint
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog
from repro.util.clock import SimulationClock

#: Enough searches that the three breaker-warming failures fall outside
#: the p99 nearest-rank index (ceil(0.99 * 400) = 396 < 398).
SEARCHES = 400
QUERY = "badged: endorsed | type: table"
BROKEN = "catalog://badged"
SPIKE_MS = 250.0
ATTEMPTS = 3
THRESHOLD = 3

_rows: dict[str, dict] = {}


def _n_tables() -> int:
    return 120 if os.environ.get("BENCH_RESILIENCE_SMOKE") else 550


def _percentile(sorted_values: list[float], q: float) -> float:
    index = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def _evaluator(store, breaker_on: bool):
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(store))
    clock = SimulationClock()
    original = registry.resolve(BROKEN)
    # latency first, then failure: each doomed invocation costs a full
    # 250ms spike of simulated time before the retry middleware sees it
    broken = LatencySpikeEndpoint(
        FlakyEndpoint(original, fail_on=lambda i: True, name="badged"),
        clock,
        [SPIKE_MS],
    )
    registry.register(BROKEN, broken, replace=True)
    policy = ExecutionPolicy.defaults().replace(attempts=ATTEMPTS)
    if breaker_on:
        # Engine-wide threshold; only BROKEN ever fails.
        policy = policy.replace(breaker_failure_threshold=THRESHOLD)
    else:
        policy = policy.replace(breaker_enabled=False)
    engine = ExecutionEngine(registry, store=store, policy=policy, clock=clock)
    evaluator = QueryEvaluator(
        store, engine, QueryLanguage(default_spec()), Ranker(FieldResolver(store))
    )
    return evaluator, clock


def _run_workload(store, breaker_on: bool) -> dict:
    evaluator, clock = _evaluator(store, breaker_on)
    latencies = []
    failed = degraded = 0
    for _ in range(SEARCHES):
        started = clock.now()
        try:
            result = evaluator.search(QUERY, limit=50)
        except ProviderError:
            failed += 1
        else:
            degraded += int(result.degraded)
        latencies.append((clock.now() - started) * 1000.0)
    latencies.sort()
    stats = evaluator.engine.stats
    return {
        "p50_ms": _percentile(latencies, 50),
        "p99_ms": _percentile(latencies, 99),
        "mean_ms": sum(latencies) / len(latencies),
        "failed_searches": failed,
        "degraded_searches": degraded,
        "breaker_opens": stats.total("breaker_opens"),
        "breaker_rejections": stats.total("breaker_rejections"),
    }


def test_bench_resilience_breaker_cuts_tail_latency():
    store = generate_catalog(SynthConfig(seed=7, n_tables=_n_tables()))
    off = _run_workload(store, breaker_on=False)
    on = _run_workload(store, breaker_on=True)
    _rows["breaker_off"] = off
    _rows["breaker_on"] = on
    _rows["_meta"] = {
        "artifacts": store.artifact_count,
        "searches": SEARCHES,
        "spike_ms": SPIKE_MS,
        "attempts": ATTEMPTS,
        "failure_threshold": THRESHOLD,
    }

    # without the breaker every search pays the full retry schedule
    assert off["failed_searches"] == SEARCHES
    assert off["p50_ms"] >= SPIKE_MS * ATTEMPTS

    # with it, only the threshold-warming searches fail live; the rest
    # degrade gracefully and skip the broken leaf
    assert on["failed_searches"] == THRESHOLD
    assert on["degraded_searches"] == SEARCHES - THRESHOLD
    assert on["breaker_opens"] >= 1

    # the headline: the breaker strictly beats no-breaker at the tail
    assert on["p99_ms"] < off["p99_ms"], (
        f"breaker-on p99 {on['p99_ms']:.1f}ms not below "
        f"breaker-off {off['p99_ms']:.1f}ms"
    )
    assert on["p50_ms"] < off["p50_ms"]


def test_bench_resilience_report():
    assert "breaker_on" in _rows, "workload benchmark did not run"
    lines = [
        f"{'config':>12}{'p50 ms':>9}{'p99 ms':>9}{'mean ms':>9}"
        f"{'failed':>8}{'degraded':>10}{'opens':>7}{'rejects':>9}"
    ]
    for label in ("breaker_off", "breaker_on"):
        row = _rows[label]
        lines.append(
            f"{label:>12}{row['p50_ms']:>9.1f}{row['p99_ms']:>9.1f}"
            f"{row['mean_ms']:>9.1f}{row['failed_searches']:>8}"
            f"{row['degraded_searches']:>10}{row['breaker_opens']:>7}"
            f"{row['breaker_rejections']:>9}"
        )
    meta = _rows["_meta"]
    lines.append(
        f"\n{meta['searches']} searches, one broken Or-leaf "
        f"({meta['spike_ms']:.0f}ms spike x {meta['attempts']} attempts), "
        f"threshold {meta['failure_threshold']}, "
        f"{meta['artifacts']} artifacts (simulated clock)"
    )
    write_result(
        "BENCH_resilience",
        "Search latency with a persistently failing provider: "
        "circuit breaker on vs off",
        "\n".join(lines),
    )
    path = Path(RESULTS_DIR) / "BENCH_resilience.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_rows, indent=2) + "\n", encoding="utf-8")
