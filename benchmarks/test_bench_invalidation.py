"""BENCH_invalidation — dependency-aware cache invalidation under writes.

The workload a production catalog actually sees: a steady stream of
usage events (views, opens) interleaved with discovery searches whose
provider membership does not depend on usage.  Before per-domain
versioning, every ``store.record`` flushed the whole result cache, so
this workload measured a hit rate of ≈ 0; with declared dependencies the
annotation/relatedness results survive and the cache does its job.

Measures, on a ~1k-artifact synthetic catalog:

* cache hit rate of the dependency-aware engine on the mixed
  read/write workload, versus the same engine forced into the old
  coupled behaviour (every endpoint treated as undeclared);
* endpoint invocations saved and invalidation counter totals;
* a stale-result audit: every search's membership is compared against
  a cache-disabled engine on the same store — any divergence fails the
  benchmark outright.

Emits ``benchmarks/results/BENCH_invalidation.json`` plus a text table.
Set ``BENCH_INVALIDATION_SMOKE=1`` for the CI-sized run.
"""

import dataclasses
import json
import os
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.providers.execution import ExecutionPolicy
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog
from repro.workbook.app import WorkbookApp

_rows: dict[str, dict] = {}

#: Searches whose membership is independent of usage traffic; values are
#: bound against the synth catalog below.
QUERY_TEMPLATES = (
    "type: table",
    "type: workbook",
    "tagged: sales",
    "badged: endorsed",
    "owned_by: {owner}",
    "type: table & tagged: sales",
)


def _iterations() -> int:
    return 40 if os.environ.get("BENCH_INVALIDATION_SMOKE") else 200


def _build_store():
    return generate_catalog(
        SynthConfig(seed=7, n_tables=550, usage_events=1000)
    )


def _queries(store) -> list[str]:
    owner = store.users()[0].name
    return [template.format(owner=owner) for template in QUERY_TEMPLATES]


def _coupled_app(store) -> WorkbookApp:
    """The builtin suite with every dependency declaration removed.

    Each endpoint is re-registered behind an undecorated wrapper that
    keeps its context and estimator declarations (so request keys and
    planning match the dependency-aware app), and the spec declares no
    dependencies, so every registration stays undeclared and any write
    drops every entry: the conservative fallback path.
    """
    spec = default_spec()
    spec = dataclasses.replace(spec, providers=tuple(
        dataclasses.replace(provider, dependencies=frozenset())
        for provider in spec.providers
    ))
    app = WorkbookApp(store, spec=spec)
    registry = app.registry
    for uri in registry:
        record = registry.registration(uri)
        registry.register(
            uri,
            lambda request, fetch=record.endpoint: fetch(request),
            replace=True,
            estimator=record.estimator,
            context=record.context,
        )
    assert all(registry.registration(uri).domains is None for uri in registry)
    return app


def _run_workload(app, store, queries, iterations, oracle=None) -> dict:
    """Interleave usage writes with searches; optionally audit vs oracle.

    *oracle* is a cache-disabled app on the same store; when given,
    every search's membership must match it exactly.
    """
    user = store.users()[0]
    artifact_ids = store.artifact_ids()
    app.stats.reset()
    app.engine.invalidate()
    stale = 0
    for step in range(iterations):
        # One usage write per step: the traffic that used to flush
        # everything.
        store.record(artifact_ids[step % len(artifact_ids)], user.id, "view")
        query = queries[step % len(queries)]
        result, _ = app.interface.search(query, user_id=user.id, limit=10)
        if oracle is not None:
            expected, _ = oracle.interface.search(
                query, user_id=user.id, limit=10
            )
            if result.artifact_ids() != expected.artifact_ids():
                stale += 1
    return {
        "iterations": iterations,
        "cache_hit_rate": app.stats.cache_hit_rate,
        "cache_hits": app.stats.total("cache_hits"),
        "cache_misses": app.stats.total("cache_misses"),
        "endpoint_calls": app.stats.total("calls"),
        "invalidations": app.stats.total("invalidations"),
        "stale_results": stale,
    }


def test_bench_invalidation_workload():
    iterations = _iterations()
    store = _build_store()
    queries = _queries(store)

    # Ground truth: identical store, caching disabled entirely.
    oracle = WorkbookApp(
        store, policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0)
    )

    with WorkbookApp(store) as app:
        aware = _run_workload(app, store, queries, iterations, oracle=oracle)

    # The pre-tentpole behaviour: no endpoint declares anything, so any
    # write flushes every entry (the conservative fallback path).
    with _coupled_app(store) as app:
        coupled = _run_workload(app, store, queries, iterations)

    oracle.close()
    _rows["aware"] = aware
    _rows["coupled"] = coupled

    # The acceptance bar: the cache survives usage traffic...
    assert aware["cache_hit_rate"] >= 0.8, aware
    # ...where the coupled engine loses essentially everything...
    assert coupled["cache_hit_rate"] < 0.1, coupled
    # ...and correctness is not traded away for it.
    assert aware["stale_results"] == 0, aware


def test_bench_invalidation_report():
    assert _rows, "workload benchmark did not run"
    lines = [
        f"{'engine':>9}{'iters':>7}{'hit rate':>10}{'hits':>7}"
        f"{'misses':>8}{'calls':>7}{'inval':>7}{'stale':>7}"
    ]
    for label, row in _rows.items():
        lines.append(
            f"{label:>9}{row['iterations']:>7}"
            f"{row['cache_hit_rate']:>10.2f}{row['cache_hits']:>7}"
            f"{row['cache_misses']:>8}{row['endpoint_calls']:>7}"
            f"{row['invalidations']:>7}{row['stale_results']:>7}"
        )
    write_result(
        "BENCH_invalidation",
        "Cache hit rate under interleaved usage writes: "
        "dependency-aware vs coupled invalidation",
        "\n".join(lines),
    )
    payload = {
        "workload": {
            "queries": len(QUERY_TEMPLATES),
            "write_per_search": 1,
        },
        "engines": _rows,
    }
    path = Path(RESULTS_DIR) / "BENCH_invalidation.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
