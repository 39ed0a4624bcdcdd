"""BENCH_load — concurrent multi-tenant serving on one shared engine.

The load harness (:mod:`repro.load`) drives 1000 simulated sessions —
4000 operations, Zipf-skewed over users and queries, the study-task
query mix plus catalog writes — from 64 worker threads over one shared
``WorkbookApp``.  Every provider invocation pays a 25 ms injected
latency (a remote metadata service) and the engine's fetch pool is held
at 4 workers, so provider capacity is the scarce resource it is in
production.  Each tenant team carries its own customization (a hidden
overview provider); the harness verifies per-op that no hide leaks
across tenants.

The run must end with zero errors, zero degradation errors, isolation
checks made and zero cross-tenant leaks, and its report must carry the
slowest op traces.  Throughput, latency percentiles, hit rate and
provider calls are recorded, not gated: with a 25 ms sleep per
invocation they time the injected latency more than this code (the
sleep-free ``perfbench/`` workloads measure the engine itself).  Emits
``benchmarks/results/BENCH_load.json`` plus the usual text table.

Set ``BENCH_LOAD_SMOKE=1`` for a small-N run (CI smoke).
"""

import json
import os
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.load import LoadConfig, run_load
from repro.providers.execution import ExecutionPolicy
from repro.synth import SynthConfig, generate_catalog

SMOKE = bool(os.environ.get("BENCH_LOAD_SMOKE"))

_rows: dict[str, dict] = {}


def _config() -> LoadConfig:
    if SMOKE:
        return LoadConfig(
            sessions=60,
            ops_per_session=4,
            concurrency=8,
            provider_latency_ms=5.0,
            zipf_s=2.0,
            search_weight=0.40,
            overview_weight=0.25,
            explore_weight=0.10,
            suggest_weight=0.10,
            touch_weight=0.15,
            trace_slowest=5,
        )
    return LoadConfig(
        sessions=1000,
        ops_per_session=4,
        concurrency=64,
        provider_latency_ms=25.0,
        zipf_s=2.0,
        search_weight=0.40,
        overview_weight=0.25,
        explore_weight=0.10,
        suggest_weight=0.10,
        touch_weight=0.15,
        trace_slowest=5,
    )


def test_bench_load_serves_tenants_without_errors_or_leaks():
    store = generate_catalog(
        SynthConfig(seed=7, n_tables=60 if SMOKE else 150)
    )
    row = run_load(
        store,
        _config(),
        policy=ExecutionPolicy.defaults().replace(
            max_workers=2 if SMOKE else 4
        ),
    ).to_dict()
    _rows["load"] = row

    assert row["errors"] == 0
    assert row["degradation"]["errors"] == 0
    assert row["isolation"]["checks"] > 0
    assert row["isolation"]["violations"] == 0
    # trace_slowest=5: the report must carry reconstructed op traces.
    assert 0 < len(row["slowest"]) <= 5
    for entry in row["slowest"]:
        assert entry["op"].startswith("op.")
        assert entry["spans"] and entry["tree"]


def test_bench_load_report():
    assert "load" in _rows, "load benchmark did not run"
    row = _rows["load"]
    overall = row["latency_ms"]["overall"]
    lines = [
        f"{'ops':>6}{'ops/s':>8}{'p50 ms':>8}{'p99 ms':>9}"
        f"{'hit':>7}{'calls':>7}{'stale':>7}{'leaks':>6}",
        f"{row['ops']:>6}{row['throughput_ops_s']:>8.1f}"
        f"{overall['p50']:>8.2f}{overall['p99']:>9.1f}"
        f"{row['hit_rate']:>7.3f}{row['provider_calls']:>7}"
        f"{row['degradation']['stale_served']:>7}"
        f"{row['isolation']['violations']:>6}",
        f"\n{row['sessions']} sessions x {row['concurrency']} threads, "
        f"{row['provider_latency_ms']:.0f}ms injected provider latency, "
        f"Zipf-skewed users+queries, per-tenant customizations, "
        f"seed {row['seed']}",
    ]
    write_result(
        "BENCH_load",
        "Concurrent multi-tenant serving on one shared engine",
        "\n".join(lines),
    )
    path = Path(RESULTS_DIR) / "BENCH_load.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_rows, indent=2) + "\n", encoding="utf-8")
