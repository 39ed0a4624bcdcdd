"""BENCH_obs — observability overhead: tracing off, tracing on, exporters.

The :mod:`repro.obs` subsystem's contract is that it is effectively free
when off and cheap when on.  This benchmark pins both claims on a seeded
op loop over ``WorkbookApp`` sessions — search, overview, explore,
suggest and a usage-write touch, run back to back with no injected
latency, so the wall clock is this code's own work:

* **off** — the default :data:`~repro.obs.trace.NOOP_TRACER`: the
  baseline, plus a no-op span microbench documenting the per-call cost;
* **on** — a real tracer exporting every span to a ring buffer, each op
  under its own root span; the full-fidelity trace must cost at most a
  modest double-digit slice of the off wall clock.

The two modes run in alternating blocks over one app (off/on, then
on/off, ...), each pair on the same op list, so cache warmth and host
speed drift fall on both sides alike.  Also measured: raw no-op vs live
span throughput (spans/s), Prometheus rendering and JSONL export
throughput.  Emits ``benchmarks/results/BENCH_obs.json`` plus the usual
text table.

Set ``BENCH_OBS_SMOKE=1`` for a small-N run (CI smoke): correctness
invariants only — the overhead gate needs the full scale.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.obs import (
    NOOP_TRACER,
    MetricsRegistry,
    RingBufferExporter,
    Tracer,
    export_jsonl,
)
from repro.obs.metrics import percentile
from repro.providers.execution import ExecutionPolicy
from repro.synth import SynthConfig, generate_catalog
from repro.synth.workload import query_pool, zipf_weights
from repro.workbook.app import WorkbookApp

SMOKE = bool(os.environ.get("BENCH_OBS_SMOKE"))

#: Overhead ceiling for tracing *on*, per the subsystem's acceptance
#: gate (full runs only; smoke runs are too noisy to gate on).
MAX_ON_OVERHEAD = 0.10

#: Alternating off/on block pairs, and ops per block.  Short blocks put
#: both modes under the same host conditions: over 20-op blocks the
#: overhead read +2.1% to +3.4% in six full runs on a shared 2-vCPU
#: host, where 20 pairs of 200-op blocks read anywhere from -3% to +11%.
PAIRS = 6 if SMOKE else 200
BLOCK_OPS = 20

#: Op mix: search-heavy, with overview opens, selection-driven
#: exploration, autocomplete and enough usage writes to keep cache
#: invalidation honest.
OP_WEIGHTS = {
    "search": 0.40,
    "overview": 0.25,
    "explore": 0.10,
    "suggest": 0.10,
    "touch": 0.15,
}
PREFIXES = ("ty", "bad", "tag", "own", "air", "ord")

_rows: dict[str, dict] = {}


def _op_lists(store) -> list[list[tuple[str, str, str, str]]]:
    """One seeded op list per pair: ``(kind, user, team, arg)``, with
    Zipf-hot users, queries and artifacts."""
    rng = random.Random(7)
    users = [
        (user.id, teams[0].id if teams else "")
        for user in store.users()
        for teams in [store.teams_of(user.id)]
    ]
    queries = query_pool(store)
    artifacts = store.artifact_ids()
    user_w = zipf_weights(len(users), 2.0)
    query_w = zipf_weights(len(queries), 2.0)
    artifact_w = zipf_weights(len(artifacts), 2.0)
    kinds, kind_w = zip(*OP_WEIGHTS.items())
    lists = []
    for _ in range(PAIRS):
        ops = []
        for _ in range(BLOCK_OPS):
            kind = rng.choices(kinds, weights=kind_w)[0]
            user_id, team_id = rng.choices(users, weights=user_w)[0]
            if kind == "search":
                arg = rng.choices(queries, weights=query_w)[0]
            elif kind == "suggest":
                arg = rng.choice(PREFIXES)
            elif kind == "overview":
                arg = ""
            else:
                arg = rng.choices(artifacts, weights=artifact_w)[0]
            ops.append((kind, user_id, team_id, arg))
        lists.append(ops)
    return lists


def _run_op(app: WorkbookApp, kind: str, user_id: str, team_id: str,
            arg: str) -> None:
    session = app.session(user_id, team_id)
    if kind == "search":
        session.search(arg, limit=20)
    elif kind == "overview":
        session.open_browse()
    elif kind == "explore":
        session.select_artifact(arg)
        session.explore_selection(limit=5)
    elif kind == "suggest":
        session.suggest(arg, limit=8)
    else:
        app.store.record(arg, user_id, "view")


def _run_block(app: WorkbookApp, ops, row: dict) -> None:
    """Run one block of ops under the engine's current tracer, adding
    its wall clock, per-op latencies and errors to *row*."""
    tracer = app.engine.tracer
    started = time.perf_counter()
    for kind, user_id, team_id, arg in ops:
        op_started = time.perf_counter()
        try:
            with tracer.span(f"op.{kind}") as span:
                if span:
                    span.set("arg", arg)
                    span.set("user", user_id)
                _run_op(app, kind, user_id, team_id, arg)
        except Exception:
            row["errors"] += 1
        row["latencies_ms"].append((time.perf_counter() - op_started) * 1e3)
    row["wall_s"] += time.perf_counter() - started


def _new_row() -> dict:
    return {"wall_s": 0.0, "errors": 0, "spans": 0, "latencies_ms": []}


def _run() -> tuple[dict, dict]:
    """The off and on rows."""
    store = generate_catalog(
        SynthConfig(seed=7, n_tables=40 if SMOKE else 120)
    )
    app = WorkbookApp(
        store, policy=ExecutionPolicy.defaults().replace(max_workers=4)
    )
    # Cleared before every block; one block's spans fit with room to spare.
    ring = RingBufferExporter()
    live = app.engine.enable_tracing(ring)
    rows = {"off": _new_row(), "on": _new_row()}
    op_lists = _op_lists(store)
    # Warm the caches untimed, so the first pairs do not pay every cold
    # miss.
    app.engine.tracer = NOOP_TRACER
    for ops in op_lists[:10]:
        _run_block(app, ops, _new_row())
    for index, ops in enumerate(op_lists):
        for mode in ("off", "on") if index % 2 == 0 else ("on", "off"):
            app.engine.tracer = live if mode == "on" else NOOP_TRACER
            ring.clear()
            _run_block(app, ops, rows[mode])
            rows[mode]["spans"] += len(ring)
    app.engine.tracer = NOOP_TRACER
    app.close()
    return _summary(rows["off"]), _summary(rows["on"])


def _summary(row: dict) -> dict:
    samples = row.pop("latencies_ms")
    return {
        **row,
        "ops": len(samples),
        "wall_s": round(row["wall_s"], 4),
        "throughput_ops_s": round(len(samples) / row["wall_s"], 2),
        "p50_ms": percentile(samples, 0.50),
        "p99_ms": percentile(samples, 0.99),
    }


def _span_throughput(tracer, n: int) -> float:
    started = time.perf_counter()
    for _ in range(n):
        with tracer.span("bench.op") as sp:
            if sp:
                sp.set("k", "v")
    return n / (time.perf_counter() - started)


def test_bench_obs_overhead():
    off, on = _run()
    _rows["off"] = off
    _rows["on"] = on

    for row in (off, on):
        assert row["errors"] == 0
        assert row["ops"] == PAIRS * BLOCK_OPS
    # The ring is cleared before every block: spans land only while on.
    assert off["spans"] == 0
    assert on["spans"] > 0

    overhead = on["wall_s"] / off["wall_s"] - 1.0
    _rows["overhead"] = {
        "tracing_on_vs_off": round(overhead, 4),
        "gate": MAX_ON_OVERHEAD,
        "smoke": SMOKE,
    }
    if not SMOKE:
        assert overhead <= MAX_ON_OVERHEAD, (
            f"tracing-on overhead {overhead:.1%} exceeds "
            f"{MAX_ON_OVERHEAD:.0%} on the session op loop"
        )


def test_bench_obs_span_microbench():
    n = 20_000 if SMOKE else 200_000
    noop_rate = _span_throughput(NOOP_TRACER, n)
    ring = RingBufferExporter(capacity=1024)
    live_rate = _span_throughput(Tracer(exporters=(ring,)), n)
    _rows["spans"] = {
        "noop_spans_per_s": round(noop_rate),
        "live_spans_per_s": round(live_rate),
        "noop_cost_ns": round(1e9 / noop_rate, 1),
        "live_cost_ns": round(1e9 / live_rate, 1),
    }
    # The no-op path must be dramatically cheaper than a live span —
    # that asymmetry is the whole point of the falsy singleton design.
    assert noop_rate > live_rate


def test_bench_obs_export_throughput():
    ring = RingBufferExporter()
    tracer = Tracer(exporters=(ring,))
    for i in range(500 if SMOKE else 5000):
        with tracer.span("op") as sp:
            sp.set("endpoint", f"x://p{i % 7}")
    spans = ring.spans()

    started = time.perf_counter()
    text = export_jsonl(spans)
    jsonl_s = time.perf_counter() - started
    assert text.count("\n") == len(spans)

    registry = MetricsRegistry()
    family = registry.counter("bench_total", ("endpoint",), "bench")
    hist = registry.histogram("bench_ms", ("endpoint",))
    for i in range(200):
        family.labels(f"x://p{i % 25}").inc()
        hist.labels(f"x://p{i % 25}").observe(float(i % 40))
    started = time.perf_counter()
    exposition = registry.render_prometheus()
    prom_s = time.perf_counter() - started
    assert "bench_total" in exposition and "bench_ms_bucket" in exposition

    _rows["export"] = {
        "jsonl_spans": len(spans),
        "jsonl_spans_per_s": round(len(spans) / jsonl_s) if jsonl_s else 0,
        "prometheus_lines": exposition.count("\n"),
        "prometheus_render_ms": round(prom_s * 1000.0, 3),
    }


def test_bench_obs_report():
    assert "overhead" in _rows, "obs benchmark did not run"
    off, on = _rows["off"], _rows["on"]
    lines = [
        f"{'config':>8}{'ops':>7}{'wall s':>9}{'ops/s':>9}"
        f"{'p50 ms':>9}{'p99 ms':>9}{'spans':>8}"
    ]
    for label, row in (("off", off), ("on", on)):
        lines.append(
            f"{label:>8}{row['ops']:>7}{row['wall_s']:>9.3f}"
            f"{row['throughput_ops_s']:>9.1f}{row['p50_ms']:>9.2f}"
            f"{row['p99_ms']:>9.2f}{row['spans']:>8}"
        )
    overhead = _rows["overhead"]["tracing_on_vs_off"]
    lines.append(
        f"\n{PAIRS} alternating off/on block pairs of {BLOCK_OPS} ops"
        f"\ntracing-on overhead: {overhead:+.1%} wall clock "
        f"(gate {MAX_ON_OVERHEAD:.0%}{', smoke run — not gated' if SMOKE else ''})"
    )
    spans = _rows.get("spans", {})
    if spans:
        lines.append(
            f"span cost: no-op {spans['noop_cost_ns']:.0f} ns, "
            f"live {spans['live_cost_ns']:.0f} ns "
            f"({spans['noop_spans_per_s']:,} vs "
            f"{spans['live_spans_per_s']:,} spans/s)"
        )
    export = _rows.get("export", {})
    if export:
        lines.append(
            f"exporters: JSONL {export['jsonl_spans_per_s']:,} spans/s, "
            f"Prometheus {export['prometheus_lines']} lines in "
            f"{export['prometheus_render_ms']} ms"
        )
    write_result(
        "BENCH_obs",
        "Observability overhead: no-op vs live tracing on a sequential "
        "session op loop, plus exporter throughput",
        "\n".join(lines),
    )
    path = Path(RESULTS_DIR) / "BENCH_obs.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_rows, indent=2) + "\n", encoding="utf-8")
