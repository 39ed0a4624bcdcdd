"""BENCH_relatedness — relatedness lookups: indexes vs scan kernels.

Times the two relatedness lookups behind the explore panels on a
generated catalog, each against the scan-everything reference kernels of
``tests/relatedness_reference.py`` in the same process:

* **similar** — ``EnsembleSimilarity.similar(aid, limit=10)`` (TF-IDF
  plus schema Jaccard) vs the reference ensemble over a prebuilt
  reference TF-IDF index;
* **joinable** — ``JoinabilityIndex.join_graph(aid)`` (what the
  ``catalog://joinable`` endpoint serves) vs the reference per-pair LSH
  and full sorts.

Each lookup runs once per round for a fixed sample of artifacts; every
indexed answer must equal the reference answer (ids, scores, order and
column pairs), and the report records median and max latency per side.
The joinability index build (one batched sketch pass) is timed against
sketching column by column.

Gates: results equal; the median ``similar`` at least 3x and the median
``joinable`` at least 2x faster than the reference.

Full mode uses ~7k artifacts; ``BENCH_RELATEDNESS_SMOKE=1`` uses the
~1.8k-artifact catalog for CI.  Emits
``benchmarks/results/BENCH_relatedness.json`` plus a text table.
"""

import json
import os
import random
import statistics
import time
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.metadata.joinability import JoinabilityIndex
from repro.metadata.similarity import EnsembleSimilarity
from repro.synth import SynthConfig, generate_catalog
from tests import relatedness_reference as ref

SMOKE = bool(os.environ.get("BENCH_RELATEDNESS_SMOKE"))
SAMPLE = 30
ROUNDS = 3
SIMILAR_SPEEDUP = 3.0
JOINABLE_SPEEDUP = 2.0

_rows: dict[str, dict] = {}


def _catalog():
    if SMOKE:
        config = SynthConfig(seed=7, n_tables=980, n_users=24, n_teams=4)
    else:
        config = SynthConfig(seed=7, n_tables=3870, n_users=200, n_teams=12)
    store = generate_catalog(config)
    list(store.artifacts())  # resident before anything is timed
    return store


def _timed(call):
    started = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - started) * 1e3


def _summary(samples_ms: list[float]) -> dict:
    return {
        "median_ms": round(statistics.median(samples_ms), 3),
        "max_ms": round(max(samples_ms), 3),
    }


def test_bench_relatedness_lookups():
    store = _catalog()
    _, reference_build = _timed(lambda: ref.ReferenceJoinability(store))
    joins = JoinabilityIndex(store)
    _, indexed_build = _timed(joins.build)
    reference_joins = ref.ReferenceJoinability(store)
    reference_text = ref.semantic_index(store)
    similarity = EnsembleSimilarity(store).build()
    sample = random.Random(11).sample(store.artifact_ids(), SAMPLE)
    lookups = {
        "similar": (
            lambda aid: similarity.similar(aid, limit=10),
            lambda aid: ref.ensemble_similar(store, aid, 10,
                                             index=reference_text),
        ),
        "joinable": (
            joins.join_graph,
            reference_joins.join_graph,
        ),
    }
    for name, (indexed, reference) in lookups.items():
        indexed(sample[0]), reference(sample[0])  # lazy vectors, caches
        times: dict[str, list[float]] = {"indexed": [], "reference": []}
        mismatches = 0
        for _ in range(ROUNDS):
            for aid in sample:
                got, indexed_ms = _timed(lambda: indexed(aid))
                want, reference_ms = _timed(lambda: reference(aid))
                times["indexed"].append(indexed_ms)
                times["reference"].append(reference_ms)
                mismatches += got != want
        row = {side: _summary(samples) for side, samples in times.items()}
        row["speedup_median"] = round(
            row["reference"]["median_ms"] / row["indexed"]["median_ms"], 2
        )
        row["mismatches"] = mismatches
        _rows[name] = row
    _rows["joinability_build"] = {
        "indexed": {"ms": round(indexed_build, 1)},
        "reference": {"ms": round(reference_build, 1)},
    }
    _rows["catalog"] = {"artifacts": store.artifact_count, "smoke": SMOKE,
                        "sample": SAMPLE, "rounds": ROUNDS}

    assert _rows["similar"]["mismatches"] == 0, _rows["similar"]
    assert _rows["joinable"]["mismatches"] == 0, _rows["joinable"]
    assert _rows["similar"]["speedup_median"] >= SIMILAR_SPEEDUP, _rows
    assert _rows["joinable"]["speedup_median"] >= JOINABLE_SPEEDUP, _rows


def test_bench_relatedness_report():
    assert _rows, "lookup benchmark did not run"
    lines = [
        f"{'lookup':>10}{'side':>11}{'median ms':>11}{'max ms':>9}"
        f"{'speedup':>9}{'mismatch':>10}"
    ]
    for name in ("similar", "joinable"):
        row = _rows[name]
        for side in ("reference", "indexed"):
            lines.append(
                f"{name:>10}{side:>11}{row[side]['median_ms']:>11.3f}"
                f"{row[side]['max_ms']:>9.2f}"
                f"{row['speedup_median'] if side == 'indexed' else '':>9}"
                f"{row['mismatches'] if side == 'indexed' else '':>10}"
            )
    build = _rows["joinability_build"]
    lines.append(
        f"joinability build: indexed {build['indexed']['ms']} ms, "
        f"column by column {build['reference']['ms']} ms "
        f"({_rows['catalog']['artifacts']} artifacts)"
    )
    write_result(
        "BENCH_relatedness",
        "Relatedness lookups: indexes vs scan kernels (identical results)",
        "\n".join(lines),
    )
    path = Path(RESULTS_DIR) / "BENCH_relatedness.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_rows, indent=2) + "\n", encoding="utf-8")
