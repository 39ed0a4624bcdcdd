"""Differential tests: the relatedness indexes against the scan kernels.

Each generated catalog is indexed once by long-lived indexes (the ones a
``BuiltinProviders`` holds), then written to: artifacts added, badges
granted, the token cache cleared, on memory and sqlite stores, with the
event log sometimes too short to explain the writes.  After every step
each lookup must equal the reference kernels of
``tests/relatedness_reference.py`` built fresh from the store — same
ids, same scores (TF-IDF and LSH compared unrounded), same order:

* ``similar`` (ensemble), semantic ``similar``/``search``, schema;
* ``LshIndex.query`` for every sketched column, and every signature;
* ``joinable`` at several limits and ``join_graph`` at depth 1 and 2.

Catalogs draw from small vocabularies so that column names repeat (also
within one artifact, and in other letter case), texts tie or are empty,
and join scores tie across columns — which exercises the ``joinable``
rule that compares a raw score against a rounded one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.events import EventLog
from repro.catalog.model import Artifact, Column, User
from repro.catalog.store import CatalogStore
from repro.metadata.joinability import JoinabilityIndex
from repro.metadata.similarity import EnsembleSimilarity
from repro.metadata.text import TfIdfIndex
from tests import relatedness_reference as ref

BACKENDS = ("memory", "sqlite")
WORDS = ("sales", "order", "orders", "customer", "web", "daily", "q1")
COLUMN_NAMES = ("id", "ID", "customer_id", "order_id", "amount")
LIMITS = (1, 2, 3, 5, 10)
SEARCHES = ("sales", "order customer", "daily web q1 sales", "nothing")

words = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)
samples = st.one_of(
    st.just(()),
    st.tuples(
        st.sampled_from(("c", "o", "s")),
        st.integers(0, 30),
        st.integers(2, 40),
    ).map(lambda t: tuple(f"{t[0]}-{i}" for i in range(t[1], t[1] + t[2]))),
)
column = st.builds(
    Column,
    name=st.sampled_from(COLUMN_NAMES),
    dtype=st.sampled_from(("integer", "string")),
    sample_values=samples,
)
artifact_body = st.fixed_dictionaries({
    "name": words,
    "description": words,
    "tags": st.lists(st.sampled_from(WORDS), max_size=2).map(tuple),
    "artifact_type": st.sampled_from(("table", "dataset", "document")),
    "columns": st.lists(column, max_size=4).map(tuple),
})
#: ("new", body) adds an artifact; ("clone", i) adds a copy of the i-th
#: artifact (exact ties); ("badge", i) grants a badge; ("reindex", 0)
#: clears the token cache.
write = st.one_of(
    st.tuples(st.just("new"), artifact_body),
    st.tuples(st.just("clone"), st.integers(0, 20)),
    st.tuples(st.just("badge"), st.integers(0, 20)),
    st.tuples(st.just("reindex"), st.just(0)),
)


class Catalog:
    """A store on one backend plus the long-lived indexes under test."""

    def __init__(self, backend: str, directory: str, short_log: bool):
        if backend == "sqlite":
            self.store = CatalogStore.open(Path(directory) / "catalog.db")
        else:
            self.store = CatalogStore()
        if short_log:
            self.store.events = EventLog(capacity=2)
        self.store.add_user(User(id="u-1", name="Una"))
        self.added = 0
        self.similarity = EnsembleSimilarity(self.store)
        self.joinability = JoinabilityIndex(self.store)

    def add(self, body: dict) -> None:
        self.store.add_artifact(Artifact(id=f"a-{self.added:02d}", **body))
        self.added += 1

    def apply(self, step) -> None:
        kind, arg = step
        ids = self.store.artifact_ids()
        if kind == "new":
            self.add(arg)
        elif kind == "clone" and ids:
            original = self.store.artifact(ids[arg % len(ids)])
            self.add({
                "name": original.name,
                "description": original.description,
                "tags": original.tags,
                "artifact_type": original.artifact_type,
                "columns": original.columns,
            })
        elif kind == "badge" and ids:
            self.store.grant_badge(ids[arg % len(ids)], "endorsed", "u-1")
        elif kind == "reindex":
            self.store.clear_token_cache()

    def check(self) -> None:
        store = self.store
        text_index = ref.semantic_index(store)
        joins = ref.ReferenceJoinability(store)
        semantic = self.similarity.semantic.build()._index
        for aid in store.artifact_ids():
            for limit in LIMITS:
                assert self.similarity.similar(aid, limit) == \
                    ref.ensemble_similar(store, aid, limit, index=text_index)
                assert self.similarity.schema.similar(aid, limit) == \
                    ref.schema_similar(store, aid, limit)
                assert semantic.similar(aid, limit) == \
                    text_index.similar(aid, limit)
                assert self.joinability.joinable(aid, limit) == \
                    joins.joinable(aid, limit)
            for depth in (1, 2):
                assert self.joinability.join_graph(aid, depth=depth) == \
                    joins.join_graph(aid, depth=depth)
        for text in SEARCHES:
            for limit in LIMITS:
                assert semantic.search(text, limit) == \
                    text_index.search(text, limit)
        lsh = self.joinability.build()._lsh
        assert len(lsh) == len(joins.lsh.signatures)
        for key, signature in joins.lsh.signatures.items():
            assert lsh.signature_of(key) == signature
            for threshold in (0.0, 0.2, 0.5):
                assert lsh.query(signature, threshold) == \
                    joins.lsh.query(signature, threshold)

    def close(self) -> None:
        self.store.close()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    initial=st.lists(artifact_body, min_size=1, max_size=8),
    writes=st.lists(write, max_size=5),
    short_log=st.booleans(),
)
def test_indexes_equal_scan_kernels_across_writes(
    backend, initial, writes, short_log
):
    with tempfile.TemporaryDirectory() as directory:
        catalog = Catalog(backend, directory, short_log)
        try:
            for body in initial:
                catalog.add(body)
            catalog.check()
            for step in writes:
                catalog.apply(step)
                catalog.check()
        finally:
            catalog.close()


# -- pinned cases ----------------------------------------------------------


def test_rescore_slack_keeps_exact_ties_the_approximation_splits():
    """``d1`` and ``d4`` tie exactly against ``d0`` while their
    approximate scores differ in the last bit, ``d1`` lower; with limit 2
    the k-th approximate score is ``d4``'s, and only the slack keeps
    ``d1``, which wins the tie on its key."""
    docs = {"d0": "cd ab", "d1": "ab ij gh", "d2": "ij", "d3": "ij ij gh",
            "d4": "gh ab ij", "d5": "ij ab ab"}
    index, reference = TfIdfIndex(), ref.ReferenceTfIdf()
    for key, text in docs.items():
        index.add(key, text)
        reference.add(key, text)
    want = reference.similar("d0", limit=2)
    assert [key for key, _ in want] == ["d5", "d1"]
    assert index.similar("d0", limit=2) == want


def _tables(*columns_per_table):
    store = CatalogStore()
    for number, columns in enumerate(columns_per_table):
        store.add_artifact(Artifact(
            id=f"t-{number}", name=f"T{number}", artifact_type="table",
            columns=tuple(Column(name, "string", values)
                          for name, values in columns),
        ))
    return store


def _overlap_scoring(rounding: str) -> tuple[tuple[str, ...], float]:
    """Sample values for a partner column whose estimated Jaccard with
    ``c-0..c-39`` is above the join threshold and whose rounding to four
    places goes *rounding* (``down``, ``up`` or ``exact``)."""
    base = tuple(f"c-{i}" for i in range(40))
    for shift in range(40):
        values = tuple(f"c-{i}" for i in range(shift, shift + 40))
        index = JoinabilityIndex(_tables([("a", base)], [("b", values)]))
        raw = dict(index.build()._lsh.neighbours(("t-0", "a"), 0.2))
        raw = raw.get(("t-1", "b"))
        if raw is None:
            continue
        rounded = round(raw, 4)
        direction = ("down" if rounded < raw else
                     "up" if rounded > raw else "exact")
        if direction == rounding:
            return values, raw
    raise AssertionError(f"no overlap rounding {rounding}")


@pytest.mark.parametrize("rounding", ("down", "up", "exact"))
def test_joinable_replaces_on_raw_tie_only_when_rounded_down(rounding):
    """Two source columns (and two partner columns) carry the same values,
    so every match ties.  A tie replaces the partner's edge exactly when
    the rounded stored score is below the raw one."""
    base = tuple(f"c-{i}" for i in range(40))
    values, raw = _overlap_scoring(rounding)
    store = _tables([("a1", base), ("a2", base)], [("b1", values),
                                                   ("b2", values)])
    (edge,) = JoinabilityIndex(store).joinable("t-0")
    assert edge.score == round(raw, 4)
    want = ("a2", "b2") if rounding == "down" else ("a1", "b1")
    assert (edge.src_column, edge.dst_column) == want
    assert [edge] == ref.ReferenceJoinability(store).joinable("t-0")
