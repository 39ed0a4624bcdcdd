"""The card memo inside :class:`ViewFactory`.

Cards outlive writes: the factory keeps one card per artifact and
follows the store's event log, dropping the card of each artifact a
usage or entities record names and clearing every card on a user
record, an opaque record on a domain cards read, or a truncated log.
Every view it builds must still equal a build from a fresh factory.

The differential test runs random write sequences — single, batched and
streamed usage events, badge grants, new artifacts (some owned by users
who do not exist yet), new users, owner renames, team roster changes,
version restores, token-cache clears and clock advances — on the
in-memory and the sqlite backends.  The store's event log holds only a
few records, so a large batch truncates it.  After each step every view
kind, an overview and a search are compared by ``repr`` with a fresh
factory's build (search cards with ``make_card``).  The unit tests
below pin each drop rule on its own.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.events import EventLog
from repro.catalog.model import Artifact, ArtifactType, UsageEvent, User
from repro.catalog.store import CatalogStore
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.ranking import Ranker
from repro.core.views import factory as factory_module
from repro.core.views.base import make_card
from repro.core.views.factory import ViewFactory
from repro.providers.base import ProviderRequest
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import ExecutionPolicy
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog

BACKENDS = ("memory", "sqlite")
#: Small enough that a batch of usage events truncates it.
LOG_CAPACITY = 8
#: Users no artifact's owner resolves to until ``add_user`` adds them.
GHOSTS = ("ghost-0", "ghost-1")
PENDING = ("pending-0", "pending-1", "pending-2")
#: One provider per representation (inputs filled in by ``_inputs``).
VIEWS = ("most_viewed", "of_type", "types", "lineage", "joinable",
         "embedding_map")
QUERY = "type: table"


class Harness:
    """A generated catalog with a short event log and an interface."""

    def __init__(self, backend: str, directory: str):
        config = SynthConfig(seed=5, n_tables=12, n_users=6, n_teams=2)
        if backend == "sqlite":
            self.store = CatalogStore.open(Path(directory) / "catalog.db")
            generate_catalog(config, store=self.store)
        else:
            self.store = generate_catalog(config)
        store = self.store
        store.events = EventLog(capacity=LOG_CAPACITY)
        self.artifacts = ["haunted"] + store.by_type("table")[:7]
        # Owned by a user who does not exist yet: its card shows the
        # owner id until ``add_user`` adds the ghost.
        store.add_artifact(Artifact(
            id="haunted", name="haunted table",
            artifact_type=ArtifactType.TABLE, owner_id=GHOSTS[0],
        ))
        self.users = [u.id for u in store.users()][:4]
        self.teams = [t.id for t in store.teams()]
        self.renames = 0
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(store))
        self.interface = DiscoveryInterface(
            store, registry, default_spec(), validate=False,
            policy=ExecutionPolicy.defaults().replace(max_workers=2),
        )

    def close(self) -> None:
        self.interface.engine.close()
        self.store.close()

    # -- the check ---------------------------------------------------------

    def check(self) -> None:
        """Every view kind, an overview and a search equal a build without
        the card memo."""
        interface = self.interface
        real = interface.factory.build

        def build(provider, result, inputs=None, limit=0, stale=False,
                  notice=""):
            view = real(provider, result, inputs=inputs, limit=limit,
                        stale=stale, notice=notice)
            fresh = ViewFactory(
                interface.store, interface.spec, interface.ranker
            ).build(provider, result, inputs=inputs, limit=limit,
                    stale=stale, notice=notice)
            assert repr(view) == repr(fresh), provider.name
            return view

        interface.factory.build = build
        try:
            for name in VIEWS:
                interface.open_view(name, inputs=self._inputs(name),
                                    user_id=self.users[0], limit=10)
            interface.overview_tabs(user_id=self.users[1])
        finally:
            del interface.factory.build
        result, view = interface.search(QUERY, user_id=self.users[0])
        assert view.cards == tuple(
            make_card(self.store, entry.artifact_id, score=entry.score)
            for entry in result.entries
        )

    def _inputs(self, name: str) -> dict[str, str]:
        provider = self.interface.spec.provider(name)
        return {
            spec.name: {
                "artifact": self.artifacts[1],
                "artifact_type": "table",
                "user": self.users[0],
            }[spec.input_type]
            for spec in provider.required_inputs()
        }

    # -- steps -------------------------------------------------------------

    def run(self, step: tuple) -> None:
        kind, *args = step
        getattr(self, f"_{kind}")(*args)

    def _record(self, artifact: int, user: int, action: str) -> None:
        self.store.record(self.artifacts[artifact], self.users[user], action)

    def _batch(self, artifact: int, size: int) -> None:
        now = self.store.clock.now()
        self.store.record_events([
            UsageEvent(self.artifacts[(artifact + i) % len(self.artifacts)],
                       self.users[i % len(self.users)], "view", now)
            for i in range(size)
        ])

    def _stream(self, artifact: int, count: int) -> None:
        with self.store.stream(window_s=3600.0, max_batch=2) as stream:
            for i in range(count):
                stream.record(self.artifacts[artifact],
                              self.users[i % len(self.users)], "favorite")

    def _badge(self, artifact: int, badge: str) -> None:
        self.store.grant_badge(self.artifacts[artifact], badge, self.users[0])

    def _add(self, index: int) -> None:
        aid = PENDING[index]
        if not self.store.has_artifact(aid):
            owner = GHOSTS[index % 2] if index < 2 else self.users[0]
            self.store.add_artifact(Artifact(
                id=aid, name=f"late {index}", artifact_type=ArtifactType.TABLE,
                owner_id=owner, created_at=self.store.clock.now(),
            ))
            self.artifacts.append(aid)

    def _add_user(self, index: int) -> None:
        ghost = GHOSTS[index]
        if ghost not in {u.id for u in self.store.users()}:
            self.store.add_user(User(id=ghost, name=f"Ghost {index}"))

    def _rename(self, artifact: int) -> None:
        """Rename the owner of an artifact (when the owner exists)."""
        owner = self.store.artifact(self.artifacts[artifact]).owner_id
        if owner in {u.id for u in self.store.users()}:
            self.renames += 1
            current = self.store.user(owner)
            self.store.set_user(replace(current, name=f"Renamed {self.renames}"))

    def _team(self, team: int) -> None:
        current = self.store.team(self.teams[team])
        members = current.member_ids
        self.store.set_team(replace(current, member_ids=members[1:] + members[:1]))

    def _restore(self) -> None:
        store = self.store
        store.restore_domain_versions(
            {domain: version + 1
             for domain, version in store.domain_versions.items()},
            total=store.version + 1,
        )

    def _reindex(self) -> None:
        self.store.clear_token_cache()

    def _advance(self, days: float) -> None:
        self.store.clock.advance(days=days)


_artifact = st.integers(0, 7)
STEP = st.one_of(
    st.tuples(st.just("record"), _artifact, st.integers(0, 3),
              st.sampled_from(("view", "open", "favorite"))),
    st.tuples(st.just("batch"), _artifact,
              st.sampled_from((2, LOG_CAPACITY + 4))),
    st.tuples(st.just("stream"), _artifact, st.integers(1, 3)),
    st.tuples(st.just("badge"), _artifact,
              st.sampled_from(("endorsed", "certified"))),
    st.tuples(st.just("add"), st.integers(0, len(PENDING) - 1)),
    st.tuples(st.just("add_user"), st.integers(0, len(GHOSTS) - 1)),
    st.tuples(st.just("rename"), _artifact),
    st.tuples(st.just("team"), st.integers(0, 1)),
    st.tuples(st.just("restore")),
    st.tuples(st.just("reindex")),
    st.tuples(st.just("advance"), st.sampled_from((0.5, 3.0))),
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(STEP, min_size=1, max_size=20))
def test_views_equal_builds_without_the_card_memo(backend, steps):
    with tempfile.TemporaryDirectory() as directory:
        harness = Harness(backend, directory)
        try:
            harness.check()
            for step in steps:
                harness.run(step)
                harness.check()
        finally:
            harness.close()


# -- one rule at a time -------------------------------------------------------


@pytest.fixture(params=BACKENDS)
def harness(request, tmp_path):
    harness = Harness(request.param, str(tmp_path))
    yield harness
    harness.close()


@pytest.fixture
def made(monkeypatch):
    """The artifact ids the factory resolves into cards, in order."""
    calls: list[str] = []
    real = factory_module.make_card

    def counting(store, artifact_id, score=0.0):
        calls.append(artifact_id)
        return real(store, artifact_id, score=score)

    monkeypatch.setattr(factory_module, "make_card", counting)
    return calls


def _embedding(harness):
    return harness.interface.open_view("embedding_map")


def _rebuild_after(harness, made, step) -> list[str]:
    """Build the embedding, run *step* and rebuild it; returns the ids
    the rebuild re-resolved, sorted.  The rebuild must equal a fresh
    factory's build."""
    _embedding(harness)
    del made[:]
    harness.run(step)
    view = _embedding(harness)
    resolved = sorted(made)
    interface = harness.interface
    provider = interface.spec.provider("embedding_map")
    result = interface.engine.execute(provider.endpoint, ProviderRequest()).result
    fresh = ViewFactory(interface.store, interface.spec, interface.ranker)
    assert repr(view) == repr(fresh.build(provider, result))
    return resolved


def test_a_usage_write_re_resolves_only_its_artifact(harness, made):
    aid = harness.artifacts[2]
    assert _rebuild_after(harness, made, ("record", 2, 0, "view")) == [aid]
    assert _rebuild_after(harness, made, ("batch", 2, 2)) == sorted(
        [aid, harness.artifacts[3]]
    )


def test_a_badge_grant_re_resolves_only_its_artifact(harness, made):
    assert _rebuild_after(harness, made, ("badge", 4, "certified")) == [
        harness.artifacts[4]
    ]


@pytest.mark.parametrize("step", [
    ("team", 0), ("advance", 3.0), ("reindex",),
])
def test_team_clock_and_text_writes_re_resolve_nothing(harness, made, step):
    assert _rebuild_after(harness, made, step) == []


@pytest.mark.parametrize("step", [
    ("rename", 1), ("add_user", 0), ("restore",), ("batch", 0, LOG_CAPACITY + 4),
])
def test_user_records_restores_and_truncation_clear_the_memo(
    harness, made, step
):
    everything = _embedding(harness).artifact_ids()
    assert _rebuild_after(harness, made, step) == sorted(everything)


def test_the_memo_holds_at_most_one_card_per_artifact(harness):
    for step in [("record", 0, 0, "view"), ("badge", 1, "endorsed"),
                 ("add", 2), ("advance", 0.5)]:
        harness.run(step)
        harness.check()
    cards = harness.interface.factory._cards
    assert set(cards) <= set(harness.store.artifact_ids())
    assert all(card.score == 0.0 for card in cards.values())


def test_search_cards_come_from_the_factory(harness, made):
    result, _ = harness.interface.search(QUERY)
    assert made == [entry.artifact_id for entry in result.entries]
    del made[:]
    harness.interface.search(QUERY)
    assert made == []


class _StoreWithoutLog:
    """A store whose ``events`` is not an :class:`EventLog`."""

    events = None

    def __init__(self, store):
        self._store = store

    def __getattr__(self, name):
        return getattr(self._store, name)


def test_a_store_without_an_event_log_gets_no_memo(tiny_store, spec, made):
    store = _StoreWithoutLog(tiny_store)
    factory = ViewFactory(store, spec, Ranker(FieldResolver(tiny_store)))
    scored = [("t-orders", 1.5), ("t-customers", 0.0)]
    for _ in range(2):
        assert factory.cards(scored) == tuple(
            make_card(tiny_store, aid, score) for aid, score in scored
        )
    assert made == ["t-orders", "t-customers"] * 2
    assert factory._cards == {}
