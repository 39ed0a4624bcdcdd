"""The view memo inside :meth:`ViewFactory.build`.

A memoized build must return exactly what a memo-less build of the same
provider result returns *now*.  The differential test interleaves
overview, explore and single-view builds for several users and teams
with every kind of change that can move a view without changing its
provider result: usage events (one at a time, in ``record_events``
batches and in ``store.stream`` bursts), badge grants, lineage edges,
artifacts appearing that a cached result already names (the catalog's
view of a delete, run backwards: the store has no delete), owner
renames, team roster changes, clock advances, version restores (opaque
log records), a truncated event log, host field resolvers (a new field
and an overridden built-in) reading state outside the catalog, and an
endpoint whose answer changes without any catalog write.  Each build is
compared by ``repr`` with a build from a fresh factory, on the
in-memory and the sqlite backends.  The unit tests below pin each part
of the key, and each way a memoized view follows a write: served as it
is, patched, or rebuilt.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, ArtifactType, UsageEvent
from repro.catalog.store import CatalogStore
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.interface.exploration import ExplorationEngine
from repro.core.ranking import Ranker
from repro.core.spec.model import ProviderSpec, RankingWeight, Visibility
from repro.core.views.factory import ViewFactory
from repro.core.views.graph import GraphView
from repro.errors import CatalogError, RepresentationError
from repro.obs.metrics import default_registry
from repro.providers.base import (
    GraphEdge,
    ProviderResult,
    Representation,
    ScoredArtifact,
    list_result,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import CACHE_MAX_ENTRIES, ExecutionPolicy
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog

PENDING = ("pending-0", "pending-1", "pending-2")
BACKENDS = ("memory", "sqlite")


class Pinned:
    """An endpoint answering a fixed id list that the test may change
    without any catalog write (a host system outside the catalog)."""

    def __init__(self, ids):
        self.ids = list(ids)

    def __call__(self, request):
        return list_result([ScoredArtifact(aid, score=1.0) for aid in self.ids])


class Harness:
    """A generated catalog, an interface over it and its outside state."""

    def __init__(self, backend: str, directory: str):
        config = SynthConfig(seed=5, n_tables=12, n_users=6, n_teams=2)
        if backend == "sqlite":
            self.store = CatalogStore.open(Path(directory) / "catalog.db")
            generate_catalog(config, store=self.store)
        else:
            self.store = generate_catalog(config)
        store = self.store
        self.artifacts = store.artifact_ids()[:8]
        self.users = [u.id for u in store.users()][:4]
        self.teams = [t.id for t in store.teams()]
        # Non-zero from the start: registering a host resolver changes
        # the values it serves at once.
        self.external = {"bias": 1.0}
        self.renames = 0
        self.pinned = Pinned(self.artifacts[:4] + list(PENDING))
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(store))
        # Declared on usage only, so an artifact appearing leaves the
        # cached result (and its identity) in place.
        registry.register(
            "host://pinned", self.pinned, dependencies=("usage",), context=()
        )
        spec = default_spec()
        spec = spec.with_provider(replace(
            spec.provider("newest"),
            ranking=spec.provider("newest").ranking
            + (RankingWeight("hotness", 2.0),),
        ))
        spec = spec.with_provider(ProviderSpec(
            name="pinned",
            endpoint="host://pinned",
            representation=Representation.LIST,
            title="Pinned",
            visibility=Visibility(overview=True, exploration=False,
                                  search=False),
        ))
        self.interface = DiscoveryInterface(
            store, registry, spec, validate=False,
            policy=ExecutionPolicy.defaults().replace(max_workers=2),
        )
        # Each team hides a different overview provider.
        self.interface.customization.team_layer(self.teams[0]).hide("types")
        self.interface.customization.team_layer(self.teams[1]).hide("newest")
        self.exploration = ExplorationEngine(self.interface)
        self.shared = 0
        self._returned: dict[int, object] = {}
        self._check_builds()

    def _check_builds(self) -> None:
        """Compare every build with a fresh factory's build, on return."""
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
            if id(view) in self._returned:
                self.shared += 1
            self._returned[id(view)] = view
            return view

        interface.factory.build = build

    def close(self) -> None:
        self.interface.engine.close()
        self.store.close()

    # -- steps -------------------------------------------------------------

    def run(self, step: tuple) -> None:
        kind, *args = step
        getattr(self, f"_{kind}")(*args)

    def probe(self) -> None:
        """Reopen views that each depend on another part of the key or
        stamp, so a change that the memo misses shows at the next step."""
        for name in PROBES:
            self.interface.open_view(name, user_id=self.users[0], limit=10)

    def _overview(self, user: int, explicit_team: bool) -> None:
        team = self.teams[user % len(self.teams)] if explicit_team else ""
        self.interface.overview_tabs(user_id=self.users[user], team_id=team)

    def _explore(self, artifact: int, user: int) -> None:
        self.exploration.explore(
            self.artifacts[artifact], user_id=self.users[user], limit=5
        )

    def _open(self, name: str, user: int) -> None:
        provider = self.interface.spec.provider(name)
        inputs = {}
        for spec in provider.required_inputs():
            inputs[spec.name] = {
                "artifact": self.artifacts[user],
                "artifact_type": "table",
                "user": self.users[user],
            }[spec.input_type]
        self.interface.open_view(
            name, inputs=inputs, user_id=self.users[user], limit=4
        )

    def _usage(self, artifact: int, user: int, action: str) -> None:
        self.store.record(self.artifacts[artifact], self.users[user], action)

    def _batch(self, first: int, user: int) -> None:
        now = self.store.clock.now()
        self.store.record_events([
            UsageEvent(self.artifacts[(first + i) % len(self.artifacts)],
                       self.users[user], action, now)
            for i, action in enumerate(("view", "open", "favorite"))
        ])

    def _stream(self, first: int, user: int) -> None:
        with self.store.stream(window_s=60.0) as stream:
            for i in range(4):
                stream.record(self.artifacts[(first + i) % len(self.artifacts)],
                              self.users[user], "view")

    def _badge(self, artifact: int, badge: str) -> None:
        self.store.grant_badge(self.artifacts[artifact], badge, self.users[0])

    def _lineage(self, src: int, dst: int) -> None:
        try:
            self.store.lineage.add_edge(
                self.artifacts[src], self.artifacts[dst], "derives"
            )
        except CatalogError:
            pass  # a self-edge or a cycle: nothing was written

    def _restore(self) -> None:
        """Move every counter as a reopen does: opaque log records."""
        store = self.store
        store.restore_domain_versions(
            {domain: v + 1 for domain, v in store.domain_versions.items()}
        )

    def _truncate(self) -> None:
        self.store.events.truncate()

    def _add(self, index: int) -> None:
        aid = PENDING[index]
        if not self.store.has_artifact(aid):
            self.store.add_artifact(Artifact(
                id=aid, name=f"late {index}", artifact_type=ArtifactType.TABLE,
                owner_id=self.users[index % len(self.users)],
                created_at=self.store.clock.now(),
            ))

    def _rename(self, user: int) -> None:
        self.renames += 1
        current = self.store.user(self.users[user])
        self.store.set_user(replace(current, name=f"Renamed {self.renames}"))

    def _membership(self, team: int) -> None:
        current = self.store.team(self.teams[team])
        members = current.member_ids
        self.store.set_team(replace(current, member_ids=members[1:] + members[:1]
                                    if len(members) > 1 else members))

    def _advance(self, days: float) -> None:
        self.store.clock.advance(days=days)

    def _register(self, field: str) -> None:
        external, store = self.external, self.store
        if field == "hotness":
            self.interface.resolver.register(
                "hotness", lambda aid: external["bias"] * (len(aid) % 3)
            )
        else:
            self.interface.resolver.register(
                "views",
                lambda aid: store.usage_stats(aid).view_count
                + external["bias"] * (len(aid) % 2),
            )

    def _external(self, bias: float) -> None:
        self.external["bias"] = bias

    def _repin(self, start: int) -> None:
        pool = self.artifacts + list(PENDING)
        self.pinned.ids = pool[start:start + 6]
        # Refetch without a catalog write: a new result object.
        self.interface.engine.invalidate()


#: most_viewed: usage and the clock (recency); newest: the clock
#: (freshness) and the host field ``hotness``; types: usage through the
#: global weights; pinned: a result that changes without a write.
PROBES = ("most_viewed", "newest", "types", "pinned")
OPENABLE = ("most_viewed", "newest", "recents", "types", "badges",
            "embedding_map", "pinned", "of_type", "owned_by", "joinable",
            "lineage", "similar")

_user = st.integers(0, 3)
_artifact = st.integers(0, 7)
STEP = st.one_of(
    st.tuples(st.just("overview"), _user, st.booleans()),
    st.tuples(st.just("explore"), _artifact, _user),
    st.tuples(st.just("open"), st.sampled_from(OPENABLE), _user),
    st.tuples(st.just("usage"), _artifact, _user,
              st.sampled_from(("view", "open", "favorite"))),
    st.tuples(st.just("batch"), _artifact, _user),
    st.tuples(st.just("stream"), _artifact, _user),
    st.tuples(st.just("badge"), _artifact,
              st.sampled_from(("endorsed", "certified", "deprecated"))),
    st.tuples(st.just("lineage"), _artifact, _artifact),
    st.tuples(st.just("restore")),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("add"), st.integers(0, len(PENDING) - 1)),
    st.tuples(st.just("rename"), _user),
    st.tuples(st.just("membership"), st.integers(0, 1)),
    st.tuples(st.just("advance"), st.sampled_from((0.5, 3.0))),
    st.tuples(st.just("register"), st.sampled_from(("hotness", "views"))),
    st.tuples(st.just("external"), st.sampled_from((0.0, 2.0, 5.0))),
    st.tuples(st.just("repin"), st.integers(0, 5)),
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(STEP, min_size=1, max_size=25))
def test_memoized_views_equal_fresh_builds(backend, steps):
    with tempfile.TemporaryDirectory() as directory:
        harness = Harness(backend, directory)
        try:
            for step in steps:
                harness.run(step)
                harness.probe()
        finally:
            harness.close()


# -- one part of the key or stamp at a time ---------------------------------


@pytest.fixture(params=BACKENDS)
def harness(request, tmp_path):
    harness = Harness(request.param, str(tmp_path))
    yield harness
    harness.close()


def _twice(harness, step, between):
    """Run *step*, then *between*, then *step* again; return the share
    count of the second run (builds served from the memo)."""
    harness.run(step)
    before = harness.shared
    harness.run(between)
    harness.run(step)
    return harness.shared - before


@pytest.mark.parametrize("step", [
    ("overview", 0, False),
    ("explore", 2, 1),
    ("open", "types", 0),
    ("open", "joinable", 1),
])
def test_repeated_builds_are_shared(harness, step):
    assert _twice(harness, step, ("external", 0.0)) > 0


def _count(name: str) -> float:
    return default_registry().counter(name, ("representation",)).total()


def _touch(harness, write: str, aid: str) -> None:
    """One write of kind *write* that names artifact *aid*."""
    store, user = harness.store, harness.users[1]
    if write == "usage":
        store.record(aid, user, "favorite")
    elif write == "batch":
        now = store.clock.now()
        store.record_events([UsageEvent(aid, user, "view", now)] * 3)
    elif write == "stream":
        with store.stream(window_s=60.0) as stream:
            stream.record(aid, user, "open")
            stream.record(aid, user, "view")
    else:
        store.grant_badge(aid, "certified", harness.users[0])


WRITES = ("usage", "batch", "stream", "badge")


@pytest.mark.parametrize("write", WRITES + ("lineage",))
def test_untouched_view_is_the_same_instance(harness, write):
    """A write naming none of a view's artifacts leaves the view as it
    is: the memo serves the very same instance."""
    tables = set(harness.store.by_type("table"))
    outside = next(a for a in harness.store.artifact_ids() if a not in tables)
    docs = [a for a in harness.store.by_type("document") if a != outside]
    first = harness.interface.open_view(
        "of_type", inputs={"artifact_type": "table"}, limit=4
    )
    assert outside not in first.artifact_ids()
    if write == "lineage":
        harness.store.lineage.add_edge(outside, docs[0], "derives")
    else:
        _touch(harness, write, outside)
    patches = _count("views_memo_patches")
    again = harness.interface.open_view(
        "of_type", inputs={"artifact_type": "table"}, limit=4
    )
    assert again is first
    assert _count("views_memo_patches") == patches


#: One view per representation whose provider result survives a usage
#: or badge write (no usage or badge dependency), with its inputs.
PATCHED = (
    ("newest", {}),
    ("of_type", {"artifact_type": "table"}),
    ("types", {}),
    ("embedding_map", {}),
    ("joinable", None),
    ("lineage", None),
)


@pytest.mark.parametrize("write", WRITES)
@pytest.mark.parametrize("name,inputs", PATCHED)
def test_touched_view_is_a_new_equal_view(harness, name, inputs, write):
    """A write naming a shown artifact patches the view: a new instance,
    equal to a fresh build (the harness compares every build)."""
    if inputs is None:
        inputs = {"artifact": next(
            aid for aid in harness.store.artifact_ids()
            if harness.interface.open_view(
                name, inputs={"artifact": aid}, limit=10
            ).count() > 1
        )}
    first = harness.interface.open_view(name, inputs=inputs, limit=10)
    shown = first.artifact_ids()[-1]
    patches, misses = _count("views_memo_patches"), _count("views_memo_misses")
    _touch(harness, write, shown)
    again = harness.interface.open_view(name, inputs=inputs, limit=10)
    assert again is not first
    assert _count("views_memo_patches") == patches + 1
    # The one miss is the harness's fresh comparison build.
    assert _count("views_memo_misses") == misses + 1


@pytest.mark.parametrize("between", [
    ("advance", 1.0),
    ("rename", 0),
    [("restore",), ("usage", 7, 1, "view")],
    # The first write's record is lost, so the log cannot explain the
    # move (a log truncated right after a build is still complete).
    [("usage", 7, 1, "view"), ("truncate",), ("usage", 7, 1, "view")],
])
def test_catalog_writes_and_clock_rebuild(harness, between):
    """The writes the memo cannot follow, and clock moves, still rebuild:
    a clock move, a user record, an opaque record on a card domain or a
    truncated log drops the entry, and the next build starts afresh.
    Other writes patch or keep the view (the two tests above)."""
    for name in ("newest", "types"):
        harness.run(("open", name, 0))
        patches = _count("views_memo_patches")
        before = harness.shared
        for step in between if isinstance(between, list) else [between]:
            harness.run(step)
        harness.run(("open", name, 0))
        assert harness.shared == before
        assert _count("views_memo_patches") == patches


def test_patched_graph_keeps_its_layout(tiny_store, spec, monkeypatch):
    """A patch that leaves a graph's node ids and edges as they were
    carries the computed layout over instead of re-running it."""
    factory = ViewFactory(tiny_store, spec, Ranker(FieldResolver(tiny_store)))
    result = ProviderResult(
        representation=Representation.GRAPH,
        nodes=("t-orders", "t-customers", "v-orders", "t-late"),
        edges=(GraphEdge("t-orders", "v-orders", "derives"),
               GraphEdge("t-customers", "v-orders", "joins", 0.5),
               GraphEdge("t-late", "t-orders", "joins")),
    )
    provider = spec.provider("joinable")
    first = factory.build(provider, result)
    assert first.artifact_ids() == ["t-orders", "t-customers", "v-orders"]
    positions = first.layout()
    tiny_store.record("t-orders", "u-ann", "view")
    patched = factory.build(provider, result)
    assert patched is not first and patched.edges is first.edges
    assert patched.cards[0].view_count == first.cards[0].view_count + 1
    calls = []
    original = GraphView._spring_layout

    def counted(view, seed):
        calls.append(seed)
        return original(view, seed)

    monkeypatch.setattr(GraphView, "_spring_layout", counted)
    assert patched.layout() == positions
    assert calls == []
    assert patched.layout() == original(patched, 42)
    # An appearing node changes the ids and edges: the patch lays out anew.
    tiny_store.add_artifact(Artifact(
        id="t-late", name="LATE", artifact_type=ArtifactType.TABLE,
    ))
    grown = factory.build(provider, result)
    assert grown.artifact_ids()[-1] == "t-late" and len(grown.edges) == 3
    grown.layout()
    assert calls == [42]


def test_appearing_artifact_rebuilds_cached_result(harness):
    first = harness.interface.open_view("pinned", limit=10)
    harness.run(("add", 0))
    second = harness.interface.open_view("pinned", limit=10)
    assert "pending-0" in second.artifact_ids()
    assert "pending-0" not in first.artifact_ids()


def test_endpoint_change_without_a_write_rebuilds(harness):
    first = harness.interface.open_view("pinned", limit=10)
    harness.run(("repin", 5))
    second = harness.interface.open_view("pinned", limit=10)
    assert first is not second


@pytest.mark.parametrize("field", ["hotness", "views"])
def test_registered_resolvers_bypass_the_memo(harness, field):
    harness.run(("register", field))
    name = "newest" if field == "hotness" else "most_viewed"
    assert _twice(harness, ("open", name, 0), ("external", 5.0)) == 0
    # Unranked representations still share.
    assert _twice(harness, ("open", "embedding_map", 0),
                  ("external", 1.0)) > 0


def test_team_hiding_a_provider_never_sees_its_view(harness):
    own, other = harness.teams
    user = harness.users[0]
    shown = harness.interface.overview_tabs(user_id=user, team_id=other)
    assert "types" in {tab.provider_name for tab in shown}
    hidden = harness.interface.overview_tabs(user_id=user, team_id=own)
    assert "types" not in {tab.provider_name for tab in hidden}
    assert "newest" in {tab.provider_name for tab in hidden}


# -- the factory on its own ---------------------------------------------------


@pytest.fixture
def factory(tiny_store, spec):
    return ViewFactory(tiny_store, spec, Ranker(FieldResolver(tiny_store)))


def _items(*ids):
    return list_result([ScoredArtifact(aid) for aid in ids])


def test_key_holds_result_identity_limit_inputs_and_staleness(factory, spec):
    provider = spec.provider("newest")
    result = _items("t-orders", "t-customers")
    view = factory.build(provider, result)
    assert factory.build(provider, result) is view
    # An equal but distinct result object is a different key.
    assert factory.build(provider, _items("t-orders", "t-customers")) is not view
    for kwargs in ({"limit": 1}, {"inputs": {"x": "1"}}, {"stale": True},
                   {"notice": "late"}):
        assert factory.build(provider, result, **kwargs) is not view


def _assert_lru_bounded(factory, provider):
    """The memo holds 2,048 views; the least recently used go."""
    results = [_items("t-orders") for _ in range(2050)]
    views = [factory.build(provider, result) for result in results]
    assert len(factory._memo) == 2048
    assert factory.build(provider, results[-1]) is views[-1]
    assert factory.build(provider, results[2]) is views[2]
    assert factory.build(provider, results[0]) is not views[0]


def test_memo_is_lru_bounded(factory, spec):
    _assert_lru_bounded(factory, spec.provider("newest"))


def test_entries_of_collected_results_are_dropped(factory, spec):
    """The memo holds results weakly: once no one else holds a result, no
    build can name it again, and its entry goes at the next insert."""
    provider = spec.provider("newest")
    kept = _items("t-orders")
    factory.build(provider, kept)
    factory.build(provider, _items("t-customers"))  # collected at once
    factory.build(provider, _items("t-web"))
    assert [entry.result() for entry in factory._memo.values()] == [
        kept, None
    ]


def test_failed_builds_are_not_memoized(factory, spec):
    graph = ProviderResult(representation=Representation.GRAPH)
    for _ in range(2):
        with pytest.raises(RepresentationError):
            factory.build(spec.provider("newest"), graph)
    assert len(factory._memo) == 0


def test_interface_bounds_the_memo_by_the_engine_cache(tiny_store):
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(tiny_store))
    interface = DiscoveryInterface(tiny_store, registry, default_spec())
    assert CACHE_MAX_ENTRIES == 2048
    _assert_lru_bounded(interface.factory, interface.spec.provider("newest"))
    interface.engine.close()


def test_memo_counters_by_representation(factory, spec):
    registry = default_registry()
    hits = registry.counter("views_memo_hits", ("representation",))
    misses = registry.counter("views_memo_misses", ("representation",))

    def counts():
        return tuple(
            0 if family.get("categories") is None
            else family.get("categories").value
            for family in (hits, misses)
        )

    before = counts()
    categories = ProviderResult(representation=Representation.CATEGORIES)
    for _ in range(3):
        factory.build(spec.provider("types"), categories)
    assert counts() == (before[0] + 2, before[1] + 1)
    assert "views_memo_misses" in registry.render_prometheus()
