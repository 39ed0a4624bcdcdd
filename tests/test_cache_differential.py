"""One differential test for the engine's result cache.

A cached engine and a cache-disabled engine share one registry and one
catalog (in memory and on sqlite).  A hypothesis-drawn interleaving runs
every store mutator — ``record``, ``record_events``, ``stream``, lineage
``add_edge``, ``grant_badge``, ``add_artifact``, ``add_user``,
``set_team``, ``set_user``, ``restore_domain_versions``,
``clear_token_cache`` — plus endpoint re-registration, expiry of every
cached entry, and outages that make the cached engine serve stale
entries, between fetches of every builtin and extended endpoint.  The
store's event log holds only 8 records, so patches regularly meet a
truncated log.  Every answer the cached engine serves, fresh or stale,
must equal the cache-disabled engine's answer at that moment.

Advisory parts of a result — the per-item ``fields`` snapshot, and the
views order of endpoints that do not declare ``usage`` — are documented
as allowed to lag (``docs/execution.md``); for those endpoints only the
member ids are compared, as a set.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.domains import DOMAINS
from repro.catalog.events import EventLog
from repro.catalog.model import (
    Artifact,
    ArtifactType,
    Column,
    Team,
    UsageEvent,
    User,
)
from repro.catalog.store import CatalogStore
from repro.errors import CatalogError, ProviderError
from repro.providers.base import (
    ProviderRequest,
    Representation,
    RequestContext,
    ScoredArtifact,
    depends_on,
    list_result,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.declarative import RuleEndpoint
from repro.providers import execution
from repro.providers.execution import ExecutionEngine, ExecutionPolicy
from repro.providers.extended import ExtendedProviders, install_extended_endpoints
from repro.providers.registry import EndpointRegistry
from repro.util.clock import SimulationClock

from tests.conftest import build_tiny_store

#: Seconds a cached entry stays fresh; a ``tick`` op moves the engine
#: clock past it, leaving every entry servable only as stale.
TTL_S = 100.0

ARTIFACTS = ("t-orders", "t-customers", "t-web", "v-orders", "d-sales", "w-q1")
USERS = ("u-ann", "u-bob", "u-cyd", "u-dee")
ACTIONS = ("view", "open", "edit", "favorite")
BADGES = ("endorsed", "certified", "deprecated")


def _req(inputs=None, user="", team="", limit=20) -> ProviderRequest:
    return ProviderRequest(
        inputs=dict(inputs or {}),
        context=RequestContext(user_id=user, team_id=team, limit=limit),
    )


#: One request per endpoint: every builtin and extended endpoint, a
#: badge-reading rule endpoint and a swappable host endpoint.
REQUESTS = (
    ("catalog://recents", _req({"user": "u-ann"}, user="u-ann", limit=4)),
    ("catalog://recent_documents", _req(user="u-dee", limit=4)),
    ("catalog://most_viewed", _req(limit=3)),
    ("catalog://newest", _req(limit=3)),
    ("catalog://favorites", _req({"user": "u-bob"}, user="u-bob")),
    ("catalog://owned_by", _req({"user": "u-ann"})),
    ("catalog://created_by", _req({"user": "Bob Ray"})),
    ("catalog://of_type", _req({"artifact_type": "table"})),
    ("catalog://types", _req()),
    ("catalog://badges", _req()),
    ("catalog://badged", _req({"badge": "endorsed"})),
    ("catalog://badged_by", _req({"user": "u-bob"})),
    ("catalog://tagged", _req({"text": "sales"})),
    ("catalog://team_popular", _req({"team": "t-1"}, team="t-1", limit=3)),
    ("catalog://team_docs", _req({"team": "t-2"})),
    ("catalog://joinable", _req({"artifact": "t-orders"})),
    ("catalog://lineage", _req({"artifact": "t-orders"})),
    ("catalog://lineage_graph", _req({"artifact": "v-orders"})),
    ("catalog://similar", _req({"artifact": "t-orders"}, limit=4)),
    ("catalog://embedding_map", _req()),
    ("catalog://unionable", _req({"artifact": "t-customers"}, limit=4)),
    ("catalog://stale", _req(limit=5)),
    ("catalog://has_column", _req({"text": "id"})),
    ("catalog://orphans", _req(limit=10)),
    ("x://endorsed", _req()),
    ("x://swap", _req()),
)

#: List endpoints whose order comes from view counts they do not
#: declare: their order is advisory, so only membership is compared.
_VIEWS_ORDERED = frozenset({
    "catalog://owned_by", "catalog://created_by", "catalog://of_type",
    "catalog://badged", "catalog://badged_by", "catalog://tagged",
    "catalog://team_docs", "x://endorsed",
})


def _canon(uri: str, result):
    """The part of *result* a cached answer must reproduce exactly."""
    if result.representation in (Representation.LIST, Representation.TILES):
        if uri in _VIEWS_ORDERED:
            return ("ids", tuple(sorted(result.artifact_ids())))
        return ("items", tuple(
            (item.artifact_id, item.score) for item in result.items
        ))
    return (result.representation, result.roots, tuple(sorted(result.nodes)),
            tuple(sorted(result.edges, key=repr)), result.categories,
            result.points)


class _Swappable:
    """A host endpoint whose re-registered generations answer differently."""

    def __init__(self, generation: int):
        self.generation = generation

    def __call__(self, request):
        ids = ARTIFACTS[self.generation % 3:][:2]
        return list_result([ScoredArtifact(aid) for aid in ids])


class _Harness:
    def __init__(self, backend: str, workdir: Path):
        clock = SimulationClock()
        clock.advance(days=100)
        if backend == "sqlite":
            store = CatalogStore.open(workdir / "catalog.db", clock=clock)
        else:
            store = CatalogStore(clock=clock)
        self.store = build_tiny_store(store)
        # A tiny log: a few writes between reads truncate it.
        self.store.events = EventLog(capacity=8)
        self.registry = EndpointRegistry()
        install_builtin_endpoints(self.registry, BuiltinProviders(self.store))
        install_extended_endpoints(
            self.registry, ExtendedProviders(self.store)
        )
        self.registry.register("x://endorsed", RuleEndpoint(
            self.store, [{"field": "endorsed", "op": "gte", "value": 1}]
        ))
        self.generation = 0
        self._register_swap()
        self.failing: set[str] = set()
        self.engine_clock = SimulationClock()
        self.cached = ExecutionEngine(
            self.registry,
            store=self.store,
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=TTL_S, breaker_failure_threshold=1, max_workers=1
            ),
            middlewares=(self._outage,),
            clock=self.engine_clock,
        )
        self.oracle = ExecutionEngine(
            self.registry,
            store=self.store,
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=0.0, max_workers=1
            ),
        )
        self.stream = self.store.stream(window_s=1e9, max_batch=3)
        self.added = 0

    def _register_swap(self) -> None:
        endpoint = depends_on("entities")(_Swappable(self.generation))
        self.registry.register("x://swap", endpoint, replace=True)

    def _outage(self, endpoint, request, call_next):
        if endpoint in self.failing:
            raise ProviderError(endpoint, "injected outage")
        return call_next(endpoint, request)

    def close(self) -> None:
        self.cached.close()
        self.oracle.close()
        self.store.close()

    # -- checking ------------------------------------------------------------

    def check(self, index: int, outcome) -> None:
        uri, request = REQUESTS[index]
        if outcome.result is None:
            return  # an error or a skipped fetch serves nothing
        truth = self.oracle.execute(uri, request).result
        assert _canon(uri, outcome.result) == _canon(uri, truth), (
            uri, outcome.status
        )

    def fetch(self, index: int) -> None:
        uri, request = REQUESTS[index]
        self.check(index, self.cached.execute(uri, request))

    def read_all(self) -> None:
        for index in range(len(REQUESTS)):
            self.fetch(index)

    def outage(self, index: int) -> None:
        """Fail *index*'s endpoint: the first fetch errors and opens its
        breaker, the second is served stale (or skipped).  Then the
        endpoint recovers, and one fetch a reset timeout later is its
        half-open probe, which closes the breaker."""
        uri, request = REQUESTS[index]
        self.failing.add(uri)
        try:
            for _ in range(2):
                self.check(index, self.cached.execute(uri, request))
        finally:
            self.failing.discard(uri)
        self.engine_clock.advance(seconds=execution.BREAKER_RESET_TIMEOUT_S)
        self.check(index, self.cached.execute(uri, request))
        assert self.cached.breaker_state(uri) is execution.BreakerState.CLOSED

    # -- the ops -----------------------------------------------------------------

    def apply(self, op: tuple) -> None:
        kind, *args = op
        store = self.store
        if kind == "fetch":
            self.fetch(args[0])
        elif kind == "read_all":
            self.read_all()
        elif kind == "outage":
            self.outage(args[0])
        elif kind == "tick":
            self.engine_clock.advance(seconds=TTL_S + 1.0)
        elif kind == "record":
            artifact, user, action = args
            store.record(ARTIFACTS[artifact], USERS[user], ACTIONS[action])
        elif kind in ("batch", "burst"):
            # A burst writes more records than the log holds.
            now = store.clock.now()
            events = args[0] if kind == "batch" else [(*args, 0)] * 9
            store.record_events([
                UsageEvent(ARTIFACTS[a], USERS[u], ACTIONS[act], now)
                for a, u, act in events
            ])
        elif kind == "stream":
            artifact, user = args
            self.stream.record(ARTIFACTS[artifact], USERS[user], "view")
        elif kind == "flush":
            self.stream.flush()
        elif kind == "edge":
            src, dst = args
            try:
                store.lineage.add_edge(ARTIFACTS[src], ARTIFACTS[dst], "derives")
            except CatalogError:
                pass  # self-edge or cycle
        elif kind == "badge":
            artifact, badge, user = args
            store.grant_badge(ARTIFACTS[artifact], BADGES[badge], USERS[user])
        elif kind == "add_artifact":
            type_, tag = args
            self.added += 1
            store.add_artifact(Artifact(
                id=f"n-{self.added}", name=f"NEW {self.added}",
                artifact_type=(ArtifactType.TABLE, ArtifactType.WORKBOOK)[type_],
                owner_id="u-ann", team_ids=("t-2",),
                created_at=store.clock.now(),
                tags=(("sales", "crm")[tag],),
                columns=(Column("customer_id", "integer",
                                tuple(f"c-{i}" for i in range(20))),),
            ))
        elif kind == "add_user":
            self.added += 1
            store.add_user(User(id=f"x-{self.added}", name=f"Bob X{self.added}",
                                team_ids=("t-1",)))
        elif kind == "set_team":
            members = tuple(USERS[u] for u in sorted(set(args[0])))
            store.set_team(Team(id="t-1", name="Alpha", admin_ids=("u-ann",),
                                member_ids=members))
        elif kind == "set_user":
            store.set_user(User(id="u-bob", name=("Bob Ray", "Rob Ray")[args[0]],
                                team_ids=("t-1",)))
        elif kind == "restore":
            domain = DOMAINS[args[0]]
            store.restore_domain_versions(
                {domain: store.domain_version(domain) + 3}
            )
        elif kind == "clear_tokens":
            store.clear_token_cache()
        elif kind == "reregister":
            self.generation += 1
            self._register_swap()
        else:  # pragma: no cover - the strategy draws only the above
            raise AssertionError(kind)


_A = st.integers(0, len(ARTIFACTS) - 1)
_U = st.integers(0, len(USERS) - 1)
_R = st.integers(0, len(REQUESTS) - 1)

_OPS = st.one_of(
    st.tuples(st.just("fetch"), _R),
    st.tuples(st.just("read_all")),
    st.tuples(st.just("read_all")),
    st.tuples(st.just("outage"), _R),
    st.tuples(st.just("tick")),
    st.tuples(st.just("record"), _A, _U, st.integers(0, len(ACTIONS) - 1)),
    st.tuples(st.just("batch"), st.lists(
        st.tuples(_A, _U, st.integers(0, len(ACTIONS) - 1)),
        min_size=1, max_size=3,
    )),
    st.tuples(st.just("burst"), _A, _U),
    st.tuples(st.just("stream"), _A, _U),
    st.tuples(st.just("flush")),
    st.tuples(st.just("edge"), _A, _A),
    st.tuples(st.just("badge"), _A, st.integers(0, len(BADGES) - 1), _U),
    st.tuples(st.just("add_artifact"), st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("add_user")),
    st.tuples(st.just("set_team"), st.lists(_U, max_size=3)),
    st.tuples(st.just("set_user"), st.integers(0, 1)),
    st.tuples(st.just("restore"), st.integers(0, len(DOMAINS) - 1)),
    st.tuples(st.just("clear_tokens")),
    st.tuples(st.just("reregister")),
)

_RECENTS = 0
_BADGED = next(i for i, (uri, _) in enumerate(REQUESTS)
               if uri == "catalog://badged")
_TAGGED = next(i for i, (uri, _) in enumerate(REQUESTS)
               if uri == "catalog://tagged")


@settings(max_examples=100, deadline=None)
@given(backend=st.sampled_from(("memory", "sqlite")),
       ops=st.lists(_OPS, min_size=1, max_size=30))
# One of each kind of write, every endpoint read after each.
@example(backend="memory", ops=[
    ("record", 2, 0, 0), ("read_all",), ("badge", 2, 0, 1), ("read_all",),
    ("edge", 0, 2), ("read_all",), ("add_artifact", 0, 0), ("read_all",),
    ("set_user", 1), ("read_all",), ("reregister",),
])
# A usage write the patcher needs, then more records than the log holds.
@example(backend="memory", ops=[
    ("fetch", _RECENTS), ("record", 2, 0, 0), ("burst", 5, 3),
    ("fetch", _RECENTS),
])
# A badge grant on an entry that then expires and is served stale.
@example(backend="sqlite", ops=[
    ("fetch", _BADGED), ("badge", 2, 0, 1), ("tick",), ("outage", _BADGED),
])
# An artifact added under an entry that then expires and is served stale.
@example(backend="memory", ops=[
    ("fetch", _TAGGED), ("add_artifact", 1, 0), ("tick",),
    ("outage", _TAGGED),
])
def test_cached_answers_equal_uncached(backend, ops):
    with tempfile.TemporaryDirectory() as workdir:
        harness = _Harness(backend, Path(workdir))
        try:
            harness.read_all()  # every endpoint starts cached
            for op in ops:
                harness.apply(op)
            harness.stream.flush()
            harness.read_all()
        finally:
            harness.close()


def test_cache_stays_bounded_under_sustained_writes(monkeypatch):
    """A long write stream over many more keys than the cache holds: the
    cache never grows past its bound, and every answer equals a direct
    call, so no entry a write invalidated is ever served.  The bound is
    lowered to 16 so that 2,000 steps over 194 keys reach eviction."""
    monkeypatch.setattr(execution, "CACHE_MAX_ENTRIES", 16)
    store = build_tiny_store()
    registry = EndpointRegistry()

    @depends_on("usage")
    def views(request):
        aid = ARTIFACTS[int(request.input("k")) % len(ARTIFACTS)]
        count = store.usage_stats(aid).view_count
        return list_result([ScoredArtifact(aid, score=float(count))])

    @depends_on("badges")
    def badges(request):
        aid = ARTIFACTS[int(request.input("k")) % len(ARTIFACTS)]
        names = store.artifact(aid).badge_names()
        return list_result([ScoredArtifact(aid, score=float(len(names)))])

    registry.register("x://views", views)
    registry.register("x://badges", badges)
    engine = ExecutionEngine(registry, store=store)
    for step in range(2000):
        aid = ARTIFACTS[step % len(ARTIFACTS)]
        if step % 7 == 0:
            store.grant_badge(aid, f"b{step}", USERS[step % len(USERS)])
        else:
            store.record(aid, USERS[step % len(USERS)], "view")
        for uri in ("x://views", "x://badges"):
            # Half the reads go to 5 hot keys, half across 97 keys.
            key = step % 5 if step % 2 else (step * 13) % 97
            request = _req({"k": str(key)})
            served = engine.execute(uri, request).result
            assert served == registry.resolve(uri)(request), (uri, step)
        assert engine.cache_size <= 16
    assert engine.stats.total("cache_hits") > 0
    assert engine.stats.total("invalidations") > 0


def test_reads_see_every_acknowledged_grant_under_thread_churn():
    """Writer threads grant badges and record usage while reader threads
    fetch ``badged`` through one cached engine, with a short interpreter
    switch interval.  A fetch must show every grant whose ``grant_badge``
    returned before the fetch began: an entry restamped on a half-seen
    write would keep serving the answer from before it.  Each artifact
    is granted one badge only, since a second grant re-indexes the
    artifact and a concurrent bucket read could miss it mid-way."""
    store = build_tiny_store()
    spare = [f"s-{i}" for i in range(90)]
    for aid in spare:
        store.add_artifact(Artifact(id=aid, name=aid.upper(),
                                    artifact_type=ArtifactType.TABLE))
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(store))
    engine = ExecutionEngine(
        registry,
        store=store,
        policy=ExecutionPolicy.defaults().replace(cache_ttl_s=3600.0),
    )
    badges = [f"b{i}" for i in range(3)]
    granted: dict[str, set[str]] = {badge: set() for badge in badges}
    lock = threading.Lock()
    errors: list[BaseException] = []

    def writer(index: int) -> None:
        for step, aid in enumerate(spare[index::3]):
            for _ in range(2):
                store.record(ARTIFACTS[step % len(ARTIFACTS)], USERS[index],
                             "view")
            badge = badges[step % len(badges)]
            store.grant_badge(aid, badge, USERS[index])
            with lock:
                granted[badge].add(aid)

    def reader(index: int) -> None:
        for step in range(150):
            badge = badges[(index + step) % len(badges)]
            with lock:
                expected = set(granted[badge])
            result = engine.execute(
                "catalog://badged", _req({"badge": badge})
            ).result
            missing = expected - set(result.artifact_ids())
            assert not missing, (badge, missing)

    def run(target, index):
        try:
            target(index)
        except BaseException as exc:  # surfaced below, on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(target, index))
        for index in range(3)
        for target in (writer, reader)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert all(len(ids) == 30 for ids in granted.values())
