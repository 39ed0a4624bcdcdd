"""One-target federated search: the member evaluator, without a hop.

A search with exactly one target (every ``Discovery.open(source)``
search, or a one-member ``members=[...]`` scope) runs that member's
``QueryEvaluator`` directly.  It must return what a bare evaluator on
the same store returns: ids, order, scores, ``total`` and
``truncated``.  Member errors degrade the result with a
``fed://<id>/search`` marker, syntax errors raise, and the member's own
degradation (a stale or skipped leaf) reaches the result.  One-target
searches have no member guard, so none of this turns into a
whole-member skip.
"""

from __future__ import annotations

import pytest

from repro.catalog.model import ArtifactType
from repro.catalog.store import CatalogStore
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.errors import HumboldtError, QuerySyntaxError
from repro.federation import Discovery, FederatedCatalog
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    ProviderHealth,
    RequestContext,
)
from repro.providers.faults import FlakyEndpoint
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog
from repro.util.clock import SimulationClock

CONFIG = SynthConfig(seed=23, n_tables=40, usage_events=1500)
LIMITS = (0, 1, 20, 50_000)
#: The anonymous caller's team queries fail on purpose; without a
#: breaker those failures cannot skip later callers' fetches, so every
#: path answers each call from the catalog alone.
NO_BREAKER = ExecutionPolicy.defaults().replace(breaker_enabled=False)


def bare_evaluator(store: CatalogStore) -> QueryEvaluator:
    engine = ExecutionEngine(EndpointRegistry(), store=store, policy=NO_BREAKER)
    install_builtin_endpoints(engine.registry, BuiltinProviders(store))
    return QueryEvaluator(
        store, engine, QueryLanguage(default_spec()),
        Ranker(FieldResolver(store)),
    )


@pytest.fixture(scope="module", params=("memory", "sqlite"))
def store(request, tmp_path_factory):
    if request.param == "memory":
        built = generate_catalog(CONFIG)
    else:
        path = tmp_path_factory.mktemp("one-member") / "catalog.db"
        built = generate_catalog(CONFIG, store=CatalogStore.open(path))
    yield built
    built.close()


def queries(store: CatalogStore) -> list[str]:
    """Every query shape the language has, drawn from *store*."""
    table = store.by_type(ArtifactType.TABLE)[0]
    derived = next(
        aid for aid in store.artifact_ids() if store.lineage.parents(aid)
    )
    owner = store.users()[0].id
    badge = store.badges_in_use()[0]
    tag = store.tags_in_use()[0]
    word = store.artifact(table).name.split()[0].lower()
    return [
        word,
        "orders",
        "type: table",
        f"badged: {badge}",
        f"tagged: {tag}",
        f"owned_by: {owner}",
        f"type: table & badged: {badge}",
        "type: dashboard | type: workbook",
        f"type: table & !tagged: {tag}",
        f"!badged: {badge}",
        f"(type: table | type: dataset) & {word}",
        f":joinable({table})",
        f":lineage({derived})",
        ":recents()",
        ":recents() & type: table",
        ":team_popular()",
        ":team_docs() | :recents()",
    ]


def callers(store: CatalogStore) -> list[tuple[str, str]]:
    """Users with recents, each under a team they belong to, plus the
    anonymous caller (whose team-reading queries fail)."""
    chosen: list[tuple[str, str]] = []
    for user in store.users():
        if user.team_ids and store.usage.recent_for_user(user.id):
            chosen.append((user.id, user.team_ids[-1]))
        if len(chosen) == 3:
            break
    assert len({team for _, team in chosen}) > 1, "callers need distinct teams"
    return chosen + [("", "")]


def signature(result) -> tuple:
    """What the federation and the bare evaluator must agree on."""
    return (
        [entry.artifact_id for entry in result.entries],
        [entry.score for entry in result.entries],
        result.total,
        result.truncated,
    )


def assert_equivalent(federation, target, evaluator, query, user, team, limit):
    """One-target search on *target* == the bare evaluator."""
    got = federation.search(
        query, user_id=user, team_id=team, limit=limit, members=[target]
    )
    label = f"{query!r} user={user!r} team={team!r} limit={limit}"
    assert all(entry.ref.catalog_id == target for entry in got.entries)
    try:
        direct = evaluator.search(
            query, context=RequestContext(user_id=user, team_id=team),
            limit=limit,
        )
    except HumboldtError as exc:
        assert got.failed == (target,) and got.degraded, label
        assert got.responded == () and got.entries == (), label
        assert got.health == (
            ProviderHealth(
                provider=target,
                endpoint=f"fed://{target}/search",
                status="error",
                detail=str(exc),
            ),
        ), label
        return got
    assert signature(got) == signature(direct), label
    assert not got.degraded and got.responded == (target,), label
    return got


class TestDifferential:
    def test_one_member_discovery_matches_fanout_and_evaluator(self, store):
        """Every query shape, caller and limit, against the bare
        evaluator as the reference."""
        evaluator = bare_evaluator(store)
        seen_recents = seen_team = 0
        with Discovery.open(store, policy=NO_BREAKER) as discovery:
            federation = discovery.federation
            for query in queries(store):
                for user, team in callers(store):
                    for limit in LIMITS:
                        got = assert_equivalent(
                            federation, "main", evaluator, query, user,
                            team, limit,
                        )
                        if limit and got.entries and user:
                            seen_recents += query == ":recents()"
                            seen_team += query == ":team_popular()"
        evaluator.engine.close()
        # The context-reading queries must have had something to lose.
        assert seen_recents and seen_team

    def test_scores_and_totals_are_not_trivial(self, store):
        with Discovery.open(store) as discovery:
            head = discovery.search("type: table", limit=3)
            mixed = discovery.search(f"{queries(store)[0]} | type: table")
        assert head.total > 3 and len(head.entries) == 3
        assert len({entry.score for entry in mixed.entries}) > 1

    def test_fetch_cap_bounds_total_and_entries(self, store, monkeypatch):
        """Past the cap, one member and two report the capped total per
        member, flag truncation and return at most the cap per member,
        each the head of the bare evaluator's ranking."""
        monkeypatch.setattr("repro.federation.catalog.FETCH_LIMIT", 5)
        evaluator = bare_evaluator(store)
        left = generate_catalog(SynthConfig(seed=3, n_tables=8))
        with FederatedCatalog(policy=NO_BREAKER) as federation:
            federation.add_member("main", store)
            federation.add_member("left", left)
            for limit in (1, 5, 20):
                head = evaluator.search("type: table", limit=min(limit, 5))
                got = federation.search(
                    "type: table", limit=limit, members=["main"]
                )
                assert signature(got)[:2] == signature(head)[:2]
                assert got.total == 5 and got.truncated
                assert len(got.entries) == min(limit, 5)
                both = federation.search("type: table", limit=limit)
                assert both.total == 10 and both.truncated
                assert len(both.entries) == min(limit, 10)
                assert both.responded == ("main", "left")
        evaluator.engine.close()
        left.close()

    def test_members_scope_on_a_two_member_federation(self, store):
        evaluator = bare_evaluator(store)
        left = generate_catalog(SynthConfig(seed=3, n_tables=8))
        with FederatedCatalog(policy=NO_BREAKER) as federation:
            federation.add_member("left", left)
            federation.add_member("right", store)
            for query in queries(store)[::2]:
                for user, team in callers(store)[::2]:
                    for limit in (1, 20):
                        assert_equivalent(
                            federation, "right", evaluator, query, user,
                            team, limit,
                        )
            left_engine = federation.member_engine("left")
            calls = left_engine.stats.total("calls")
            got = federation.search("type: table", members=["right"])
            assert got.responded == ("right",)
            # The scoped search never reaches the other member.
            assert left_engine.stats.total("calls") == calls
        evaluator.engine.close()
        left.close()


# ---------------------------------------------------------------------------
# the failure contract


def _small_store() -> CatalogStore:
    return generate_catalog(SynthConfig(seed=5, n_tables=12))


def _fail_leaf(
    discovery: Discovery, uri: str = "catalog://of_type", when=lambda i: True
):
    """Make the member's *uri* endpoint raise on calls *when* selects.

    Re-registering drops the endpoint's cached entries, so a test that
    needs a cached entry installs the wrapper before its first search.
    """
    registry = discovery.federation.member_engine("main").registry
    registry.register(
        uri,
        FlakyEndpoint(registry.resolve(uri), fail_on=when, name=uri),
        replace=True,
    )


def _assert_member_failed(result) -> None:
    assert result.degraded
    assert result.failed == ("main",)
    assert result.responded == ()
    assert result.entries == () and result.total == 0
    (marker,) = result.health
    assert (marker.provider, marker.endpoint, marker.status) == (
        "main", "fed://main/search", "error"
    )
    assert marker.detail


class TestFailureContract:
    def test_unknown_field_degrades(self):
        with Discovery.open(_small_store()) as discovery:
            result = discovery.search("nosuchfield: x")
            _assert_member_failed(result)
            assert "nosuchfield" in result.health[0].detail

    def test_raising_member_leaf_degrades(self):
        with Discovery.open(_small_store()) as discovery:
            _fail_leaf(discovery)
            _assert_member_failed(discovery.search("type: table"))
            # Errors are not cached: a healthy query still answers.
            assert discovery.search("orders").failed == ()

    def test_syntax_error_still_raises_before_the_member_runs(self):
        with Discovery.open(_small_store()) as discovery:
            with pytest.raises(QuerySyntaxError):
                discovery.search("bad'0")
            engine = discovery.federation.member_engine("main")
            assert engine.stats.total("calls") == 0

    def test_caller_errors_do_not_open_the_breaker_for_others(self):
        """Team-less ``:team_popular()`` searches fail with a caller error
        (no team to rank for); enough of them to trip the default breaker
        must leave the endpoint open to a caller who has a team."""
        store = _small_store()
        user = next(u.id for u in store.users() if store.teams_of(u.id))
        team = store.teams_of(user)[0].id
        with Discovery.open(store) as discovery:
            for _ in range(5):
                assert discovery.search(":team_popular()").degraded
            result = discovery.search(
                ":team_popular()", user_id=user, team_id=team
            )
            engine = discovery.federation.member_engine("main")
            assert engine.breaker_state("catalog://team_popular").value == "closed"
        assert not result.degraded
        assert result.total > 0

    def _resilient(self) -> tuple[Discovery, SimulationClock]:
        clock = SimulationClock()
        policy = ExecutionPolicy.defaults().replace(
            attempts=1, cache_ttl_s=10.0, breaker_failure_threshold=1,
        )
        return Discovery.open(_small_store(), policy=policy, clock=clock), clock

    def test_stale_member_leaf_now_reaches_the_result(self):
        discovery, clock = self._resilient()
        with discovery:
            _fail_leaf(discovery, when=lambda call: call > 1)
            fresh = discovery.search("type: table")
            assert not fresh.degraded and fresh.total > 0
            clock.advance(seconds=60)  # past the TTL, inside the grace
            _assert_member_failed(discovery.search("type: table"))
            stale = discovery.search("type: table")  # breaker now open
        assert stale.degraded
        assert stale.responded == ("main",) and stale.failed == ()
        assert stale.bare_ids() == fresh.bare_ids()
        (marker,) = stale.health
        assert (marker.endpoint, marker.status) == ("catalog://of_type", "stale")

    def test_breaker_skipped_member_leaf_now_reaches_the_result(self):
        discovery, _ = self._resilient()
        with discovery:
            discovery.search("type: table")
            _fail_leaf(discovery, "catalog://badged")
            _assert_member_failed(discovery.search("badged: endorsed"))
            skipped = discovery.search("type: table | badged: endorsed")
        assert skipped.degraded
        assert skipped.responded == ("main",) and skipped.failed == ()
        assert skipped.total > 0  # the healthy branch still answers
        assert [
            (m.endpoint, m.status) for m in skipped.health
        ] == [("catalog://badged", "skipped")]

    def test_spent_budget_now_reaches_the_result(self):
        with Discovery.open(_small_store()) as discovery:
            result = discovery.search("type: table", budget_ms=0.000001)
        assert result.degraded
        assert result.responded == ("main",) and result.failed == ()
        assert result.total == 0
        assert result.health == (
            ProviderHealth(
                provider="catalog://of_type",
                endpoint="catalog://of_type",
                status="skipped",
                detail="deadline exhausted",
            ),
        )
