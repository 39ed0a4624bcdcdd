"""Federated multi-catalog discovery: refs, conformance, degradation,
backend mix, lineage stitching and the ``Discovery`` facade.

The conformance class is the PR's acceptance gate: a federation over k
disjoint members must return, for the study-task query mix, exactly the
result set — ids *and* ordering — that one merged monolith returns, with
zero cross-catalog leakage.
"""

from __future__ import annotations

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog.model import Artifact, ArtifactType, Team, User
from repro.catalog.store import CatalogStore
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.errors import QuerySyntaxError
from repro.federation import (
    CatalogRef,
    Discovery,
    FederatedCatalog,
    FederationError,
    UnknownCatalogError,
    federate,
    parse_ref,
    partition_catalog,
    validate_catalog_id,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    BREAKER_RESET_TIMEOUT_S,
    ExecutionEngine,
    ExecutionPolicy,
    ProviderHealth,
    RequestContext,
)
from repro.providers.faults import FlakyEndpoint, LatencySpikeEndpoint
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog
from repro.synth.workload import query_pool, zipf_weights
from repro.util.clock import DAY, SimulationClock


# ---------------------------------------------------------------------------
# helpers


def monolith_evaluator(store: CatalogStore) -> QueryEvaluator:
    """The single-catalog evaluator a federation must reproduce."""
    engine = ExecutionEngine(EndpointRegistry(), store=store)
    install_builtin_endpoints(engine.registry, BuiltinProviders(store))
    return QueryEvaluator(
        store, engine, QueryLanguage(default_spec()),
        Ranker(FieldResolver(store)),
    )


def two_member_stores() -> tuple[CatalogStore, CatalogStore]:
    """Two hand-built disjoint member catalogs sharing a clock."""
    clock = SimulationClock()
    clock.advance(days=100)
    stores = (CatalogStore(clock=clock), CatalogStore(clock=clock))
    for store in stores:
        store.add_user(User(id="u-ann", name="Ann Lee", role="analyst",
                            team_ids=("t-1",)))
        store.add_team(Team(id="t-1", name="Alpha", admin_ids=("u-ann",),
                            member_ids=("u-ann",)))
    epoch = clock.epoch
    left, right = stores
    left.add_artifact(Artifact(
        id="t-orders", name="ORDERS", artifact_type=ArtifactType.TABLE,
        description="Order facts.", owner_id="u-ann", team_ids=("t-1",),
        created_at=epoch + 10 * DAY, tags=("sales",),
    ))
    left.add_artifact(Artifact(
        id="v-orders", name="Orders Chart",
        artifact_type=ArtifactType.VISUALIZATION,
        description="Chart over ORDERS.", owner_id="u-ann",
        team_ids=("t-1",), created_at=epoch + 11 * DAY, tags=("sales",),
    ))
    left.lineage.add_edge("t-orders", "v-orders", "derives")
    right.add_artifact(Artifact(
        id="d-sales", name="Sales Dashboard",
        artifact_type=ArtifactType.DASHBOARD,
        description="Embeds the orders chart.", owner_id="u-ann",
        team_ids=("t-1",), created_at=epoch + 12 * DAY, tags=("sales",),
    ))
    right.add_artifact(Artifact(
        id="t-returns", name="RETURNS", artifact_type=ArtifactType.TABLE,
        description="Return facts.", owner_id="u-ann", team_ids=("t-1",),
        created_at=epoch + 13 * DAY, tags=("sales",),
    ))
    return left, right


def two_member_federation() -> FederatedCatalog:
    left, right = two_member_stores()
    federation = FederatedCatalog()
    federation.add_member("left", left)
    federation.add_member("right", right)
    return federation


@pytest.fixture(scope="module")
def corpus() -> CatalogStore:
    return generate_catalog(
        SynthConfig(seed=11, n_tables=60, usage_events=1500)
    )


# ---------------------------------------------------------------------------
# refs


class TestRefs:
    def test_validate_catalog_id(self):
        assert validate_catalog_id("sales-eu.v2") == "sales-eu.v2"
        for bad in ("", "with:colon", "with space", "-leading", ":"):
            with pytest.raises(FederationError):
                validate_catalog_id(bad)

    def test_qualified_ref_parses_against_known_member(self):
        ref = parse_ref("sales:table-1", {"sales", "ml"}, default="ml")
        assert ref == CatalogRef("sales", "table-1")
        assert ref.qualified == "sales:table-1"
        assert str(ref) == "sales:table-1"

    def test_bare_ref_resolves_to_default(self):
        ref = parse_ref("table-1", {"sales"}, default="sales")
        assert ref == CatalogRef("sales", "table-1")

    def test_bare_ref_without_default_is_an_error(self):
        with pytest.raises(FederationError, match="no default"):
            parse_ref("table-1", {"sales"}, default=None)

    def test_unknown_qualifier_is_loud_not_silent(self):
        with pytest.raises(UnknownCatalogError, match="unknown catalog 'slaes'"):
            parse_ref("slaes:table-1", {"sales"}, default="sales")

    def test_unqualifiable_head_falls_back_to_default(self):
        # "weird id" cannot be a catalog id (space), so the whole string
        # is a bare artifact id for the default member.
        ref = parse_ref("weird id:x", {"sales"}, default="sales")
        assert ref == CatalogRef("sales", "weird id:x")

    def test_catalog_ref_passthrough(self):
        ref = CatalogRef("ml", "t-1")
        assert parse_ref(ref, {"sales"}, default=None) is ref

    def test_unknown_catalog_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            parse_ref("nope:x", {"sales"}, default="sales")


# ---------------------------------------------------------------------------
# conformance: the acceptance gate


class TestConformance:
    @pytest.fixture(scope="class")
    def setup(self, corpus):
        federation, partition = federate(corpus, 3)
        mono = monolith_evaluator(corpus)
        yield corpus, federation, partition, mono
        mono.engine.close()
        federation.close()

    def _context(self, store):
        user = store.users()[0]
        teams = store.teams_of(user.id)
        return user.id, teams[0].id if teams else ""

    def test_partition_is_disjoint_and_total(self, setup):
        store, federation, partition, _ = setup
        all_ids = set(store.artifact_ids())
        assert set(partition.assignment) == all_ids
        member_ids: list[str] = []
        for member in partition.members.values():
            member_ids.extend(member.artifact_ids())
        assert len(member_ids) == len(all_ids)
        assert set(member_ids) == all_ids

    def test_query_mix_matches_monolith_ids_and_ordering(self, setup):
        store, federation, partition, mono = setup
        user_id, team_id = self._context(store)
        queries = query_pool(store) + [
            "type: table & badged: endorsed",
            "not type: table",
            "orders | sales",
        ]
        for query in queries:
            for limit in (0, 1, 20, 50_000):
                expected = mono.search(
                    query,
                    context=RequestContext(user_id=user_id, team_id=team_id),
                    limit=limit,
                )
                got = federation.search(
                    query, user_id=user_id, team_id=team_id, limit=limit
                )
                label = f"{query!r} limit={limit}"
                expected_ids = [e.artifact_id for e in expected.entries]
                assert got.bare_ids() == expected_ids, label
                assert got.total == expected.total, label
                assert not got.degraded, label

    def test_zero_cross_catalog_leakage(self, setup):
        store, federation, partition, _ = setup
        user_id, team_id = self._context(store)
        for query in query_pool(store):
            result = federation.search(
                query, user_id=user_id, team_id=team_id, limit=50
            )
            for entry in result.entries:
                assert (
                    partition.assignment[entry.ref.artifact_id]
                    == entry.ref.catalog_id
                ), f"{entry.id} leaked across catalogs for {query!r}"

    def test_scores_match_monolith(self, setup):
        store, federation, partition, mono = setup
        user_id, team_id = self._context(store)
        expected = mono.search(
            "badged: endorsed",
            context=RequestContext(user_id=user_id, team_id=team_id),
            limit=50,
        )
        got = federation.search(
            "badged: endorsed", user_id=user_id, team_id=team_id, limit=50
        )
        assert [e.score for e in got.entries] == [
            e.score for e in expected.entries
        ]


# ---------------------------------------------------------------------------
# degradation: one bad member cannot sink the query


class TestDegradation:
    def test_failing_member_degrades_instead_of_failing(self):
        with two_member_federation() as federation:
            registry = federation.member_engine("right").registry
            uri = "catalog://of_type"
            registry.register(
                uri,
                FlakyEndpoint(
                    registry.resolve(uri), fail_on=lambda i: True, name=uri
                ),
                replace=True,
            )
            result = federation.search("type: table", user_id="u-ann")
            assert result.degraded
            assert result.failed == ("right",)
            assert result.responded == ("left",)
            # Partial answer: only the healthy member's artifacts.
            assert result.artifact_ids() == ["left:t-orders"]
            assert any(m.provider == "right" for m in result.health)

    def test_compile_errors_do_not_open_member_breakers(self, corpus):
        """The members share the federation's query language, so an
        unknown field is the query's fault: each search fails every
        target with one error marker, and none counts as a member
        failure, however many reach the default breaker threshold."""
        federation, _ = federate(corpus, 2)
        with federation:
            for _ in range(6):
                result = federation.search("nosuchfield: x")
                assert result.degraded and result.total == 0
                assert result.failed == ("cat0", "cat1")
                assert result.responded == ()
                assert [
                    (m.provider, m.endpoint, m.status) for m in result.health
                ] == [
                    ("cat0", "fed://cat0/search", "error"),
                    ("cat1", "fed://cat1/search", "error"),
                ]
                assert all("nosuchfield" in m.detail for m in result.health)
            healthy = federation.search("type: table")
            assert healthy.failed == () and not healthy.degraded
            assert healthy.total > 0
            assert {
                row["breaker"] for row in federation.member_health().values()
            } == {"closed"}

    def test_member_scoping(self):
        with two_member_federation() as federation:
            result = federation.search(
                "type: table", user_id="u-ann", members=["right"]
            )
            assert result.artifact_ids() == ["right:t-returns"]
            assert not result.degraded

    def test_unknown_member_scope_is_an_error(self):
        with two_member_federation() as federation:
            with pytest.raises(UnknownCatalogError):
                federation.search("orders", members=["nope"])

    def test_empty_federation_cannot_search(self):
        federation = FederatedCatalog()
        with pytest.raises(FederationError, match="no member"):
            federation.search("orders")


# ---------------------------------------------------------------------------
# the member guard and the shared deadline


def _guarded_federation(clock, **policy) -> tuple[FederatedCatalog, list]:
    """Two members on *clock*; ``right``'s type leaf fails while the
    returned one-element list holds True."""
    left, right = two_member_stores()
    federation = FederatedCatalog(
        policy=ExecutionPolicy.defaults().replace(attempts=1, **policy),
        clock=clock,
    )
    federation.add_member("left", left)
    federation.add_member("right", right)
    broken = [True]
    registry = federation.member_engine("right").registry
    uri = "catalog://of_type"
    registry.register(
        uri,
        FlakyEndpoint(registry.resolve(uri), fail_on=lambda i: broken[0]),
        replace=True,
    )
    return federation, broken


class TestMemberGuard:
    def test_breaker_trips_half_opens_and_closes(self):
        clock = SimulationClock()
        federation, broken = _guarded_federation(
            clock, breaker_failure_threshold=2
        )
        with federation:
            for _ in range(2):
                result = federation.search("type: table", user_id="u-ann")
                assert result.failed == ("right",)
                assert result.health[0].status == "error"
            assert federation.member_health()["right"] == {
                "breaker": "open",
                "consecutive_failures": 2,
                "retry_after_s": 30.0,
            }
            leaf = federation.member_engine("right").stats.endpoint(
                "catalog://of_type"
            )
            calls = leaf.calls
            skipped = federation.search("type: table", user_id="u-ann")
            assert skipped.degraded and skipped.failed == ("right",)
            assert skipped.artifact_ids() == ["left:t-orders"]
            assert [
                (m.provider, m.endpoint, m.status, m.detail)
                for m in skipped.health
            ] == [("right", "fed://right/search", "skipped", "circuit open")]
            assert federation.member_engine("right").stats.endpoint(
                "catalog://of_type"
            ).calls == calls
            # A one-target search has no member guard: the member runs,
            # and only its own (also tripped) leaf breaker skips.
            alone = federation.search(
                "type: table", user_id="u-ann", members=["right"]
            )
            assert alone.responded == ("right",) and alone.failed == ()
            assert [(m.endpoint, m.status) for m in alone.health] == [
                ("catalog://of_type", "skipped")
            ]

            clock.advance(seconds=BREAKER_RESET_TIMEOUT_S - 1)
            assert federation.search("type: table").failed == ("right",)
            assert federation.member_health()["right"]["breaker"] == "open"
            clock.advance(seconds=1)
            # The half-open probe fails: open again, for a full timeout.
            probe = federation.search("type: table", user_id="u-ann")
            assert probe.health[0].status == "error"
            assert federation.member_health()["right"]["breaker"] == "open"
            assert federation.member_health()["right"]["retry_after_s"] == (
                BREAKER_RESET_TIMEOUT_S
            )

            clock.advance(seconds=BREAKER_RESET_TIMEOUT_S)
            broken[0] = False
            healed = federation.search("type: table", user_id="u-ann")
            assert not healed.degraded
            assert healed.artifact_ids() == ["left:t-orders", "right:t-returns"]
            assert federation.member_health()["right"] == {
                "breaker": "closed",
                "consecutive_failures": 0,
                "retry_after_s": 0.0,
            }

    def test_concurrent_searches_share_one_guard(self):
        """Eight threads fail ``right`` exactly threshold times between
        them, so the guard opens on the last one only if no failure was
        lost to a racing update; once the reset timeout passes, eight
        more concurrent searches let exactly one half-open probe through."""
        searches = 200
        clock = SimulationClock()
        federation, _ = _guarded_federation(
            clock, breaker_failure_threshold=searches
        )
        registry = federation.member_engine("right").registry
        failing = registry.resolve("catalog://of_type")

        def slow_failure(request):
            # Real time, so the other threads reach the guard while a
            # half-open probe is still in flight.
            time.sleep(0.02)
            return failing(request)

        registry.register("catalog://of_type", slow_failure, replace=True)

        def run(count: int) -> list:
            futures = [
                pool.submit(federation.search, "type: table")
                for _ in range(count)
            ]
            return [
                [(m.endpoint, m.status) for m in future.result(timeout=60).health]
                for future in futures
            ]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with federation, ThreadPoolExecutor(max_workers=8) as pool:
                failures = run(searches)
                tripped = federation.member_health()["right"]
                clock.advance(seconds=BREAKER_RESET_TIMEOUT_S)
                probes = run(8)
        finally:
            sys.setswitchinterval(switch)
        member = "fed://right/search"
        assert failures == [[(member, "error")]] * searches
        assert tripped["breaker"] == "open"
        assert tripped["consecutive_failures"] == searches
        assert sorted(probes) == (
            [[(member, "error")]] + [[(member, "skipped")]] * 7
        )

    def test_probe_that_raises_unexpectedly_reopens_the_breaker(self):
        """A bug escaping a member is not swallowed, and still counts:
        the half-open probe it ends cannot stay in flight."""
        clock = SimulationClock()
        federation, broken = _guarded_federation(
            clock, breaker_failure_threshold=1
        )
        registry = federation.member_engine("right").registry
        flaky = registry.resolve("catalog://of_type")
        bug = [False]

        def endpoint(request):
            if bug[0]:
                raise KeyError("bug")
            return flaky(request)

        registry.register("catalog://of_type", endpoint, replace=True)
        with federation:
            assert federation.search("type: table").failed == ("right",)
            clock.advance(seconds=BREAKER_RESET_TIMEOUT_S)
            bug[0] = True
            with pytest.raises(KeyError):
                federation.search("type: table")
            assert federation.member_health()["right"]["breaker"] == "open"
            clock.advance(seconds=BREAKER_RESET_TIMEOUT_S)
            bug[0] = broken[0] = False
            assert federation.search("type: table").failed == ()
            assert federation.member_health()["right"]["breaker"] == "closed"

    def test_breaker_off_never_skips_a_member(self):
        federation, _ = _guarded_federation(
            SimulationClock(), breaker_enabled=False,
            breaker_failure_threshold=1,
        )
        with federation:
            for _ in range(3):
                result = federation.search("type: table", user_id="u-ann")
                assert [m.status for m in result.health] == ["error"]
            assert federation.member_health()["right"]["breaker"] == "closed"

    def test_spent_shared_deadline_skips_later_members_leaves(self):
        """One deadline spans the member loop: ``left``'s slow leaf
        spends it, so ``right`` answers with its leaf skipped."""
        clock = SimulationClock()
        federation, broken = _guarded_federation(clock)
        broken[0] = False
        registry = federation.member_engine("left").registry
        uri = "catalog://of_type"
        registry.register(
            uri,
            LatencySpikeEndpoint(registry.resolve(uri), clock, [200.0]),
            replace=True,
        )
        with federation:
            result = federation.search(
                "type: table", user_id="u-ann", budget_ms=100.0
            )
        assert result.degraded
        assert result.responded == ("left", "right") and result.failed == ()
        assert result.artifact_ids() == ["left:t-orders"]
        assert result.total == 1
        assert result.health == (
            ProviderHealth(
                provider="right",
                endpoint=uri,
                status="skipped",
                detail="deadline exhausted",
            ),
        )


# ---------------------------------------------------------------------------
# membership, read API, backend mix


class TestMembership:
    def test_duplicate_member_rejected(self):
        left, right = two_member_stores()
        federation = FederatedCatalog()
        federation.add_member("left", left)
        with pytest.raises(FederationError, match="already registered"):
            federation.add_member("left", right)

    def test_first_member_is_default_until_overridden(self):
        with two_member_federation() as federation:
            assert federation.default_id == "left"
            assert federation.artifact("t-orders").name == "ORDERS"
            federation.set_default("right")
            assert federation.artifact("t-returns").name == "RETURNS"

    def test_qualified_reads(self):
        with two_member_federation() as federation:
            assert federation.artifact("right:d-sales").name == "Sales Dashboard"
            assert federation.has_artifact("right:d-sales")
            assert not federation.has_artifact("right:t-orders")
            assert federation.qualify("left", "t-orders") == "left:t-orders"

    def test_users_are_deduped_across_members(self):
        with two_member_federation() as federation:
            assert [u.id for u in federation.users()] == ["u-ann"]
            assert [t.id for t in federation.teams()] == ["t-1"]

    def test_sqlite_and_memory_members_mix(self, tmp_path):
        left, right = two_member_stores()
        db_path = tmp_path / "right.db"
        with CatalogStore.open(db_path) as disk:
            for user in right.users():
                disk.add_user(user)
            for team in right.teams():
                disk.add_team(team)
            for artifact_id in right.artifact_ids():
                disk.add_artifact(right.artifact(artifact_id))
        federation = FederatedCatalog()
        federation.add_member("mem", left)
        federation.add_member("disk", db_path)
        result = federation.search("type: table", user_id="u-ann")
        assert result.artifact_ids() == ["mem:t-orders", "disk:t-returns"]
        assert federation.artifact("disk:d-sales").name == "Sales Dashboard"
        # Path members are owned: close() must release the sqlite store.
        federation.close()

    def test_member_write_invalidates_federated_search_cache(self):
        with two_member_federation() as federation:
            before = federation.search("type: table", user_id="u-ann")
            assert before.total == 2
            store = federation.member_store("right")
            store.add_artifact(Artifact(
                id="t-new", name="NEW_ORDERS_TABLE",
                artifact_type=ArtifactType.TABLE,
                description="Fresh table.", owner_id="u-ann",
                team_ids=("t-1",),
                created_at=store.clock.now(),
            ))
            after = federation.search("type: table", user_id="u-ann")
            assert after.total == 3
            assert "right:t-new" in after.artifact_ids()


# ---------------------------------------------------------------------------
# cross-catalog lineage stitching


class TestLineageStitching:
    def test_lineage_spans_members_through_cross_edges(self):
        with two_member_federation() as federation:
            federation.add_cross_edge("left:v-orders", "right:d-sales",
                                      kind="embeds")
            lineage = federation.lineage("left:t-orders", depth=2)
            assert lineage.nodes == (
                "left:t-orders", "left:v-orders", "right:d-sales"
            )
            kinds = {(e.src, e.dst): (e.kind, e.cross) for e in lineage.edges}
            assert kinds[("left:t-orders", "left:v-orders")] == (
                "derives", False
            )
            assert kinds[("left:v-orders", "right:d-sales")] == (
                "embeds", True
            )

    def test_depth_bounds_the_cross_walk(self):
        with two_member_federation() as federation:
            federation.add_cross_edge("left:v-orders", "right:d-sales")
            lineage = federation.lineage("left:t-orders", depth=1)
            assert "right:d-sales" not in lineage.nodes

    def test_upstream_walk_crosses_backwards(self):
        with two_member_federation() as federation:
            federation.add_cross_edge("left:v-orders", "right:d-sales")
            lineage = federation.lineage("right:d-sales", depth=2)
            assert "left:t-orders" in lineage.nodes
            assert "left:v-orders" in lineage.nodes

    def test_same_member_cross_edge_rejected(self):
        with two_member_federation() as federation:
            with pytest.raises(FederationError, match="stays inside"):
                federation.add_cross_edge("left:t-orders", "left:v-orders")

    def test_missing_endpoint_rejected(self):
        with two_member_federation() as federation:
            with pytest.raises(FederationError, match="does not exist"):
                federation.add_cross_edge("left:t-orders", "right:ghost")

    def test_cross_edges_dedup(self):
        with two_member_federation() as federation:
            federation.add_cross_edge("left:v-orders", "right:d-sales")
            federation.add_cross_edge("left:v-orders", "right:d-sales")
            assert len(federation.cross_edges()) == 1


# ---------------------------------------------------------------------------
# the Discovery facade


class TestDiscoveryFacade:
    def test_single_catalog_open_names_the_member_main(self):
        left, _ = two_member_stores()
        with Discovery.open(left) as discovery:
            assert discovery.members() == ("main",)
            assert discovery.default_member == "main"
            result = discovery.search("type: table", user_id="u-ann")
            assert result.artifact_ids() == ["main:t-orders"]
            assert discovery.artifact("t-orders").name == "ORDERS"
            # The search ran on the member engine, and health shows it
            # below the member's guard line.
            guard_table, member_table = discovery.render_health().split(
                "member main:"
            )
            assert guard_table.splitlines()[1].split() == [
                "main", "closed", "0", "0.0"
            ]
            assert "catalog://of_type" in member_table

    def test_federated_open_with_default(self):
        left, right = two_member_stores()
        with Discovery.open(
            members={"left": left, "right": right}, default="right"
        ) as discovery:
            assert discovery.members() == ("left", "right")
            assert discovery.default_member == "right"
            assert discovery.artifact("t-returns").name == "RETURNS"
            assert discovery.has_artifact("left:t-orders")

    def test_malformed_queries_raise_without_opening_the_breaker(self):
        """Syntax errors are the caller's: they raise before the fan-out
        and never count as member failures."""
        left, _ = two_member_stores()
        with Discovery.open(left) as fresh:
            want = fresh.search("type: table", user_id="u-ann")
        with Discovery.open(left) as discovery:
            for _ in range(8):
                with pytest.raises(QuerySyntaxError):
                    discovery.search("bad'0", user_id="u-ann")
            got = discovery.search("type: table", user_id="u-ann")
        assert got.degraded is False
        assert got.failed == ()
        assert got.artifact_ids() == want.artifact_ids() == ["main:t-orders"]

    def test_open_requires_exactly_one_source(self):
        left, _ = two_member_stores()
        with pytest.raises(FederationError, match="exactly one"):
            Discovery.open()
        with pytest.raises(FederationError, match="exactly one"):
            Discovery.open(left, members={"left": left})

    def test_open_rejects_knobs_with_prebuilt_federation(self):
        federation = two_member_federation()
        with pytest.raises(FederationError, match="fixed by"):
            Discovery.open(federation, spec=default_spec())
        Discovery.open(federation).close()

    def test_concurrent_federated_load_has_no_leaks_or_errors(self, corpus):
        """Four threads run seeded searches, qualified-ref lookups and
        lineage walks through one ``Discovery`` over a 3-member
        federation.  Every search entry and lineage node is attributed
        to the member that owns it per the partition, and no op raises."""
        federation, partition = federate(corpus, 3)
        queries = query_pool(corpus)
        refs = [
            f"{partition.assignment[aid]}:{aid}"
            for aid in corpus.artifact_ids()
        ]
        users = [
            (user.id, teams[0].id if teams else "")
            for user in corpus.users()
            for teams in [corpus.teams_of(user.id)]
        ]
        rng = random.Random(7)
        ref_weights = zipf_weights(len(refs), 1.1)
        ops = []
        for _ in range(64):
            kind = rng.choices(
                ("search", "artifact", "lineage"), weights=(6, 2.5, 1.5)
            )[0]
            arg = (
                rng.choice(queries) if kind == "search"
                else rng.choices(refs, weights=ref_weights)[0]
            )
            ops.append((kind, arg, *rng.choice(users)))

        def run(op):
            """(exception or None, the refs the op returned)"""
            kind, arg, user_id, team_id = op
            try:
                if kind == "search":
                    result = discovery.search(
                        arg, user_id=user_id, team_id=team_id, limit=25
                    )
                    return None, [entry.ref for entry in result.entries]
                if kind == "artifact":
                    _, artifact_id = arg.split(":", 1)
                    assert discovery.artifact(arg).id == artifact_id
                    return None, []
                lineage = discovery.lineage(arg, depth=2)
                members = discovery.members()
                return None, [parse_ref(n, members) for n in lineage.nodes]
            except Exception as exc:  # counted and reported below
                return exc, []

        with Discovery(federation) as discovery, \
                ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(run, ops))
        errors = [exc for exc, _ in outcomes if exc is not None]
        refs_returned = [ref for _, found in outcomes for ref in found]
        assert len(outcomes) == 64
        assert errors == []
        searched = [
            found for (kind, *_), (_, found) in zip(ops, outcomes)
            if kind == "search"
        ]
        assert sum(map(len, searched)) > 0
        misattributed = [
            ref for ref in refs_returned
            if partition.assignment.get(ref.artifact_id) != ref.catalog_id
        ]
        assert misattributed == []

    def test_lineage_and_health_surface(self):
        left, right = two_member_stores()
        with Discovery.open(members={"left": left, "right": right}) as d:
            d.federation.add_cross_edge("left:v-orders", "right:d-sales")
            lineage = d.lineage("t-orders")
            assert "right:d-sales" in lineage.nodes
            d.search("orders", user_id="u-ann")
            assert isinstance(d.render_health(), str)
