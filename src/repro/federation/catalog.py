"""The federated catalog: one discovery surface over N member catalogs.

ROADMAP item 5 (catalog-of-catalogs): a :class:`FederatedCatalog`
registers any mix of member :class:`~repro.catalog.store.CatalogStore`
backends — fully-resident in-memory stores and lazily-loaded sqlite
files side by side — behind the store's read API with
catalog-qualified ids (see :mod:`repro.federation.refs`).

Each member owns a full single-catalog query stack (registry, engine,
evaluator).  A search with one target — every single-catalog
``Discovery.open(source)`` search — calls that member's evaluator
directly at the caller's limit: its leaves still run under the member
engine's cache, retries, breakers and deadline budget, and a member
error degrades the result instead of raising.

A search over two or more targets is a fan-out through the execution
layer, not a bespoke loop: the federation registers one
``fed://<catalog_id>/search`` endpoint per member on its *own*
registry/engine, and the search becomes one
:meth:`~repro.providers.execution.ExecutionEngine.execute_many` batch,
so per-member retries, TTL caches, circuit breakers, deadline budgets
and stale-serving all apply per member for free — one slow or failing
member degrades the result (flagged, partial) instead of sinking the
whole query.

Merging is **rank-aware interleaving**: members return their full
scored match lists (scores are per-artifact — no cross-artifact
normalisation — and rounded exactly as :meth:`~repro.core.ranking.
Ranker.top_k` rounds them), and the federation interleaves on
``(-score, artifact_id)``, the same ordering key a single merged
catalog would use.  Over disjoint members this reproduces the monolith
result list bit-for-bit; ``tests/test_federation.py`` holds the
conformance gate.

**Stability: internal.** Import :class:`repro.Discovery` (see
``repro.__all__``) — this module's internals may change without notice.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.catalog.domains import DOMAINS
from repro.catalog.lineage import LineageEdge
from repro.catalog.model import Artifact, ArtifactType, Team, User
from repro.catalog.store import CatalogStore
from repro.catalog.usage import UsageStats
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.query.parser import parse_query
from repro.core.ranking import Ranker
from repro.core.spec.model import HumboldtSpec
from repro.errors import HumboldtError
from repro.federation.refs import (
    CatalogRef,
    FederationError,
    UnknownCatalogError,
    parse_ref,
    validate_catalog_id,
)
from repro.obs.trace import Tracer
from repro.providers.base import ProviderRequest, RequestContext, reads_context
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
    ProviderHealth,
)
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.util.clock import SimulationClock

#: Per-member fetch cap for federated search fan-outs; mirrors
#: :attr:`QueryEvaluator.fetch_limit` so a member contributes its full
#: match list and the merge can never lose a global top-k entry.
FETCH_LIMIT = 10_000


def member_search_endpoint_uri(catalog_id: str) -> str:
    """The federation-registry URI of one member's search endpoint."""
    return f"fed://{catalog_id}/search"


@dataclass(frozen=True)
class FederatedEntry:
    """One ranked search hit, attributed to its member catalog."""

    ref: CatalogRef
    score: float

    @property
    def id(self) -> str:
        """The qualified ``catalog:artifact`` id."""
        return self.ref.qualified

    @property
    def artifact_id(self) -> str:
        """The bare (member-local) artifact id."""
        return self.ref.artifact_id


@dataclass(frozen=True)
class FederatedSearchResult:
    """The merged outcome of one cross-catalog search."""

    query: str
    entries: tuple[FederatedEntry, ...]
    total: int
    #: True when any member's contribution filled :data:`FETCH_LIMIT` —
    #: the merge may then under-report matches from that member.
    truncated: bool = False
    #: True when any member was served stale, skipped, or failed.
    degraded: bool = False
    #: One marker per degraded member fetch explaining why.
    health: tuple[ProviderHealth, ...] = ()
    #: Members whose results are present in ``entries``.
    responded: tuple[str, ...] = ()
    #: Members that contributed nothing (error / open breaker / spent
    #: deadline with no stale fallback).
    failed: tuple[str, ...] = ()

    def artifact_ids(self) -> list[str]:
        """Qualified ids, merged rank order."""
        return [entry.id for entry in self.entries]

    def bare_ids(self) -> list[str]:
        """Member-local ids, merged rank order."""
        return [entry.ref.artifact_id for entry in self.entries]

    def is_empty(self) -> bool:
        return self.total == 0


@dataclass(frozen=True)
class CrossCatalogEdge:
    """A lineage edge whose endpoints live in different members."""

    src: CatalogRef
    dst: CatalogRef
    kind: str = "derives"


@dataclass(frozen=True)
class FederatedEdge:
    """One edge of a stitched lineage neighborhood (qualified ids)."""

    src: str
    dst: str
    kind: str = "derives"
    #: True when the edge crosses a member boundary.
    cross: bool = False


@dataclass(frozen=True)
class FederatedLineage:
    """A lineage neighborhood stitched across member graphs."""

    root: CatalogRef
    nodes: tuple[str, ...]
    edges: tuple[FederatedEdge, ...]


@dataclass
class _Member:
    """One registered catalog plus its private single-catalog stack."""

    catalog_id: str
    store: CatalogStore
    evaluator: QueryEvaluator
    owned: bool = False


# Fully keyed: the member evaluator passes user and team to context readers.
@reads_context("user_id", "team_id", "limit")
class _MemberSearchEndpoint:
    """The fan-out leaf: one member's full scored match list.

    Runs the member's own evaluator at the federation fetch cap.  The
    merge needs only each member's top ``limit`` entries, but the
    federated ``total`` counts the members' returned rows, so a member
    must return every match up to the cap for ``total`` (and
    ``truncated``) to mean what a one-target search reports.  The
    result rides the execution layer's normal ``ProviderResult``
    envelope, so the federation engine can cache, stale-serve and
    invalidate it like any provider payload.  Used for searches over
    two or more targets only.
    """

    def __init__(self, member: _Member):
        self._member = member

    def __call__(self, request: ProviderRequest):
        from repro.providers.base import (
            ProviderResult,
            Representation,
            ScoredArtifact,
        )

        query = request.input("query")
        context = RequestContext(
            user_id=request.context.user_id,
            team_id=request.context.team_id,
            limit=FETCH_LIMIT,
        )
        result = self._member.evaluator.search(
            query, context=context, limit=FETCH_LIMIT
        )
        return ProviderResult(
            representation=Representation.LIST,
            items=tuple(
                ScoredArtifact(artifact_id=e.artifact_id, score=e.score)
                for e in result.entries
            ),
        )


class _FederatedStoreView:
    """Duck-typed version surface the federation engine invalidates on.

    The engine only needs ``version``/``domain_versions`` from its store
    to check dependent cache entries; summing the members' counters (plus
    a membership generation bumped on add/remove/default changes) means
    any member write — on any backend — invalidates federated search
    caches conservatively.  No event log is exposed, so the engine takes
    its coarse drop path rather than attempting cross-catalog deltas.
    """

    def __init__(self, catalog: "FederatedCatalog"):
        self._catalog = catalog

    @property
    def version(self) -> int:
        total = self._catalog._generation
        for member in self._catalog._members.values():
            total += member.store.version
        return total

    @property
    def domain_versions(self) -> dict[str, int]:
        totals = {domain: self._catalog._generation for domain in DOMAINS}
        for member in self._catalog._members.values():
            for domain, value in member.store.domain_versions.items():
                totals[domain] = totals.get(domain, 0) + value
        return totals


class FederatedCatalog:
    """N member catalogs behind one read/search/lineage surface.

    Members are added with :meth:`add_member` (a live store, or a path
    opened as a persistent sqlite catalog); the first member added — or
    an explicit :meth:`set_default` — becomes the default that bare
    (unqualified) artifact ids resolve against, which keeps
    single-catalog call sites working unchanged.
    """

    def __init__(
        self,
        *,
        spec: HumboldtSpec | None = None,
        policy: ExecutionPolicy | None = None,
        clock: SimulationClock | None = None,
    ):
        self._spec = spec or default_spec()
        self._policy = policy or ExecutionPolicy.defaults()
        self._clock = clock
        self._language = QueryLanguage(self._spec)
        self._members: dict[str, _Member] = {}
        self._default_id: str | None = None
        #: Bumped on membership/topology changes so the engine's
        #: version-keyed caches can never serve a pre-change merge.
        self._generation = 0
        self._registry = EndpointRegistry()
        self._store_view = _FederatedStoreView(self)
        self._engine = ExecutionEngine(
            self._registry,
            store=self._store_view,
            policy=self._policy,
            clock=self._clock,
        )
        self._cross_edges: list[CrossCatalogEdge] = []
        #: Shared tracer, when tracing is enabled via :meth:`set_tracer`.
        self._tracer: "Tracer | None" = None

    # -- observability -----------------------------------------------------

    def set_tracer(self, tracer: "Tracer") -> None:
        """Share one tracer across the federation and member engines.

        A federated search fans out through the federation engine into
        member evaluators running on their *own* engines; giving every
        engine the same tracer instance keeps the whole fan-out in one
        trace (member-side spans parent under the federation's fetch
        spans via the engine's cross-thread context propagation).  A
        one-target search's member spans sit directly below
        ``federation.search``.
        Members added later inherit the tracer automatically.
        """
        self._tracer = tracer
        self._engine.tracer = tracer
        for member in self._members.values():
            member.evaluator.engine.tracer = tracer

    @property
    def tracer(self) -> "Tracer":
        """The active tracer (the engine's no-op tracer by default)."""
        return self._engine.tracer

    # -- membership --------------------------------------------------------

    def add_member(
        self,
        catalog_id: str,
        source: "CatalogStore | str | Path",
        *,
        default: bool = False,
    ) -> CatalogRef:
        """Register *source* under *catalog_id*.

        *source* may be a live :class:`CatalogStore` (caller keeps
        ownership; the federation only flushes it on close) or a path,
        opened as a persistent catalog the federation owns and closes.
        The first member registered becomes the default automatically.
        """
        validate_catalog_id(catalog_id)
        if catalog_id in self._members:
            raise FederationError(
                f"catalog {catalog_id!r} is already registered"
            )
        owned = not isinstance(source, CatalogStore)
        store = source if isinstance(source, CatalogStore) else CatalogStore.open(source)
        engine = ExecutionEngine(
            EndpointRegistry(),
            store=store,
            policy=self._policy,
            clock=self._clock,
        )
        if self._tracer is not None:
            engine.tracer = self._tracer
        install_builtin_endpoints(engine.registry, BuiltinProviders(store))
        evaluator = QueryEvaluator(
            store, engine, self._language, Ranker(FieldResolver(store))
        )
        member = _Member(
            catalog_id=catalog_id,
            store=store,
            evaluator=evaluator,
            owned=owned,
        )
        self._members[catalog_id] = member
        self._registry.register(
            member_search_endpoint_uri(catalog_id),
            _MemberSearchEndpoint(member),
        )
        if default or self._default_id is None:
            self._default_id = catalog_id
        self._generation += 1
        return CatalogRef(catalog_id=catalog_id, artifact_id="")

    def set_default(self, catalog_id: str) -> None:
        """Make *catalog_id* the member bare ids resolve against."""
        self._member(catalog_id)
        self._default_id = catalog_id
        self._generation += 1

    @property
    def default_id(self) -> str | None:
        return self._default_id

    def member_ids(self) -> tuple[str, ...]:
        """Registered member ids, registration order."""
        return tuple(self._members)

    def member_store(self, catalog_id: str) -> CatalogStore:
        """The underlying store of one member (member-local bare ids)."""
        return self._member(catalog_id).store

    def member_engine(self, catalog_id: str) -> ExecutionEngine:
        """The engine one member's provider leaves run on."""
        return self._member(catalog_id).evaluator.engine

    @property
    def registry(self) -> EndpointRegistry:
        """The federation-level registry holding the member endpoints."""
        return self._registry

    @property
    def engine(self) -> ExecutionEngine:
        """The federation-level execution engine the fan-out runs on
        (a one-target search never touches it; see :meth:`member_engine`)."""
        return self._engine

    def _member(self, catalog_id: str) -> _Member:
        try:
            return self._members[catalog_id]
        except KeyError:
            raise UnknownCatalogError(catalog_id, self._members) from None

    # -- addressing --------------------------------------------------------

    def parse(self, ref: "str | CatalogRef") -> CatalogRef:
        """Resolve a (possibly bare) ref against the registered members."""
        return parse_ref(ref, self._members, default=self._default_id)

    def qualify(self, catalog_id: str, artifact_id: str) -> str:
        """The qualified id for a member-local artifact id."""
        self._member(catalog_id)
        return CatalogRef(catalog_id, artifact_id).qualified

    # -- store read API (qualified ids) ------------------------------------

    def artifact(self, ref: "str | CatalogRef") -> Artifact:
        parsed = self.parse(ref)
        return self._member(parsed.catalog_id).store.artifact(parsed.artifact_id)

    def has_artifact(self, ref: "str | CatalogRef") -> bool:
        try:
            parsed = self.parse(ref)
        except FederationError:
            return False
        member = self._members.get(parsed.catalog_id)
        return member is not None and member.store.has_artifact(parsed.artifact_id)

    def resolve(self, refs: Iterable["str | CatalogRef"]) -> list[Artifact]:
        """Map refs to artifacts, skipping ones that do not resolve."""
        return [self.artifact(ref) for ref in refs if self.has_artifact(ref)]

    @property
    def artifact_count(self) -> int:
        return sum(m.store.artifact_count for m in self._members.values())

    def artifact_ids(self) -> list[str]:
        """All qualified ids: members in registration order, ids sorted
        within each member (each member's own deterministic order)."""
        return self._collect(lambda store: store.artifact_ids())

    def by_type(self, artifact_type: "ArtifactType | str") -> list[str]:
        return self._collect(lambda store: store.by_type(artifact_type))

    def by_owner(self, user_id: str) -> list[str]:
        return self._collect(lambda store: store.by_owner(user_id))

    def by_badge(self, badge: str, granted_by: str | None = None) -> list[str]:
        return self._collect(lambda store: store.by_badge(badge, granted_by))

    def by_tag(self, tag: str) -> list[str]:
        return self._collect(lambda store: store.by_tag(tag))

    def by_team(self, team_id: str) -> list[str]:
        return self._collect(lambda store: store.by_team(team_id))

    def by_token(self, token: str) -> list[str]:
        return self._collect(lambda store: store.by_token(token))

    def search_tokens(self, tokens: Iterable[str]) -> list[str]:
        tokens = list(tokens)
        return self._collect(lambda store: store.search_tokens(tokens))

    def _collect(self, accessor) -> list[str]:
        qualified: list[str] = []
        for catalog_id, member in self._members.items():
            qualified.extend(
                CatalogRef(catalog_id, artifact_id).qualified
                for artifact_id in accessor(member.store)
            )
        return qualified

    def users(self) -> list[User]:
        """Union of member user directories, first registration wins."""
        seen: dict[str, User] = {}
        for member in self._members.values():
            for user in member.store.users():
                seen.setdefault(user.id, user)
        return list(seen.values())

    def teams(self) -> list[Team]:
        seen: dict[str, Team] = {}
        for member in self._members.values():
            for team in member.store.teams():
                seen.setdefault(team.id, team)
        return list(seen.values())

    def usage_stats(self, ref: "str | CatalogRef") -> UsageStats:
        parsed = self.parse(ref)
        return self._member(parsed.catalog_id).store.usage_stats(parsed.artifact_id)

    @property
    def version(self) -> int:
        """Aggregate mutation counter (member sums + membership changes)."""
        return self._store_view.version

    @property
    def domain_versions(self) -> dict[str, int]:
        return self._store_view.domain_versions

    # -- search ------------------------------------------------------------

    def search(
        self,
        query: str,
        *,
        user_id: str = "",
        team_id: str = "",
        limit: int = 50,
        budget_ms: float | None = None,
        members: Sequence[str] | None = None,
    ) -> FederatedSearchResult:
        """Search every member (or just *members*) and merge.

        With one target the member's evaluator runs directly, at
        *limit* and under *budget_ms*: ``total`` is its match count
        capped at :data:`FETCH_LIMIT`, and its own degradation (a leaf
        served stale, or skipped by an open breaker or a spent budget)
        flags the result with that leaf's health marker.

        With two or more targets, one :meth:`ExecutionEngine.
        execute_many` batch over the ``fed://<id>/search`` endpoints:
        each member fetch runs under its own breaker/retry/cache state
        and the shared *budget_ms* deadline.

        Either way, a member that fails (or, fanned out, trips its
        breaker or exhausts the budget) is dropped from the merge and
        the result is flagged ``degraded`` with a per-member health
        marker — partial answers beat no answer, which is the
        federation's explicit departure from the single-catalog
        evaluator's fail-loudly contract.

        A malformed query is the caller's error, not a member's: it is
        parsed once before the fan-out and raises
        :class:`~repro.errors.QuerySyntaxError`, so it never counts
        against a member's breaker.
        """
        if not self._members:
            raise FederationError("no member catalogs registered")
        targets = list(members) if members is not None else list(self._members)
        for catalog_id in targets:
            self._member(catalog_id)
        parse_query(query)
        with self._engine.tracer.span("federation.search") as span:
            if span:
                span.set("query", query)
                span.set("members", ",".join(targets))
            search = self._search_one if len(targets) == 1 else self._search_fanout
            result = search(
                query,
                targets,
                user_id=user_id,
                team_id=team_id,
                limit=limit,
                budget_ms=budget_ms,
            )
            if span:
                span.set("responded", len(result.responded))
                span.set("failed", len(result.failed))
                span.set("total", result.total)
                if result.degraded:
                    span.set("degraded", True)
                if result.truncated:
                    span.set("truncated", True)
            return result

    def _search_one(
        self,
        query: str,
        targets: list[str],
        *,
        user_id: str,
        team_id: str,
        limit: int,
        budget_ms: float | None,
    ) -> FederatedSearchResult:
        """The one-target search: the member evaluator, no federation hop.

        Returns what :meth:`_search_fanout` returns for the same target
        — entries, ``total``, ``truncated``, and an error mapped to the
        ``fed://<id>/search`` marker — plus the member's own degradation.
        """
        (catalog_id,) = targets
        cap = min(limit, FETCH_LIMIT)
        try:
            result = self._members[catalog_id].evaluator.search(
                query,
                context=RequestContext(
                    user_id=user_id, team_id=team_id, limit=cap
                ),
                limit=cap,
                budget_ms=budget_ms,
            )
        except HumboldtError as exc:
            marker = ProviderHealth(
                provider=catalog_id,
                endpoint=member_search_endpoint_uri(catalog_id),
                status=FetchStatus.ERROR.value,
                detail=str(exc),
            )
            return FederatedSearchResult(
                query=query,
                entries=(),
                total=0,
                degraded=True,
                health=(marker,),
                failed=(catalog_id,),
            )
        return FederatedSearchResult(
            query=query,
            entries=tuple(
                FederatedEntry(
                    ref=CatalogRef(catalog_id, entry.artifact_id),
                    score=entry.score,
                )
                for entry in result.entries
            ),
            total=min(result.total, FETCH_LIMIT),
            truncated=result.total >= FETCH_LIMIT,
            degraded=result.degraded,
            health=result.health,
            responded=(catalog_id,),
        )

    def _search_fanout(
        self,
        query: str,
        targets: list[str],
        *,
        user_id: str,
        team_id: str,
        limit: int,
        budget_ms: float | None,
    ) -> FederatedSearchResult:
        calls = [
            (
                member_search_endpoint_uri(catalog_id),
                ProviderRequest(
                    inputs={"query": query},
                    context=RequestContext(
                        user_id=user_id, team_id=team_id, limit=FETCH_LIMIT
                    ),
                ),
            )
            for catalog_id in targets
        ]
        deadline = self._engine.deadline(budget_ms)
        outcomes = self._engine.execute_many(calls, deadline=deadline)

        entries: list[FederatedEntry] = []
        health: list[ProviderHealth] = []
        responded: list[str] = []
        failed: list[str] = []
        total = 0
        truncated = False
        degraded = False
        for catalog_id, outcome in zip(targets, outcomes):
            if outcome.status is FetchStatus.ERROR or outcome.result is None:
                failed.append(catalog_id)
                degraded = True
                health.append(outcome.health_marker(provider=catalog_id))
                continue
            if outcome.degraded:  # stale-served member payload
                degraded = True
                health.append(outcome.health_marker(provider=catalog_id))
            responded.append(catalog_id)
            items = outcome.result.items
            total += len(items)
            if len(items) >= FETCH_LIMIT:
                truncated = True
            entries.extend(
                FederatedEntry(
                    ref=CatalogRef(catalog_id, item.artifact_id),
                    score=item.score,
                )
                for item in items
            )
        # Rank-aware interleave: scores are rounded per-artifact exactly
        # as Ranker.top_k rounds them, so (-score, bare id) reproduces
        # the ordering one merged catalog would produce; the catalog id
        # breaks the (disjoint-members-impossible) exact tie.
        entries.sort(
            key=lambda e: (-e.score, e.ref.artifact_id, e.ref.catalog_id)
        )
        unique_markers: dict[tuple[str, str], ProviderHealth] = {}
        for marker in health:
            unique_markers.setdefault((marker.provider, marker.status), marker)
        return FederatedSearchResult(
            query=query,
            entries=tuple(entries[: max(limit, 0)]),
            total=total,
            truncated=truncated,
            degraded=degraded,
            health=tuple(unique_markers.values()),
            responded=tuple(responded),
            failed=tuple(failed),
        )

    # -- cross-catalog lineage ---------------------------------------------

    def add_cross_edge(
        self,
        src: "str | CatalogRef",
        dst: "str | CatalogRef",
        kind: str = "derives",
    ) -> CrossCatalogEdge:
        """Record a lineage edge whose endpoints live in different members.

        Both endpoints must resolve to existing artifacts.  Same-member
        edges belong in that member's own graph (which enforces cycle
        checks); routing them here would silently bypass those checks,
        so they are rejected.
        """
        LineageEdge("_src", "_dst", kind)  # validates kind
        src_ref, dst_ref = self.parse(src), self.parse(dst)
        for ref in (src_ref, dst_ref):
            if not self._member(ref.catalog_id).store.has_artifact(ref.artifact_id):
                raise FederationError(
                    f"cross-catalog edge endpoint {ref.qualified!r} does "
                    "not exist"
                )
        if src_ref.catalog_id == dst_ref.catalog_id:
            raise FederationError(
                f"edge {src_ref.qualified!r} -> {dst_ref.qualified!r} stays "
                f"inside {src_ref.catalog_id!r}; add it to that member's "
                "lineage graph instead"
            )
        edge = CrossCatalogEdge(src=src_ref, dst=dst_ref, kind=kind)
        if edge not in self._cross_edges:
            self._cross_edges.append(edge)
            self._generation += 1
        return edge

    def cross_edges(self) -> tuple[CrossCatalogEdge, ...]:
        return tuple(self._cross_edges)

    def lineage(self, ref: "str | CatalogRef", depth: int = 2) -> FederatedLineage:
        """The stitched lineage neighborhood of *ref*.

        Matches :meth:`LineageGraph.subgraph_around` semantics — nodes
        within *depth* hops upstream plus *depth* hops downstream, and
        every retained edge connects two retained nodes — except hops
        may traverse registered cross-catalog edges, so the neighborhood
        spans member graphs.
        """
        root = self.parse(ref)
        self._member(root.catalog_id)
        nodes = {root}
        nodes.update(self._reachable(root, depth, upstream=True))
        nodes.update(self._reachable(root, depth, upstream=False))
        edges: list[FederatedEdge] = []
        touched = {node.catalog_id for node in nodes}
        for catalog_id in touched:
            graph = self._member(catalog_id).store.lineage
            for edge in graph.edges():
                src = CatalogRef(catalog_id, edge.src)
                dst = CatalogRef(catalog_id, edge.dst)
                if src in nodes and dst in nodes:
                    edges.append(
                        FederatedEdge(
                            src=src.qualified,
                            dst=dst.qualified,
                            kind=edge.kind,
                            cross=False,
                        )
                    )
        for cross in self._cross_edges:
            if cross.src in nodes and cross.dst in nodes:
                edges.append(
                    FederatedEdge(
                        src=cross.src.qualified,
                        dst=cross.dst.qualified,
                        kind=cross.kind,
                        cross=True,
                    )
                )
        edges.sort(key=lambda e: (e.src, e.dst))
        return FederatedLineage(
            root=root,
            nodes=tuple(sorted(node.qualified for node in nodes)),
            edges=tuple(edges),
        )

    def _reachable(
        self, root: CatalogRef, depth: int, upstream: bool
    ) -> set[CatalogRef]:
        """Directional BFS over member graphs plus cross edges."""
        reached: set[CatalogRef] = set()
        frontier = [root]
        for _ in range(max(depth, 0)):
            next_frontier: list[CatalogRef] = []
            for node in frontier:
                for neighbor in self._neighbors(node, upstream):
                    if neighbor == root or neighbor in reached:
                        continue
                    reached.add(neighbor)
                    next_frontier.append(neighbor)
            if not next_frontier:
                break
            frontier = next_frontier
        return reached

    def _neighbors(self, node: CatalogRef, upstream: bool) -> list[CatalogRef]:
        graph = self._member(node.catalog_id).store.lineage
        local = graph.parents(node.artifact_id) if upstream else graph.children(
            node.artifact_id
        )
        neighbors = [CatalogRef(node.catalog_id, aid) for aid in local]
        for edge in self._cross_edges:
            if upstream and edge.dst == node:
                neighbors.append(edge.src)
            elif not upstream and edge.src == node:
                neighbors.append(edge.dst)
        return neighbors

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release engines and flush/close member stores.

        Stores the federation opened itself (path members) are closed;
        caller-provided stores are only flushed — their lifecycle stays
        with the caller.
        """
        self._engine.close()
        for member in self._members.values():
            member.evaluator.engine.close()
            if member.owned:
                member.store.close()
            else:
                member.store.flush()

    def __enter__(self) -> "FederatedCatalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "FETCH_LIMIT",
    "CrossCatalogEdge",
    "FederatedCatalog",
    "FederatedEdge",
    "FederatedEntry",
    "FederatedLineage",
    "FederatedSearchResult",
    "member_search_endpoint_uri",
]
