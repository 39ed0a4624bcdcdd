"""The federated catalog: one discovery surface over N member catalogs.

ROADMAP item 5 (catalog-of-catalogs): a :class:`FederatedCatalog`
registers any mix of member :class:`~repro.catalog.store.CatalogStore`
backends — fully-resident in-memory stores and lazily-loaded sqlite
files side by side — and addresses their artifacts by catalog-qualified
ids (see :mod:`repro.federation.refs`).

Each member is one generated
:class:`~repro.core.interface.discovery.DiscoveryInterface` over its own
registry with the built-in providers installed: the single-catalog stack
is assembled here and nowhere else.  A search is one loop over its
targets, for one target or many: the query is compiled once, and each
member's evaluator runs in turn at the caller's limit under one shared
deadline.  Its leaves run
under the member engine's cache, retries, breakers and stale-serving,
and a member error degrades the result instead of raising.  Over two
or more targets a per-member circuit breaker (the *member guard*)
skips a member that keeps failing, so one slow or broken catalog
degrades the answer instead of stalling every search.

Merging is **rank-aware interleaving**: scores are per-artifact (no
cross-artifact normalisation) and rounded exactly as
:meth:`~repro.core.ranking.Ranker.top_k` rounds them, and the
federation interleaves on ``(-score, artifact_id)``, the same ordering
key a single merged catalog would use.  Over disjoint members this
reproduces the monolith result list bit-for-bit;
``tests/test_federation.py`` holds the conformance gate.

**Stability: internal.** Import :class:`repro.Discovery` (see
``repro.__all__``) — this module's internals may change without notice.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.catalog.lineage import LineageEdge
from repro.catalog.model import Artifact, Team, User
from repro.catalog.store import CatalogStore
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.query.language import CompiledQuery
from repro.core.spec.model import HumboldtSpec
from repro.core.spec.validation import validate_spec
from repro.errors import HumboldtError, QueryCompileError
from repro.federation.refs import (
    CatalogRef,
    FederationError,
    UnknownCatalogError,
    parse_ref,
    validate_catalog_id,
)
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.providers.base import RequestContext
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    CALLER_ERRORS,
    CircuitBreaker,
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
    ProviderHealth,
)
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.util.clock import SimulationClock

#: Cap on one member's contribution to a federated ``total``; mirrors
#: :attr:`QueryEvaluator.fetch_limit`.  A member whose match count
#: reaches it flags the result ``truncated``.
FETCH_LIMIT = 10_000


def _member_marker(
    catalog_id: str, status: FetchStatus, detail: str
) -> ProviderHealth:
    """The health marker of a member that contributed nothing."""
    return ProviderHealth(
        provider=catalog_id,
        endpoint=f"fed://{catalog_id}/search",
        status=status.value,
        detail=detail,
    )


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
    #: True when any member's match count reached :data:`FETCH_LIMIT` —
    #: ``total`` then under-reports that member's matches.
    truncated: bool = False
    #: True when any member failed, or had a leaf served stale or skipped.
    degraded: bool = False
    #: One marker per failed member and per degraded leaf of a
    #: responding member, in target order.  Over two or more targets a
    #: leaf marker's ``provider`` is its member's id.
    health: tuple[ProviderHealth, ...] = ()
    #: Members whose results are present in ``entries``.
    responded: tuple[str, ...] = ()
    #: Members that contributed nothing (an error, or skipped by an open
    #: member guard).
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
    #: Regenerated in place by :meth:`FederatedCatalog.update_spec`.
    interface: DiscoveryInterface
    providers: BuiltinProviders
    #: The member guard: consulted only by searches over two or more
    #: targets, mutated under the federation's guard lock.
    breaker: CircuitBreaker
    owned: bool = False


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
        self._members: dict[str, _Member] = {}
        self._default_id: str | None = None
        self._guard_lock = threading.Lock()
        #: The member guard's time source: the member engines' clock.
        self._now = clock.now if clock is not None else time.perf_counter
        self._cross_edges: list[CrossCatalogEdge] = []
        self._tracer: Tracer = NOOP_TRACER

    # -- observability -----------------------------------------------------

    def set_tracer(self, tracer: Tracer) -> None:
        """Share one tracer across the federation and its member engines.

        A federated search calls each member's evaluator in turn, on the
        member's *own* engine; giving every engine the same tracer
        instance keeps the whole search in one trace, with each member's
        ``query.search`` directly below ``federation.search``.  Members
        added later inherit the tracer automatically.
        """
        self._tracer = tracer
        for member in self._members.values():
            member.interface.engine.tracer = tracer

    @property
    def tracer(self) -> Tracer:
        """The active tracer (the shared no-op tracer by default)."""
        return self._tracer

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
        The member's engine runs with the federation's policy, clock and
        tracer.
        """
        validate_catalog_id(catalog_id)
        if catalog_id in self._members:
            raise FederationError(
                f"catalog {catalog_id!r} is already registered"
            )
        owned = not isinstance(source, CatalogStore)
        store = source if isinstance(source, CatalogStore) else CatalogStore.open(source)
        registry = EndpointRegistry()
        providers = BuiltinProviders(store)
        install_builtin_endpoints(registry, providers)
        engine = ExecutionEngine(
            registry,
            store=store,
            policy=self._policy,
            clock=self._clock,
            tracer=self._tracer,
        )
        self._members[catalog_id] = _Member(
            catalog_id=catalog_id,
            store=store,
            interface=DiscoveryInterface(
                store, registry, self._spec, engine=engine
            ),
            providers=providers,
            breaker=CircuitBreaker(self._policy.breaker_failure_threshold),
            owned=owned,
        )
        if default or self._default_id is None:
            self._default_id = catalog_id
        return CatalogRef(catalog_id=catalog_id, artifact_id="")

    def set_default(self, catalog_id: str) -> None:
        """Make *catalog_id* the member bare ids resolve against."""
        self._member(catalog_id)
        self._default_id = catalog_id

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
        return self._member(catalog_id).interface.engine

    def member_interface(self, catalog_id: str) -> DiscoveryInterface:
        """The discovery interface generated for one member."""
        return self._member(catalog_id).interface

    def member_providers(self, catalog_id: str) -> BuiltinProviders:
        """The built-in provider suite installed on one member."""
        return self._member(catalog_id).providers

    def update_spec(self, spec: HumboldtSpec) -> None:
        """Regenerate every member's interface (see
        :meth:`DiscoveryInterface.with_spec`), and with it the language
        searches compile against.  A spec some member's registry cannot
        serve raises before any member changes."""
        for member in self._members.values():
            validate_spec(spec, registry=member.interface.registry)
        for member in self._members.values():
            member.interface = member.interface.with_spec(spec)
        self._spec = spec

    def member_health(self) -> dict[str, dict]:
        """Each member guard's state, registration order: breaker state,
        consecutive failures and seconds until a probe is admitted."""
        now = self._now()
        with self._guard_lock:
            return {
                catalog_id: {
                    "breaker": member.breaker.state.value,
                    "consecutive_failures": member.breaker.consecutive_failures,
                    "retry_after_s": round(member.breaker.retry_after_s(now), 3),
                }
                for catalog_id, member in self._members.items()
            }

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

    # -- reads (qualified ids) ---------------------------------------------

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

        The query is compiled once; each target's evaluator then runs in
        turn at *limit*, under one deadline built from *budget_ms*.  A
        member reached after the deadline expires reports its leaves
        skipped.  ``total`` sums each member's match count capped at
        :data:`FETCH_LIMIT`, and a member's own degradation (a leaf
        served stale, or skipped by an open breaker or the spent budget)
        flags the result with that leaf's health marker.

        A member that fails is dropped from the merge and the result is
        flagged ``degraded`` with a ``fed://<id>/search`` marker —
        partial answers beat no answer, which is the federation's
        explicit departure from the single-catalog evaluator's
        fail-loudly contract.  Over two or more targets, a member whose
        guard has tripped on consecutive failures is skipped with a
        "circuit open" marker until its half-open probe succeeds.

        A malformed query is the caller's error, not a member's: it
        raises :class:`~repro.errors.QuerySyntaxError` before any member
        runs.  An unknown field or provider fails every target with an
        error marker, and never counts against a member guard.
        """
        if not self._members:
            raise FederationError("no member catalogs registered")
        targets = list(members) if members is not None else list(self._members)
        for catalog_id in targets:
            self._member(catalog_id)
        # Every member's interface is generated from the same spec, so
        # the default member's language compiles for all of them.
        language = self._members[self._default_id].interface.language
        try:
            compiled = language.compile(query)
        except QueryCompileError as exc:
            compiled, compile_error = None, exc
        with self._tracer.span("federation.search") as span:
            if span:
                span.set("query", query)
                span.set("members", ",".join(targets))
            if compiled is None:
                result = FederatedSearchResult(
                    query=query,
                    entries=(),
                    total=0,
                    degraded=True,
                    health=tuple(
                        _member_marker(c, FetchStatus.ERROR, str(compile_error))
                        for c in targets
                    ),
                    failed=tuple(targets),
                )
            else:
                result = self._search(
                    compiled, targets, user_id, team_id, limit, budget_ms
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

    def _search(
        self,
        compiled: CompiledQuery,
        targets: list[str],
        user_id: str,
        team_id: str,
        limit: int,
        budget_ms: float | None,
    ) -> FederatedSearchResult:
        """The member loop behind :meth:`search`."""
        cap = min(limit, FETCH_LIMIT)
        context = RequestContext(user_id=user_id, team_id=team_id, limit=cap)
        # Every member engine runs on the same clock, so any of them can
        # build the one deadline the whole search shares.
        deadline = self._members[targets[0]].interface.engine.deadline(budget_ms)
        many = len(targets) > 1
        guarded = many and self._policy.breaker_enabled
        entries: list[FederatedEntry] = []
        health: list[ProviderHealth] = []
        responded: list[str] = []
        failed: list[str] = []
        total = 0
        truncated = False
        for catalog_id in targets:
            member = self._members[catalog_id]
            if guarded and not self._guard_allows(member):
                failed.append(catalog_id)
                health.append(
                    _member_marker(catalog_id, FetchStatus.SKIPPED, "circuit open")
                )
                continue
            ok = False
            try:
                result = member.interface.evaluator.search(
                    compiled, context=context, limit=cap, deadline=deadline
                )
                ok = True
            except HumboldtError as exc:
                # A caller error says the request was wrong, not that the
                # member is down: it answered.
                ok = isinstance(exc, CALLER_ERRORS)
                failed.append(catalog_id)
                health.append(
                    _member_marker(catalog_id, FetchStatus.ERROR, str(exc))
                )
                continue
            finally:
                # Also on an unexpected exception, so that a half-open
                # probe never stays in flight.
                if guarded:
                    self._guard_record(member, ok)
            responded.append(catalog_id)
            total += min(result.total, FETCH_LIMIT)
            truncated = truncated or result.total >= FETCH_LIMIT
            health.extend(
                # Over several members, a leaf marker names its member.
                replace(marker, provider=catalog_id) if many else marker
                for marker in result.health
            )
            entries.extend(
                FederatedEntry(CatalogRef(catalog_id, e.artifact_id), e.score)
                for e in result.entries
            )
        # Rank-aware interleave: scores are rounded per-artifact exactly
        # as Ranker.top_k rounds them, so (-score, bare id) reproduces
        # the ordering one merged catalog would produce; the catalog id
        # breaks the (disjoint-members-impossible) exact tie.
        entries.sort(key=lambda e: (-e.score, e.ref.artifact_id, e.ref.catalog_id))
        return FederatedSearchResult(
            query=compiled.text,
            entries=tuple(entries[: max(limit, 0)]),
            total=total,
            truncated=truncated,
            # Every marker is a failed member or a member's degraded leaf.
            degraded=bool(health),
            health=tuple(health),
            responded=tuple(responded),
            failed=tuple(failed),
        )

    def _guard_allows(self, member: _Member) -> bool:
        with self._guard_lock:
            return member.breaker.allow(self._now())

    def _guard_record(self, member: _Member, ok: bool) -> None:
        with self._guard_lock:
            if ok:
                member.breaker.record_success(self._now())
            else:
                member.breaker.record_failure(self._now())

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
        for member in self._members.values():
            member.interface.engine.close()
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
]
