"""The built-in metadata-provider suite (Figure 2).

Every provider class the paper shows or mentions is implemented against the
catalog substrate: annotation providers (Owned By, Badged, Type, Tagged),
interaction providers (Recents, Most Viewed, Favorites, team popularity),
and relatedness providers (Joinable, Lineage, Similar, Embedding).

Endpoints are registered under ``catalog://<name>`` URIs; the Humboldt spec
references those URIs, and the framework resolves them through the
registry — the UI never imports this module.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from repro.catalog.domains import (
    DOMAIN_BADGES,
    DOMAIN_ENTITIES,
    DOMAIN_LINEAGE,
    DOMAIN_MEMBERSHIP,
    DOMAIN_TEXT,
    DOMAIN_USAGE,
)
from repro.catalog.events import (
    BadgeEventRecord,
    LineageEventRecord,
    MembershipEventRecord,
    UsageEventRecord,
)
from repro.catalog.model import Artifact, ArtifactType
from repro.catalog.store import CatalogStore
from repro.errors import MissingInputError
from repro.metadata.embedding import EmbeddingIndex
from repro.metadata.joinability import JoinabilityIndex
from repro.metadata.similarity import EnsembleSimilarity
from repro.providers.base import (
    Category,
    EmbeddingPoint,
    Endpoint,
    GraphEdge,
    HierarchyNode,
    ProviderRequest,
    ProviderResult,
    Representation,
    ScoredArtifact,
    depends_on,
    reads_context,
)
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry

#: Fields attached to every list/tiles item so ranking has raw material.
ITEM_FIELDS = ("views", "favorite", "recency", "freshness", "endorsed")

#: Cap on points returned by the embedding provider regardless of limit.
EMBEDDING_POINT_CAP = 2000


class BuiltinProviders:
    """Catalog-backed provider endpoints with shared lazy indexes that
    follow catalog writes (see :mod:`repro.metadata.indexing`)."""

    def __init__(self, store: CatalogStore):
        self.store = store
        self.resolver = FieldResolver(store)
        self.joinability = JoinabilityIndex(store)
        self.similarity = EnsembleSimilarity(store)
        self.embedding = EmbeddingIndex(store)

    # -- endpoint table ---------------------------------------------------

    def estimators(self) -> "dict[str, Callable[[ProviderRequest], int | None]]":
        """Endpoint name -> result-cardinality estimator for the planner.

        Endpoints here are bound methods, so the :func:`~repro.providers.
        base.estimates_with` decorator cannot close over ``self``; the
        installer registers these at the registry level instead.  Each
        estimator answers from index bucket sizes in O(1)-ish time and
        must mirror its endpoint's *membership* semantics (an unresolvable
        user/team yields an empty result, hence estimate 0).  Endpoints
        without an entry simply plan as unknown cardinality.
        """
        return {
            "owned_by": self._estimate_owned_by,
            "created_by": self._estimate_owned_by,
            "of_type": self._estimate_of_type,
            "badged": self._estimate_badged,
            "tagged": self._estimate_tagged,
            "team_docs": self._estimate_team_docs,
        }

    def _estimate_owned_by(self, request: ProviderRequest) -> int | None:
        raw = request.input("user")
        if not raw:
            return None  # the fetch itself will raise MissingInputError
        user_id = self._resolve_user(raw)
        if user_id is None:
            return 0
        return self.store.index_size("owner", user_id)

    def _estimate_of_type(self, request: ProviderRequest) -> int | None:
        raw = request.input("artifact_type")
        if not raw:
            return None
        return self.store.index_size("type", raw)

    def _estimate_badged(self, request: ProviderRequest) -> int | None:
        badge = request.input("badge")
        if not badge:
            return None
        return self.store.index_size("badge", badge.lower())

    def _estimate_tagged(self, request: ProviderRequest) -> int | None:
        tag = request.input("text")
        if not tag:
            return None
        return self.store.index_size("tag", tag)

    def _estimate_team_docs(self, request: ProviderRequest) -> int | None:
        team_id = request.input("team") or request.context.team_id
        if not team_id:
            return None
        team = self._resolve_team(team_id)
        if team is None:
            return 0
        return self.store.index_size("team", team.id)

    # -- cache delta patchers ----------------------------------------------
    #
    # A patcher answers: given this endpoint's cached result for this
    # request and the write-ahead event records since the entry was
    # fetched or last patched, what would the endpoint return *now*?
    # Three answers:
    # the cached object itself (the events provably cannot affect it),
    # a rebuilt result (computed through the endpoint's own body, so it
    # is identical-by-construction to a drop-and-refetch at this
    # instant; the engine keeps the cached object when the two are
    # equal), or None (decline — a non-monotonic mutation like a team
    # roster replacement; the engine falls back to dropping the entry).
    # The guards are deliberately conservative: any doubt rebuilds.

    def patchers(self) -> "dict[str, Callable]":
        """Endpoint name -> cache delta patcher (streaming write path).

        Bound methods again, so the :func:`~repro.providers.base.
        patches_with` decorator cannot close over ``self``; the installer
        passes these at the registry level, mirroring :meth:`estimators`.
        Only endpoints whose dependencies include a patchable domain
        (usage / lineage / membership / badges) appear — the rest drop
        on write as before.
        """
        return {
            "recents": self._patch_user_usage(self.recents),
            "recent_documents": self._patch_user_usage(
                self.recent_documents
            ),
            "favorites": self._patch_user_usage(self.favorites),
            "most_viewed": self._patch_most_viewed,
            "team_popular": self._patch_team_popular,
            "owned_by": self._patch_membership(self.owned_by),
            "created_by": self._patch_membership(self.owned_by),
            "badges": self._patch_badges,
            "badged": self._patch_badged,
            "badged_by": self._patch_badged_by,
            "team_docs": self._patch_membership(self.team_docs),
            "lineage": self._patch_lineage(self.lineage, around=False),
            "lineage_graph": self._patch_lineage(
                self.lineage_graph, around=True
            ),
        }

    @staticmethod
    def _usage_events(records) -> list:
        return [r.event for r in records if isinstance(r, UsageEventRecord)]

    @staticmethod
    def _touches_listed(records, listed: set[str]) -> bool:
        """Does a usage event or badge grant name a listed artifact?  Its
        advisory ``fields`` snapshot (views, endorsed, ...) may change."""
        for r in records:
            if isinstance(r, UsageEventRecord):
                if r.event.artifact_id in listed:
                    return True
            elif isinstance(r, BadgeEventRecord) and r.artifact_id in listed:
                return True
        return False

    @staticmethod
    def _grants(records) -> list:
        return [r for r in records if isinstance(r, BadgeEventRecord)]

    @staticmethod
    def _roster_replaced(records) -> bool:
        """Any non-monotonic membership record (e.g. ``set_team``)?"""
        return any(
            isinstance(r, MembershipEventRecord) and not r.added
            for r in records
        )

    def _patch_user_usage(self, endpoint: Endpoint) -> Callable:
        """Patcher for per-user interaction endpoints (recents/favorites).

        A usage event can only affect the result if it was produced by
        the requested user (membership may change) or touches a listed
        artifact (its advisory fields may change, as a badge grant on it
        may); anything else leaves the cached result exactly what a
        refetch would produce.
        """

        def patch(request, cached, records):
            user_id = request.input("user") or request.context.user_id
            if any(
                e.user_id == user_id for e in self._usage_events(records)
            ) or self._touches_listed(records, set(cached.artifact_ids())):
                return endpoint(request)
            return cached

        return patch

    def _patch_most_viewed(self, request, cached, records):
        if any(
            e.action == "view" for e in self._usage_events(records)
        ) or self._touches_listed(records, set(cached.artifact_ids())):
            return self.most_viewed(request)
        return cached

    def _patch_team_popular(self, request, cached, records):
        if self._roster_replaced(records):
            return None  # roster shrank, maybe: conservative drop
        team_id = request.input("team") or request.context.team_id
        team = self._resolve_team(team_id) if team_id else None
        if any(isinstance(r, MembershipEventRecord) for r in records):
            # A new user/team can change reference resolution; the
            # rebuild reads live membership, same as a refetch.
            return self.team_popular(request)
        if team is None:
            return cached  # unresolvable either way: result stays empty
        members = set(team.member_ids) | set(team.admin_ids)
        if any(
            e.user_id in members for e in self._usage_events(records)
        ) or self._touches_listed(records, set(cached.artifact_ids())):
            return self.team_popular(request)
        return cached

    def _patch_membership(self, endpoint: Endpoint) -> Callable:
        """Patcher for entities+membership endpoints (owned_by et al.).

        These run only when the membership domain moved (usage events do
        not touch them); additions may change user/team reference
        resolution, so they rebuild, while roster replacements decline.
        """

        def patch(request, cached, records):
            if self._roster_replaced(records):
                return None
            if any(isinstance(r, MembershipEventRecord) for r in records):
                return endpoint(request)
            return cached

        return patch

    def _patch_badges(self, request, cached, records):
        """A grant of a badge its artifact already carries (another
        grantor's, say) leaves every category as it was; any other grant
        declines, so the changed result is refetched outside the engine
        lock instead of rebuilt under it."""
        listed = {c.name: c.artifact_ids for c in cached.categories}
        if all(g.artifact_id in listed.get(g.badge, ())
               for g in self._grants(records)):
            return cached
        return None

    def _patch_badged(self, request, cached, records):
        """A grant changes the membership only through its own badge's
        bucket; other grants and usage events matter only where they
        name a listed artifact (its advisory fields)."""
        badge = request.input("badge").lower()
        if any(
            g.badge == badge for g in self._grants(records)
        ) or self._touches_listed(records, set(cached.artifact_ids())):
            return self.badged(request)
        return cached

    def _patch_badged_by(self, request, cached, records):
        """Membership rules as :meth:`_patch_membership`; then as
        :meth:`_patch_badged`, with the requested grantor in place of
        the badge."""
        if self._roster_replaced(records):
            return None
        if any(isinstance(r, MembershipEventRecord) for r in records):
            return self.badged_by(request)
        user_id = self._resolve_user(request.input("user"))
        if any(
            g.granted_by == user_id for g in self._grants(records)
        ) or self._touches_listed(records, set(cached.artifact_ids())):
            return self.badged_by(request)
        return cached

    def _patch_lineage(self, endpoint: Endpoint, around: bool) -> Callable:
        """Patcher for lineage endpoints.

        The graph is append-only (restores surface as opaque records,
        which hard-drop before patchers run), so the *current* bounded
        neighbourhood of the requested root contains the old one.  An
        edge with both ends outside it therefore cannot have altered the
        result; anything touching it rebuilds.  The live graph — not the
        cached ids — defines involvement, because traversal passes
        through nodes the endpoint filters out (deleted-artifact ids).
        """

        def patch(request, cached, records):
            edges = [r for r in records if isinstance(r, LineageEventRecord)]
            if not edges:
                return cached
            artifact_id = request.input("artifact")
            if not artifact_id:
                return cached  # endpoint would raise; nothing to go stale
            # Depths mirror the endpoint bodies exactly.
            if around:
                nodes, _ = self.store.lineage.subgraph_around(
                    artifact_id, depth=2
                )
                involved = set(nodes)
            else:
                involved = set(
                    self.store.lineage.downstream(artifact_id, depth=4)
                )
            involved.add(artifact_id)
            if any(e.src in involved or e.dst in involved for e in edges):
                return endpoint(request)
            return cached

        return patch

    def endpoints(self) -> dict[str, Endpoint]:
        """Endpoint name -> callable; the installer registers these."""
        return {
            "recents": self.recents,
            "recent_documents": self.recent_documents,
            "most_viewed": self.most_viewed,
            "newest": self.newest,
            "favorites": self.favorites,
            "owned_by": self.owned_by,
            "created_by": self.owned_by,  # alias: creation == ownership here
            "of_type": self.of_type,
            "types": self.types,
            "badges": self.badges,
            "badged": self.badged,
            "badged_by": self.badged_by,
            "tagged": self.tagged,
            "team_popular": self.team_popular,
            "team_docs": self.team_docs,
            "joinable": self.joinable,
            "lineage": self.lineage,
            "lineage_graph": self.lineage_graph,
            "similar": self.similar,
            "embedding_map": self.embedding_map,
        }

    # -- interaction providers ---------------------------------------------
    #
    # Dependency declarations (``@depends_on``) cover the domains that
    # determine result *membership* — which artifact ids come back for a
    # given request.  Usage-derived ordering and the advisory ``fields``
    # snapshots attached to items are NOT covered: consumers re-rank from
    # the live resolver before display, so they never make a served
    # result stale (see docs/execution.md).  For that contract to hold,
    # no provider may *truncate* a usage-ordered list below its match
    # count unless it declares ``usage`` — ``_rank_by_views`` therefore
    # returns full membership and leaves truncation to the view layer.
    # Interaction providers, whose membership itself comes from the
    # usage log, declare ``usage`` and flush on events.
    #
    # Context declarations (``@reads_context``) name every request-context
    # field a body reads, so the engine can share one cached result across
    # the users, teams and limits it ignores.  The advisory ``fields``
    # snapshots are global aggregates (no per-user value), so they never
    # force a declaration.

    @depends_on(DOMAIN_USAGE, DOMAIN_ENTITIES)
    @reads_context("user_id", "limit")
    def recents(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts the requesting user touched, most recent first."""
        user_id = request.input("user") or request.context.user_id
        ids = self.store.usage.recent_for_user(user_id, limit=request.context.limit)
        return self._list(ids, Representation.LIST)

    @depends_on(DOMAIN_USAGE, DOMAIN_ENTITIES)
    @reads_context("user_id", "limit")
    def recent_documents(self, request: ProviderRequest) -> ProviderResult:
        """Recents restricted to document-like artifacts (workbooks, docs).

        This is the provider behind the paper's ``:recent_documents()``
        query example.
        """
        user_id = request.input("user") or request.context.user_id
        ids = self.store.usage.recent_for_user(user_id, limit=200)
        wanted = (ArtifactType.WORKBOOK, ArtifactType.DOCUMENT)
        kept = [
            aid
            for aid in ids
            if self.store.has_artifact(aid)
            and self.store.artifact(aid).artifact_type in wanted
        ]
        return self._list(kept[: request.context.limit], Representation.LIST)

    @depends_on(DOMAIN_USAGE, DOMAIN_ENTITIES)
    @reads_context("limit")
    def most_viewed(self, request: ProviderRequest) -> ProviderResult:
        """Globally most-viewed artifacts, as tiles."""
        ranked = self.store.usage.most_viewed(limit=request.context.limit)
        return self._list([aid for aid, _ in ranked], Representation.TILES)

    @depends_on(DOMAIN_ENTITIES)
    @reads_context("limit")
    def newest(self, request: ProviderRequest) -> ProviderResult:
        """Most recently created artifacts."""
        ordered = sorted(
            self.store.artifacts(), key=lambda a: (-a.created_at, a.id)
        )
        ids = [a.id for a in ordered[: request.context.limit]]
        return self._list(ids, Representation.LIST)

    @depends_on(DOMAIN_USAGE, DOMAIN_ENTITIES)
    @reads_context("user_id", "limit")
    def favorites(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts the requesting user favourited."""
        user_id = request.input("user") or request.context.user_id
        ids = self.store.usage.favorites_of(user_id)
        return self._list(ids[: request.context.limit], Representation.LIST)

    # -- annotation providers ---------------------------------------------------

    @depends_on(DOMAIN_ENTITIES, DOMAIN_MEMBERSHIP)
    @reads_context()
    def owned_by(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts owned/created by the given user (id or display name)."""
        raw = request.input("user")
        if not raw:
            raise MissingInputError("owned_by", "user")
        user_id = self._resolve_user(raw)
        if user_id is None:
            return self._list([], Representation.LIST)
        ids = self.store.by_owner(user_id)
        return self._list(self._rank_by_views(ids), Representation.LIST)

    @depends_on(DOMAIN_ENTITIES)
    @reads_context()
    def of_type(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts of a given type (``type: table``)."""
        raw = request.input("artifact_type")
        if not raw:
            raise MissingInputError("of_type", "artifact_type")
        try:
            artifact_type = ArtifactType.coerce(raw)
        except ValueError:
            return self._list([], Representation.LIST)
        ids = self.store.by_type(artifact_type)
        return self._list(self._rank_by_views(ids), Representation.LIST)

    @depends_on(DOMAIN_ENTITIES)
    @reads_context()
    def types(self, request: ProviderRequest) -> ProviderResult:
        """All artifacts grouped by type (a categories overview)."""
        categories = []
        for artifact_type in ArtifactType:
            ids = self.store.by_type(artifact_type)
            if ids:
                categories.append(
                    Category(name=artifact_type.value, artifact_ids=tuple(ids))
                )
        categories.sort(key=lambda c: (-c.count, c.name))
        return ProviderResult(
            representation=Representation.CATEGORIES, categories=tuple(categories)
        )

    @depends_on(DOMAIN_ENTITIES, DOMAIN_BADGES)
    @reads_context()
    def badges(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts grouped by badge (a categories overview)."""
        categories = [
            Category(name=badge, artifact_ids=tuple(self.store.by_badge(badge)))
            for badge in self.store.badges_in_use()
        ]
        categories.sort(key=lambda c: (-c.count, c.name))
        return ProviderResult(
            representation=Representation.CATEGORIES, categories=tuple(categories)
        )

    @depends_on(DOMAIN_ENTITIES, DOMAIN_BADGES)
    @reads_context()
    def badged(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts carrying a given badge (``badged: endorsed``)."""
        badge = request.input("badge")
        if not badge:
            raise MissingInputError("badged", "badge")
        ids = self.store.by_badge(badge.lower())
        return self._list(self._rank_by_views(ids), Representation.LIST)

    @depends_on(DOMAIN_ENTITIES, DOMAIN_MEMBERSHIP, DOMAIN_BADGES)
    @reads_context()
    def badged_by(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts with any badge granted by the given user."""
        raw = request.input("user")
        if not raw:
            raise MissingInputError("badged_by", "user")
        user_id = self._resolve_user(raw)
        if user_id is None:
            return self._list([], Representation.LIST)
        ids = sorted(
            {
                aid
                for badge in self.store.badges_in_use()
                for aid in self.store.by_badge(badge, granted_by=user_id)
            }
        )
        return self._list(self._rank_by_views(ids), Representation.LIST)

    @depends_on(DOMAIN_ENTITIES)
    @reads_context()
    def tagged(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts carrying a given tag."""
        tag = request.input("text")
        if not tag:
            raise MissingInputError("tagged", "text")
        ids = self.store.by_tag(tag)
        return self._list(self._rank_by_views(ids), Representation.LIST)

    # -- team providers -------------------------------------------------------

    @depends_on(DOMAIN_USAGE, DOMAIN_MEMBERSHIP, DOMAIN_ENTITIES)
    @reads_context("team_id", "limit")
    def team_popular(self, request: ProviderRequest) -> ProviderResult:
        """Most viewed by members of a team (default: requester's team)."""
        team_id = request.input("team") or request.context.team_id
        if not team_id:
            raise MissingInputError("team_popular", "team")
        team = self._resolve_team(team_id)
        if team is None:
            return self._list([], Representation.LIST)
        members = set(team.member_ids) | set(team.admin_ids)
        counts = self.store.usage.views_by_users(members)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ids = [aid for aid, _ in ranked[: request.context.limit]]
        return self._list(ids, Representation.LIST)

    @depends_on(DOMAIN_ENTITIES, DOMAIN_MEMBERSHIP)
    @reads_context("team_id")
    def team_docs(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts belonging to a team, as tiles."""
        team_id = request.input("team") or request.context.team_id
        if not team_id:
            raise MissingInputError("team_docs", "team")
        team = self._resolve_team(team_id)
        if team is None:
            return self._list([], Representation.TILES)
        ids = self.store.by_team(team.id)
        return self._list(
            self._rank_by_views(ids), Representation.TILES
        )

    # -- relatedness providers ----------------------------------------------------

    @depends_on(DOMAIN_ENTITIES)
    @reads_context()
    def joinable(self, request: ProviderRequest) -> ProviderResult:
        """Joinability graph around an input table (Figure 3)."""
        artifact_id = request.input("artifact")
        if not artifact_id:
            raise MissingInputError("joinable", "artifact")
        if not self.store.has_artifact(artifact_id):
            return ProviderResult(representation=Representation.GRAPH)
        nodes, join_edges = self.joinability.join_graph(artifact_id, depth=1)
        edges = tuple(
            GraphEdge(
                src=e.src,
                dst=e.dst,
                label=f"{e.src_column}≈{e.dst_column}",
                weight=e.score,
            )
            for e in join_edges
        )
        return ProviderResult(
            representation=Representation.GRAPH, nodes=tuple(nodes), edges=edges
        )

    @depends_on(DOMAIN_LINEAGE, DOMAIN_ENTITIES)
    @reads_context()
    def lineage(self, request: ProviderRequest) -> ProviderResult:
        """Downstream derivation tree rooted at the input artifact (§6.2)."""
        artifact_id = request.input("artifact")
        if not artifact_id:
            raise MissingInputError("lineage", "artifact")
        if not self.store.has_artifact(artifact_id):
            return ProviderResult(representation=Representation.HIERARCHY)
        root = self._lineage_tree(artifact_id, depth=4, seen={artifact_id})
        return ProviderResult(
            representation=Representation.HIERARCHY, roots=(root,)
        )

    @depends_on(DOMAIN_LINEAGE, DOMAIN_ENTITIES)
    @reads_context()
    def lineage_graph(self, request: ProviderRequest) -> ProviderResult:
        """Lineage neighbourhood (both directions) as a graph."""
        artifact_id = request.input("artifact")
        if not artifact_id:
            raise MissingInputError("lineage_graph", "artifact")
        nodes, edges = self.store.lineage.subgraph_around(artifact_id, depth=2)
        known = [n for n in nodes if self.store.has_artifact(n)]
        known_set = set(known)
        graph_edges = tuple(
            GraphEdge(src=e.src, dst=e.dst, label=e.kind)
            for e in edges
            if e.src in known_set and e.dst in known_set
        )
        return ProviderResult(
            representation=Representation.GRAPH,
            nodes=tuple(known),
            edges=graph_edges,
        )

    @depends_on(DOMAIN_ENTITIES, DOMAIN_TEXT)
    @reads_context("limit")
    def similar(self, request: ProviderRequest) -> ProviderResult:
        """Ensemble-similar artifacts to the input artifact."""
        artifact_id = request.input("artifact")
        if not artifact_id:
            raise MissingInputError("similar", "artifact")
        if not self.store.has_artifact(artifact_id):
            return self._list([], Representation.LIST)
        hits = [
            hit
            for hit in self.similarity.similar(
                artifact_id, limit=request.context.limit
            )
            if self.store.has_artifact(hit.artifact_id)
        ]
        fields = self._fields_for([hit.artifact_id for hit in hits])
        items = tuple(
            ScoredArtifact(
                artifact_id=hit.artifact_id, score=hit.score, fields=row
            )
            for hit, row in zip(hits, fields)
        )
        return ProviderResult(representation=Representation.LIST, items=items)

    @depends_on(DOMAIN_ENTITIES, DOMAIN_TEXT)
    @reads_context()
    def embedding_map(self, request: ProviderRequest) -> ProviderResult:
        """2-D embedding of the catalog (Figure 6, embedding view)."""
        coords = self.embedding.build().all_coordinates()
        cap = min(len(coords), EMBEDDING_POINT_CAP)
        points = tuple(
            EmbeddingPoint(artifact_id=aid, x=round(x, 4), y=round(y, 4))
            for aid, (x, y) in sorted(coords.items())[:cap]
        )
        return ProviderResult(
            representation=Representation.EMBEDDING, points=points
        )

    # -- shared helpers -------------------------------------------------------------

    def _list(self, ids: list[str], representation: Representation) -> ProviderResult:
        kept = [aid for aid in ids if self.store.has_artifact(aid)]
        items = tuple(
            ScoredArtifact(artifact_id=aid, fields=fields)
            for aid, fields in zip(kept, self._fields_for(kept))
        )
        return ProviderResult(representation=representation, items=items)

    def _fields_for(self, artifact_ids: list[str]) -> list[dict[str, float]]:
        """The :data:`ITEM_FIELDS` snapshot of each id, resolved in one
        batched pass (per id equal to :meth:`FieldResolver.value`)."""
        columns = self.resolver.values_batch(artifact_ids, ITEM_FIELDS)
        return [
            dict(zip(ITEM_FIELDS, row))
            for row in zip(*(columns[field] for field in ITEM_FIELDS))
        ]

    def _rank_by_views(self, ids: list[str]) -> list[str]:
        """Order *ids* by view count (advisory) without truncating.

        The ordering is cosmetic — consumers re-rank live — but the
        *membership* of the returned list must stay a pure function of
        the endpoint's declared domains.  Truncating a views-sorted list
        to ``context.limit`` would make membership depend on usage, so
        cached results of entities-only endpoints would go stale after
        usage events; the view factory truncates after live re-ranking
        instead.
        """
        views = self.resolver.values_batch(ids, ("views",))["views"]
        ranked = sorted(zip(ids, views), key=lambda pair: (-pair[1], pair[0]))
        return [aid for aid, _ in ranked]

    def _resolve_user(self, raw: str) -> str | None:
        """Resolve a user reference: id, exact name, or unique first name."""
        if raw in {u.id for u in self.store.users()}:
            return raw
        user = self.store.find_user_by_name(raw)
        if user is not None:
            return user.id
        lowered = raw.lower()
        prefix_matches = [
            u for u in self.store.users()
            if u.name.lower().split()[0] == lowered
        ]
        if len(prefix_matches) == 1:
            return prefix_matches[0].id
        return None

    def _resolve_team(self, raw: str):
        """Resolve a team reference: id or exact name (case-insensitive)."""
        for team in self.store.teams():
            if team.id == raw or team.name.lower() == raw.lower():
                return team
        return None

    def _lineage_tree(
        self, artifact_id: str, depth: int, seen: set[str]
    ) -> HierarchyNode:
        if depth <= 0:
            return HierarchyNode(artifact_id=artifact_id)
        children = []
        for child_id in self.store.lineage.children(artifact_id):
            if child_id in seen or not self.store.has_artifact(child_id):
                continue
            seen.add(child_id)
            children.append(self._lineage_tree(child_id, depth - 1, seen))
        return HierarchyNode(artifact_id=artifact_id, children=tuple(children))


def install_builtin_endpoints(
    registry: EndpointRegistry,
    providers: BuiltinProviders,
    patchers: bool = True,
) -> list[str]:
    """Register every built-in endpoint as ``catalog://<name>``.

    *patchers=False* installs without cache delta patchers, restoring the
    pure drop-and-refetch write path — the baseline the write-path
    benchmark compares the streaming path against.

    Returns the registered URIs (sorted) for logging/tests.
    """
    uris = []
    estimators = providers.estimators()
    patch_table = providers.patchers() if patchers else {}
    for name, endpoint in providers.endpoints().items():
        uri = f"catalog://{name}"
        registry.register(
            uri,
            endpoint,
            replace=True,
            estimator=estimators.get(name),
            patcher=patch_table.get(name),
        )
        uris.append(uri)
    return sorted(uris)


def group_ids_by(
    store: CatalogStore, ids: list[str], key: str
) -> list[Category]:
    """Group artifact ids into categories by a metadata field.

    Utility for custom categorical providers (e.g. group search results by
    owner); exported because example code and tests want it too.
    """
    buckets: dict[str, list[str]] = defaultdict(list)
    for aid in ids:
        if not store.has_artifact(aid):
            continue
        artifact: Artifact = store.artifact(aid)
        raw = artifact.field(key)
        values = raw if isinstance(raw, (tuple, list)) else [raw]
        for value in values:
            if value:
                buckets[str(value)].append(aid)
    categories = [
        Category(name=name, artifact_ids=tuple(bucket))
        for name, bucket in buckets.items()
    ]
    categories.sort(key=lambda c: (-c.count, c.name))
    return categories
