"""View generation from spec + provider result (the §5.1 pipeline).

``ViewFactory.build`` is the single seam where a provider's declared
representation turns into a concrete view.  List-like payloads are ranked
with the spec's effective weights before display, so Listing 1 retunes
every generated view without code changes.

Built views are memoized inside ``build``.  An identical build — the
same result object, provider, inputs, limit and staleness — returns the
view built before, as long as the catalog's version and clock have not
moved since.  Returned views are therefore shared between callers and
must not be mutated (``View.inputs`` included).  Views ranked on a field
served by a host resolver (``FieldResolver.register``) are always built
afresh, since such a resolver may read state outside the catalog.  See
"View memo" in ``docs/execution.md``.

Every card the factory builds comes from one per-artifact card memo
that outlives writes: it follows the store's event log and drops only
the cards a write may have changed (see "Card memo" in
``docs/execution.md``), so a rebuild after a usage write re-resolves
one card, not the whole catalog.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Iterable

from repro.catalog.domains import (
    DOMAIN_BADGES,
    DOMAIN_ENTITIES,
    DOMAIN_MEMBERSHIP,
    DOMAIN_USAGE,
)
from repro.catalog.events import (
    BadgeEventRecord,
    EntitiesEventRecord,
    EventLog,
    MembershipEventRecord,
    OpaqueEventRecord,
    UsageEventRecord,
)
from repro.catalog.store import CatalogStore
from repro.core.ranking import Ranker
from repro.core.spec.model import HumboldtSpec, ProviderSpec
from repro.core.views.base import ArtifactCard, View, make_card, view_id_for
from repro.core.views.categories import CategoriesView, CategoryGroup
from repro.core.views.embedding import EmbeddingView, PlacedCard
from repro.core.views.graph import GraphView, GraphViewEdge
from repro.core.views.hierarchy import HierarchyView, TreeNode
from repro.core.views.listing import ListView, TilesView
from repro.errors import RepresentationError
from repro.obs.metrics import default_registry
from repro.providers.base import (
    HierarchyNode,
    ProviderResult,
    Representation,
)
from repro.providers.execution import CachePolicy

#: How many preview cards a category group carries.
CATEGORY_PREVIEW_SIZE = 5

#: Representations whose builders rank with the spec's weights.
_RANKED = (Representation.LIST, Representation.TILES, Representation.CATEGORIES)

#: Domains a card reads: the artifact, its badges, its owner's name and
#: its usage.  An opaque record on any of them leaves the cards
#: unexplained.
_CARD_DOMAINS = (DOMAIN_ENTITIES, DOMAIN_BADGES, DOMAIN_USAGE, DOMAIN_MEMBERSHIP)

#: ``card(artifact_id, score=None)``: the card one build shows.
_CardLookup = Callable[..., ArtifactCard]


def _clears_cards(record) -> bool:
    """Whether an event-log record may change any card: a new or renamed
    user may own cards (their owner name), and an opaque record on a
    domain cards read leaves every card unexplained."""
    if isinstance(record, MembershipEventRecord):
        return record.entity_kind == "user"
    return isinstance(record, OpaqueEventRecord) and record.domain in _CARD_DOMAINS


_MEMO_HITS = default_registry().counter(
    "views_memo_hits",
    ("representation",),
    "ViewFactory.build calls served from the view memo.",
)
_MEMO_MISSES = default_registry().counter(
    "views_memo_misses",
    ("representation",),
    "ViewFactory.build calls that built the view (memo miss or bypass).",
)


class ViewFactory:
    """Builds concrete views from provider results.

    *max_entries* bounds the view memo (least recently used out); the
    interface passes its engine's ``cache.max_entries``, so the memo
    holds about one view per cached provider result.
    """

    def __init__(
        self,
        store: CatalogStore,
        spec: HumboldtSpec,
        ranker: Ranker,
        max_entries: int = CachePolicy.max_entries,
    ):
        self.store = store
        self.spec = spec
        self.ranker = ranker
        self._weight_fields = {
            provider.name: frozenset(
                w.field for w in spec.effective_ranking(provider.name)
            )
            for provider in spec.providers
        }
        self._max_entries = max_entries
        self._lock = threading.Lock()
        # key -> (result, view).  The entry holds the result so its id,
        # part of the key, cannot be reused while the entry lives.
        self._memo: OrderedDict[tuple, tuple[ProviderResult, View]] = OrderedDict()
        # (store version, clock) the entries were built under.
        self._stamp: tuple = (-1, float("-inf"))
        # artifact id -> its unscored card, kept across writes; the
        # event-log offset the cards are current through.
        self._cards: dict[str, ArtifactCard] = {}
        self._cards_offset = 0

    def build(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        inputs: dict[str, str] | None = None,
        limit: int = 0,
        stale: bool = False,
        notice: str = "",
    ) -> View:
        """Generate the view for *provider* from *result*.

        The result's representation must match the spec's declaration —
        a mismatch means the provider violated its contract.

        *limit* caps list/tiles views to the top-*limit* cards **after**
        live re-ranking (0 = no cap).  Cached provider results carry full
        membership precisely so this truncation happens on fresh values;
        truncating inside the provider would bake usage-ranked membership
        into cache entries that don't declare a usage dependency.

        *stale* marks a view built from an expired cache entry served
        under an open breaker or exhausted deadline (the execution
        layer's stale-while-revalidate path); *notice* carries the
        human-readable reason.  Stale views are also flagged ``degraded``
        so renderers surface them.

        The view comes from the memo when this exact build already ran
        under the current catalog version and clock; the returned view
        may be shared and must not be mutated.
        """
        inputs = dict(inputs or {})
        # The stamp is read before building: a build that straddles a
        # write or a clock advance is stamped with the older state, so
        # no lookup after the write returns can be served from it.
        stamp = (self.store.version, self.store.clock.now())
        key = self._memo_key(provider, result, inputs, limit, stale, notice)
        representation = provider.representation.value
        if key is not None:
            with self._lock:
                if stamp != self._stamp:
                    if stamp > self._stamp:
                        self._memo.clear()
                        self._stamp = stamp
                else:
                    entry = self._memo.get(key)
                    if entry is not None:
                        self._memo.move_to_end(key)
                        _MEMO_HITS.labels(representation).inc()
                        return entry[1]
        _MEMO_MISSES.labels(representation).inc()
        view = self._build(provider, result, inputs, limit, stale, notice)
        if key is not None:
            with self._lock:
                if self._stamp == stamp:
                    self._memo[key] = (result, view)
                    while len(self._memo) > self._max_entries:
                        self._memo.popitem(last=False)
        return view

    def _memo_key(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        inputs: dict[str, str],
        limit: int,
        stale: bool,
        notice: str,
    ) -> tuple | None:
        """The memo key of a build, or None when it must bypass the memo.

        The result enters by identity: hashing a ``ProviderResult`` would
        walk its whole payload.
        """
        if provider.representation in _RANKED:
            fields = self._weight_fields.get(provider.name, ())
            if self.ranker.resolver.registered_any(fields):
                return None
        return (
            id(result),
            provider,
            tuple(sorted(inputs.items())),
            limit,
            stale,
            notice,
        )

    def _build(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        inputs: dict[str, str],
        limit: int,
        stale: bool,
        notice: str,
    ) -> View:
        if result.representation != provider.representation:
            raise RepresentationError(
                provider.name,
                f"spec declares {provider.representation.value!r} but the "
                f"endpoint returned {result.representation.value!r}",
            )
        result.validate(provider.name)
        card = self._card_lookup()
        common = {
            "view_id": view_id_for(provider.name, inputs),
            "provider_name": provider.name,
            "title": provider.title,
            "representation": provider.representation.value,
            "description": provider.description,
            "inputs": inputs,
            "stale": stale,
            "degraded": stale,
            "notice": notice,
        }
        rep = provider.representation
        if rep in (Representation.LIST, Representation.TILES):
            return self._build_listing(provider, result, common, card, limit)
        if rep is Representation.HIERARCHY:
            return HierarchyView(
                roots=tuple(
                    self._tree(root, card)
                    for root in result.roots
                    if self.store.has_artifact(root.artifact_id)
                ),
                **common,
            )
        if rep is Representation.GRAPH:
            return self._build_graph(result, common, card)
        if rep is Representation.CATEGORIES:
            return self._build_categories(provider, result, common, card)
        if rep is Representation.EMBEDDING:
            return EmbeddingView(
                points=tuple(
                    PlacedCard(
                        card=card(point.artifact_id),
                        x=point.x,
                        y=point.y,
                    )
                    for point in result.points
                    if self.store.has_artifact(point.artifact_id)
                ),
                **common,
            )
        raise RepresentationError(provider.name, f"unhandled representation {rep!r}")

    # -- the card memo ----------------------------------------------------------

    def cards(self, scored: Iterable[tuple[str, float]]) -> tuple[ArtifactCard, ...]:
        """The cards of ``(artifact_id, score)`` pairs, from the card memo;
        each equals ``make_card(store, artifact_id, score)``."""
        card = self._card_lookup()
        return tuple(card(artifact_id, score) for artifact_id, score in scored)

    def _card_lookup(self) -> _CardLookup:
        """Bring the card memo up to the store's event log; return the
        ``card(artifact_id, score=None)`` one build uses.

        A card made on a miss is kept only if the log has not moved since
        this sync.  A write landing meanwhile may have changed what the
        card read, and another build may already have drained its record,
        so nothing would drop the card later.  A store without an event
        log gets no memo.
        """
        store = self.store
        log = getattr(store, "events", None)
        if isinstance(log, EventLog):
            with self._lock:
                offset = self._sync_cards(log)
        else:
            log = None
        cards = self._cards

        def card(artifact_id: str, score: float | None = None) -> ArtifactCard:
            found = cards.get(artifact_id)
            if found is None:
                found = make_card(store, artifact_id)
                if log is not None:
                    with self._lock:
                        if log.offset == offset:
                            cards[artifact_id] = found
            if score is None:
                return found
            return replace(found, score=round(score, 6))

        return card

    def _sync_cards(self, log: EventLog) -> int:
        """Drop the cards the log's new records may have changed; returns
        the offset the memo is now current through.  Holds ``_lock``."""
        records, offset, truncated = log.since(self._cards_offset)
        if truncated:
            self._cards.clear()
        for record in records:
            if isinstance(record, UsageEventRecord):
                self._cards.pop(record.event.artifact_id, None)
            elif isinstance(record, (EntitiesEventRecord, BadgeEventRecord)):
                self._cards.pop(record.artifact_id, None)
            elif _clears_cards(record):
                self._cards.clear()
                break
        self._cards_offset = offset
        return offset

    # -- per-representation builders ------------------------------------------

    def _build_listing(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        common: dict,
        card: _CardLookup,
        limit: int = 0,
    ) -> View:
        weights = self.spec.effective_ranking(provider.name)
        # Deleted artifacts never become cards; dropping them before
        # ranking keeps the visible head identical to rank-all-then-filter
        # (each row's sort key is independent of the others).
        items = [
            item
            for item in result.items
            if self.store.has_artifact(item.artifact_id)
        ]
        if limit > 0:
            ranked = self.ranker.top_k_items(items, weights, limit, live=True)
        else:
            ranked = self.ranker.rank_items(items, weights, live=True)
        cards = tuple(card(entry.artifact_id, entry.score) for entry in ranked)
        if provider.representation is Representation.TILES:
            return TilesView(cards=cards, **common)
        return ListView(cards=cards, **common)

    def _build_graph(
        self, result: ProviderResult, common: dict, card: _CardLookup
    ) -> GraphView:
        cards = tuple(
            card(node)
            for node in result.nodes
            if self.store.has_artifact(node)
        )
        known = {card.artifact_id for card in cards}
        edges = tuple(
            GraphViewEdge(src=e.src, dst=e.dst, label=e.label, weight=e.weight)
            for e in result.edges
            if e.src in known and e.dst in known
        )
        return GraphView(cards=cards, edges=edges, **common)

    def _build_categories(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        common: dict,
        card: _CardLookup,
    ) -> CategoriesView:
        weights = self.spec.effective_ranking(provider.name)
        groups = []
        for category in result.categories:
            ids = [
                aid
                for aid in category.artifact_ids
                if self.store.has_artifact(aid)
            ]
            # The group keeps every id in rank order but shows only a
            # preview, so only the preview rows get cards.
            ordered = self.ranker.order(ids, weights)
            preview = tuple(
                card(aid, score) for aid, score in ordered[:CATEGORY_PREVIEW_SIZE]
            )
            groups.append(
                CategoryGroup(
                    name=category.name,
                    total=len(ids),
                    preview=preview,
                    all_ids=tuple(aid for aid, _ in ordered),
                )
            )
        return CategoriesView(groups=tuple(groups), **common)

    def _tree(self, node: HierarchyNode, card: _CardLookup) -> TreeNode:
        return TreeNode(
            card=card(node.artifact_id),
            children=tuple(
                self._tree(child, card)
                for child in node.children
                if self.store.has_artifact(child.artifact_id)
            ),
        )
