"""View generation from spec + provider result (the §5.1 pipeline).

``ViewFactory.build`` is the single seam where a provider's declared
representation turns into a concrete view.  List-like payloads are ranked
with the spec's effective weights before display, so Listing 1 retunes
every generated view without code changes.

Built views are memoized inside ``build``, per entry.  An identical
build — the same result object, provider, inputs, limit and staleness —
returns the view built before while the catalog's version and clock
have not moved.  When only the version moved, the entry follows the
store's event log: a view naming none of the artifacts the new records
touch is served as it is, one naming some of them is patched (only the
touched rows are re-derived), and a record the memo cannot follow drops
the entry.  Returned views are therefore shared between callers and
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

import heapq
import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import replace
from typing import Callable, Iterable, NamedTuple

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
from repro.core.ranking import Ranker, SortKey
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
from repro.providers.execution import CACHE_MAX_ENTRIES

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


def _touched(records) -> set[str] | None:
    """The artifact ids whose cards or ranking keys event-log *records*
    may have changed; None when they may have changed any artifact's.

    Usage, badge and entities records name their artifact.  A new or
    renamed user may own cards (their owner name), and an opaque record
    on a domain cards read leaves every card unexplained.  Lineage and
    team records change neither cards nor ranking fields.
    """
    touched: set[str] = set()
    for record in records:
        if isinstance(record, UsageEventRecord):
            touched.add(record.event.artifact_id)
        elif isinstance(record, (EntitiesEventRecord, BadgeEventRecord)):
            touched.add(record.artifact_id)
        elif isinstance(record, MembershipEventRecord):
            if record.entity_kind == "user":
                return None
        elif isinstance(record, OpaqueEventRecord):
            if record.domain in _CARD_DOMAINS:
                return None
    return touched


class _Entry(NamedTuple):
    """One memoized view and what it is current as of."""

    #: The result the view shows, held weakly: once the engine lets it
    #: go, no build can name it again, and its id (part of the memo key)
    #: may be reused by another object.
    result: weakref.ref
    view: View
    #: (store version, clock) read before the view was built or patched.
    stamp: tuple
    #: The event-log offset read before it (None: the store has no log).
    offset: int | None
    #: Ranked views' sort keys (see ``Ranker.item_keys``), one per shown
    #: row, the index being the row's position in the result: a list for
    #: list and tiles views, one sorted list per group for categories.
    ranks: object
    #: Every artifact id the result names, shown or not; filled in when
    #: a write first makes the entry look.
    ids: frozenset[str] | None = None


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
_MEMO_PATCHES = default_registry().counter(
    "views_memo_patches",
    ("representation",),
    "ViewFactory.build calls served by patching a memoized view's "
    "touched rows after a write.",
)


class ViewFactory:
    """Builds concrete views from provider results.

    The view memo drops its least recently used entries beyond the
    engine's result-cache bound, so it holds about one view per cached
    provider result.
    """

    def __init__(self, store: CatalogStore, spec: HumboldtSpec, ranker: Ranker):
        self.store = store
        self.spec = spec
        self.ranker = ranker
        self._weight_fields = {
            provider.name: frozenset(
                w.field for w in spec.effective_ranking(provider.name)
            )
            for provider in spec.providers
        }
        self._lock = threading.Lock()
        self._memo: OrderedDict[tuple, _Entry] = OrderedDict()
        # Keys of entries whose result was collected, appended by the
        # results' weakref callbacks (which may run on any thread, so
        # they take no lock) and dropped at the next insert.
        self._dead: deque[tuple] = deque()
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

        The view comes from the memo when this exact build already ran;
        the returned view may be shared and must not be mutated.
        """
        inputs = dict(inputs or {})
        # The stamp is read before building: a build that straddles a
        # write or a clock advance is stamped with the older state, so
        # the first lookup after the write re-reads the write's record.
        stamp = (self.store.version, self.store.clock.now())
        key = self._memo_key(provider, result, inputs, limit, stale, notice)
        representation = provider.representation.value
        entry = None
        if key is not None:
            with self._lock:
                entry = self._memo.get(key)
                if entry is not None and entry.result() is not result:
                    entry = None  # a collected result's id, reused
                if entry is not None and entry.stamp == stamp:
                    self._memo.move_to_end(key)
                    _MEMO_HITS.labels(representation).inc()
                    return entry.view
        log = self._log()
        fresh = None
        if entry is not None:
            fresh = self._follow(provider, entry, result, stamp, log, limit)
        if fresh is None:
            _MEMO_MISSES.labels(representation).inc()
            offset = log.offset if log is not None else None
            view, ranks = self._build(
                provider, result, inputs, limit, stale, notice
            )
            if key is None:
                return view
            dead = self._dead
            ref = entry.result if entry is not None else weakref.ref(
                result, lambda _, key=key: dead.append(key)
            )
            fresh = _Entry(ref, view, stamp, offset, ranks)
        self._install(key, fresh, result)
        return fresh.view

    def _install(self, key: tuple, entry: _Entry, result: ProviderResult) -> None:
        """Memoize *entry* under *key*, unless the memo holds a newer one
        for the same result; drop the entries of collected results, and
        the least recently used beyond the bound."""
        with self._lock:
            while self._dead:
                gone = self._dead.popleft()
                if gone in self._memo and self._memo[gone].result() is None:
                    del self._memo[gone]
            current = self._memo.get(key)
            if (
                current is None
                or current.result() is not result
                or current.stamp <= entry.stamp
            ):
                self._memo[key] = entry
                self._memo.move_to_end(key)
                while len(self._memo) > CACHE_MAX_ENTRIES:
                    self._memo.popitem(last=False)

    def _log(self) -> EventLog | None:
        log = getattr(self.store, "events", None)
        return log if isinstance(log, EventLog) else None

    def _follow(
        self,
        provider: ProviderSpec,
        entry: _Entry,
        result: ProviderResult,
        stamp: tuple,
        log: EventLog | None,
        limit: int,
    ) -> _Entry | None:
        """*entry* brought up to *stamp* from the event log, or None when
        it must be rebuilt: no log, a clock move, a truncated log, or a
        record that may change any card.

        The entry keeps the log offset read *before* its touched rows are
        re-derived, so a write racing the patch is applied again at the
        next lookup (its version bump moves the stamp).
        """
        if (
            log is None
            or entry.offset is None
            or entry.stamp[1] != stamp[1]
            or entry.stamp[0] > stamp[0]
        ):
            return None
        records, offset, truncated = log.since(entry.offset)
        if truncated:
            return None
        touched = _touched(records)
        if touched is None:
            return None
        ids = entry.ids
        if ids is None:
            ids = frozenset(result.artifact_ids())
        entry = entry._replace(stamp=stamp, offset=offset, ids=ids)
        touched = {aid for aid in touched if aid in ids}
        representation = provider.representation.value
        if not touched:
            _MEMO_HITS.labels(representation).inc()
            return entry
        view, ranks = self._patch(provider, entry, result, touched, limit)
        _MEMO_PATCHES.labels(representation).inc()
        return entry._replace(view=view, ranks=ranks)

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
    ) -> tuple[View, object]:
        """The view built afresh, with its sort keys (``_Entry.ranks``)."""
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
        if rep is Representation.CATEGORIES:
            return self._build_categories(provider, result, common, card)
        present = self.store.has_artifact
        if rep is Representation.HIERARCHY:
            view = HierarchyView(roots=self._forest(result, card, present), **common)
        elif rep is Representation.GRAPH:
            cards = tuple(card(node) for node in result.nodes if present(node))
            view = GraphView(
                cards=cards, edges=self._edges(result, cards), **common
            )
        elif rep is Representation.EMBEDDING:
            view = EmbeddingView(
                points=tuple(
                    PlacedCard(
                        card=card(point.artifact_id),
                        x=point.x,
                        y=point.y,
                    )
                    for point in result.points
                    if present(point.artifact_id)
                ),
                **common,
            )
        else:
            raise RepresentationError(
                provider.name, f"unhandled representation {rep!r}"
            )
        return view, None

    # -- patching a memoized view ---------------------------------------------

    def _patch(
        self,
        provider: ProviderSpec,
        entry: _Entry,
        result: ProviderResult,
        touched: set[str],
        limit: int,
    ) -> tuple[View, object]:
        """*entry*'s view with the *touched* rows re-derived: their cards,
        whether their artifacts exist, and their ranking keys.  Every
        other row keeps its card and key; each equals a fresh build's."""
        card = self._card_lookup()
        rep = provider.representation
        if rep in (Representation.LIST, Representation.TILES):
            return self._patch_listing(
                provider, entry, result, touched, card, limit
            )
        if rep is Representation.CATEGORIES:
            return self._patch_categories(provider, entry, result, touched, card)
        view = entry.view
        if rep is Representation.HIERARCHY:
            # Re-walked, not swapped: a missing artifact prunes its whole
            # subtree, so presence decides which nodes are reached.
            old = {
                shown.artifact_id: shown
                for root in view.roots
                for shown in root.iter_cards()
                if shown.artifact_id not in touched
            }

            def present(aid: str) -> bool:
                return aid in old or self.store.has_artifact(aid)

            def kept(aid: str) -> ArtifactCard:
                found = old.get(aid)
                return card(aid) if found is None else found

            return replace(view, roots=self._forest(result, kept, present)), None
        if rep is Representation.GRAPH:
            cards, moved = self._swap(
                view.cards, result.nodes, touched,
                lambda shown: shown.artifact_id, lambda aid, _: card(aid),
            )
            edges = self._edges(result, cards) if moved else view.edges
            return view.patched(cards, edges), None
        points, _ = self._swap(
            view.points,
            [point.artifact_id for point in result.points],
            touched,
            lambda shown: shown.card.artifact_id,
            lambda aid, index: PlacedCard(
                card=card(aid), x=result.points[index].x,
                y=result.points[index].y,
            ),
        )
        return replace(view, points=points), None

    def _swap(
        self,
        shown: tuple,
        ids: Iterable[str],
        touched: set[str],
        shown_id: Callable,
        make: Callable,
    ) -> tuple[tuple, bool]:
        """Rows of a view that shows, in result order, one row per result
        id whose artifact exists: the *touched* rows re-made with
        ``make(artifact_id, result_index)``, the rest kept.  Also returns
        whether any touched artifact appeared or went missing.

        An untouched id exists now exactly when it did at the last build,
        and then its row is the next one shown.
        """
        rows: list = []
        moved = False
        at = 0
        for index, aid in enumerate(ids):
            was = at < len(shown) and shown_id(shown[at]) == aid
            if aid in touched:
                now = self.store.has_artifact(aid)
                moved = moved or now != was
                if now:
                    rows.append(make(aid, index))
            elif was:
                rows.append(shown[at])
            at += was
        return tuple(rows), moved

    def _patch_listing(
        self,
        provider: ProviderSpec,
        entry: _Entry,
        result: ProviderResult,
        touched: set[str],
        card: _CardLookup,
        limit: int,
    ) -> tuple[View, list[SortKey]]:
        items = result.items
        rows = [i for i, item in enumerate(items) if item.artifact_id in touched]
        keys = self._rescore(
            entry.ranks,
            rows,
            [items[i].artifact_id for i in rows],
            lambda present: self.ranker.item_keys(
                [items[i] for i in present],
                self.spec.effective_ranking(provider.name),
                live=True,
            ),
        )
        if limit > 0:
            head = heapq.nsmallest(limit, keys)
        else:
            keys.sort()
            head = keys
        cards = self._head_cards(head, entry.view.cards, touched, card)
        return replace(entry.view, cards=cards), keys

    def _patch_categories(
        self,
        provider: ProviderSpec,
        entry: _Entry,
        result: ProviderResult,
        touched: set[str],
        card: _CardLookup,
    ) -> tuple[CategoriesView, list[list[SortKey]]]:
        weights = self.spec.effective_ranking(provider.name)
        groups, ranks = [], []
        for category, group, keys in zip(
            result.categories, entry.view.groups, entry.ranks
        ):
            ids = category.artifact_ids
            rows = [i for i, aid in enumerate(ids) if aid in touched]
            if rows:
                keys = self._rescore(
                    keys,
                    rows,
                    [ids[i] for i in rows],
                    lambda present: self.ranker.id_keys(
                        [ids[i] for i in present], weights
                    ),
                )
                keys.sort()
                group = self._group(category.name, keys, card, group, touched)
            groups.append(group)
            ranks.append(keys)
        return replace(entry.view, groups=tuple(groups)), ranks

    def _rescore(
        self,
        keys: list[SortKey],
        rows: list[int],
        row_ids: list[str],
        score: Callable[[list[int]], list[SortKey]],
    ) -> list[SortKey]:
        """*keys* (unsorted) with the result rows *rows*, whose artifact
        ids are *row_ids*, re-keyed: ``score(rows)`` keys the rows whose
        artifact exists, and the others drop out."""
        dropped = set(rows)
        kept = [key for key in keys if key[2] not in dropped]
        present = [
            row for row, aid in zip(rows, row_ids) if self.store.has_artifact(aid)
        ]
        if present:
            kept += _at_rows(score(present), present)
        return kept

    @staticmethod
    def _head_cards(
        head: list[SortKey],
        shown: tuple[ArtifactCard, ...],
        touched: set[str],
        card: _CardLookup,
    ) -> tuple[ArtifactCard, ...]:
        """Scored cards for *head*, reusing the *shown* card of every
        untouched row (its card and score are unchanged)."""
        old = {
            (shown_card.artifact_id, shown_card.score): shown_card
            for shown_card in shown
            if shown_card.artifact_id not in touched
        }
        cards = []
        for negated, aid, _ in head:
            found = old.get((aid, -negated))
            cards.append(card(aid, -negated) if found is None else found)
        return tuple(cards)

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
        log = self._log()
        if log is not None:
            with self._lock:
                offset = self._sync_cards(log)
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
            return found.with_score(round(score, 6))

        return card

    def _sync_cards(self, log: EventLog) -> int:
        """Drop the cards the log's new records may have changed; returns
        the offset the memo is now current through.  Holds ``_lock``."""
        records, offset, truncated = log.since(self._cards_offset)
        touched = None if truncated else _touched(records)
        if touched is None:
            self._cards.clear()
        else:
            for artifact_id in touched:
                self._cards.pop(artifact_id, None)
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
    ) -> tuple[View, list[SortKey]]:
        weights = self.spec.effective_ranking(provider.name)
        # Deleted artifacts never become cards; dropping them before
        # ranking keeps the visible head identical to rank-all-then-filter
        # (each row's sort key is independent of the others).
        rows = [
            i
            for i, item in enumerate(result.items)
            if self.store.has_artifact(item.artifact_id)
        ]
        items = [result.items[i] for i in rows]
        keys: list[SortKey] = []
        if limit > 0:
            ranked = self.ranker.top_k_items(
                items, weights, limit, live=True, keys=keys
            )
        else:
            ranked = self.ranker.rank_items(items, weights, live=True, keys=keys)
        cards = tuple(card(entry.artifact_id, entry.score) for entry in ranked)
        view_type = (
            TilesView
            if provider.representation is Representation.TILES
            else ListView
        )
        return view_type(cards=cards, **common), _at_rows(keys, rows)

    def _edges(
        self, result: ProviderResult, cards: tuple[ArtifactCard, ...]
    ) -> tuple[GraphViewEdge, ...]:
        known = {card.artifact_id for card in cards}
        return tuple(
            GraphViewEdge(src=e.src, dst=e.dst, label=e.label, weight=e.weight)
            for e in result.edges
            if e.src in known and e.dst in known
        )

    def _build_categories(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        common: dict,
        card: _CardLookup,
    ) -> tuple[CategoriesView, list[list[SortKey]]]:
        weights = self.spec.effective_ranking(provider.name)
        groups, ranks = [], []
        for category in result.categories:
            rows = [
                i
                for i, aid in enumerate(category.artifact_ids)
                if self.store.has_artifact(aid)
            ]
            keys = _at_rows(
                self.ranker.id_keys(
                    [category.artifact_ids[i] for i in rows], weights
                ),
                rows,
            )
            keys.sort()
            groups.append(self._group(category.name, keys, card))
            ranks.append(keys)
        return CategoriesView(groups=tuple(groups), **common), ranks

    def _group(
        self,
        name: str,
        keys: list[SortKey],
        card: _CardLookup,
        shown: CategoryGroup | None = None,
        touched: set[str] = frozenset(),
    ) -> CategoryGroup:
        """A group of the ids in sorted *keys*.  It keeps every id in rank
        order but shows only a preview, so only the preview rows get
        cards (an untouched row's *shown* preview card is reused)."""
        head = keys[:CATEGORY_PREVIEW_SIZE]
        return CategoryGroup(
            name=name,
            total=len(keys),
            preview=self._head_cards(
                head, shown.preview if shown else (), touched, card
            ),
            all_ids=tuple(aid for _, aid, _ in keys),
        )

    def _forest(
        self,
        result: ProviderResult,
        card: _CardLookup,
        present: Callable[[str], bool],
    ) -> tuple[TreeNode, ...]:
        return tuple(
            self._tree(root, card, present)
            for root in result.roots
            if present(root.artifact_id)
        )

    def _tree(
        self,
        node: HierarchyNode,
        card: _CardLookup,
        present: Callable[[str], bool],
    ) -> TreeNode:
        return TreeNode(
            card=card(node.artifact_id),
            children=tuple(
                self._tree(child, card, present)
                for child in node.children
                if present(child.artifact_id)
            ),
        )


def _at_rows(keys: list[SortKey], rows: list[int]) -> list[SortKey]:
    """*keys* of the result rows *rows* (ascending), re-indexed from
    positions in *rows* to positions in the result."""
    if not rows or rows[-1] == len(rows) - 1:
        return keys  # every row is present: the positions agree
    return [(negated, aid, rows[i]) for negated, aid, i in keys]
