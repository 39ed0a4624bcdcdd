"""The ranking engine (Section 4.2, Listing 1).

"Values of metadata fields are multiplied with the ranking factor, which
results in an overall ranking score that can be combined between metadata
providers."  The engine is deliberately dumb: a weighted sum over resolved
field values plus the provider's own base score.  All tuning lives in the
spec, so retuning ranking never touches this module — the paper's point.

Every list entry point (:meth:`Ranker.top_k`, :meth:`Ranker.top_k_items`,
:meth:`Ranker.rank_items`, :meth:`Ranker.rank_ids`, :meth:`Ranker.item_keys`,
:meth:`Ranker.id_keys`) runs one kernel, ``Ranker._keys``: one
:meth:`FieldResolver.values_batch` pass, plain-float totals, and sort keys
``(-score, artifact_id, index)``.  A :class:`RankedArtifact` with its
per-field contributions is built only for the rows an entry point
returns, fully sorted or heap-selected: the head for
``top_k``/``top_k_items``, every row for ``rank_items``/``rank_ids``.
``item_keys`` and ``id_keys`` return the sort keys themselves, unsorted,
and ``top_k_items``/``rank_items`` hand them out beside the head: the
view memo keeps them, so a write re-scores only the rows it touched and
re-takes the head (``sorted``/``heapq.nsmallest`` over the keys).
:meth:`Ranker.score` stays the scalar, one-artifact path; the kernel's
scores, contributions and tie-breaks are bit-identical to it.

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.spec.model import HumboldtSpec, RankingWeight
from repro.providers.base import ScoredArtifact
from repro.providers.fields import FieldResolver

#: A row's sort key, ``(-score, artifact_id, index)``: ascending key order
#: is rank order, ties broken on the id and then the row's position.
SortKey = tuple[float, str, int]


@dataclass(frozen=True)
class RankedArtifact:
    """An artifact with its final combined score and the score breakdown."""

    artifact_id: str
    score: float
    base_score: float = 0.0
    contributions: tuple[tuple[str, float], ...] = ()


class Ranker:
    """Scores artifacts with spec-declared weights over resolved fields."""

    def __init__(self, resolver: FieldResolver):
        self.resolver = resolver

    def score(
        self,
        artifact_id: str,
        weights: Sequence[RankingWeight],
        base_score: float = 0.0,
        fields: dict[str, float] | None = None,
    ) -> RankedArtifact:
        """Score one artifact.

        *fields* is an optional pre-resolved field map (providers attach
        one to each item); missing fields fall back to the resolver.
        """
        contributions = []
        total = base_score
        for weight in weights:
            if fields is not None and weight.field in fields:
                value = float(fields[weight.field])
            else:
                value = self.resolver.value(artifact_id, weight.field)
            contribution = value * weight.weight
            total += contribution
            contributions.append((weight.field, round(contribution, 6)))
        return RankedArtifact(
            artifact_id=artifact_id,
            score=round(total, 6),
            base_score=base_score,
            contributions=tuple(contributions),
        )

    def top_k(
        self,
        artifact_ids: Iterable[str],
        weights: Sequence[RankingWeight],
        limit: int,
        base_scores: "dict[str, float] | None" = None,
    ) -> list[RankedArtifact]:
        """The top-*limit* artifacts by combined score.

        Heap-selects the head and builds score breakdowns only for it;
        ``limit <= 0`` returns no entries (the cap semantics of search).
        """
        ids = list(artifact_ids)
        if limit <= 0 or not ids:
            return []
        base_scores = base_scores or {}
        bases = [base_scores.get(aid, 0.0) for aid in ids]
        return self._ranked(ids, weights, bases, None, limit)

    def top_k_items(
        self,
        items: Iterable[ScoredArtifact],
        weights: Sequence[RankingWeight],
        limit: int,
        live: bool = False,
        keys: "list[SortKey] | None" = None,
    ) -> list[RankedArtifact]:
        """:meth:`rank_items` truncated to *limit*, heap-selected.

        ``limit <= 0`` falls back to the full sort — an uncapped caller
        needs every entry ranked anyway.  *keys*, when given, is extended
        with every row's sort key (as :meth:`item_keys` returns them).
        """
        return self._ranked_items(
            items, weights, limit if limit > 0 else None, live, keys
        )

    def rank_items(
        self,
        items: Iterable[ScoredArtifact],
        weights: Sequence[RankingWeight],
        live: bool = False,
        keys: "list[SortKey] | None" = None,
    ) -> list[RankedArtifact]:
        """Rank provider items; ties break on artifact id for determinism.

        With ``live=True``, fields the resolver serves are re-resolved
        from the catalog instead of read from the items' attached
        snapshots — provider results may come from a cache, and a view
        truncated on snapshot values would pin stale usage numbers into
        its visible head.  Snapshots still win for provider-computed
        fields the resolver cannot serve (e.g. per-item match counts).
        *keys* is as for :meth:`top_k_items`.
        """
        return self._ranked_items(items, weights, None, live, keys)

    def rank_ids(
        self, artifact_ids: Iterable[str], weights: Sequence[RankingWeight]
    ) -> list[RankedArtifact]:
        """Rank bare artifact ids, every entry with its breakdown."""
        ids = list(artifact_ids)
        return self._ranked(ids, weights, [0.0] * len(ids), None, None)

    def item_keys(
        self,
        items: Iterable[ScoredArtifact],
        weights: Sequence[RankingWeight],
        live: bool = False,
    ) -> list[SortKey]:
        """Every item's sort key, unsorted; the index is the item's
        position in *items*.  ``sorted`` of them is :meth:`rank_items`
        order, ``heapq.nsmallest(k, ...)`` the head :meth:`top_k_items`
        returns."""
        items = list(items)
        keys, _ = self._keys(
            [item.artifact_id for item in items],
            weights,
            [item.score for item in items],
            self._snapshots(items, weights, live),
        )
        return keys

    def id_keys(
        self, artifact_ids: Iterable[str], weights: Sequence[RankingWeight]
    ) -> list[SortKey]:
        """:meth:`item_keys` for bare ids (base score 0)."""
        ids = list(artifact_ids)
        keys, _ = self._keys(ids, weights, [0.0] * len(ids), None)
        return keys

    # -- the scoring kernel ---------------------------------------------------

    def _snapshots(
        self,
        items: list[ScoredArtifact],
        weights: Sequence[RankingWeight],
        live: bool,
    ) -> "list[dict[str, float]] | None":
        """The items' attached field values the kernel reads (see
        :meth:`rank_items` on *live*)."""
        # Snapshots keep only numeric, non-bool weight fields (minus the
        # live-served ones); nothing else is ever read.
        kept = [
            field
            for field in dict.fromkeys(w.field for w in weights)
            if not (live and self.resolver.serves(field))
        ]
        if not kept:
            return None
        snapshots = []
        for item in items:
            snapshot = {}
            for field in kept:
                value = item.fields.get(field)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    snapshot[field] = float(value)
            snapshots.append(snapshot)
        return snapshots

    def _ranked_items(
        self,
        items: Iterable[ScoredArtifact],
        weights: Sequence[RankingWeight],
        limit: int | None,
        live: bool,
        every: "list[SortKey] | None" = None,
    ) -> list[RankedArtifact]:
        items = list(items)
        ids = [item.artifact_id for item in items]
        bases = [item.score for item in items]
        snapshots = self._snapshots(items, weights, live)
        return self._ranked(ids, weights, bases, snapshots, limit, every)

    def _ranked(
        self,
        ids: list[str],
        weights: Sequence[RankingWeight],
        bases: list[float],
        snapshots: "list[dict[str, float]] | None",
        limit: int | None,
        every: "list[SortKey] | None" = None,
    ) -> list[RankedArtifact]:
        """The selected rows as :class:`RankedArtifact` s, breakdowns
        built for those rows only; *every* receives all rows' keys."""
        keys, columns = self._keys(ids, weights, bases, snapshots)
        if every is not None:
            every.extend(keys)
        if limit is None:
            keys.sort()
        else:
            keys = heapq.nsmallest(limit, keys)
        return [
            RankedArtifact(
                artifact_id=aid,
                score=-negated,
                base_score=bases[index],
                contributions=tuple(
                    (w.field, round(columns[w.field][index] * w.weight, 6))
                    for w in weights
                ),
            )
            for negated, aid, index in keys
        ]

    def _keys(
        self,
        ids: list[str],
        weights: Sequence[RankingWeight],
        bases: list[float],
        snapshots: "list[dict[str, float]] | None",
    ) -> tuple[list[SortKey], dict[str, list[float]]]:
        """Sort keys ``(-score, artifact_id, index)`` plus value columns.

        Every entry point ends here.  Totals accumulate ``base + v1*w1 +
        v2*w2 …`` in weight order and round to 6 places exactly like
        :meth:`score`, so scores and tie-breaks are bit-identical to it;
        the index keeps duplicate ids in input order.
        """
        columns = self._columns(
            ids, list(dict.fromkeys(w.field for w in weights)), snapshots
        )
        totals = bases
        for w in weights:
            weight = w.weight
            totals = [
                total + value * weight
                for total, value in zip(totals, columns[w.field])
            ]
        keys = [
            (-round(total, 6), aid, index)
            for index, (aid, total) in enumerate(zip(ids, totals))
        ]
        return keys, columns

    def _columns(
        self,
        ids: list[str],
        fields: list[str],
        snapshots: "list[dict[str, float]] | None",
    ) -> dict[str, list[float]]:
        """field -> value column aligned with *ids*.

        Without snapshot values this is one
        :meth:`FieldResolver.values_batch` pass.  A row whose snapshot
        holds a field is not resolved for it, as in :meth:`score` (so a
        deleted artifact carrying its snapshot value never reaches the
        resolver).
        """
        if not snapshots or not any(snapshots):
            return self.resolver.values_batch(ids, fields)
        columns = {}
        for field in fields:
            rows = [i for i, snap in enumerate(snapshots) if field not in snap]
            column = [snap.get(field, 0.0) for snap in snapshots]
            if rows:
                resolved = self.resolver.values_batch(
                    [ids[i] for i in rows], [field]
                )[field]
                for i, value in zip(rows, resolved):
                    column[i] = value
            columns[field] = column
        return columns


def combine_rankings(
    rankings: Sequence[Sequence[RankedArtifact]],
) -> list[RankedArtifact]:
    """Combine per-provider rankings into one (§4.2).

    An artifact appearing in several providers' results accumulates its
    scores — numeric ranking is exactly what makes cross-provider
    combination well-defined, which is why the paper chose it.
    """
    merged: dict[str, RankedArtifact] = {}
    for ranking in rankings:
        for entry in ranking:
            current = merged.get(entry.artifact_id)
            if current is None:
                merged[entry.artifact_id] = entry
            else:
                merged[entry.artifact_id] = RankedArtifact(
                    artifact_id=entry.artifact_id,
                    score=round(current.score + entry.score, 6),
                    base_score=current.base_score + entry.base_score,
                    contributions=current.contributions + entry.contributions,
                )
    combined = list(merged.values())
    combined.sort(key=lambda r: (-r.score, r.artifact_id))
    return combined


def effective_weights(
    spec: HumboldtSpec, provider_name: str
) -> tuple[RankingWeight, ...]:
    """Provider weights with global fallback — re-exported for callers that
    hold a spec but not the provider object."""
    return spec.effective_ranking(provider_name)
