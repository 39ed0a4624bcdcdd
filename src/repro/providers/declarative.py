"""Declarative endpoints: providers defined by data, not code.

Section 4.1: "Data fetching can be done using, e.g., materialized views
of a database, lookup tables, SQL statements, or ML models."  The builtin
suite covers computed providers; this module covers the other end of the
spectrum — endpoints an admin can stand up without writing a function:

* :class:`LookupEndpoint` — a curated, ordered artifact list (the
  "golden datasets" collection every data team keeps somewhere);
* :class:`RuleEndpoint` — a small predicate language over artifact
  metadata fields (the lookup-table/materialized-view analogue), e.g.
  ``[{"field": "type", "op": "eq", "value": "table"},
  {"field": "views", "op": "gte", "value": 100}]``.

Both return list results and compose with everything else: spec entry +
registry registration, and the provider appears in views and search.
"""

from __future__ import annotations

from typing import Any

from repro.catalog.domains import DOMAIN_BADGES, DOMAIN_ENTITIES, DOMAIN_USAGE
from repro.catalog.store import CatalogStore
from repro.errors import SpecError
from repro.providers.base import (
    ProviderRequest,
    ProviderResult,
    Representation,
    ScoredArtifact,
    reads_context,
)
from repro.providers.fields import FieldResolver


def _list_like(representation: "Representation | str") -> Representation:
    rep = Representation.coerce(representation)
    if rep not in (Representation.LIST, Representation.TILES):
        raise SpecError(
            f"declarative endpoints serve list-like data; got {rep.value!r}"
        )
    return rep


@reads_context("limit")
class LookupEndpoint:
    """A curated artifact list, served in its curated order."""

    def __init__(
        self,
        store: CatalogStore,
        artifact_ids: list[str],
        representation: "Representation | str" = Representation.LIST,
    ):
        self.store = store
        self._ids = list(artifact_ids)
        self.representation = _list_like(representation)
        # Membership is the curated list filtered to live artifacts, so
        # only entity churn can change it — truncation below happens in
        # curated order, which no usage event can reorder.  (``add``/
        # ``remove`` edits are out-of-band endpoint mutations, bounded by
        # the cache TTL.)
        self.__metadata_domains__ = frozenset({DOMAIN_ENTITIES})

    @property
    def artifact_ids(self) -> list[str]:
        return list(self._ids)

    def add(self, artifact_id: str) -> None:
        """Append to the collection (curation is an ongoing activity)."""
        if artifact_id not in self._ids:
            self._ids.append(artifact_id)

    def remove(self, artifact_id: str) -> None:
        if artifact_id in self._ids:
            self._ids.remove(artifact_id)

    def __call__(self, request: ProviderRequest) -> ProviderResult:
        items = tuple(
            ScoredArtifact(artifact_id=aid,
                           score=float(len(self._ids) - position))
            for position, aid in enumerate(self._ids)
            if self.store.has_artifact(aid)
        )
        return ProviderResult(
            representation=self.representation,
            items=items[: request.context.limit],
        )


#: op name -> binary predicate over (artifact value, rule value).
_OPS = {
    "eq": lambda actual, wanted: _norm(actual) == _norm(wanted),
    "ne": lambda actual, wanted: _norm(actual) != _norm(wanted),
    "contains": lambda actual, wanted: str(wanted).lower()
    in str(actual).lower(),
    "in": lambda actual, wanted: _norm(actual) in [_norm(w) for w in wanted],
    "gte": lambda actual, wanted: _as_float(actual) >= float(wanted),
    "lte": lambda actual, wanted: _as_float(actual) <= float(wanted),
    "gt": lambda actual, wanted: _as_float(actual) > float(wanted),
    "lt": lambda actual, wanted: _as_float(actual) < float(wanted),
}

#: fields served by the usage resolver rather than the artifact record.
_RESOLVER_FIELDS = frozenset(
    {"views", "opens", "edits", "favorite", "unique_viewers", "recency",
     "freshness", "badge_count", "endorsed", "certified", "deprecated"}
)

#: the subset of resolver fields whose values come from the usage log; a
#: rule predicate over one of these makes the endpoint's membership
#: usage-dependent (the rest derive from the artifact record itself).
_USAGE_FIELDS = frozenset(
    {"views", "opens", "edits", "favorite", "unique_viewers", "recency"}
)

#: fields read from an artifact's badges; a badge grant bumps only the
#: ``badges`` domain, which an ``entities`` declaration does not cover.
_BADGE_FIELDS = frozenset(
    {"badges", "badge_count", "endorsed", "certified", "deprecated"}
)


def _norm(value: Any) -> Any:
    return value.lower() if isinstance(value, str) else value


def _as_float(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


@reads_context()  # rules see artifact metadata only; never truncated
class RuleEndpoint:
    """Artifacts matching every rule in a config-defined conjunction.

    Rules are plain dicts — serialisable next to the spec — of the form
    ``{"field": <name>, "op": <op>, "value": <literal>}``.  Fields are
    resolved through :meth:`Artifact.field` for annotations and through
    the :class:`FieldResolver` for usage-derived numbers, so a rule like
    ``views >= 100`` works without the admin touching Python.
    """

    def __init__(
        self,
        store: CatalogStore,
        rules: list[dict[str, Any]],
        representation: "Representation | str" = Representation.LIST,
    ):
        self.store = store
        self.resolver = FieldResolver(store)
        self.representation = _list_like(representation)
        self.rules = [self._validate_rule(rule) for rule in rules]
        if not self.rules:
            raise SpecError("a RuleEndpoint needs at least one rule")
        # Membership is exactly the set of predicate matches (results are
        # never truncated below it), so the declaration needs ``usage``
        # or ``badges`` only when a rule predicate reads such a field.
        domains = {DOMAIN_ENTITIES}
        fields = {rule["field"] for rule in self.rules}
        if fields & _USAGE_FIELDS:
            domains.add(DOMAIN_USAGE)
        if fields & _BADGE_FIELDS:
            domains.add(DOMAIN_BADGES)
        self.__metadata_domains__ = frozenset(domains)

    @staticmethod
    def _validate_rule(rule: dict[str, Any]) -> dict[str, Any]:
        missing = {"field", "op", "value"} - set(rule)
        if missing:
            raise SpecError(f"rule {rule!r} is missing {sorted(missing)}")
        if rule["op"] not in _OPS:
            raise SpecError(
                f"rule {rule!r}: unknown op {rule['op']!r}; expected one of "
                f"{sorted(_OPS)}"
            )
        return dict(rule)

    def _field_value(self, artifact_id: str, field: str) -> Any:
        if field in _RESOLVER_FIELDS:
            return self.resolver.value(artifact_id, field)
        artifact = self.store.artifact(artifact_id)
        return artifact.field(field)

    def _matches(self, artifact_id: str) -> bool:
        for rule in self.rules:
            actual = self._field_value(artifact_id, rule["field"])
            predicate = _OPS[rule["op"]]
            if isinstance(actual, (tuple, list)):
                # multi-valued fields (tags, badges) match if any element does
                if not any(predicate(item, rule["value"]) for item in actual):
                    return False
            elif not predicate(actual, rule["value"]):
                return False
        return True

    def __call__(self, request: ProviderRequest) -> ProviderResult:
        items = []
        for artifact in self.store.artifacts():
            if self._matches(artifact.id):
                items.append(
                    ScoredArtifact(
                        artifact_id=artifact.id,
                        score=self.resolver.value(artifact.id, "views"),
                    )
                )
        items.sort(key=lambda i: (-i.score, i.artifact_id))
        # Full membership, views order advisory only: truncating the
        # views-sorted list here would make membership usage-dependent
        # even when no rule reads a usage field, going stale in the cache
        # after usage events the declaration does not cover.  Consumers
        # truncate after re-ranking live.
        return ProviderResult(
            representation=self.representation,
            items=tuple(items),
        )
