"""Metadata domains: the invalidation vocabulary of the catalog.

The catalog's writes are not interchangeable.  A usage event changes what
*interaction* providers (recents, most-viewed) should answer but says
nothing about ownership or lineage; a badge grant changes what badge
providers answer and nothing a type, tag or lineage provider reads.  The
execution layer's result cache keys validity on these **domains** so that
the overwhelmingly frequent write — a usage event — does not flush results
of providers that never read usage.

Each domain names one independently-versioned slice of catalog state:

``entities``
    Artifact records and their annotations (tags, types, owners, columns)
    plus the secondary indexes over them.
``badges``
    Badge grants on artifacts and the badge and grantor indexes.  A grant
    bumps only this domain: badges are in neither the searchable text
    nor the token postings, and an ``entities`` declaration does not
    cover them, so an endpoint whose membership reads badges declares
    ``badges`` itself.
``usage``
    The usage-event log and its aggregates (views, favourites, recency).
``lineage``
    The derivation graph between artifacts.
``membership``
    Users, teams and who belongs to what.
``text``
    The tokenised searchable-text index.

Providers declare the domains they read (see
:func:`repro.providers.base.depends_on`); :class:`~repro.catalog.store.
CatalogStore` bumps the matching counters on write; and the
:class:`~repro.providers.execution.ExecutionEngine` checks each cache
entry when it is read, dropping (or patching) it only when a domain its
endpoint depends on moved.
"""

from __future__ import annotations

from typing import Iterable

DOMAIN_ENTITIES = "entities"
DOMAIN_USAGE = "usage"
DOMAIN_LINEAGE = "lineage"
DOMAIN_MEMBERSHIP = "membership"
DOMAIN_TEXT = "text"
DOMAIN_BADGES = "badges"

#: Declaration order is also the display order in stats and docs.
DOMAINS: tuple[str, ...] = (
    DOMAIN_ENTITIES,
    DOMAIN_USAGE,
    DOMAIN_LINEAGE,
    DOMAIN_MEMBERSHIP,
    DOMAIN_TEXT,
    DOMAIN_BADGES,
)

ALL_DOMAINS: frozenset[str] = frozenset(DOMAINS)


def coerce_domains(domains: Iterable[str]) -> frozenset[str]:
    """Validate and freeze a dependency declaration.

    Unknown names raise immediately — a typo in a dependency declaration
    would otherwise silently widen (or worse, narrow) invalidation.
    """
    frozen = frozenset(domains)
    unknown = frozen - ALL_DOMAINS
    if unknown:
        raise ValueError(
            f"unknown metadata domain(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(ALL_DOMAINS)}"
        )
    return frozen
