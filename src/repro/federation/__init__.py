"""Federated multi-catalog discovery (ROADMAP item 5).

One discovery surface over N member catalogs: catalog-qualified
addressing (:mod:`.refs`), search as one loop over the member
evaluators with per-member degradation and rank-aware merging
(:mod:`.catalog`),
deterministic partitioning for conformance testing (:mod:`.partition`),
and the stable :class:`~repro.federation.facade.Discovery` entry point
(:mod:`.facade`).
"""

from repro.federation.catalog import (
    FETCH_LIMIT,
    CrossCatalogEdge,
    FederatedCatalog,
    FederatedEdge,
    FederatedEntry,
    FederatedLineage,
    FederatedSearchResult,
)
from repro.federation.facade import DEFAULT_MEMBER, Discovery
from repro.federation.partition import (
    CatalogPartition,
    federate,
    partition_catalog,
)
from repro.federation.refs import (
    SEPARATOR,
    CatalogRef,
    FederationError,
    UnknownCatalogError,
    parse_ref,
    validate_catalog_id,
)

__all__ = [
    "DEFAULT_MEMBER",
    "FETCH_LIMIT",
    "SEPARATOR",
    "CatalogPartition",
    "CatalogRef",
    "CrossCatalogEdge",
    "Discovery",
    "FederatedCatalog",
    "FederatedEdge",
    "FederatedEntry",
    "FederatedLineage",
    "FederatedSearchResult",
    "FederationError",
    "UnknownCatalogError",
    "federate",
    "parse_ref",
    "partition_catalog",
    "validate_catalog_id",
]
