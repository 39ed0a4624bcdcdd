"""Metadata-provider framework.

A *metadata provider* is, per the paper, "a metadata source, typically an
API endpoint".  This package defines the contract between providers and the
Humboldt framework:

* :mod:`repro.providers.base` — typed request/response envelopes and the
  six representations (tiles, list, hierarchy, graph, categories,
  embedding);
* :mod:`repro.providers.registry` — endpoint registry resolving the
  ``endpoint`` URIs named in a Humboldt specification to callables;
* :mod:`repro.providers.execution` — the execution layer every consumer
  fetches through (caching, parallel fan-out, retry middleware, circuit
  breakers, deadline budgets, stale-while-revalidate, stats);
* :mod:`repro.providers.fields` — the metadata-field resolver ranking
  weights refer to;
* :mod:`repro.providers.builtin` — the full provider suite of Figure 2
  implemented against the catalog substrate.
"""

from repro.providers.base import (
    Category,
    EmbeddingPoint,
    GraphEdge,
    HierarchyNode,
    InputSpec,
    ProviderRequest,
    ProviderResult,
    Representation,
    RequestContext,
    ScoredArtifact,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    BreakerState,
    Deadline,
    ExecutionEngine,
    ExecutionPolicy,
    ExecutionStats,
    FetchOutcome,
    FetchStatus,
    ProviderHealth,
    request_key,
)
from repro.providers.fields import FieldResolver, RANKABLE_FIELDS
from repro.providers.registry import EndpointRegistry

__all__ = [
    "BreakerState",
    "BuiltinProviders",
    "Category",
    "Deadline",
    "EmbeddingPoint",
    "EndpointRegistry",
    "ExecutionEngine",
    "ExecutionPolicy",
    "ExecutionStats",
    "FetchOutcome",
    "FetchStatus",
    "FieldResolver",
    "ProviderHealth",
    "GraphEdge",
    "HierarchyNode",
    "InputSpec",
    "ProviderRequest",
    "ProviderResult",
    "RANKABLE_FIELDS",
    "Representation",
    "RequestContext",
    "ScoredArtifact",
    "install_builtin_endpoints",
    "request_key",
]
