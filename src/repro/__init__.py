"""Reproduction of "Humboldt: Metadata-Driven Extensible Data Discovery"
(Bäuerle, Demiralp, Stonebraker — VLDB 2024 TaDA workshop).

Humboldt generates interactive data-discovery UIs from a declarative
specification of metadata providers.  :class:`Discovery` is the one
front door, for one catalog or many:

    with repro.Discovery.open(study_catalog()) as discovery:
        result = discovery.search("badged: endorsed")

A host embeds it through :class:`WorkbookApp`, a session host on
``app.discovery`` (register custom endpoints on ``app.registry``, then
``app.update_spec(...)`` regenerates every surface):

    app = WorkbookApp(study_catalog())
    session = app.session("user-alex")
    session.open_home()
    result = session.search('type: table owned_by: "Alex" badged: endorsed')

**Public API.**  The names in ``__all__`` below are the supported
surface: entry points (``Discovery``, ``WorkbookApp``), the catalog
substrate (``CatalogStore``), federation (``FederatedCatalog``,
``CatalogRef``), the execution layer (``ExecutionEngine``,
``ExecutionPolicy``), query parsing/explaining (``parse_query``,
``explain``) and the spec/provider vocabulary; the generated
interface is reached as ``app.interface``.  Anything imported from a
deeper module is internal and may change without notice — internal
modules carry a "Stability: internal" note in their docstrings, and
``tests/test_public_api.py`` snapshots this surface.

Package layout:

* :mod:`repro.catalog` — the enterprise-catalog substrate;
* :mod:`repro.synth` — deterministic synthetic catalogs and workloads;
* :mod:`repro.metadata` — MinHash/LSH joinability, TF-IDF similarity,
  PCA embeddings;
* :mod:`repro.providers` — the metadata-provider framework and the
  built-in provider suite (Figure 2);
* :mod:`repro.core` — the paper's contribution: spec, ranking, query
  language, view generation, interface construction;
* :mod:`repro.workbook` — the headless host application;
* :mod:`repro.federation` — multi-catalog federation and the
  :class:`Discovery` facade;
* :mod:`repro.obs` — observability: request tracing (``Tracer``,
  span-tree rendering, exporters) and the label-aware metrics registry
  every serving layer reports into;
* :mod:`repro.baselines` — hardcoded-UI and keyword-search baselines;
* :mod:`repro.study` — the simulated Section 7 user study.
"""

from repro.catalog import Artifact, ArtifactType, CatalogStore
from repro.core.query import parse_query
from repro.core.query.nlq import explain
from repro.federation import (
    CatalogRef,
    Discovery,
    FederatedCatalog,
    FederatedSearchResult,
)
from repro.core.spec import (
    HumboldtSpec,
    ProviderSpec,
    RankingWeight,
    SpecBuilder,
    Visibility,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from repro.obs import (
    JsonlExporter,
    MetricsRegistry,
    RingBufferExporter,
    Tracer,
    default_registry,
    render_span_tree,
)
from repro.providers import (
    BuiltinProviders,
    EndpointRegistry,
    ProviderRequest,
    ProviderResult,
    Representation,
    RequestContext,
    install_builtin_endpoints,
)
from repro.providers.execution import ExecutionEngine, ExecutionPolicy
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog, study_catalog
from repro.workbook import Session, WorkbookApp

__version__ = "1.0.0"

__all__ = [
    "Artifact",
    "ArtifactType",
    "BuiltinProviders",
    "CatalogRef",
    "CatalogStore",
    "Discovery",
    "EndpointRegistry",
    "ExecutionEngine",
    "ExecutionPolicy",
    "FederatedCatalog",
    "FederatedSearchResult",
    "HumboldtSpec",
    "JsonlExporter",
    "MetricsRegistry",
    "ProviderRequest",
    "ProviderResult",
    "ProviderSpec",
    "RankingWeight",
    "Representation",
    "RequestContext",
    "RingBufferExporter",
    "Session",
    "SpecBuilder",
    "SynthConfig",
    "Tracer",
    "Visibility",
    "WorkbookApp",
    "__version__",
    "default_registry",
    "default_spec",
    "explain",
    "generate_catalog",
    "install_builtin_endpoints",
    "parse_query",
    "render_span_tree",
    "spec_from_json",
    "spec_to_json",
    "study_catalog",
    "validate_spec",
]
