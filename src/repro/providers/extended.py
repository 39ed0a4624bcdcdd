"""Extended provider suite — the "configurability" story in action.

The paper expects the provider population to keep growing ("we expect
this number to only increase with automated ... metadata extraction
approaches", §3.2).  This module is that growth: four additional
providers built on the same substrate, plus ``extended_spec()`` which
derives a larger specification from the default one — exercising exactly
the evolution path the framework exists for.

Providers:

* ``unionable``   — tables union-compatible with an input table (schema
  similarity; the Das Sarma-style measure from §2);
* ``stale``       — governance view: artifacts not touched for a long
  time or carrying the ``deprecated`` badge;
* ``has_column``  — tables containing a given column name (a column-level
  discovery query);
* ``orphans``     — artifacts with no lineage at all (candidates for
  clean-up or documentation).
"""

from __future__ import annotations

from repro.catalog.domains import (
    DOMAIN_BADGES,
    DOMAIN_ENTITIES,
    DOMAIN_LINEAGE,
    DOMAIN_USAGE,
)
from repro.catalog.model import ArtifactType
from repro.catalog.store import CatalogStore
from repro.core.spec.model import HumboldtSpec, ProviderSpec, Visibility
from repro.errors import MissingInputError
from repro.metadata.similarity import SchemaSimilarity
from repro.providers.base import (
    Endpoint,
    ProviderRequest,
    ProviderResult,
    Representation,
    ScoredArtifact,
    depends_on,
    reads_context,
)
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.util.clock import DAY

#: An artifact is stale when unviewed for this long.
STALE_AFTER_DAYS = 90.0


class ExtendedProviders:
    """The extra provider endpoints."""

    def __init__(self, store: CatalogStore):
        self.store = store
        self.resolver = FieldResolver(store)
        self.schema = SchemaSimilarity(store)

    def endpoints(self) -> dict[str, Endpoint]:
        return {
            "unionable": self.unionable,
            "stale": self.stale,
            "has_column": self.has_column,
            "orphans": self.orphans,
        }

    @depends_on(DOMAIN_ENTITIES)
    @reads_context("limit")
    def unionable(self, request: ProviderRequest) -> ProviderResult:
        """Tables union-compatible with the input table (schema Jaccard)."""
        artifact_id = request.input("artifact")
        if not artifact_id:
            raise MissingInputError("unionable", "artifact")
        if not self.store.has_artifact(artifact_id):
            return ProviderResult(representation=Representation.LIST)
        hits = self.schema.similar(artifact_id, limit=request.context.limit)
        items = tuple(
            ScoredArtifact(artifact_id=hit.artifact_id, score=hit.score)
            for hit in hits
            if self.store.has_artifact(hit.artifact_id)
        )
        return ProviderResult(representation=Representation.LIST, items=items)

    @depends_on(DOMAIN_USAGE, DOMAIN_ENTITIES, DOMAIN_BADGES)
    @reads_context("limit")
    def stale(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts unviewed for STALE_AFTER_DAYS or badged deprecated.

        Membership also depends on the catalog clock: the 90-day cutoff
        moves as ``store.clock`` advances with no write bumping any
        domain counter, so a cached result can lag the clock by up to
        the engine's cache TTL (docs/execution.md, "clock-dependent
        providers").  Domain declarations only track catalog writes.
        """
        now = self.store.clock.now()
        cutoff = now - STALE_AFTER_DAYS * DAY
        items = []
        for artifact in self.store.artifacts():
            stats = self.store.usage_stats(artifact.id)
            last_touch = max(stats.last_viewed_at, artifact.created_at)
            deprecated = artifact.has_badge("deprecated")
            if deprecated or last_touch < cutoff:
                age_days = (now - last_touch) / DAY
                items.append(
                    ScoredArtifact(
                        artifact_id=artifact.id,
                        score=round(age_days + (1000.0 if deprecated else 0.0),
                                    2),
                    )
                )
        items.sort(key=lambda i: (-i.score, i.artifact_id))
        return ProviderResult(
            representation=Representation.LIST,
            items=tuple(items[: request.context.limit]),
        )

    @depends_on(DOMAIN_ENTITIES)
    @reads_context("limit")
    def has_column(self, request: ProviderRequest) -> ProviderResult:
        """Tables/datasets containing a column named like the input text."""
        wanted = request.input("text").lower()
        if not wanted:
            raise MissingInputError("has_column", "text")
        items = []
        for artifact in self.store.artifacts():
            if artifact.artifact_type not in (ArtifactType.TABLE,
                                              ArtifactType.DATASET):
                continue
            matches = [
                c.name for c in artifact.columns
                if wanted in c.name.lower()
            ]
            if matches:
                items.append(
                    ScoredArtifact(
                        artifact_id=artifact.id,
                        score=float(len(matches)),
                        fields={"matched_columns": len(matches)},
                    )
                )
        items.sort(key=lambda i: (-i.score, i.artifact_id))
        return ProviderResult(
            representation=Representation.LIST,
            items=tuple(items[: request.context.limit]),
        )

    @depends_on(DOMAIN_ENTITIES, DOMAIN_LINEAGE)
    @reads_context("limit")
    def orphans(self, request: ProviderRequest) -> ProviderResult:
        """Artifacts with no lineage edges in either direction."""
        items = []
        for artifact in self.store.artifacts():
            in_lineage = (
                self.store.lineage.parents(artifact.id)
                or self.store.lineage.children(artifact.id)
            )
            if not in_lineage:
                items.append(ScoredArtifact(artifact_id=artifact.id))
        return ProviderResult(
            representation=Representation.LIST,
            items=tuple(items[: request.context.limit]),
        )


def install_extended_endpoints(
    registry: EndpointRegistry, providers: ExtendedProviders
) -> list[str]:
    """Register the extended endpoints as ``catalog://<name>``."""
    uris = []
    for name, endpoint in providers.endpoints().items():
        uri = f"catalog://{name}"
        registry.register(uri, endpoint, replace=True)
        uris.append(uri)
    return sorted(uris)


def extended_spec() -> HumboldtSpec:
    """The default spec plus the four extended providers.

    Built by *editing* the default spec — the few-lines-of-spec workflow,
    not a parallel definition.
    """
    spec = default_spec()
    spec = spec.with_provider(ProviderSpec(
        name="unionable",
        endpoint="catalog://unionable",
        representation="list",
        category="relatedness",
        title="Unionable",
        description="Tables union-compatible with the selected table "
                    "(schema similarity).",
        inputs=(_artifact_input(),),
        visibility=Visibility(overview=False, exploration=True, search=True),
        dependencies=frozenset({DOMAIN_ENTITIES}),
    ))
    spec = spec.with_provider(ProviderSpec(
        name="stale",
        endpoint="catalog://stale",
        representation="list",
        category="governance",
        title="Stale Data",
        description="Artifacts unviewed for 90+ days or badged deprecated.",
        visibility=Visibility(overview=True, exploration=False, search=True),
        dependencies=frozenset({DOMAIN_USAGE, DOMAIN_ENTITIES, DOMAIN_BADGES}),
    ))
    spec = spec.with_provider(ProviderSpec(
        name="has_column",
        endpoint="catalog://has_column",
        representation="list",
        category="annotation",
        title="Has Column",
        description="Tables containing a column with a given name.",
        inputs=(_text_input(),),
        visibility=Visibility(overview=False, exploration=False, search=True),
        dependencies=frozenset({DOMAIN_ENTITIES}),
    ))
    spec = spec.with_provider(ProviderSpec(
        name="orphans",
        endpoint="catalog://orphans",
        representation="list",
        category="governance",
        title="Orphaned Artifacts",
        description="Artifacts with no lineage connections at all.",
        visibility=Visibility(overview=True, exploration=False, search=True),
        dependencies=frozenset({DOMAIN_ENTITIES, DOMAIN_LINEAGE}),
    ))
    return spec


def _artifact_input():
    from repro.providers.base import InputSpec

    return InputSpec(name="artifact", input_type="artifact", required=True)


def _text_input():
    from repro.providers.base import InputSpec

    return InputSpec(name="text", input_type="text", required=True)
