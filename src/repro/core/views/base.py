"""View base types.

An :class:`ArtifactCard` is the display unit every view composes: the
resolved, human-readable facts about one artifact (name, type, owner,
badges, usage) plus its ranking score.  A :class:`View` is an abstract
generated view; concrete subclasses add the representation-specific
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.store import CatalogStore


@dataclass(frozen=True)
class ArtifactCard:
    """Resolved display data for one artifact."""

    artifact_id: str
    name: str
    artifact_type: str
    owner_name: str = ""
    description: str = ""
    badges: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    view_count: int = 0
    favorite_count: int = 0
    score: float = 0.0

    def with_score(self, score: float) -> "ArtifactCard":
        """This card scored *score*.  Views build one scored card per
        ranked row; the constructor costs under half of
        ``dataclasses.replace``'s generic field walk."""
        return ArtifactCard(
            self.artifact_id,
            self.name,
            self.artifact_type,
            self.owner_name,
            self.description,
            self.badges,
            self.tags,
            self.view_count,
            self.favorite_count,
            score,
        )


def make_card(
    store: CatalogStore, artifact_id: str, score: float = 0.0
) -> ArtifactCard:
    """Resolve an artifact id to a card (owner name, usage included)."""
    artifact = store.artifact(artifact_id)
    owner_name = ""
    if artifact.owner_id:
        try:
            owner_name = store.user(artifact.owner_id).name
        except KeyError:
            owner_name = artifact.owner_id
    stats = store.usage_stats(artifact_id)
    return ArtifactCard(
        artifact_id=artifact_id,
        name=artifact.name,
        artifact_type=artifact.artifact_type.value,
        owner_name=owner_name,
        description=artifact.description,
        badges=artifact.badge_names(),
        tags=artifact.tags,
        view_count=stats.view_count,
        favorite_count=stats.favorite_count,
        score=round(score, 6),
    )


@dataclass(frozen=True)
class View:
    """A generated discovery view.

    ``view_id`` is stable per (provider, inputs) so a UI can key tabs on
    it; ``provider_name`` links back to the spec entry the view was
    generated from.

    Views are shared: ``ViewFactory.build`` memoizes them and hands the
    same instance to every caller whose build matches, so a view —
    including its ``inputs`` dict — must never be mutated.  Derive a new
    view instead (:meth:`filtered`, ``dataclasses.replace``).
    """

    view_id: str
    provider_name: str
    title: str
    representation: str
    description: str = ""
    inputs: dict[str, str] = field(default_factory=dict)
    #: True when the view was built from an expired cache entry served
    #: under an open breaker or exhausted deadline (stale-while-revalidate).
    stale: bool = False
    #: True when the view's data is incomplete or old for any resilience
    #: reason; renderers surface this so users never mistake a partial
    #: view for the full picture.
    degraded: bool = False
    #: Human-readable degradation note ("circuit open; serving cached
    #: result 320s past TTL"); empty when healthy.
    notice: str = ""

    def artifact_ids(self) -> list[str]:
        """Every artifact shown by the view, display order."""
        raise NotImplementedError

    def count(self) -> int:
        return len(self.artifact_ids())

    def is_empty(self) -> bool:
        return self.count() == 0

    def filtered(self, allowed: set[str]) -> "View":
        """A copy restricted to *allowed* ids — search-over-view (§5.3)."""
        raise NotImplementedError


def view_id_for(provider_name: str, inputs: dict[str, str]) -> str:
    """Stable view identity: provider name plus sorted input bindings."""
    if not inputs:
        return provider_name
    bound = ",".join(f"{k}={v}" for k, v in sorted(inputs.items()))
    return f"{provider_name}[{bound}]"
