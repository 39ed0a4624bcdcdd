"""``Discovery`` — the supported entry point for discovery deployments.

:class:`Discovery` is the one stable front door for both shapes of
deployment, and the host application stands on it too
(:class:`~repro.workbook.app.WorkbookApp` opens one over its catalog)::

    # single catalog (in-memory, a saved JSON store, or a sqlite path)
    with repro.Discovery.open(store) as discovery:
        result = discovery.search("badged: endorsed")

    # federated: any mix of live stores and sqlite paths
    with repro.Discovery.open(members={
        "sales": "catalogs/sales.db",
        "ml": ml_store,
    }, default="sales") as discovery:
        result = discovery.search("type: table", budget_ms=250.0)
        artifact = discovery.artifact("ml:table-00042")

A single-catalog ``open(source)`` is just a one-member federation named
``main`` — bare artifact ids keep resolving exactly as before, and the
same object grows to N members without the call sites changing.  It
costs nothing over the bare evaluator: a search calls each target
member's evaluator directly at the caller's limit, one after another,
so a one-member search is that member's search.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from repro.catalog.model import Artifact
from repro.catalog.store import CatalogStore
from repro.core.spec.model import HumboldtSpec
from repro.federation.catalog import (
    FederatedCatalog,
    FederatedLineage,
    FederatedSearchResult,
)
from repro.federation.refs import CatalogRef, FederationError
from repro.providers.execution import ExecutionPolicy
from repro.util.clock import SimulationClock

#: The member name a single-catalog ``Discovery.open(source)`` uses.
DEFAULT_MEMBER = "main"


class Discovery:
    """One stable discovery surface over one or many catalogs."""

    def __init__(self, federation: FederatedCatalog):
        self.federation = federation

    @classmethod
    def open(
        cls,
        source: "CatalogStore | FederatedCatalog | str | Path | None" = None,
        *,
        members: "Mapping[str, CatalogStore | str | Path] | None" = None,
        default: str | None = None,
        spec: HumboldtSpec | None = None,
        policy: ExecutionPolicy | None = None,
        clock: SimulationClock | None = None,
    ) -> "Discovery":
        """Open a discovery surface.

        Pass exactly one of *source* (a single catalog: a live store, a
        sqlite path, or an already-built :class:`FederatedCatalog`) or
        *members* (name -> store/path, registered in mapping order).
        *default* names the member bare artifact ids resolve against
        (defaults to the first member).  Paths are opened as persistent
        catalogs owned — and closed — by the federation.
        """
        if (source is None) == (members is None):
            raise FederationError(
                "pass exactly one of `source` (single catalog) or "
                "`members` (federated deployment)"
            )
        if isinstance(source, FederatedCatalog):
            if spec is not None or policy is not None or clock is not None:
                raise FederationError(
                    "spec/policy/clock are fixed by the FederatedCatalog "
                    "passed as source"
                )
            return cls(source)
        federation = FederatedCatalog(spec=spec, policy=policy, clock=clock)
        if source is not None:
            federation.add_member(DEFAULT_MEMBER, source, default=True)
        else:
            for catalog_id, member_source in members.items():
                federation.add_member(catalog_id, member_source)
            if default is not None:
                federation.set_default(default)
        return cls(federation)

    # -- the supported surface --------------------------------------------

    def search(
        self,
        query: str,
        *,
        user_id: str = "",
        team_id: str = "",
        limit: int = 50,
        budget_ms: float | None = None,
        members: Sequence[str] | None = None,
    ) -> FederatedSearchResult:
        """Cross-catalog search; see :meth:`FederatedCatalog.search`."""
        return self.federation.search(
            query,
            user_id=user_id,
            team_id=team_id,
            limit=limit,
            budget_ms=budget_ms,
            members=members,
        )

    def artifact(self, ref: "str | CatalogRef") -> Artifact:
        """Resolve a (possibly bare) ref to its artifact."""
        return self.federation.artifact(ref)

    def has_artifact(self, ref: "str | CatalogRef") -> bool:
        return self.federation.has_artifact(ref)

    def lineage(self, ref: "str | CatalogRef", depth: int = 2) -> FederatedLineage:
        """The cross-catalog lineage neighborhood of *ref*."""
        return self.federation.lineage(ref, depth=depth)

    def members(self) -> tuple[str, ...]:
        """Registered member catalog ids, registration order."""
        return self.federation.member_ids()

    @property
    def default_member(self) -> str | None:
        return self.federation.default_id

    def render_health(self) -> str:
        """Resilience state: one member-guard line per member, then each
        member engine's endpoint table under its member id."""
        return self._render_engines(lambda engine: engine.render_health())

    def render_stats(self) -> str:
        """Execution stats, laid out like :meth:`render_health`."""
        return self._render_engines(lambda engine: engine.stats.render())

    def _render_engines(self, table) -> str:
        federation = self.federation
        guard = [f"{'member guard':<32}{'breaker':>10}{'fails':>7}{'retry s':>9}"]
        for catalog_id, row in federation.member_health().items():
            guard.append(
                f"{catalog_id:<32}{row['breaker']:>10}"
                f"{row['consecutive_failures']:>7}{row['retry_after_s']:>9.1f}"
            )
        sections = ["\n".join(guard)]
        for catalog_id in federation.member_ids():
            engine = federation.member_engine(catalog_id)
            sections.append(f"member {catalog_id}:\n{table(engine)}")
        return "\n\n".join(sections)

    def close(self) -> None:
        self.federation.close()

    def __enter__(self) -> "Discovery":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["DEFAULT_MEMBER", "Discovery"]
