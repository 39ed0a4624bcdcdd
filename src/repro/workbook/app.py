"""The workbook application object.

A session host on a :class:`~repro.federation.facade.Discovery`: the app
opens its catalog as the one-member deployment ``main`` and hosts
per-user sessions on that member's generated discovery interface.  Spec
updates (e.g. a team admin reconfiguring a home page) regenerate the
interface in place, which is exactly the upgrade-free evolution the
paper claims, and ``app.discovery`` searches the regenerated interface
too.
"""

from __future__ import annotations

from repro.catalog.store import CatalogStore
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.interface.exploration import ExplorationEngine
from repro.core.interface.homepage import HomePageManager
from repro.core.spec.customization import Customization
from repro.core.spec.model import HumboldtSpec
from repro.federation.facade import DEFAULT_MEMBER, Discovery
from repro.providers.builtin import BuiltinProviders
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    ExecutionStats,
)
from repro.providers.registry import EndpointRegistry
from repro.workbook.session import Session


class WorkbookApp:
    """A running workbook application with Humboldt embedded."""

    def __init__(
        self,
        store: CatalogStore,
        spec: HumboldtSpec | None = None,
        policy: ExecutionPolicy | None = None,
    ):
        self.store = store
        self.discovery = Discovery.open(store, spec=spec, policy=policy)
        self.exploration = ExplorationEngine(self.interface)
        self.home_pages = HomePageManager(self.interface)

    @property
    def interface(self) -> DiscoveryInterface:
        """The ``main`` member's generated discovery interface."""
        return self.discovery.federation.member_interface(DEFAULT_MEMBER)

    @property
    def spec(self) -> HumboldtSpec:
        return self.interface.spec

    @property
    def registry(self) -> EndpointRegistry:
        """Register custom endpoints here, then :meth:`update_spec`."""
        return self.interface.registry

    @property
    def providers(self) -> BuiltinProviders:
        return self.discovery.federation.member_providers(DEFAULT_MEMBER)

    @property
    def customization(self) -> Customization:
        return self.interface.customization

    @property
    def engine(self) -> ExecutionEngine:
        """The provider execution layer all of this app's fetches use."""
        return self.interface.engine

    @property
    def stats(self) -> ExecutionStats:
        """Execution metrics across every session and spec version."""
        return self.interface.stats

    def update_spec(self, spec: HumboldtSpec) -> None:
        """Swap in an updated spec; the UI regenerates, no code changes."""
        self.discovery.federation.update_spec(spec)
        self.exploration = ExplorationEngine(self.interface)
        self.home_pages = HomePageManager(self.interface)

    def close(self) -> None:
        """Release execution resources (joins the engine's worker pool)
        and flush the store, so sessions against a persistent catalog
        never leave usage events or badge grants unpersisted."""
        self.discovery.close()

    def __enter__(self) -> "WorkbookApp":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def session(self, user_id: str, team_id: str = "") -> Session:
        """Open a UI session for *user_id*.

        The user's first team is the ambient team when none is given.
        """
        self.store.user(user_id)  # validate early
        if not team_id:
            teams = self.store.teams_of(user_id)
            if teams:
                team_id = teams[0].id
        return Session(app=self, user_id=user_id, team_id=team_id)
