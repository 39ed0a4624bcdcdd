"""The workbook application object.

Owns the catalog, the endpoint registry with the built-in provider suite
installed, and the generated discovery interface.  Hosts create sessions
per user; spec updates (e.g. a team admin reconfiguring a home page)
regenerate the interface in place, which is exactly the upgrade-free
evolution the paper claims.
"""

from __future__ import annotations

from repro.catalog.store import CatalogStore
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.interface.exploration import ExplorationEngine
from repro.core.interface.homepage import HomePageManager
from repro.core.spec.customization import Customization
from repro.core.spec.model import HumboldtSpec
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    ExecutionStats,
)
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.workbook.session import Session


class WorkbookApp:
    """A running workbook application with Humboldt embedded."""

    def __init__(
        self,
        store: CatalogStore,
        spec: HumboldtSpec | None = None,
        registry: EndpointRegistry | None = None,
        policy: ExecutionPolicy | None = None,
        engine: ExecutionEngine | None = None,
    ):
        self.store = store
        self.registry = registry or EndpointRegistry()
        self.providers = BuiltinProviders(store)
        if registry is None:
            install_builtin_endpoints(self.registry, self.providers)
        self.customization = Customization()
        # *engine* lets hosts (e.g. the load harness) hand in a
        # pre-configured execution layer — custom middlewares, a tracer,
        # an injected clock; *policy* configures a newly-built one and is
        # ignored when *engine* is given.
        self.interface = DiscoveryInterface(
            store=store,
            registry=self.registry,
            spec=spec or default_spec(),
            customization=self.customization,
            policy=policy,
            engine=engine,
        )
        self.exploration = ExplorationEngine(self.interface)
        self.home_pages = HomePageManager(self.interface)

    @property
    def spec(self) -> HumboldtSpec:
        return self.interface.spec

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
        self.interface = self.interface.with_spec(spec)
        self.exploration = ExplorationEngine(self.interface)
        self.home_pages = HomePageManager(self.interface)

    def close(self) -> None:
        """Release execution resources (joins the engine's worker pool)
        and flush the store, so sessions against a persistent catalog
        never leave usage events or badge grants unpersisted."""
        self.engine.close()
        self.store.flush()

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
