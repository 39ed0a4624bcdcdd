"""Shared fixtures.

``tiny_store`` is a hand-built catalog with exactly known contents for
precise assertions; ``synth_store`` and ``study_app`` exercise realistic
scale.  All are deterministic.
"""

from __future__ import annotations

import pytest

from repro.catalog.model import Artifact, ArtifactType, Column, Team, User
from repro.catalog.store import CatalogStore
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog, study_catalog
from repro.util.clock import DAY, SimulationClock
from repro.workbook.app import WorkbookApp


def build_tiny_store(store: CatalogStore | None = None) -> CatalogStore:
    """Four users, two teams, six artifacts with known metadata.

    Seeds *store* when given (an empty store whose clock is 100 days past
    its epoch, e.g. a fresh sqlite catalog); else a new in-memory one.
    """
    if store is None:
        clock = SimulationClock()
        clock.advance(days=100)
        store = CatalogStore(clock=clock)
    store.add_user(User(id="u-ann", name="Ann Lee", role="analyst",
                        team_ids=("t-1",)))
    store.add_user(User(id="u-bob", name="Bob Ray", role="manager",
                        team_ids=("t-1",)))
    store.add_user(User(id="u-cyd", name="Cyd Oz", role="engineer",
                        team_ids=("t-2",)))
    store.add_user(User(id="u-dee", name="Dee Fox", role="sales",
                        team_ids=("t-2",)))
    store.add_team(Team(id="t-1", name="Alpha", admin_ids=("u-ann",),
                        member_ids=("u-ann", "u-bob")))
    store.add_team(Team(id="t-2", name="Beta", admin_ids=("u-cyd",),
                        member_ids=("u-cyd", "u-dee")))

    epoch = store.clock.epoch
    store.add_artifact(Artifact(
        id="t-orders", name="ORDERS", artifact_type=ArtifactType.TABLE,
        description="Order fact table.", owner_id="u-ann", team_ids=("t-1",),
        created_at=epoch + 10 * DAY, tags=("sales",),
        columns=(
            Column("order_id", "integer",
                   tuple(f"o-{i}" for i in range(30))),
            Column("customer_id", "integer",
                   tuple(f"c-{i}" for i in range(30))),
            Column("amount", "float"),
        ),
    ))
    store.add_artifact(Artifact(
        id="t-customers", name="CUSTOMERS", artifact_type=ArtifactType.TABLE,
        description="Customer dimension.", owner_id="u-bob", team_ids=("t-1",),
        created_at=epoch + 12 * DAY, tags=("sales", "crm"),
        columns=(
            Column("customer_id", "integer",
                   tuple(f"c-{i}" for i in range(10, 40))),
            Column("name", "string"),
        ),
    ))
    store.add_artifact(Artifact(
        id="t-web", name="WEB_LOGS", artifact_type=ArtifactType.TABLE,
        description="Raw web logs.", owner_id="u-cyd", team_ids=("t-2",),
        created_at=epoch + 20 * DAY, tags=("product",),
        columns=(
            Column("session_id", "integer",
                   tuple(f"s-{i}" for i in range(30))),
        ),
    ))
    store.add_artifact(Artifact(
        id="v-orders", name="Orders Chart",
        artifact_type=ArtifactType.VISUALIZATION,
        description="Bar chart over ORDERS.", owner_id="u-ann",
        team_ids=("t-1",), created_at=epoch + 15 * DAY, tags=("sales",),
    ))
    store.add_artifact(Artifact(
        id="d-sales", name="Sales Dashboard",
        artifact_type=ArtifactType.DASHBOARD,
        description="Embeds the orders chart.", owner_id="u-bob",
        team_ids=("t-1",), created_at=epoch + 16 * DAY, tags=("sales",),
    ))
    store.add_artifact(Artifact(
        id="w-q1", name="Q1 Analysis", artifact_type=ArtifactType.WORKBOOK,
        description="Quarterly workbook.", owner_id="u-dee",
        team_ids=("t-2",), created_at=epoch + 30 * DAY, tags=("sales",),
    ))

    store.lineage.add_edge("t-orders", "v-orders", "derives")
    store.lineage.add_edge("v-orders", "d-sales", "embeds")
    store.lineage.add_edge("t-customers", "d-sales", "derives")

    store.grant_badge("t-orders", "endorsed", "u-bob",
                      at=epoch + 11 * DAY)
    store.grant_badge("t-customers", "certified", "u-bob",
                      at=epoch + 13 * DAY)
    store.grant_badge("d-sales", "endorsed", "u-ann",
                      at=epoch + 17 * DAY)

    # Deterministic usage: ORDERS is hot, WEB_LOGS is cold.
    now = store.clock.now()
    for index in range(6):
        store.record("t-orders", "u-ann", "view", at=now - index * DAY)
    store.record("t-orders", "u-bob", "view", at=now - DAY)
    store.record("t-customers", "u-bob", "view", at=now - 2 * DAY)
    store.record("t-customers", "u-ann", "view", at=now - 4 * DAY)
    store.record("d-sales", "u-dee", "view", at=now - 3 * DAY)
    store.record("w-q1", "u-dee", "edit", at=now - DAY)
    store.record("t-orders", "u-ann", "favorite", at=now - DAY)
    return store


@pytest.fixture
def tiny_store() -> CatalogStore:
    return build_tiny_store()


@pytest.fixture
def tiny_providers(tiny_store) -> BuiltinProviders:
    return BuiltinProviders(tiny_store)


@pytest.fixture
def tiny_registry(tiny_providers) -> EndpointRegistry:
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, tiny_providers)
    return registry


@pytest.fixture
def tiny_app(tiny_store) -> WorkbookApp:
    return WorkbookApp(tiny_store)


@pytest.fixture(scope="session")
def synth_store() -> CatalogStore:
    """A mid-size generated catalog; session-scoped, treat as read-only."""
    return generate_catalog(SynthConfig(seed=7, n_tables=60,
                                        usage_events=1500))


@pytest.fixture
def study_app() -> WorkbookApp:
    return WorkbookApp(study_catalog())


@pytest.fixture
def spec():
    return default_spec()
