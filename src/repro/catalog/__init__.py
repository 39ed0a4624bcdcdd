"""Enterprise data-catalog substrate.

The paper evaluates Humboldt inside Sigma Workbook against Sigma's production
metadata.  This package is the open substitute: a catalog of *data artifacts*
(tables, datasets, visualizations, dashboards, workbooks, documents) with
users, teams, badges, a usage-event log and a lineage graph — everything the
paper's metadata providers draw from.
"""

from repro.catalog.ingest import Ingestor, IngestorRegistry
from repro.catalog.lineage import LineageEdge, LineageGraph
from repro.catalog.model import (
    Artifact,
    ArtifactType,
    BadgeAssignment,
    Column,
    Team,
    UsageEvent,
    User,
)
from repro.catalog.persistence import load_catalog, save_catalog
from repro.catalog.store import CatalogStore
from repro.catalog.usage import UsageLog, UsageStats

__all__ = [
    "Artifact",
    "ArtifactType",
    "BadgeAssignment",
    "CatalogStore",
    "Column",
    "Ingestor",
    "IngestorRegistry",
    "LineageEdge",
    "LineageGraph",
    "Team",
    "UsageEvent",
    "UsageLog",
    "UsageStats",
    "User",
    "load_catalog",
    "save_catalog",
]
