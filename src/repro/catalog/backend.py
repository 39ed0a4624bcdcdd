"""Storage backends for the catalog.

:class:`~repro.catalog.store.CatalogStore` is the object every provider,
planner and view is handed — but *where the bytes live* is a separate
concern.  A :class:`CatalogBackend` owns the raw state the store exposes:

* entity records (artifacts, users, teams),
* the secondary index buckets (by type, owner, badge, grantor, tag, team
  and searchable-text token),
* the usage log and the lineage graph,
* the per-domain mutation counters the invalidation layer keys on, and
* a small key/value state area (clock snapshot, ingestion fingerprints).

:class:`InMemoryBackend` is the historical dict-based implementation —
everything resident, cold-start rebuilds the world.  The SQLite backend
(:mod:`.sqlite_backend`) keeps the same contract on disk with per-domain
lazy hydration so cold-start is O(touched), not O(catalog).

Backends are an implementation detail of :mod:`repro.catalog`: nothing
outside the package may import them directly (enforced by a static-scan
test) — callers go through ``CatalogStore`` / ``CatalogStore.open``.

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Any, Iterable, Iterator, Mapping

from repro.catalog.domains import ALL_DOMAINS, DOMAIN_LINEAGE, DOMAINS
from repro.catalog.lineage import LineageGraph
from repro.catalog.model import Artifact, Team, User
from repro.catalog.usage import UsageLog

#: Secondary-index kinds every backend must maintain.  Keys are plain
#: strings the store normalises before they reach the backend (types are
#: coerced to their enum value, tags/tokens lowercased, badge+grantor
#: pairs joined with :data:`GRANTOR_SEP`).
INDEX_KINDS: tuple[str, ...] = (
    "type", "owner", "badge", "badge_grantor", "tag", "team", "token",
)

#: Separator for the composite ``badge_grantor`` key; a unit separator
#: cannot appear in badge names or user ids.
GRANTOR_SEP = "\x1f"


def grantor_key(badge: str, granted_by: str) -> str:
    """The ``badge_grantor`` bucket key for one (badge, grantor) pair."""
    return f"{badge}{GRANTOR_SEP}{granted_by}"


def index_entries(artifact: Artifact) -> Iterator[tuple[str, str]]:
    """Yield every ``(kind, key)`` bucket *artifact* belongs to.

    This is the single definition of what "indexed" means; both backends
    re-index through :func:`index_changes`, so their buckets can never
    diverge.
    """
    yield ("type", artifact.artifact_type.value)
    if artifact.owner_id:
        yield ("owner", artifact.owner_id)
    for team_id in artifact.team_ids:
        yield ("team", team_id)
    for assignment in artifact.badges:
        yield ("badge", assignment.badge)
        yield ("badge_grantor", grantor_key(assignment.badge,
                                            assignment.granted_by))
    for tag in artifact.tags:
        yield ("tag", tag.lower())
    for token in set(artifact.iter_text_tokens()):
        yield ("token", token)


def index_changes(
    previous: Artifact | None, artifact: Artifact,
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """``(removed, added)``: the buckets *artifact* leaves and joins when
    it replaces *previous* (``None`` for a new artifact).

    Buckets it stays in appear in neither set, so a badge grant touches
    only its ``badge`` and ``badge_grantor`` buckets.  Both backends
    re-index through this, on top of :func:`index_entries`.
    """
    after = set(index_entries(artifact))
    if previous is None:
        return set(), after
    before = set(index_entries(previous))
    return before - after, after - before


class CatalogBackend(ABC):
    """Abstract storage contract behind :class:`~repro.catalog.store.CatalogStore`.

    The store owns *semantics* — validation, duplicate detection, which
    domains a write touches, memoisation — and delegates *state* here.
    Implementations must be observably interchangeable: the conformance
    suite in ``tests/test_catalog_backends.py`` runs the same assertions
    (including a hypothesis interleaving property) against every backend.
    """

    # -- version counters --------------------------------------------------

    @abstractmethod
    def version(self) -> int:
        """Total write count across all domains."""

    @abstractmethod
    def domain_version(self, domain: str) -> int:
        """Write count of one domain; unknown domains raise KeyError."""

    @abstractmethod
    def domain_versions(self) -> dict[str, int]:
        """A copy of every domain's counter."""

    @abstractmethod
    def bump(self, domains: Iterable[str] = ()) -> None:
        """Record a write to *domains* (all of them when empty)."""

    @abstractmethod
    def restore_versions(self, versions: Mapping[str, int],
                         total: int | None = None) -> None:
        """Merge persisted counters in, never moving any counter backwards."""

    # -- membership --------------------------------------------------------

    @abstractmethod
    def put_user(self, user: User) -> None: ...

    @abstractmethod
    def get_user(self, user_id: str) -> User | None: ...

    @abstractmethod
    def user_ids(self) -> list[str]: ...

    @abstractmethod
    def user_count(self) -> int: ...

    @abstractmethod
    def user_ids_by_name(self, name_lower: str) -> frozenset[str]: ...

    @abstractmethod
    def put_team(self, team: Team) -> None: ...

    @abstractmethod
    def get_team(self, team_id: str) -> Team | None: ...

    @abstractmethod
    def team_ids(self) -> list[str]: ...

    @abstractmethod
    def team_count(self) -> int: ...

    # -- entities ----------------------------------------------------------

    @abstractmethod
    def put_artifact(self, artifact: Artifact) -> None:
        """Insert or replace one artifact, maintaining every index bucket."""

    @abstractmethod
    def get_artifact(self, artifact_id: str) -> Artifact | None: ...

    @abstractmethod
    def has_artifact(self, artifact_id: str) -> bool: ...

    @abstractmethod
    def artifact_ids(self) -> list[str]:
        """All artifact ids, sorted."""

    @abstractmethod
    def artifact_count(self) -> int: ...

    # -- secondary indexes -------------------------------------------------

    @abstractmethod
    def index_ids(self, kind: str, key: str) -> frozenset[str]:
        """The bucket for ``(kind, key)``; empty when unindexed."""

    @abstractmethod
    def index_size(self, kind: str, key: str) -> int:
        """Bucket size without materialising the bucket (planner path)."""

    @abstractmethod
    def index_keys(self, kind: str) -> list[str]:
        """Sorted keys of *kind* with at least one member."""

    def intersect_tokens(self, tokens: list[str]) -> list[str]:
        """Artifact ids in every token bucket, sorted.

        Backends may override with a storage-side intersection (the SQLite
        backend pushes it into one SQL query); the default hydrates the
        buckets smallest-first so the running intersection stays minimal.
        """
        if not tokens:
            return []
        ordered = sorted(tokens, key=lambda t: self.index_size("token", t))
        result: set[str] | None = None
        for token in ordered:
            ids = self.index_ids("token", token)
            result = set(ids) if result is None else result & ids
            if not result:
                return []
        return sorted(result) if result else []

    # -- usage and lineage -------------------------------------------------

    @property
    @abstractmethod
    def usage(self) -> UsageLog:
        """The usage log (API of :class:`~repro.catalog.usage.UsageLog`)."""

    @property
    @abstractmethod
    def lineage(self) -> LineageGraph:
        """The lineage graph (API of :class:`~repro.catalog.lineage.LineageGraph`)."""

    # -- state kv (clock snapshot, ingestion fingerprints) -----------------

    @abstractmethod
    def get_state(self, key: str) -> str | None: ...

    @abstractmethod
    def set_state(self, key: str, value: str) -> None: ...

    @abstractmethod
    def state_keys(self, prefix: str = "") -> list[str]: ...

    # -- lifecycle ---------------------------------------------------------

    def hydrate(self, domains: Iterable[str] = ()) -> None:
        """Make *domains* fully resident (all of them when empty).

        Full-scan paths (bulk export, ``store.artifacts()`` iteration)
        call this so lazy backends load in one bulk read instead of one
        point read per record.  No-op for resident backends.
        """

    def journal_event(self, record: object) -> None:
        """Mirror one write-ahead event record (see
        :mod:`repro.catalog.events`) into durable storage.  No-op for
        in-memory backends; the sqlite backend appends it to the
        ``catalog_events`` table inside the WAL."""

    def flush(self) -> None:
        """Persist pending writes (no-op for fully resident backends)."""

    def compact(self) -> None:
        """Reclaim storage space (no-op for fully resident backends)."""

    def close(self) -> None:
        """Flush and release resources."""
        self.flush()

    def info(self) -> dict[str, Any]:
        """Storage diagnostics for ``catalog info`` (backend-specific)."""
        return {"backend": type(self).__name__}


class InMemoryBackend(CatalogBackend):
    """The historical dict-based storage: everything resident, no disk.

    This is byte-for-byte the state layout ``CatalogStore`` used to own
    inline; it remains the default so ``CatalogStore()`` keeps its exact
    pre-refactor behaviour and cost profile.
    """

    def __init__(self) -> None:
        self._version = 0
        self._versions: dict[str, int] = {domain: 0 for domain in DOMAINS}
        self._artifacts: dict[str, Artifact] = {}
        self._users: dict[str, User] = {}
        self._teams: dict[str, Team] = {}
        self._users_by_name: dict[str, set[str]] = defaultdict(set)
        self._buckets: dict[str, dict[str, set[str]]] = {
            kind: defaultdict(set) for kind in INDEX_KINDS
        }
        self._usage = UsageLog()
        self._lineage = LineageGraph(
            on_mutate=lambda: self.bump((DOMAIN_LINEAGE,))
        )
        self._state: dict[str, str] = {}

    # -- version counters --------------------------------------------------

    def version(self) -> int:
        return self._version

    def domain_version(self, domain: str) -> int:
        return self._versions[domain]

    def domain_versions(self) -> dict[str, int]:
        return dict(self._versions)

    def bump(self, domains: Iterable[str] = ()) -> None:
        # Domain counters first, total last: a reader that sees the new
        # total then finds every domain counter it covers already moved.
        for domain in domains or ALL_DOMAINS:
            self._versions[domain] += 1
        self._version += 1

    def restore_versions(self, versions: Mapping[str, int],
                         total: int | None = None) -> None:
        for domain, counter in versions.items():
            if domain in self._versions:
                self._versions[domain] = max(self._versions[domain], counter)
        if total is not None:
            self._version = max(self._version, total)

    # -- membership --------------------------------------------------------

    def put_user(self, user: User) -> None:
        previous = self._users.get(user.id)
        if previous is not None:
            self._users_by_name[previous.name.lower()].discard(user.id)
        self._users[user.id] = user
        self._users_by_name[user.name.lower()].add(user.id)

    def get_user(self, user_id: str) -> User | None:
        return self._users.get(user_id)

    def user_ids(self) -> list[str]:
        return sorted(self._users)

    def user_count(self) -> int:
        return len(self._users)

    def user_ids_by_name(self, name_lower: str) -> frozenset[str]:
        return frozenset(self._users_by_name.get(name_lower, ()))

    def put_team(self, team: Team) -> None:
        self._teams[team.id] = team

    def get_team(self, team_id: str) -> Team | None:
        return self._teams.get(team_id)

    def team_ids(self) -> list[str]:
        return sorted(self._teams)

    def team_count(self) -> int:
        return len(self._teams)

    # -- entities ----------------------------------------------------------

    def put_artifact(self, artifact: Artifact) -> None:
        removed, added = index_changes(self._artifacts.get(artifact.id),
                                       artifact)
        for kind, key in removed:
            self._buckets[kind][key].discard(artifact.id)
        self._artifacts[artifact.id] = artifact
        for kind, key in added:
            self._buckets[kind][key].add(artifact.id)

    def get_artifact(self, artifact_id: str) -> Artifact | None:
        return self._artifacts.get(artifact_id)

    def has_artifact(self, artifact_id: str) -> bool:
        return artifact_id in self._artifacts

    def artifact_ids(self) -> list[str]:
        return sorted(self._artifacts)

    def artifact_count(self) -> int:
        return len(self._artifacts)

    # -- secondary indexes -------------------------------------------------

    def index_ids(self, kind: str, key: str) -> frozenset[str]:
        buckets = self._buckets.get(kind)
        if buckets is None:
            return frozenset()
        return frozenset(buckets.get(key, ()))

    def index_size(self, kind: str, key: str) -> int:
        buckets = self._buckets.get(kind)
        if buckets is None:
            return 0
        return len(buckets.get(key, ()))

    def index_keys(self, kind: str) -> list[str]:
        buckets = self._buckets.get(kind, {})
        return sorted(key for key, ids in buckets.items() if ids)

    def intersect_tokens(self, tokens: list[str]) -> list[str]:
        # Same semantics as the base implementation, without the frozenset
        # copies — this is the keyword-search hot path.
        if not tokens:
            return []
        buckets = self._buckets["token"]
        ordered = sorted(tokens, key=lambda t: len(buckets.get(t, ())))
        result: set[str] | None = None
        for token in ordered:
            ids = buckets.get(token, set())
            result = set(ids) if result is None else result & ids
            if not result:
                return []
        return sorted(result) if result else []

    # -- usage and lineage -------------------------------------------------

    @property
    def usage(self) -> UsageLog:
        return self._usage

    @property
    def lineage(self) -> LineageGraph:
        return self._lineage

    # -- state kv ----------------------------------------------------------

    def get_state(self, key: str) -> str | None:
        return self._state.get(key)

    def set_state(self, key: str, value: str) -> None:
        self._state[key] = value

    def state_keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._state if k.startswith(prefix))

    # -- lifecycle ---------------------------------------------------------

    def info(self) -> dict[str, Any]:
        return {
            "backend": "memory",
            "resident": True,
            "artifacts": len(self._artifacts),
            "users": len(self._users),
            "teams": len(self._teams),
            "usage_events": len(self._usage),
            "lineage_edges": self._lineage.edge_count,
        }
