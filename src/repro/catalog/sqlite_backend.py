"""Persistent catalog storage on stdlib :mod:`sqlite3` (WAL mode).

The backend keeps the full :class:`~repro.catalog.backend.CatalogBackend`
contract on disk and hydrates **per domain, on first touch**:

``membership``
    Users and teams load together the first time either is read or
    written (they are small and always used as a pair).
``entities``
    Artifact records load *point-wise* — ``get_artifact`` is one row
    lookup — and only full iteration hydrates the whole table.
``entities``/``text`` indexes
    Secondary indexes persist as a ``postings`` table (one row per
    ``(kind, key, artifact_id)``).  ``index_size`` is an indexed COUNT,
    bucket reads hydrate and memoise one bucket at a time, and conjunctive
    token search runs as a single SQL ``INTERSECT`` until a touched bucket
    has unflushed writes.
``usage``
    Aggregates (per-artifact stats, per-user recents) and the raw event
    log hydrate as two separate chunks, so ranking reads never pay for
    the event history and vice versa.
``lineage``
    The graph hydrates whole on first traversal (lineage queries are
    global by nature); ``edge_count`` alone stays a COUNT.

Writes land in the hydrated structures immediately and are journalled;
:meth:`SqliteBackend.flush` persists them in one transaction.  Cold-start
is therefore O(touched): opening a 200k-artifact catalog and answering a
keyword query reads a handful of rows, not the catalog.

Like every backend this module is internal to :mod:`repro.catalog` —
construct stores via ``CatalogStore.open(path)``.

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.catalog.backend import CatalogBackend, index_entries
from repro.catalog.codecs import (
    artifact_from_dict,
    artifact_to_dict,
    team_from_dict,
    team_to_dict,
    user_from_dict,
    user_to_dict,
)
from repro.catalog.domains import ALL_DOMAINS, DOMAIN_LINEAGE, DOMAINS
from repro.catalog.lineage import LineageGraph
from repro.catalog.model import Artifact, Team, UsageEvent, User
from repro.catalog.usage import UsageLog, UsageStats
from repro.errors import CatalogError
from repro.obs.metrics import default_registry

#: Per-statement query timing, labelled by SQL verb, on the process-wide
#: observability registry (``repro metrics`` exposes it).  Always on: one
#: histogram observe per statement is noise next to the statement itself.
_QUERY_TIMING = default_registry().histogram(
    "sqlite_query_ms",
    ("op",),
    "SqliteBackend statement latency by SQL verb.",
)


def _observe_query(sql: str, elapsed_ms: float) -> None:
    verb = sql.split(None, 1)[0].upper() if sql else "?"
    _QUERY_TIMING.labels(verb).observe(elapsed_ms)


#: Bump when the table layout changes; unknown versions fail loudly.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS artifacts(
    id TEXT PRIMARY KEY, data TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS users(
    id TEXT PRIMARY KEY, data TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS teams(
    id TEXT PRIMARY KEY, data TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS postings(
    kind TEXT NOT NULL, key TEXT NOT NULL, id TEXT NOT NULL,
    PRIMARY KEY(kind, key, id)) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS usage_events(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    artifact_id TEXT NOT NULL, user_id TEXT NOT NULL,
    action TEXT NOT NULL, ts REAL NOT NULL);
CREATE TABLE IF NOT EXISTS usage_stats(
    artifact_id TEXT PRIMARY KEY, data TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS user_recents(
    user_id TEXT PRIMARY KEY, data TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS lineage_edges(
    src TEXT NOT NULL, dst TEXT NOT NULL, kind TEXT NOT NULL,
    PRIMARY KEY(src, dst)) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS catalog_events(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    domain TEXT NOT NULL, kind TEXT NOT NULL, data TEXT NOT NULL);
"""


def _stats_to_dict(stats: UsageStats) -> dict[str, Any]:
    return {
        "view_count": stats.view_count,
        "edit_count": stats.edit_count,
        "open_count": stats.open_count,
        "favorite_count": stats.favorite_count,
        "last_viewed_at": stats.last_viewed_at,
        "last_edited_at": stats.last_edited_at,
        "viewers": sorted(stats.viewers),
        "favorited_by": sorted(stats.favorited_by),
    }


def _stats_from_dict(data: dict[str, Any]) -> UsageStats:
    return UsageStats(
        view_count=data.get("view_count", 0),
        edit_count=data.get("edit_count", 0),
        open_count=data.get("open_count", 0),
        favorite_count=data.get("favorite_count", 0),
        last_viewed_at=data.get("last_viewed_at", 0.0),
        last_edited_at=data.get("last_edited_at", 0.0),
        viewers=set(data.get("viewers", ())),
        favorited_by=set(data.get("favorited_by", ())),
    )


class _SqliteUsage(UsageLog):
    """Usage log hydrating its aggregate and event chunks independently."""

    def __init__(self, backend: "SqliteBackend") -> None:
        super().__init__()
        self._sql = backend
        self._stats_loaded = False
        self._events_loaded = False
        self._pending: list[UsageEvent] = []
        self._dirty_stats: set[str] = set()
        self._dirty_recents: set[str] = set()
        self._stored_events: int | None = None

    # -- hydration ---------------------------------------------------------

    def _ensure_stats(self) -> None:
        if self._stats_loaded:
            return
        with self._sql._lock:
            if self._stats_loaded:
                return
            for artifact_id, data in self._sql._execute(
                "SELECT artifact_id, data FROM usage_stats"
            ):
                self._stats[artifact_id] = _stats_from_dict(json.loads(data))
            for user_id, data in self._sql._execute(
                "SELECT user_id, data FROM user_recents"
            ):
                self._user_recents[user_id] = dict(json.loads(data))
            self._stats_loaded = True

    def _ensure_events(self) -> None:
        if self._events_loaded:
            return
        with self._sql._lock:
            if self._events_loaded:
                return
            stored = [
                UsageEvent(artifact_id, user_id, action, ts)
                for artifact_id, user_id, action, ts in self._sql._execute(
                    "SELECT artifact_id, user_id, action, ts "
                    "FROM usage_events ORDER BY seq"
                )
            ]
            self._events = stored + self._pending
            self._events_loaded = True

    def _stored_event_count(self) -> int:
        if self._stored_events is None:
            (count,) = self._sql._execute_one(
                "SELECT COUNT(*) FROM usage_events"
            )
            self._stored_events = int(count)
        return self._stored_events

    # -- overridden log API ------------------------------------------------

    def __len__(self) -> int:
        if self._events_loaded:
            return len(self._events)
        return self._stored_event_count() + len(self._pending)

    def record(self, event: UsageEvent) -> None:
        self._ensure_stats()
        self._fold(event)
        self._pending.append(event)
        if self._events_loaded:
            self._events.append(event)
        self._dirty_stats.add(event.artifact_id)
        self._dirty_recents.add(event.user_id)

    def stats(self, artifact_id: str):
        self._ensure_stats()
        return super().stats(artifact_id)

    def all_stats(self):
        self._ensure_stats()
        return super().all_stats()

    def events(self):
        self._ensure_events()
        return super().events()

    def recent_for_user(self, user_id: str, limit: int = 20) -> list[str]:
        self._ensure_stats()
        return super().recent_for_user(user_id, limit)

    def favorites_of(self, user_id: str) -> list[str]:
        self._ensure_stats()
        return super().favorites_of(user_id)

    def most_viewed(self, limit: int = 20) -> list[tuple[str, int]]:
        self._ensure_stats()
        return super().most_viewed(limit)

    def views_by_users(self, user_ids: set[str]) -> dict[str, int]:
        self._ensure_events()
        return super().views_by_users(user_ids)

    # -- persistence -------------------------------------------------------

    def _flush(self, conn: sqlite3.Connection) -> None:
        if self._pending:
            conn.executemany(
                "INSERT INTO usage_events(artifact_id, user_id, action, ts) "
                "VALUES (?, ?, ?, ?)",
                [(e.artifact_id, e.user_id, e.action, e.timestamp)
                 for e in self._pending],
            )
            if self._stored_events is not None:
                self._stored_events += len(self._pending)
            self._pending.clear()
        if self._dirty_stats:
            conn.executemany(
                "INSERT OR REPLACE INTO usage_stats(artifact_id, data) "
                "VALUES (?, ?)",
                [(aid, json.dumps(_stats_to_dict(self._stats[aid])))
                 for aid in self._dirty_stats],
            )
            self._dirty_stats.clear()
        if self._dirty_recents:
            conn.executemany(
                "INSERT OR REPLACE INTO user_recents(user_id, data) "
                "VALUES (?, ?)",
                [(uid, json.dumps(self._user_recents.get(uid, {})))
                 for uid in self._dirty_recents],
            )
            self._dirty_recents.clear()


class _SqliteLineage(LineageGraph):
    """Lineage graph hydrating whole on first traversal or edge write."""

    def __init__(self, backend: "SqliteBackend") -> None:
        self._sql = backend
        self._loaded = False
        self._pending: list[tuple[str, str, str]] = []
        super().__init__(
            on_mutate=lambda: backend.bump((DOMAIN_LINEAGE,))
        )

    # ``LineageGraph`` reads ``self._graph`` in every method; routing the
    # attribute through a property gives all of them lazy hydration
    # without overriding each one.
    @property
    def _graph(self):
        if not self._loaded:
            with self._sql._lock:
                if not self._loaded:
                    for src, dst, kind in self._sql._execute(
                        "SELECT src, dst, kind FROM lineage_edges"
                    ):
                        self._real.add_edge(src, dst, kind=kind)
                    self._loaded = True
        return self._real

    @_graph.setter
    def _graph(self, value) -> None:
        self._real = value

    @property
    def edge_count(self) -> int:
        if not self._loaded:  # unhydrated implies no unflushed edges
            (count,) = self._sql._execute_one(
                "SELECT COUNT(*) FROM lineage_edges"
            )
            return int(count)
        return self._real.number_of_edges()

    def add_edge(self, src: str, dst: str, kind: str = "derives") -> None:
        super().add_edge(src, dst, kind)
        self._pending.append((src, dst, kind))

    def _flush(self, conn: sqlite3.Connection) -> None:
        if self._pending:
            conn.executemany(
                "INSERT OR REPLACE INTO lineage_edges(src, dst, kind) "
                "VALUES (?, ?, ?)",
                self._pending,
            )
            self._pending.clear()


class SqliteBackend(CatalogBackend):
    """On-disk catalog backend; see the module docstring for the model."""

    def __init__(self, path: str | Path):
        self._path = Path(path) if path != ":memory:" else path
        self._lock = threading.RLock()
        if isinstance(self._path, Path):
            self._path.parent.mkdir(parents=True, exist_ok=True)
        # One *write* connection, guarded by the RLock.  Reads get a
        # connection per thread (see :meth:`_read_connection`): WAL lets
        # any number of readers run concurrently with one writer, so
        # parallel pool workers no longer serialise on a single shared
        # connection + lock.  ``:memory:`` databases keep the historical
        # single-connection behaviour — a second connection to
        # ``:memory:`` would open a different, empty database.
        self._conn = sqlite3.connect(str(self._path),
                                     check_same_thread=False)
        self._closed = False
        self._read_local = threading.local()
        self._read_conns: list[sqlite3.Connection] = []
        self._init_schema()
        # A catalog created this session cannot have unseen buckets on
        # disk, so misses are provably empty and skip the SELECT.
        self._fresh = not self._execute_one(
            "SELECT EXISTS(SELECT 1 FROM postings)"
        )[0]

        self._version = 0
        self._versions: dict[str, int] = {domain: 0 for domain in DOMAINS}
        self._load_versions()

        self._state: dict[str, str] = {
            key[len("state:"):]: value
            for key, value in self._execute(
                "SELECT key, value FROM meta WHERE key LIKE 'state:%'"
            )
        }
        self._dirty_state: set[str] = set()

        # membership (coarse)
        self._membership_loaded = False
        self._users: dict[str, User] = {}
        self._teams: dict[str, Team] = {}
        self._users_by_name: dict[str, set[str]] = {}
        self._dirty_users: set[str] = set()
        self._dirty_teams: set[str] = set()

        # entities (point-wise with full-iteration fallback)
        self._entities_loaded = False
        self._artifacts: dict[str, Artifact] = {}
        self._dirty_artifacts: set[str] = set()
        self._added_ids: set[str] = set()  # new since open (session-lifetime)
        self._stored_ids: list[str] | None = None
        self._stored_count: int | None = None
        self._ids_memo: list[str] | None = None

        # index buckets (bucket-wise)
        self._bucket_memo: dict[tuple[str, str], set[str]] = {}
        self._dirty_buckets: set[tuple[str, str]] = set()
        self._size_memo: dict[tuple[str, str], int] = {}

        # write-ahead event mirror (streaming write path)
        self._pending_journal: list[tuple[str, str, str]] = []

        self._usage = _SqliteUsage(self)
        self._lineage = _SqliteLineage(self)

    # -- connection plumbing -----------------------------------------------

    def _init_schema(self) -> None:
        (schema_version,) = self._conn.execute(
            "PRAGMA user_version"
        ).fetchone()
        if schema_version not in (0, SCHEMA_VERSION):
            self._conn.close()
            raise CatalogError(
                f"unsupported catalog database schema version "
                f"{schema_version}; this build reads version "
                f"{SCHEMA_VERSION} — refusing to guess at the layout"
            )
        with self._conn:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            if schema_version == 0:
                self._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")

    def _read_connection(self) -> "sqlite3.Connection | None":
        """This thread's read-only connection (None for ``:memory:``).

        Lazily opened per thread and registered with the backend so
        :meth:`close` can release every connection.  ``query_only`` makes
        accidental writes through a read connection fail loudly — all
        writes belong to the write connection under the backend lock.
        """
        if not isinstance(self._path, Path):
            return None
        conn = getattr(self._read_local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(str(self._path), check_same_thread=False)
            conn.execute("PRAGMA query_only=ON")
            with self._lock:
                if self._closed:
                    conn.close()
                    raise CatalogError("catalog database is closed")
                self._read_conns.append(conn)
            self._read_local.conn = conn
        return conn

    def _execute(self, sql: str, params: tuple = ()) -> list[tuple]:
        started = time.perf_counter()
        try:
            read = self._read_connection()
            if read is None:
                with self._lock:
                    return self._conn.execute(sql, params).fetchall()
            return read.execute(sql, params).fetchall()
        finally:
            _observe_query(sql, (time.perf_counter() - started) * 1000.0)

    def _execute_one(self, sql: str, params: tuple = ()) -> tuple:
        started = time.perf_counter()
        try:
            read = self._read_connection()
            if read is None:
                with self._lock:
                    return self._conn.execute(sql, params).fetchone()
            return read.execute(sql, params).fetchone()
        finally:
            _observe_query(sql, (time.perf_counter() - started) * 1000.0)

    # -- version counters --------------------------------------------------

    def _load_versions(self) -> None:
        row = self._execute_one(
            "SELECT value FROM meta WHERE key='versions'"
        )
        if row is None:
            return
        stored = json.loads(row[0])
        self._version = int(stored.get("__total__", 0))
        for domain in DOMAINS:
            self._versions[domain] = int(stored.get(domain, 0))

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

    def _ensure_membership(self) -> None:
        if self._membership_loaded:
            return
        with self._lock:
            if self._membership_loaded:
                return
            for (data,) in self._execute("SELECT data FROM users"):
                user = user_from_dict(json.loads(data))
                self._users[user.id] = user
                self._users_by_name.setdefault(
                    user.name.lower(), set()
                ).add(user.id)
            for (data,) in self._execute("SELECT data FROM teams"):
                team = team_from_dict(json.loads(data))
                self._teams[team.id] = team
            self._membership_loaded = True

    def put_user(self, user: User) -> None:
        self._ensure_membership()
        previous = self._users.get(user.id)
        if previous is not None:
            names = self._users_by_name.get(previous.name.lower())
            if names is not None:
                names.discard(user.id)
        self._users[user.id] = user
        self._users_by_name.setdefault(user.name.lower(), set()).add(user.id)
        self._dirty_users.add(user.id)

    def get_user(self, user_id: str) -> User | None:
        self._ensure_membership()
        return self._users.get(user_id)

    def user_ids(self) -> list[str]:
        self._ensure_membership()
        return sorted(self._users)

    def user_count(self) -> int:
        if not self._membership_loaded:
            return int(self._execute_one("SELECT COUNT(*) FROM users")[0])
        return len(self._users)

    def user_ids_by_name(self, name_lower: str) -> frozenset[str]:
        self._ensure_membership()
        return frozenset(self._users_by_name.get(name_lower, ()))

    def put_team(self, team: Team) -> None:
        self._ensure_membership()
        self._teams[team.id] = team
        self._dirty_teams.add(team.id)

    def get_team(self, team_id: str) -> Team | None:
        self._ensure_membership()
        return self._teams.get(team_id)

    def team_ids(self) -> list[str]:
        self._ensure_membership()
        return sorted(self._teams)

    def team_count(self) -> int:
        if not self._membership_loaded:
            return int(self._execute_one("SELECT COUNT(*) FROM teams")[0])
        return len(self._teams)

    # -- entities ----------------------------------------------------------

    def _ensure_entities(self) -> None:
        if self._entities_loaded:
            return
        with self._lock:
            if self._entities_loaded:
                return
            for artifact_id, data in self._execute(
                "SELECT id, data FROM artifacts"
            ):
                # The overlay cache may hold a newer unflushed revision.
                if artifact_id not in self._artifacts:
                    self._artifacts[artifact_id] = artifact_from_dict(
                        json.loads(data)
                    )
            self._entities_loaded = True

    def put_artifact(self, artifact: Artifact) -> None:
        with self._lock:
            previous = self.get_artifact(artifact.id)
            if previous is not None:
                for kind, key in index_entries(previous):
                    self._mutate_bucket(kind, key, previous.id, add=False)
            elif not self._entities_loaded:
                self._added_ids.add(artifact.id)
            self._artifacts[artifact.id] = artifact
            self._dirty_artifacts.add(artifact.id)
            self._ids_memo = None
            for kind, key in index_entries(artifact):
                self._mutate_bucket(kind, key, artifact.id, add=True)

    def get_artifact(self, artifact_id: str) -> Artifact | None:
        cached = self._artifacts.get(artifact_id)
        if cached is not None or self._entities_loaded:
            return cached
        row = self._execute_one(
            "SELECT data FROM artifacts WHERE id=?", (artifact_id,)
        )
        if row is None:
            return None
        artifact = artifact_from_dict(json.loads(row[0]))
        with self._lock:
            self._artifacts.setdefault(artifact_id, artifact)
        return self._artifacts[artifact_id]

    def has_artifact(self, artifact_id: str) -> bool:
        if artifact_id in self._artifacts:
            return True
        if self._entities_loaded:
            return False
        return self._execute_one(
            "SELECT EXISTS(SELECT 1 FROM artifacts WHERE id=?)",
            (artifact_id,),
        )[0] == 1

    def artifact_ids(self) -> list[str]:
        if self._entities_loaded:
            return sorted(self._artifacts)
        if self._ids_memo is None:
            if self._stored_ids is None:
                self._stored_ids = [
                    row[0] for row in
                    self._execute("SELECT id FROM artifacts ORDER BY id")
                ]
            self._ids_memo = sorted(set(self._stored_ids)
                                    | self._added_ids)
        return list(self._ids_memo)

    def artifact_count(self) -> int:
        if self._entities_loaded:
            return len(self._artifacts)
        if self._stored_count is None:
            self._stored_count = int(
                self._execute_one("SELECT COUNT(*) FROM artifacts")[0]
            )
        return self._stored_count + len(self._added_ids)

    # -- secondary indexes -------------------------------------------------

    def _bucket(self, kind: str, key: str) -> set[str]:
        bucket = self._bucket_memo.get((kind, key))
        if bucket is not None:
            return bucket
        # Hydrate outside the lock so concurrent readers pulling different
        # buckets overlap their SELECTs; setdefault under the lock keeps
        # exactly one winner (and never clobbers a bucket a writer already
        # hydrated and mutated while our SELECT was running).
        if self._fresh:
            loaded: set[str] = set()
        else:
            loaded = {
                row[0] for row in self._execute(
                    "SELECT id FROM postings WHERE kind=? AND key=?",
                    (kind, key),
                )
            }
        with self._lock:
            return self._bucket_memo.setdefault((kind, key), loaded)

    def _mutate_bucket(self, kind: str, key: str, artifact_id: str,
                       add: bool) -> None:
        bucket = self._bucket(kind, key)
        if add:
            bucket.add(artifact_id)
        else:
            bucket.discard(artifact_id)
        self._dirty_buckets.add((kind, key))
        self._size_memo.pop((kind, key), None)

    def index_ids(self, kind: str, key: str) -> frozenset[str]:
        return frozenset(self._bucket(kind, key))

    def index_size(self, kind: str, key: str) -> int:
        bucket = self._bucket_memo.get((kind, key))
        if bucket is not None:
            return len(bucket)
        size = self._size_memo.get((kind, key))
        if size is not None:
            return size
        if self._fresh:
            size = 0
        else:
            size = int(self._execute_one(
                "SELECT COUNT(*) FROM postings WHERE kind=? AND key=?",
                (kind, key),
            )[0])
        self._size_memo[(kind, key)] = size
        return size

    def index_keys(self, kind: str) -> list[str]:
        keys: set[str] = set()
        if not self._fresh:
            keys.update(
                row[0] for row in self._execute(
                    "SELECT DISTINCT key FROM postings WHERE kind=?",
                    (kind,),
                )
            )
        # Hydrated buckets are the truth for their keys (unflushed writes).
        for (bucket_kind, key), ids in self._bucket_memo.items():
            if bucket_kind != kind:
                continue
            if ids:
                keys.add(key)
            else:
                keys.discard(key)
        return sorted(keys)

    def intersect_tokens(self, tokens: list[str]) -> list[str]:
        unique = sorted(set(tokens))
        if not unique:
            return []
        if any(("token", token) in self._dirty_buckets for token in unique):
            # A touched bucket has unflushed writes; the generic
            # hydrate-and-intersect path sees them, SQL would not.
            return super().intersect_tokens(unique)
        sql = " INTERSECT ".join(
            ["SELECT id FROM postings WHERE kind='token' AND key=?"]
            * len(unique)
        )
        return [row[0] for row in
                self._execute(sql + " ORDER BY id", tuple(unique))]

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
        self._dirty_state.add(key)

    def state_keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._state if k.startswith(prefix))

    # -- lifecycle ---------------------------------------------------------

    def hydrate(self, domains: Iterable[str] = ()) -> None:
        wanted = set(domains) or set(ALL_DOMAINS) | {"membership"}
        if "membership" in wanted:
            self._ensure_membership()
        if "entities" in wanted:
            self._ensure_entities()
        if "usage" in wanted:
            self._usage._ensure_stats()
            self._usage._ensure_events()
        if "lineage" in wanted:
            self._lineage._graph  # property access hydrates
        if "text" in wanted and not self._fresh:
            with self._lock:
                loaded: dict[tuple[str, str], set[str]] = {}
                for kind, key, artifact_id in self._execute(
                    "SELECT kind, key, id FROM postings"
                ):
                    loaded.setdefault((kind, key), set()).add(artifact_id)
                for bucket_key, ids in loaded.items():
                    # Memoised buckets already reflect unflushed writes.
                    self._bucket_memo.setdefault(bucket_key, ids)

    def journal_event(self, record: object) -> None:
        """Buffer one write-ahead record for the ``catalog_events``
        mirror; persisted with the next :meth:`flush` (same WAL
        transaction as the state it describes)."""
        domain = getattr(record, "domain", "")
        data = json.dumps(dataclasses.asdict(record), sort_keys=True)
        with self._lock:
            self._pending_journal.append(
                (domain, type(record).__name__, data)
            )

    def flush(self) -> None:
        with self._lock, self._conn:
            if self._dirty_artifacts:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO artifacts(id, data) "
                    "VALUES (?, ?)",
                    [(aid, json.dumps(artifact_to_dict(self._artifacts[aid])))
                     for aid in self._dirty_artifacts],
                )
                self._dirty_artifacts.clear()
            if self._added_ids:
                # Flushed additions are now stored rows; fold them into the
                # stored-id memos so they are not counted twice.
                if self._stored_ids is not None:
                    self._stored_ids = sorted(
                        set(self._stored_ids) | self._added_ids
                    )
                if self._stored_count is not None:
                    self._stored_count += len(self._added_ids)
                self._added_ids.clear()
            if self._dirty_buckets:
                self._conn.executemany(
                    "DELETE FROM postings WHERE kind=? AND key=?",
                    sorted(self._dirty_buckets),
                )
                self._conn.executemany(
                    "INSERT INTO postings(kind, key, id) VALUES (?, ?, ?)",
                    [
                        (kind, key, artifact_id)
                        for (kind, key) in sorted(self._dirty_buckets)
                        for artifact_id in self._bucket_memo[(kind, key)]
                    ],
                )
                self._dirty_buckets.clear()
            if self._dirty_users:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO users(id, data) VALUES (?, ?)",
                    [(uid, json.dumps(user_to_dict(self._users[uid])))
                     for uid in self._dirty_users],
                )
                self._dirty_users.clear()
            if self._dirty_teams:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO teams(id, data) VALUES (?, ?)",
                    [(tid, json.dumps(team_to_dict(self._teams[tid])))
                     for tid in self._dirty_teams],
                )
                self._dirty_teams.clear()
            self._usage._flush(self._conn)
            self._lineage._flush(self._conn)
            if self._pending_journal:
                self._conn.executemany(
                    "INSERT INTO catalog_events(domain, kind, data) "
                    "VALUES (?, ?, ?)",
                    self._pending_journal,
                )
                self._pending_journal.clear()
            self._conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) "
                "VALUES ('versions', ?)",
                (json.dumps({"__total__": self._version, **self._versions}),),
            )
            if self._dirty_state:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES (?, ?)",
                    [(f"state:{key}", self._state[key])
                     for key in self._dirty_state],
                )
                self._dirty_state.clear()

    def compact(self) -> None:
        self.flush()
        with self._lock:
            # The event mirror is a durability journal, not the source of
            # truth (aggregates and edges are persisted separately), so
            # compaction may prune it freely.
            with self._conn:
                self._conn.execute("DELETE FROM catalog_events")
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            self._conn.execute("VACUUM")

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        with self._lock:
            for conn in self._read_conns:
                conn.close()
            self._read_conns.clear()
            self._read_local = threading.local()
            self._conn.close()
            self._closed = True

    def info(self) -> dict[str, Any]:
        counts = {
            table: int(self._execute_one(f"SELECT COUNT(*) FROM {table}")[0])
            for table in ("artifacts", "users", "teams", "postings",
                          "usage_events", "lineage_edges", "catalog_events")
        }
        size_bytes = (
            self._path.stat().st_size
            if isinstance(self._path, Path) and self._path.exists()
            else 0
        )
        return {
            "backend": "sqlite",
            "path": str(self._path),
            "schema_version": SCHEMA_VERSION,
            "size_bytes": size_bytes,
            "stored": counts,
            "hydrated": {
                "membership": self._membership_loaded,
                "entities": self._entities_loaded,
                "entities_cached": len(self._artifacts),
                "buckets_cached": len(self._bucket_memo),
                "usage_stats": self._usage._stats_loaded,
                "usage_events": self._usage._events_loaded,
                "lineage": self._lineage._loaded,
            },
        }
