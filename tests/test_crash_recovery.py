"""Crash recovery of the sqlite store: kill a writer mid-flush, reopen.

Each case runs a child process that writes through
``CatalogStore.open(path)`` in rounds (badge grants, a usage batch and a
single event, lineage edges, an artifact added and one replaced below the
store), calling ``flush()`` after each round.  The child ends itself with
``os._exit`` at one injected point: before any flush statement, after a
flush's last statement (before its commit), or right after a commit.  The
point is injected through a proxy around the store's write connection, so
the program under test is unchanged.

After the kill the database is reopened.  It must hold exactly the state
of the last flush that returned (or of the one whose commit the kill
followed), its domain versions must not be below that state's, and its
``postings`` rows must be exactly the buckets ``index_entries`` gives for
the stored artifacts.

This file is also the child script:
``python tests/test_crash_recovery.py DB KILL_AT LOG`` (``KILL_AT`` is
``before:<n>``, ``after:<n>``, ``commit:<n>`` or ``none``) appends one
JSON line per statement, per state and per returned flush to ``LOG``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sqlite3
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from repro.catalog.backend import index_entries  # noqa: E402
from repro.catalog.model import Artifact, Team, UsageEvent, User  # noqa: E402
from repro.catalog.store import CatalogStore  # noqa: E402

#: The child's exit status when it reaches its kill point.
KILLED = 77
USERS = ("u1", "u2")


def observe(store: CatalogStore) -> dict:
    """Everything a flush persists, as plain JSON values (versions apart)."""
    artifacts = list(store.artifacts())
    return {
        "artifacts": {
            a.id: [a.name, a.owner_id, sorted(a.tags),
                   sorted(a.badge_names())]
            for a in artifacts
        },
        "views": {a.id: store.usage_stats(a.id).view_count
                  for a in artifacts},
        "recents": {u: store.usage.recent_for_user(u) for u in USERS},
        "events": len(store.usage),
        "edges": [[e.src, e.dst] for e in store.lineage.edges()],
        "journal": (store.storage_info()["stored"]["catalog_events"]
                    + len(store._backend._pending_journal)),
        "versions": store.domain_versions,
    }


def build_base(path: Path) -> None:
    with CatalogStore.open(path) as store:
        store.add_user(User(id="u1", name="Ada", role="manager"))
        store.add_user(User(id="u2", name="Grace", team_ids=("t1",)))
        store.add_team(Team(id="t1", name="Data", member_ids=("u1", "u2")))
        for i in range(6):
            store.add_artifact(Artifact(
                id=f"a{i}", name=f"orders summary {i}",
                artifact_type="table" if i % 2 == 0 else "dashboard",
                owner_id="u1", team_ids=("t1",), tags=("sales",),
            ))
        store.grant_badge("a5", "endorsed", "u1")


def round_one(store: CatalogStore) -> None:
    store.grant_badge("a0", "endorsed", "u1")
    now = store.clock.now()
    store.record_events([UsageEvent(f"a{i}", "u2", "view", now)
                         for i in range(3)])
    store.lineage.add_edge("a0", "a1")


def round_two(store: CatalogStore) -> None:
    # Replaced below the store, the only path that removes postings.
    old = store.artifact("a2")
    store._backend.put_artifact(dataclasses.replace(
        old, name="churn rollup", owner_id="u2", tags=("ops",),
    ))
    store.grant_badge("a3", "golden", "u1")
    store.record("a1", "u1", "view")
    store.lineage.add_edge("a1", "a2")
    store.add_artifact(Artifact(id="a9", name="revenue daily",
                                artifact_type="table", owner_id="u2",
                                tags=("finance",)))


ROUNDS = (round_one, round_two)


class _KillingConnection:
    """Forwards to the store's write connection, logging each statement,
    and ends the process at the one point named by *kill_at*."""

    def __init__(self, conn, kill_at, log):
        self._conn, self._kill_at, self._log = conn, kill_at, log
        self._statements = 0
        self._commits = 0

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        result = self._conn.__exit__(*exc_info)
        self._commits += 1
        self._reach(f"commit:{self._commits}")
        return result

    def executemany(self, sql, rows):
        self._statements += 1
        number = self._statements
        self._log({"statement": number, "flush": self._commits + 1,
                   "sql": sql})
        self._reach(f"before:{number}")
        result = self._conn.executemany(sql, rows)
        self._reach(f"after:{number}")
        return result

    def _reach(self, point):
        if point == self._kill_at:
            os._exit(KILLED)


def child(db: str, kill_at: str, log_path: str) -> None:
    with open(log_path, "a") as out:
        def log(record):
            out.write(json.dumps(record) + "\n")
            out.flush()

        store = CatalogStore.open(db)
        backend = store._backend
        backend._conn = _KillingConnection(backend._conn, kill_at, log)
        log({"state": 0, "value": observe(store)})
        for number, write_round in enumerate(ROUNDS, start=1):
            write_round(store)
            log({"state": number, "value": observe(store)})
            store.flush()
            log({"flushed": number})
    os._exit(0)


# -- the tests ------------------------------------------------------------


def _run(base: Path, workdir: Path, kill_at: str):
    workdir.mkdir()
    db, log = workdir / "catalog.db", workdir / "log.jsonl"
    shutil.copy(base, db)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, __file__, str(db), kill_at, str(log)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    records = [json.loads(line) for line in log.read_text().splitlines()]
    return proc, records, db


def _check_reopened(db: Path, expected: dict) -> list[str]:
    """Differences between the reopened store and *expected*."""
    problems = []
    with CatalogStore.open(db) as store:
        got = observe(store)
        want_versions = expected["versions"]
        below = [d for d, v in want_versions.items()
                 if got["versions"][d] < v]
        if below:
            problems.append(f"domain versions went below: {below}")
        for field in expected:
            if field != "versions" and got[field] != expected[field]:
                problems.append(f"{field}: {got[field]!r} != "
                                f"{expected[field]!r}")
        indexed = {(kind, key, a.id) for a in store.artifacts()
                   for kind, key in index_entries(a)}
    with closing(sqlite3.connect(db)) as conn:
        stored = set(conn.execute("SELECT kind, key, id FROM postings"))
    if stored != indexed:
        problems.append(f"postings: extra {sorted(stored - indexed)}, "
                        f"missing {sorted(indexed - stored)}")
    return problems


def _base(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("crash_base") / "base.db"
    build_base(path)
    return path


def test_uninterrupted_writer_persists_every_round(tmp_path_factory):
    base = _base(tmp_path_factory)
    proc, records, db = _run(base, tmp_path_factory.mktemp("run") / "w",
                             "none")
    assert proc.returncode == 0, proc.stderr
    states = {r["state"]: r["value"] for r in records if "state" in r}
    assert [r["flushed"] for r in records if "flushed" in r] == [1, 2]
    assert _check_reopened(db, states[len(ROUNDS)]) == []


def test_every_kill_point_reopens_to_the_last_committed_flush(
        tmp_path_factory):
    """Kill before every flush statement, after each flush's last one
    (its commit pending) and after each commit."""
    base = _base(tmp_path_factory)
    runs = tmp_path_factory.mktemp("runs")
    proc, dry, _ = _run(base, runs / "dry", "none")
    assert proc.returncode == 0, proc.stderr
    flush_of = {r["statement"]: r["flush"] for r in dry if "statement" in r}
    last_of = {flush: number for number, flush in flush_of.items()}
    # (kill point, flush it interrupts, state it must reopen to): a kill
    # inside flush n leaves flush n-1's state, one after commit n flush n's.
    cases = [(f"before:{number}", flush, flush - 1)
             for number, flush in flush_of.items()]
    cases += [(f"after:{number}", flush, flush - 1)
              for flush, number in last_of.items()]
    cases += [(f"commit:{flush}", flush, flush) for flush in last_of]
    assert len(last_of) == len(ROUNDS)

    def run_case(index_case):
        index, (kill_at, flush, state) = index_case
        proc, records, db = _run(base, runs / f"k{index}", kill_at)
        if proc.returncode != KILLED:
            return [f"{kill_at}: exited {proc.returncode}: {proc.stderr}"]
        flushed = [r["flushed"] for r in records if "flushed" in r]
        if flushed != list(range(1, flush)):
            return [f"{kill_at}: flushes returned {flushed}"]
        expected = next(r["value"] for r in records
                        if r.get("state") == state)
        return [f"{kill_at}: {problem}"
                for problem in _check_reopened(db, expected)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        problems = [p for found in pool.map(run_case, enumerate(cases))
                    for p in found]
    assert problems == []


if __name__ == "__main__":
    child(*sys.argv[1:4])
