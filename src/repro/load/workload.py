"""Deterministic workload generation for the concurrent load harness.

A workload is a list of :class:`SessionScript`\\ s — per-user operation
sequences mixing search, overview, exploration, autocomplete and catalog
writes ("touches"), the bursty query/explore mix the dataset-search UX
study observed real users issuing.  Generation is fully seeded: the same
:class:`LoadConfig` over the same catalog always yields the same scripts,
so concurrent runs differ only in thread interleaving, never in the work
itself.

Both the query pool and the user assignment are Zipf-skewed.  Skewing
*users* matters as much as skewing queries: request keys of endpoints
that read the requesting user/team carry them, so their fetches repeat
across sessions only when hot users run overlapping sessions, exactly
what a popular dashboard's audience looks like.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.catalog.store import CatalogStore

#: Operation kinds a script may contain.  ``stream`` and ``lineage`` are
#: the write-heavy additions: a burst of usage events pushed through the
#: store's coalescing :class:`~repro.catalog.events.EventStream`, and a
#: lineage-edge append from inside a session thread.
OP_KINDS = (
    "search",
    "overview",
    "explore",
    "suggest",
    "touch",
    "stream",
    "lineage",
)


@dataclass(frozen=True)
class Op:
    """One scripted session action.

    ``arg`` is the query (search), artifact id (explore/touch) or prefix
    (suggest); overview opens need no argument.
    """

    kind: str
    arg: str = ""


@dataclass(frozen=True)
class SessionScript:
    """One simulated user session: who runs it and what they do."""

    user_id: str
    team_id: str
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for workload generation.

    The mix weights default to the study's observed shape: search-heavy,
    with a steady stream of overview opens and selection-driven
    exploration, a trickle of autocomplete, and enough catalog writes to
    keep invalidation honest (a cache that is never invalidated makes
    every engine look fast).
    """

    seed: int = 7
    sessions: int = 64
    ops_per_session: int = 6
    concurrency: int = 8
    #: Zipf exponent for query and user popularity; higher = more skew.
    zipf_s: float = 1.1
    search_weight: float = 0.45
    overview_weight: float = 0.20
    explore_weight: float = 0.15
    suggest_weight: float = 0.10
    touch_weight: float = 0.10
    #: Write-heavy mix: weight of usage-event bursts pushed through the
    #: store's coalescing event stream, and of lineage-edge appends.
    #: Both default to 0 so existing configs keep their exact op mix.
    stream_weight: float = 0.0
    lineage_weight: float = 0.0
    #: Usage events per ``stream`` op (one burst -> one coalesced batch).
    stream_burst: int = 8
    #: Coalescing window of the shared event stream (seconds).
    coalesce_window_s: float = 0.05
    #: Fixed latency injected per provider invocation, simulating a
    #: remote metadata service; 0 disables injection.
    provider_latency_ms: float = 0.0
    #: When > 0, the harness traces every session op and the report's
    #: ``slowest`` block holds the N slowest op span trees; 0 keeps the
    #: engine on its zero-allocation no-op tracer.
    trace_slowest: int = 0

    def __post_init__(self) -> None:
        if self.sessions < 1 or self.ops_per_session < 1:
            raise ValueError("sessions and ops_per_session must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be > 0")
        if self.stream_burst < 1:
            raise ValueError("stream_burst must be >= 1")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.trace_slowest < 0:
            raise ValueError("trace_slowest must be >= 0")
        weights = self._weights()
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("mix weights must be >= 0 and not all zero")

    def _weights(self) -> tuple[float, ...]:
        return (
            self.search_weight,
            self.overview_weight,
            self.explore_weight,
            self.suggest_weight,
            self.touch_weight,
            self.stream_weight,
            self.lineage_weight,
        )


def _zipf_ranks(n: int, s: float) -> list[float]:
    """Unnormalised Zipf weights for ranks 1..n."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def _zipf_choice(rng: random.Random, n: int, s: float) -> int:
    """A Zipf-distributed index in [0, n) — rank 0 is the hottest."""
    weights = _zipf_ranks(n, s)
    return rng.choices(range(n), weights=weights, k=1)[0]


def query_pool(store: CatalogStore) -> list[str]:
    """The queries sessions draw from, hottest first.

    Derived from the study tasks (T1's endorsed-badge lookup, T3's
    by-owner workbook search) plus the catalog's own vocabulary — badges,
    tags, types and owner names in use — so the pool scales with the
    catalog instead of hard-coding a toy list.
    """
    pool: list[str] = [
        # T1: metadata-based entry point, then the named table itself.
        "badged: endorsed",
        "AIRLINES",
        "type: table",
        # T3: composed by-owner search.
        "type: workbook",
    ]
    users = store.users()
    for user in users[:4]:
        pool.append(f"type: workbook & owned_by: {user.id}")
    for badge in store.badges_in_use()[:4]:
        pool.append(f"badged: {badge}")
        pool.append(f"badged: {badge} & type: table")
    for tag in store.tags_in_use()[:6]:
        pool.append(f"tagged: {tag}")
    pool.extend(["type: dashboard", "type: dataset", "orders", "sales"])
    # Preserve order (hotness rank) while dropping duplicates.
    seen: set[str] = set()
    unique = [q for q in pool if not (q in seen or seen.add(q))]
    return unique


@dataclass
class _Pools:
    """Catalog-derived choice pools, computed once per workload."""

    queries: list[str] = field(default_factory=list)
    users: list[str] = field(default_factory=list)
    teams: dict[str, str] = field(default_factory=dict)  # user -> team
    artifacts: list[str] = field(default_factory=list)
    prefixes: list[str] = field(default_factory=list)


def _pools(store: CatalogStore) -> _Pools:
    pools = _Pools()
    pools.queries = query_pool(store)
    for user in store.users():
        pools.users.append(user.id)
        teams = store.teams_of(user.id)
        pools.teams[user.id] = teams[0].id if teams else ""
    pools.artifacts = store.artifact_ids()
    pools.prefixes = ["ty", "bad", "tag", "own", "air", "ord"]
    if not pools.users:
        raise ValueError("catalog has no users to simulate")
    if not pools.artifacts:
        raise ValueError("catalog has no artifacts to explore")
    return pools


def build_workload(store: CatalogStore, config: LoadConfig) -> list[SessionScript]:
    """Generate ``config.sessions`` deterministic session scripts."""
    rng = random.Random(config.seed)
    pools = _pools(store)
    weights = config._weights()
    scripts: list[SessionScript] = []
    for _ in range(config.sessions):
        user = pools.users[_zipf_choice(rng, len(pools.users), config.zipf_s)]
        ops: list[Op] = []
        for _ in range(config.ops_per_session):
            kind = rng.choices(OP_KINDS, weights=weights, k=1)[0]
            if kind == "search":
                query = pools.queries[
                    _zipf_choice(rng, len(pools.queries), config.zipf_s)
                ]
                ops.append(Op("search", query))
            elif kind == "overview":
                ops.append(Op("overview"))
            elif kind == "explore":
                artifact = pools.artifacts[
                    _zipf_choice(rng, len(pools.artifacts), config.zipf_s)
                ]
                ops.append(Op("explore", artifact))
            elif kind == "suggest":
                ops.append(Op("suggest", rng.choice(pools.prefixes)))
            else:
                # The remaining kinds are all catalog writes keyed on a
                # Zipf-hot artifact: "touch" records one usage event
                # synchronously, "stream" pushes a burst through the
                # coalescing event stream, "lineage" appends an edge.
                artifact = pools.artifacts[
                    _zipf_choice(rng, len(pools.artifacts), config.zipf_s)
                ]
                ops.append(Op(kind, artifact))
        scripts.append(
            SessionScript(
                user_id=user, team_id=pools.teams[user], ops=tuple(ops)
            )
        )
    return scripts
