"""Usage-workload generation.

Artifact popularity in real catalogs is heavily skewed — a handful of golden
tables receive most views.  We model that with a Zipf distribution over
artifacts (rank by creation order) and a uniform user mix, producing the
interaction metadata the "Recents", "Most Viewed" and "Popular with team"
providers surface.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.catalog.model import UsageEvent
from repro.catalog.store import CatalogStore
from repro.util.clock import DAY


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs for usage generation."""

    seed: int = 11
    n_events: int = 4000
    zipf_s: float = 1.1  # skew exponent; higher = more concentrated
    view_share: float = 0.78
    open_share: float = 0.10
    edit_share: float = 0.07
    favorite_share: float = 0.05

    def __post_init__(self) -> None:
        total = (self.view_share + self.open_share + self.edit_share
                 + self.favorite_share)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"action shares must sum to 1, got {total}")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalised Zipf weights ``1/rank**s`` for *n* ranks."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


def generate_usage(store: CatalogStore, config: WorkloadConfig | None = None) -> int:
    """Replay a synthetic workload into *store*; returns events recorded.

    Events are timestamped between each artifact's creation and the current
    simulated time, so recency metadata stays causally consistent.
    """
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)
    artifacts = list(store.artifacts())
    users = store.users()
    if not artifacts or not users:
        return 0

    weights = zipf_weights(len(artifacts), config.zipf_s)
    # Cumulative weights are precomputed once: random.choices recomputes
    # them per call otherwise, turning the replay quadratic at scale.
    cum_weights = list(itertools.accumulate(weights))
    actions = ("view", "open", "edit", "favorite")
    action_cum = list(itertools.accumulate(
        (config.view_share, config.open_share,
         config.edit_share, config.favorite_share)
    ))
    now = store.clock.now()

    recorded = 0
    for _ in range(config.n_events):
        artifact = rng.choices(artifacts, cum_weights=cum_weights, k=1)[0]
        user = users[rng.randrange(len(users))]
        action = rng.choices(actions, cum_weights=action_cum, k=1)[0]
        start = min(artifact.created_at, now - 1.0)
        timestamp = rng.uniform(start, now)
        store.record_event(
            UsageEvent(artifact.id, user.id, action, timestamp)
        )
        recorded += 1
    return recorded


def burst_usage(
    store: CatalogStore,
    artifact_id: str,
    user_ids: list[str],
    views: int,
    within_days: float = 7.0,
    seed: int = 5,
) -> None:
    """Inject a recent burst of views (used to steer study fixtures)."""
    rng = random.Random(seed)
    now = store.clock.now()
    for index in range(views):
        user_id = user_ids[index % len(user_ids)]
        timestamp = now - rng.uniform(0.0, within_days) * DAY
        store.record_event(UsageEvent(artifact_id, user_id, "view", timestamp))


def query_pool(store: CatalogStore) -> list[str]:
    """A study-task query mix over *store*, hottest first.

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
    for user in store.users()[:4]:
        pool.append(f"type: workbook & owned_by: {user.id}")
    for badge in store.badges_in_use()[:4]:
        pool.append(f"badged: {badge}")
        pool.append(f"badged: {badge} & type: table")
    for tag in store.tags_in_use()[:6]:
        pool.append(f"tagged: {tag}")
    pool.extend(["type: dashboard", "type: dataset", "orders", "sales"])
    # Keep the first occurrence (its hotness rank), drop duplicates.
    return list(dict.fromkeys(pool))
