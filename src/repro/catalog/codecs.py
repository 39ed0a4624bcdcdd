"""Plain-dict codecs for catalog entities.

Every persistent surface of the catalog — the versioned JSON snapshot
(:mod:`.persistence`) and the SQLite backend (:mod:`.sqlite_backend`) —
stores entities as the same plain dictionaries, so a record written by
one can always be read by the other.  Keeping the codecs in one module
is what makes that invariant cheap to hold.
"""

from __future__ import annotations

from typing import Any

from repro.catalog.model import (
    Artifact,
    BadgeAssignment,
    Column,
    Team,
    UsageEvent,
    User,
)


def artifact_to_dict(artifact: Artifact) -> dict[str, Any]:
    return {
        "id": artifact.id,
        "name": artifact.name,
        "type": artifact.artifact_type.value,
        "description": artifact.description,
        "owner_id": artifact.owner_id,
        "team_ids": list(artifact.team_ids),
        "created_at": artifact.created_at,
        "modified_at": artifact.modified_at,
        "tags": list(artifact.tags),
        "badges": [
            {"badge": b.badge, "granted_by": b.granted_by, "granted_at": b.granted_at}
            for b in artifact.badges
        ],
        "columns": [
            {
                "name": c.name,
                "dtype": c.dtype,
                "sample_values": list(c.sample_values),
            }
            for c in artifact.columns
        ],
        "extra": dict(artifact.extra),
    }


def artifact_from_dict(data: dict[str, Any]) -> Artifact:
    return Artifact(
        id=data["id"],
        name=data["name"],
        artifact_type=data["type"],
        description=data.get("description", ""),
        owner_id=data.get("owner_id", ""),
        team_ids=tuple(data.get("team_ids", ())),
        created_at=data.get("created_at", 0.0),
        modified_at=data.get("modified_at", 0.0),
        tags=tuple(data.get("tags", ())),
        badges=tuple(
            BadgeAssignment(
                badge=b["badge"],
                granted_by=b["granted_by"],
                granted_at=b.get("granted_at", 0.0),
            )
            for b in data.get("badges", ())
        ),
        columns=tuple(
            Column(
                name=c["name"],
                dtype=c.get("dtype", "string"),
                sample_values=tuple(c.get("sample_values", ())),
            )
            for c in data.get("columns", ())
        ),
        extra=dict(data.get("extra", {})),
    )


def user_to_dict(user: User) -> dict[str, Any]:
    return {
        "id": user.id,
        "name": user.name,
        "role": user.role,
        "team_ids": list(user.team_ids),
    }


def user_from_dict(data: dict[str, Any]) -> User:
    return User(
        id=data["id"],
        name=data["name"],
        role=data.get("role", "analyst"),
        team_ids=tuple(data.get("team_ids", ())),
    )


def team_to_dict(team: Team) -> dict[str, Any]:
    return {
        "id": team.id,
        "name": team.name,
        "admin_ids": list(team.admin_ids),
        "member_ids": list(team.member_ids),
    }


def team_from_dict(data: dict[str, Any]) -> Team:
    return Team(
        id=data["id"],
        name=data["name"],
        admin_ids=tuple(data.get("admin_ids", ())),
        member_ids=tuple(data.get("member_ids", ())),
    )


def event_to_dict(event: UsageEvent) -> dict[str, Any]:
    return {
        "artifact_id": event.artifact_id,
        "user_id": event.user_id,
        "action": event.action,
        "timestamp": event.timestamp,
    }


def event_from_dict(data: dict[str, Any]) -> UsageEvent:
    return UsageEvent(
        artifact_id=data["artifact_id"],
        user_id=data["user_id"],
        action=data["action"],
        timestamp=data["timestamp"],
    )
