"""Audit of the request-context declarations (``@reads_context``).

The execution engine keys a fetch only on the context fields its
endpoint declares, so an endpoint that under-declares would serve one
user's (or team's, or limit's) answer to another.  Two guards:

* a static check that every built-in, extended and declarative endpoint
  carries a declaration — a new provider that forgets to declare fails
  here instead of silently falling back to per-user keys;
* a hypothesis audit over a generated catalog (usage, lineage, badges):
  varying only the *undeclared* fields never changes an endpoint's
  answer — the whole payload, advisory fields and scores included, or
  the error it raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.model import ArtifactType
from repro.providers.base import (
    CONTEXT_FIELDS,
    ProviderRequest,
    RequestContext,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.declarative import LookupEndpoint, RuleEndpoint
from repro.providers.extended import (
    ExtendedProviders,
    install_extended_endpoints,
)
from repro.providers.registry import EndpointRegistry
from repro.synth import SynthConfig, generate_catalog

_STORE = generate_catalog(SynthConfig(
    seed=3, n_users=8, n_teams=3, n_tables=30, n_dashboards=4,
    n_workbooks=5, n_documents=3, usage_events=600, badge_ratio=0.3,
))
_REGISTRY = EndpointRegistry()
_BUILTIN_URIS = install_builtin_endpoints(_REGISTRY, BuiltinProviders(_STORE))
_EXTENDED_URIS = install_extended_endpoints(
    _REGISTRY, ExtendedProviders(_STORE)
)
_ARTIFACT_IDS = sorted(a.id for a in _STORE.artifacts())
_REGISTRY.register(
    "decl://lookup", LookupEndpoint(_STORE, _ARTIFACT_IDS[::3] + ["gone"])
)
_REGISTRY.register("decl://rule", RuleEndpoint(
    _STORE, [{"field": "type", "op": "eq", "value": "table"}]
))
_REGISTRY.register("decl://rule_usage", RuleEndpoint(
    _STORE, [{"field": "views", "op": "gte", "value": 2}], "tiles"
))
_AUDITED = (*_BUILTIN_URIS, *_EXTENDED_URIS,
            "decl://lookup", "decl://rule", "decl://rule_usage")

_USER_IDS = sorted(u.id for u in _STORE.users())
_TEAM_IDS = sorted(t.id for t in _STORE.teams())
_USERS = st.sampled_from(
    _USER_IDS + ["", "nobody", _STORE.user(_USER_IDS[0]).name]
)
_TEAMS = st.sampled_from(
    _TEAM_IDS + ["", "no-team", _STORE.team(_TEAM_IDS[0]).name]
)
_LIMITS = st.sampled_from((0, 1, 3, 20, 10_000))
_INPUTS = st.fixed_dictionaries({}, optional={
    "user": _USERS.filter(bool),
    "team": _TEAMS.filter(bool),
    "artifact": st.sampled_from(_ARTIFACT_IDS + ["missing"]),
    "artifact_type": st.sampled_from(
        [t.value for t in ArtifactType] + ["nonsense"]
    ),
    "badge": st.sampled_from(_STORE.badges_in_use() + ["unknown"]),
    "text": st.sampled_from(("sales", "product", "id", "zzz")),
})
_CONTEXTS = st.builds(RequestContext, user_id=_USERS, team_id=_TEAMS,
                      limit=_LIMITS)


def _answer(uri: str, request: ProviderRequest) -> tuple:
    """What the endpoint answers: its whole result, or the error it raised."""
    try:
        return ("ok", _REGISTRY.resolve(uri)(request))
    except Exception as exc:  # an error must not vary either
        return ("error", type(exc).__name__, str(exc))


class TestDeclarationsPresent:
    def test_every_builtin_and_extended_endpoint_declares(self):
        undeclared = [
            uri for uri in (*_BUILTIN_URIS, *_EXTENDED_URIS)
            if _REGISTRY.registration(uri).context is None
        ]
        assert undeclared == []

    def test_declarative_endpoints_declare(self):
        assert _REGISTRY.registration("decl://lookup").context == {"limit"}
        assert _REGISTRY.registration("decl://rule").context == frozenset()
        assert _REGISTRY.registration("decl://rule_usage").context == frozenset()

    def test_builtin_table(self):
        expected = {
            "recents": {"user_id", "limit"},
            "recent_documents": {"user_id", "limit"},
            "favorites": {"user_id", "limit"},
            "team_popular": {"team_id", "limit"},
            "team_docs": {"team_id"},
            "most_viewed": {"limit"},
            "newest": {"limit"},
            "similar": {"limit"},
        }
        for uri in _BUILTIN_URIS:
            name = uri.removeprefix("catalog://")
            assert _REGISTRY.registration(uri).context == expected.get(
                name, set()
            ), uri
        for uri in _EXTENDED_URIS:
            assert _REGISTRY.registration(uri).context == {"limit"}, uri


class TestUndeclaredFieldsNeverChangeTheAnswer:
    @pytest.mark.parametrize("uri", _AUDITED)
    @settings(max_examples=50, deadline=None)
    @given(inputs=_INPUTS, base=_CONTEXTS, other=_CONTEXTS)
    def test_varying_undeclared_fields(self, uri, inputs, base, other):
        declared = _REGISTRY.registration(uri).context
        varied = RequestContext(**{
            name: getattr(base if name in declared else other, name)
            for name in CONTEXT_FIELDS
        })
        first = _answer(uri, ProviderRequest(inputs=inputs, context=base))
        second = _answer(uri, ProviderRequest(inputs=inputs, context=varied))
        assert first == second
