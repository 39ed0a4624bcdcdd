"""The generated data discovery interface.

:class:`DiscoveryInterface` is what Humboldt produces for a host
application: hand it a catalog, an endpoint registry and a specification
and it generates overview tabs (Figure 7B/C), spec-driven search with
autocomplete (Figure 7A), view filtering, and exploration from selections.
Swapping the spec swaps the UI — no code here knows any provider.

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.store import CatalogStore
from repro.core.query.autocomplete import Autocompleter, Suggestion
from repro.core.query.evaluator import QueryEvaluator, SearchResult
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.core.spec.customization import Customization
from repro.core.spec.model import HumboldtSpec, ProviderSpec
from repro.core.spec.validation import validate_spec
from repro.core.views.base import View
from repro.core.views.factory import ViewFactory
from repro.core.views.listing import ListView
from repro.errors import MissingInputError, ProviderError, UnknownProviderError
from repro.providers.base import ProviderRequest, RequestContext
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    ExecutionStats,
    FetchStatus,
    ProviderHealth,
)
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry


@dataclass(frozen=True)
class Tab:
    """One overview tab: the provider it came from and its generated view."""

    provider_name: str
    title: str
    category: str
    view: View


class DiscoveryInterface:
    """A complete, generated data discovery UI (headless)."""

    def __init__(
        self,
        store: CatalogStore,
        registry: EndpointRegistry,
        spec: HumboldtSpec,
        customization: Customization | None = None,
        validate: bool = True,
        engine: ExecutionEngine | None = None,
        policy: ExecutionPolicy | None = None,
    ):
        if validate:
            validate_spec(spec, registry=registry)
        self.store = store
        self.registry = registry
        #: The single execution layer every fetch of this interface (and
        #: its evaluator/exploration consumers) routes through.  *policy*
        #: configures a newly-built engine; ignored when *engine* is
        #: passed in (the caller already configured it).
        self.engine = engine or ExecutionEngine(
            registry, store=store, policy=policy
        )
        self.spec = spec
        # Spec-declared metadata-domain dependencies join the endpoints'
        # registration records (replacing an earlier spec's), so
        # dependency-aware invalidation covers endpoints whose callables
        # carry no @depends_on decoration of their own.
        registry.install_spec_dependencies(
            (provider.endpoint, provider.dependencies)
            for provider in spec.providers
        )
        self.customization = customization or Customization()
        self.resolver = FieldResolver(store)
        self.ranker = Ranker(self.resolver)
        self.language = QueryLanguage(spec)
        self.evaluator = QueryEvaluator(store, self.engine, self.language, self.ranker)
        self.factory = ViewFactory(store, spec, self.ranker)
        self.autocompleter = Autocompleter(self.language, store)
        #: (provider, message) pairs skipped during the last overview
        #: generation because their endpoint failed (fault containment).
        self.last_errors: list[tuple[str, str]] = []
        #: Per-provider health markers from the last overview generation
        #: (ok, stale, skipped and error alike) — the interface-level
        #: degradation report backing the CLI's ``health`` subcommand.
        self.last_health: list[ProviderHealth] = []

    # -- spec evolution -----------------------------------------------------

    def with_spec(self, spec: HumboldtSpec) -> "DiscoveryInterface":
        """A new interface generated from an updated spec.

        This is the paper's headline move: adding/removing a provider is a
        spec change; the interface regenerates, no UI code changes.

        The execution engine is shared (its stats span spec versions) but
        its cache is invalidated — the new spec may bind the same
        endpoints with different limits or visibility.
        """
        self.engine.invalidate()
        return DiscoveryInterface(
            store=self.store,
            registry=self.registry,
            spec=spec,
            customization=self.customization,
            engine=self.engine,
        )

    # -- overviews (§5.1) ------------------------------------------------------

    def overview_tabs(
        self,
        user_id: str = "",
        team_id: str = "",
        limit: int = 20,
        budget_ms: float | None = None,
    ) -> list[Tab]:
        """Generate the overview tabs for a user (Figure 7B).

        Providers visible on the overview surface (after customization
        layers) whose required inputs are satisfiable from ambient context
        (the user, their team) each become a tab.

        *budget_ms* bounds the fan-out's provider work; once spent,
        remaining providers are skipped (or served stale).  Degradation
        is reported per provider in :attr:`last_health`: a failed or
        skipped provider loses its tab (the §6.1 contract), a stale one
        keeps its tab with the view flagged ``stale``.
        """
        providers = self.customization.effective_providers(
            self.spec, "overview", user_id=user_id, team_id=team_id
        )
        context = RequestContext(user_id=user_id, team_id=team_id, limit=limit)
        self.last_errors = []
        self.last_health = []
        candidates = [
            (provider, inputs)
            for provider in providers
            for inputs in [self._ambient_inputs(provider, user_id, team_id)]
            if provider.is_ready(inputs)
        ]
        # One parallel fan-out instead of a serial fetch per provider;
        # outcomes align with candidates, so tab order stays spec order.
        outcomes = self.engine.execute_many(
            [
                (provider.endpoint, ProviderRequest(inputs=inputs, context=context))
                for provider, inputs in candidates
            ],
            deadline=self.engine.deadline(budget_ms),
        )
        tabs = []
        for (provider, inputs), outcome in zip(candidates, outcomes):
            if isinstance(outcome.error, MissingInputError):
                # The provider needs an input the session context cannot
                # supply (e.g. a team view for a team-less user): §6.1 says
                # to simply not generate the view.
                continue
            if outcome.skipped:
                self.last_health.append(outcome.health_marker(provider.name))
                self.last_errors.append((provider.name, str(outcome.error)))
                continue
            try:
                if outcome.error is not None:
                    raise outcome.error
                view = self.factory.build(
                    provider,
                    outcome.result,
                    inputs=inputs,
                    limit=limit,
                    stale=outcome.stale,
                    notice=outcome.reason,
                )
            except ProviderError as exc:
                # A broken endpoint must degrade only its own view, never
                # the whole generated interface.
                self.last_health.append(
                    ProviderHealth(
                        provider=provider.name,
                        endpoint=provider.endpoint,
                        status=FetchStatus.ERROR.value,
                        detail=str(exc),
                    )
                )
                self.last_errors.append((provider.name, str(exc)))
                continue
            self.last_health.append(outcome.health_marker(provider.name))
            tabs.append(
                Tab(
                    provider_name=provider.name,
                    title=provider.title,
                    category=provider.category,
                    view=view,
                )
            )
        return tabs

    @property
    def degraded(self) -> bool:
        """Whether the last overview generation was anything but fully
        fresh (any stale, skipped or failed provider)."""
        return any(marker.degraded for marker in self.last_health) or bool(
            self.last_errors
        )

    def open_view(
        self,
        provider_name: str,
        inputs: dict[str, str] | None = None,
        user_id: str = "",
        team_id: str = "",
        limit: int = 20,
    ) -> View:
        """Generate a single provider's view with explicit inputs."""
        provider, merged, request = self.resolve_request(
            provider_name, inputs, user_id=user_id, team_id=team_id, limit=limit
        )
        outcome = self.engine.execute(provider.endpoint, request)
        if outcome.result is None:
            raise outcome.error
        return self.factory.build(
            provider,
            outcome.result,
            inputs=merged,
            limit=limit,
            stale=outcome.stale,
            notice=outcome.reason,
        )

    def resolve_request(
        self,
        provider_name: str,
        inputs: dict[str, str] | None = None,
        user_id: str = "",
        team_id: str = "",
        limit: int = 20,
    ) -> tuple[ProviderSpec, dict[str, str], ProviderRequest]:
        """Bind a provider call without executing it.

        Merges explicit inputs over ambient ones and enforces required
        inputs; callers (exploration) batch the returned requests through
        :meth:`ExecutionEngine.execute_many`.
        """
        provider = self.spec.provider(provider_name)
        inputs = dict(inputs or {})
        merged = {**self._ambient_inputs(provider, user_id, team_id), **inputs}
        missing = [
            spec.name
            for spec in provider.required_inputs()
            if not merged.get(spec.name)
        ]
        if missing:
            raise MissingInputError(provider_name, missing[0])
        context = RequestContext(user_id=user_id, team_id=team_id, limit=limit)
        return (provider, merged, ProviderRequest(inputs=merged, context=context))

    # -- search and filters (§5.3, §6.4) ------------------------------------------

    def search(
        self,
        query: str,
        user_id: str = "",
        team_id: str = "",
        universe: list[str] | None = None,
        limit: int = 50,
        budget_ms: float | None = None,
    ) -> tuple[SearchResult, ListView]:
        """Run a query; returns the result and its list view.

        "Whenever a search query is entered, results are shown in a new
        search tab using the list view."

        *budget_ms* bounds the search's provider work (see
        :meth:`QueryEvaluator.search`); a degraded result flags the view.
        """
        context = RequestContext(user_id=user_id, team_id=team_id, limit=limit)
        result = self.evaluator.search(
            query,
            context=context,
            universe=universe,
            limit=limit,
            budget_ms=budget_ms,
        )
        cards = self.factory.cards(
            (entry.artifact_id, entry.score) for entry in result.entries
        )
        notice = "; ".join(
            f"{marker.provider}: {marker.status}" for marker in result.health
        )
        view = ListView(
            view_id=f"search[{query}]",
            provider_name="search",
            title="Search Results",
            representation="list",
            description=f"Results for: {result.query.text}",
            inputs={},
            cards=cards,
            stale=any(m.status == FetchStatus.STALE.value for m in result.health),
            degraded=result.degraded,
            notice=notice,
        )
        return (result, view)

    def filter_view(
        self, view: View, query: str, user_id: str = "", team_id: str = ""
    ) -> View:
        """Filter *view* by *query* — search scoped to the view (§5.3)."""
        result = self.evaluator.search(
            query,
            context=RequestContext(user_id=user_id, team_id=team_id),
            universe=view.artifact_ids(),
            limit=len(view.artifact_ids()) or 1,
        )
        return view.filtered(set(result.artifact_ids()))

    def suggest(self, partial_query: str, limit: int = 8) -> list[Suggestion]:
        """Autocomplete for the search bar (Figure 5)."""
        return self.autocompleter.suggest(partial_query, limit=limit)

    # -- internals ------------------------------------------------------------------

    def _ambient_inputs(
        self, provider: ProviderSpec, user_id: str, team_id: str
    ) -> dict[str, str]:
        """Bind inputs satisfiable from session context (user, team)."""
        inputs: dict[str, str] = {}
        if not team_id and user_id:
            teams = self.store.teams_of(user_id)
            if teams:
                team_id = teams[0].id
        for spec in provider.inputs:
            if spec.input_type == "user" and user_id:
                inputs[spec.name] = user_id
            elif spec.input_type == "team" and team_id:
                inputs[spec.name] = team_id
        return inputs

    # -- observability ---------------------------------------------------------

    @property
    def stats(self) -> ExecutionStats:
        """Execution metrics for every fetch this interface performed."""
        return self.engine.stats

    def provider_titles(self) -> dict[str, str]:
        """name -> title for every specified provider (UI labelling)."""
        return {p.name: p.title for p in self.spec.providers}

    def describe_provider(self, name: str) -> str:
        """Human-readable provider description (a study ask: P1/P4)."""
        try:
            provider = self.spec.provider(name)
        except UnknownProviderError:
            return ""
        inputs = ", ".join(
            f"{i.name} ({i.input_type}{'' if i.required else ', optional'})"
            for i in provider.inputs
        )
        parts = [provider.title, provider.description]
        if inputs:
            parts.append(f"Inputs: {inputs}")
        parts.append(f"Shown as: {provider.representation.value}")
        return " — ".join(part for part in parts if part)
