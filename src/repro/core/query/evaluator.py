"""Query evaluation (Section 5.3).

"Each query element returns a list of data artifacts.  Combining multiple
query elements in a search query allows for an arithmetic combination of
different search queries and their resulting data artifact lists."

Evaluation is set algebra over those lists: AND intersects, OR unions,
NOT subtracts from the universe (all artifacts for global search, the
current view's artifacts when filtering a view).  Results are ranked with
the spec's global ranking weights plus a text-match base score.

Evaluation is **cost-based**: before any fetch, the
:class:`~repro.core.query.planner.QueryPlanner` estimates every node's
result cardinality, and ``And`` then evaluates its cheapest branch first,
carrying the running intersection as a candidate filter into later
branches — a planned-empty or emptied intersection skips the remaining
branch fetches entirely.  The resulting :class:`~repro.core.query.
planner.ExplainedPlan` (estimates, actuals, timings, skips) rides on the
:class:`SearchResult` and backs the CLI's ``--explain`` flag.  Planning
never changes *what* a query matches, only the order work happens in;
``planning = False`` restores strict left-to-right evaluation.

Provider fetches route through the :class:`~repro.providers.execution.
ExecutionEngine`: one search opens a request-scoped memo (identical
sub-fetches execute once), independent ``And``/``Or`` branches — and the
provider leaves of their one-level-nested subtrees — fan out on the
engine's thread pool with deterministic result ordering, and fetches
that fill :attr:`QueryEvaluator.fetch_limit` are flagged as truncated on
the :class:`SearchResult` instead of silently dropping matches.

Ranking is **lazy**: the evaluator hands the full match list to
:meth:`~repro.core.ranking.Ranker.top_k`, which scores with plain floats
and materialises scored entries only for the returned head.

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.store import CatalogStore
from repro.core.query.ast import (
    And,
    FieldTerm,
    Not,
    Or,
    ProviderCall,
    QueryNode,
    TextTerm,
)
from repro.core.query.language import CompiledQuery, QueryLanguage
from repro.core.query.planner import ExplainedPlan, PlanNode, QueryPlanner
from repro.core.ranking import RankedArtifact, Ranker
from repro.errors import QueryCompileError
from repro.providers.base import ProviderRequest, ProviderResult, RequestContext
from repro.providers.execution import (
    Deadline,
    ExecutionEngine,
    FetchOutcome,
    FetchStatus,
    ProviderHealth,
)
from repro.providers.registry import EndpointRegistry
from repro.util.textutil import tokenize

#: Base-score bonus for a text term matching the artifact *name* vs. only
#: its description/tags — name hits should surface first.
NAME_MATCH_BONUS = 2.0
TEXT_MATCH_BONUS = 1.0


@dataclass(frozen=True)
class SearchResult:
    """The outcome of one search/filter evaluation."""

    query: CompiledQuery
    entries: tuple[RankedArtifact, ...]
    total: int
    #: True when at least one provider fetch filled the evaluator's
    #: fetch limit — set algebra may then under-report matches.
    truncated: bool = False
    #: The cost-based plan this search ran under (estimates vs. actuals,
    #: per-node timings, skipped fetches); None with planning disabled.
    plan: "ExplainedPlan | None" = None
    #: True when any provider leaf was served stale or skipped (open
    #: breaker / exhausted deadline) — the result set may under-report.
    degraded: bool = False
    #: One marker per degraded (endpoint, status) pair explaining why.
    health: tuple[ProviderHealth, ...] = ()

    def artifact_ids(self) -> list[str]:
        return [entry.artifact_id for entry in self.entries]

    def is_empty(self) -> bool:
        return self.total == 0


@dataclass
class _EvalState:
    """Per-search bookkeeping threaded through the AST walk."""

    truncated: bool = False
    fetches_skipped: int = 0
    #: Leaf nodes whose provider fetch already ran (prefetch fan-out or
    #: memo warming) — the skip accounting must not count these.
    warmed: set[QueryNode] = field(default_factory=set)
    #: The search's deadline budget; None means unbounded.
    deadline: "Deadline | None" = None
    degraded: bool = False
    health: list[ProviderHealth] = field(default_factory=list)


class QueryEvaluator:
    """Evaluates compiled queries against providers and the catalog."""

    def __init__(
        self,
        store: CatalogStore,
        engine: "ExecutionEngine | EndpointRegistry",
        language: QueryLanguage,
        ranker: Ranker,
    ):
        self.store = store
        # Accept a bare registry for convenience (tests, embedders) and
        # wrap it; all fetches go through an engine either way.
        if isinstance(engine, EndpointRegistry):
            engine = ExecutionEngine(engine, store=store)
        self.engine = engine
        self.language = language
        self.ranker = ranker
        self.planner = QueryPlanner(store, self.engine, self._leaf_call)
        #: Cost-based planning toggle; False restores the naive strict
        #: left-to-right evaluation order (and drops ``result.plan``).
        self.planning = True
        #: Result-size cap passed to providers during evaluation; large so
        #: intersections don't lose matches to provider-side truncation.
        self.fetch_limit = 10_000

    @property
    def registry(self) -> EndpointRegistry:
        return self.engine.registry

    def search(
        self,
        query: "str | QueryNode | CompiledQuery",
        context: RequestContext | None = None,
        universe: list[str] | None = None,
        limit: int = 50,
        budget_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Evaluate *query*; *universe* scopes it to a view's artifacts.

        Global search uses the whole catalog as universe; filtering a view
        passes the view's artifact ids (§5.3: "the difference between
        search and filters is the set of data artifacts it is performed
        on").

        *budget_ms* bounds the search's provider work: once spent,
        remaining fetches are skipped (or served stale), not attempted,
        and the result is flagged ``degraded`` with per-provider health
        markers; ``None`` leaves it unbounded.  A caller that shares one
        budget across several searches passes its *deadline* instead.
        """
        tracer = self.engine.tracer
        with tracer.span("query.search") as sp:
            compiled = (
                query
                if isinstance(query, CompiledQuery)
                else self.language.compile(query)
            )
            if sp:
                sp.set("query", compiled.text)
            context = context or RequestContext()
            if deadline is None:
                deadline = self.engine.deadline(budget_ms)
            state = _EvalState(deadline=deadline)
            plan_root: PlanNode | None = None
            planning_ms = 0.0
            if self.planning:
                with tracer.span("query.plan") as plan_sp:
                    started = time.perf_counter()
                    universe_size = (
                        len(universe)
                        if universe is not None
                        else self.store.artifact_count
                    )
                    plan_root = self.planner.plan(
                        compiled.node, context, universe_size
                    )
                    planning_ms = (time.perf_counter() - started) * 1000.0
                    if plan_sp:
                        plan_sp.set("universe", universe_size)
                        plan_sp.set("estimated", plan_root.estimated)
            with self.engine.scope():
                ids = self._eval(compiled.node, context, universe, state, plan_root)
            if universe is not None:
                allowed = set(universe)
                ids = [aid for aid in ids if aid in allowed]
            ids = [aid for aid in ids if self.store.has_artifact(aid)]

            base_scores = self._text_base_scores(compiled, ids)
            weights = self.language.spec.global_ranking
            entries = self.ranker.top_k(
                ids, weights, limit, base_scores=base_scores
            )
            plan = None
            if plan_root is not None:
                plan = ExplainedPlan(
                    root=plan_root,
                    planning_ms=planning_ms,
                    fetches_skipped=state.fetches_skipped,
                )
            unique_markers: dict[tuple[str, str], ProviderHealth] = {}
            for marker in state.health:
                unique_markers.setdefault(
                    (marker.endpoint, marker.status), marker
                )
            if sp:
                sp.set("total", len(ids))
                sp.set("returned", len(entries))
                if state.fetches_skipped:
                    sp.set("skipped", state.fetches_skipped)
                if state.truncated:
                    sp.set("truncated", True)
                if state.degraded:
                    sp.set("degraded", True)
            return SearchResult(
                query=compiled,
                entries=tuple(entries),
                total=len(ids),
                truncated=state.truncated,
                plan=plan,
                degraded=state.degraded,
                health=tuple(unique_markers.values()),
            )

    # -- AST evaluation ----------------------------------------------------

    def _eval(
        self,
        node: QueryNode,
        context: RequestContext,
        universe: list[str] | None,
        state: _EvalState,
        plan: PlanNode | None = None,
        candidates: set[str] | None = None,
    ) -> list[str]:
        """Evaluate *node*, recording actual cardinality/latency on *plan*.

        *candidates* is the running intersection of an enclosing planned
        ``And``: leaf results are filtered to it post-fetch (the fetch
        itself still runs unfiltered so cache entries stay full-membership)
        purely to keep intermediate lists small — the enclosing ``And``
        re-intersects, so the filter can never change the final set.
        """
        started = time.perf_counter()
        ids = self._eval_node(node, context, universe, state, plan, candidates)
        if plan is not None:
            plan.actual = len(ids)
            plan.elapsed_ms = (time.perf_counter() - started) * 1000.0
        return ids

    def _eval_node(
        self,
        node: QueryNode,
        context: RequestContext,
        universe: list[str] | None,
        state: _EvalState,
        plan: PlanNode | None,
        candidates: set[str] | None,
    ) -> list[str]:
        if isinstance(node, And):
            return self._eval_and(node, context, universe, state, plan, candidates)
        if isinstance(node, Or):
            return self._eval_or(node, context, universe, state, plan, candidates)
        if isinstance(node, TextTerm):
            ids = self._eval_text(node)
        elif isinstance(node, (FieldTerm, ProviderCall)):
            ids = self._leaf_ids(node, context, state)
        elif isinstance(node, Not):
            child_plan = plan.children[0] if plan is not None else None
            excluded = set(
                self._eval(node.child, context, universe, state, child_plan)
            )
            scope = universe if universe is not None else self.store.artifact_ids()
            ids = [aid for aid in scope if aid not in excluded]
        else:
            raise QueryCompileError(
                f"unsupported query node {type(node).__name__}"
            )
        if candidates is not None:
            ids = [aid for aid in ids if aid in candidates]
        return ids

    def _eval_and(
        self,
        node: And,
        context: RequestContext,
        universe: list[str] | None,
        state: _EvalState,
        plan: PlanNode | None,
        candidates: set[str] | None,
    ) -> list[str]:
        if plan is not None:
            return self._eval_and_planned(
                node, context, universe, state, plan, candidates
            )
        prefetched = self._prefetch_branches(node.children, context, state)
        result: list[str] | None = None
        for index, child in enumerate(node.children):
            if index in prefetched:
                child_ids = prefetched[index]
                if candidates is not None:
                    child_ids = [aid for aid in child_ids if aid in candidates]
            else:
                child_ids = self._eval(
                    child, context, universe, state, candidates=candidates
                )
            if result is None:
                result = child_ids
            else:
                keep = set(child_ids)
                result = [aid for aid in result if aid in keep]
            if not result:
                return []
        return result or []

    def _eval_and_planned(
        self,
        node: And,
        context: RequestContext,
        universe: list[str] | None,
        state: _EvalState,
        plan: PlanNode,
        candidates: set[str] | None,
    ) -> list[str]:
        """Selectivity-ordered conjunction.

        Children run cheapest-estimate first; the running intersection
        becomes the candidate filter for later branches, and a ``Not``
        that already has a running result is applied as a subtraction
        filter instead of materialising its universe-sized complement.
        A branch planned empty suppresses prefetching entirely — if it
        is indeed empty, every other branch's provider fetch is skipped
        and counted, which is the planner's headline saving.
        """
        order = QueryPlanner.execution_order(plan.children)
        for rank, index in enumerate(order):
            plan.children[index].order = rank
        planned_empty = any(child.estimated == 0 for child in plan.children)
        if planned_empty:
            prefetched: dict[int, list[str]] = {}
        else:
            prefetched = self._prefetch_branches(node.children, context, state)
        result: list[str] | None = None
        for position, index in enumerate(order):
            child = node.children[index]
            child_plan = plan.children[index]
            if result is not None and not result:
                self._skip_branches(order[position:], node, plan, context, state)
                break
            if isinstance(child, Not) and result is not None:
                started = time.perf_counter()
                excluded = set(
                    self._eval(
                        child.child,
                        context,
                        universe,
                        state,
                        child_plan.children[0],
                        candidates=set(result),
                    )
                )
                result = [aid for aid in result if aid not in excluded]
                child_plan.actual = len(result)
                child_plan.elapsed_ms = (time.perf_counter() - started) * 1000.0
                child_plan.note = "filter"
                continue
            if index in prefetched:
                child_ids = prefetched[index]
                child_plan.actual = len(child_ids)
                child_plan.note = "prefetched"
                if result is None and candidates is not None:
                    child_ids = [aid for aid in child_ids if aid in candidates]
            else:
                narrowed = set(result) if result is not None else candidates
                child_ids = self._eval(
                    child, context, universe, state, child_plan, narrowed
                )
            if result is None:
                result = list(child_ids)
            else:
                keep = set(child_ids)
                result = [aid for aid in result if aid in keep]
        return result or []

    def _skip_branches(
        self,
        indices: "list[int]",
        node: And,
        plan: PlanNode,
        context: RequestContext,
        state: _EvalState,
    ) -> None:
        """Mark never-evaluated branches skipped and count avoided fetches."""
        for index in indices:
            for entry in plan.children[index].iter_nodes():
                entry.skipped = True
            for term in node.children[index].iter_terms():
                if not isinstance(term, (FieldTerm, ProviderCall)):
                    continue
                if term in state.warmed:
                    continue  # its fetch already ran during prefetch
                endpoint, _ = self._leaf_call(term, context)
                self.engine.stats.count("fetches_skipped", endpoint)
                state.fetches_skipped += 1

    def _eval_or(
        self,
        node: Or,
        context: RequestContext,
        universe: list[str] | None,
        state: _EvalState,
        plan: PlanNode | None,
        candidates: set[str] | None,
    ) -> list[str]:
        prefetched = self._prefetch_branches(node.children, context, state)
        seen: set[str] = set()
        merged: list[str] = []
        for index, child in enumerate(node.children):
            child_plan = plan.children[index] if plan is not None else None
            if index in prefetched:
                child_ids = prefetched[index]
                if child_plan is not None:
                    child_plan.actual = len(child_ids)
                    child_plan.note = "prefetched"
                if candidates is not None:
                    child_ids = [aid for aid in child_ids if aid in candidates]
            else:
                child_ids = self._eval(
                    child, context, universe, state, child_plan, candidates
                )
            for aid in child_ids:
                if aid not in seen:
                    seen.add(aid)
                    merged.append(aid)
        return merged

    def _eval_text(self, node: TextTerm) -> list[str]:
        tokens = tokenize(node.text)
        if not tokens:
            return []
        return self.store.search_tokens(tokens)

    def _bind(self, provider, value: str) -> dict[str, str]:
        input_spec = self.language.value_input(provider)
        if input_spec is None:
            raise QueryCompileError(
                f"provider {provider.name!r} does not accept a value"
            )
        return {input_spec.name: value}

    # -- provider fetches ---------------------------------------------------

    def _leaf_call(
        self, node: "FieldTerm | ProviderCall", context: RequestContext
    ) -> tuple[str, ProviderRequest]:
        """Resolve a provider-backed leaf to its (endpoint, request)."""
        if isinstance(node, FieldTerm):
            provider = self.language.provider_for_field(node.field)
            if provider is None:
                raise QueryCompileError(f"unknown query field {node.field!r}")
            inputs = self._bind(provider, node.value)
        else:
            provider = self.language._resolve_call(node.name)
            inputs = (
                self._bind(provider, node.argument) if node.argument else {}
            )
        request = ProviderRequest(
            inputs=inputs,
            context=RequestContext(
                user_id=context.user_id,
                team_id=context.team_id,
                limit=self.fetch_limit,
            ),
        )
        return (provider.endpoint, request)

    def _leaf_ids(
        self,
        node: "FieldTerm | ProviderCall",
        context: RequestContext,
        state: _EvalState,
    ) -> list[str]:
        """Fetch a provider leaf under the search's deadline budget."""
        endpoint, request = self._leaf_call(node, context)
        outcome = self.engine.execute(endpoint, request, deadline=state.deadline)
        return self._outcome_ids(outcome, state)

    def _outcome_ids(
        self, outcome: FetchOutcome, state: _EvalState
    ) -> list[str]:
        """Map a leaf's outcome to ids, recording degradation.

        An invoked-and-failed endpoint still fails the query loudly (the
        pre-resilience contract); stale and skipped arms degrade instead:
        stale contributes its cached membership, skipped contributes
        nothing, and both flag the result with a health marker.
        """
        if outcome.status is FetchStatus.ERROR:
            raise outcome.error
        if outcome.degraded:
            state.degraded = True
            state.health.append(outcome.health_marker())
        if outcome.result is None:
            return []
        return self._ids_from(outcome.result, state)

    def _prefetch_branches(
        self,
        children: tuple[QueryNode, ...],
        context: RequestContext,
        state: _EvalState,
    ) -> dict[int, list[str]]:
        """Fan independent provider leaves of an And/Or out in parallel.

        Direct FieldTerm/ProviderCall children fill the returned index ->
        artifact-ids map, consumed by the caller's own combination loop.
        Provider leaves sitting one level down inside And/Or sub-branches
        ride along in the same fan-out purely to warm the request-scoped
        memo — their branch's serial evaluation then hits the memo instead
        of fetching.  Every leaf whose fetch ran here is recorded in
        ``state.warmed`` so the skip accounting never counts it.
        Keying on the branch position (not ``id(node)``, as this once
        did) means a short-circuiting ``And`` simply abandons the dict:
        there is no shared residue to mis-attribute to an unrelated node
        whose ``id()`` happens to collide later in the same search.
        """
        prefetched: dict[int, list[str]] = {}
        queued: set[QueryNode] = set()
        leaves: list[QueryNode] = []
        slots: list[int] = []
        calls: list[tuple[str, ProviderRequest]] = []
        for index, child in enumerate(children):
            if isinstance(child, (FieldTerm, ProviderCall)):
                slots.append(index)
                calls.append(self._leaf_call(child, context))
                queued.add(child)
                leaves.append(child)
        direct = len(calls)
        for child in children:
            if not isinstance(child, (And, Or)):
                continue
            for sub in child.children:
                if isinstance(sub, (FieldTerm, ProviderCall)) and sub not in queued:
                    queued.add(sub)
                    leaves.append(sub)
                    calls.append(self._leaf_call(sub, context))
        if len(calls) < 2:
            return {}  # nothing to parallelise
        outcomes = self.engine.execute_many(calls, deadline=state.deadline)
        for leaf, outcome in zip(leaves, outcomes):
            if outcome.status is FetchStatus.ERROR:
                # Same contract as the serial path: a query that needs a
                # broken provider fails loudly, first failure in child
                # order wins (direct leaves before nested ones).
                raise outcome.error
            if outcome.degraded:
                state.degraded = True
                state.health.append(outcome.health_marker())
            if outcome.result is not None:
                # Only a fetch that produced a result warmed the memo; a
                # skipped leaf may still be planner-skipped (and counted)
                # later without double bookkeeping.
                state.warmed.add(leaf)
        for index, outcome in zip(slots, outcomes[:direct]):
            if outcome.result is None:
                prefetched[index] = []  # skipped leaf contributes nothing
            else:
                prefetched[index] = self._ids_from(outcome.result, state)
        return prefetched

    def _ids_from(self, result: ProviderResult, state: _EvalState) -> list[str]:
        # Providers return full membership (their cache entries must not
        # bake in a usage-ranked top-N), so the evaluator applies its own
        # fetch cap here, after the cache: each leaf contributes at most
        # fetch_limit ids, in the provider's advisory order.
        ids = result.artifact_ids()
        if self.fetch_limit > 0 and len(ids) >= self.fetch_limit:
            state.truncated = True
            ids = ids[: self.fetch_limit]
        return ids

    # -- text relevance ---------------------------------------------------------

    def _text_base_scores(
        self, compiled: CompiledQuery, ids: list[str]
    ) -> dict[str, float]:
        """Name/text match bonuses for the query's free-text terms."""
        terms = [tokenize(t) for t in compiled.text_terms()]
        terms = [t for t in terms if t]
        if not terms:
            return {}
        scores: dict[str, float] = {}
        for aid in ids:
            name_tokens, text_tokens = self.store.artifact_tokens(aid)
            score = 0.0
            for term_tokens in terms:
                if all(tok in name_tokens for tok in term_tokens):
                    score += NAME_MATCH_BONUS
                elif all(tok in text_tokens for tok in term_tokens):
                    score += TEXT_MATCH_BONUS
            if score:
                scores[aid] = score
        return scores
