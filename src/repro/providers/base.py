"""Typed provider request/response envelopes.

Section 4.1: a provider's spec declares *what type of data to expect* — its
representation — not how it is fetched.  The envelopes here are that
contract: every representation has a payload shape, and every result can be
flattened to a plain artifact-id list so search can compose results from
any provider ("each query element returns a list of data artifacts", §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.catalog.domains import coerce_domains
from repro.errors import RepresentationError


class Representation(str, Enum):
    """The data shapes a provider may declare (Figure 6's six views)."""

    TILES = "tiles"
    LIST = "list"
    HIERARCHY = "hierarchy"
    GRAPH = "graph"
    CATEGORIES = "categories"
    EMBEDDING = "embedding"

    @classmethod
    def coerce(cls, value: "Representation | str") -> "Representation":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown representation {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


#: Input types a provider may require; used by the search UI to recommend
#: plausible values (Figure 5) and by autocomplete.
INPUT_TYPES = ("artifact", "user", "team", "badge", "artifact_type", "text")


@dataclass(frozen=True)
class InputSpec:
    """Declaration of one input value a provider accepts (§4.1)."""

    name: str
    input_type: str
    required: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if self.input_type not in INPUT_TYPES:
            raise ValueError(
                f"input {self.name!r}: unknown input type "
                f"{self.input_type!r}; expected one of {INPUT_TYPES}"
            )


@dataclass(frozen=True)
class RequestContext:
    """Who is asking, from where; lets providers personalise results."""

    user_id: str = ""
    team_id: str = ""
    limit: int = 20


@dataclass(frozen=True)
class ProviderRequest:
    """A fetch request: declared inputs plus the requesting context."""

    inputs: dict[str, str] = field(default_factory=dict)
    context: RequestContext = field(default_factory=RequestContext)

    def input(self, name: str, default: str = "") -> str:
        return self.inputs.get(name, default)


@dataclass(frozen=True)
class ScoredArtifact:
    """One artifact in a list/tiles payload, with rankable metadata fields."""

    artifact_id: str
    score: float = 0.0
    fields: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class HierarchyNode:
    """A node of a hierarchy payload; children nest arbitrarily deep."""

    artifact_id: str
    children: tuple["HierarchyNode", ...] = ()

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def iter_ids(self) -> Iterator[str]:
        yield self.artifact_id
        for child in self.children:
            yield from child.iter_ids()


@dataclass(frozen=True)
class GraphEdge:
    """An edge of a graph payload."""

    src: str
    dst: str
    label: str = ""
    weight: float = 1.0


@dataclass(frozen=True)
class Category:
    """One bucket of a categories payload."""

    name: str
    artifact_ids: tuple[str, ...] = ()

    @property
    def count(self) -> int:
        return len(self.artifact_ids)


@dataclass(frozen=True)
class EmbeddingPoint:
    """One point of an embedding payload."""

    artifact_id: str
    x: float
    y: float


@dataclass(frozen=True)
class ProviderResult:
    """A provider response: a representation tag plus the matching payload.

    Exactly one payload block is populated; :meth:`validate` enforces the
    pairing so malformed providers fail at the framework boundary instead
    of deep inside view generation.
    """

    representation: Representation
    items: tuple[ScoredArtifact, ...] = ()
    roots: tuple[HierarchyNode, ...] = ()
    nodes: tuple[str, ...] = ()
    edges: tuple[GraphEdge, ...] = ()
    categories: tuple[Category, ...] = ()
    points: tuple[EmbeddingPoint, ...] = ()

    def validate(self, provider_name: str = "<anonymous>") -> "ProviderResult":
        """Check payload/representation consistency; returns self."""
        rep = self.representation
        wrong: list[str] = []
        if rep in (Representation.TILES, Representation.LIST):
            if self.roots or self.nodes or self.edges or self.categories or self.points:
                wrong.append("list-like results may only carry `items`")
        elif rep is Representation.HIERARCHY:
            if self.items or self.nodes or self.edges or self.categories or self.points:
                wrong.append("hierarchy results may only carry `roots`")
        elif rep is Representation.GRAPH:
            if self.items or self.roots or self.categories or self.points:
                wrong.append("graph results may only carry `nodes`/`edges`")
            node_set = set(self.nodes)
            dangling = [
                e for e in self.edges if e.src not in node_set or e.dst not in node_set
            ]
            if dangling:
                wrong.append(
                    f"{len(dangling)} graph edge(s) reference nodes missing "
                    f"from `nodes`"
                )
        elif rep is Representation.CATEGORIES:
            if self.items or self.roots or self.nodes or self.edges or self.points:
                wrong.append("categories results may only carry `categories`")
        elif rep is Representation.EMBEDDING:
            if self.items or self.roots or self.nodes or self.edges or self.categories:
                wrong.append("embedding results may only carry `points`")
        if wrong:
            raise RepresentationError(provider_name, "; ".join(wrong))
        return self

    def artifact_ids(self) -> list[str]:
        """Flatten the payload to artifact ids, payload order preserved.

        Duplicates are removed keeping first occurrence; this is the list
        the query evaluator composes with set algebra.
        """
        seen: set[str] = set()
        ordered: list[str] = []

        def push(artifact_id: str) -> None:
            if artifact_id not in seen:
                seen.add(artifact_id)
                ordered.append(artifact_id)

        for item in self.items:
            push(item.artifact_id)
        for root in self.roots:
            for artifact_id in root.iter_ids():
                push(artifact_id)
        for node in self.nodes:
            push(node)
        for category in self.categories:
            for artifact_id in category.artifact_ids:
                push(artifact_id)
        for point in self.points:
            push(point.artifact_id)
        return ordered

    def is_empty(self) -> bool:
        """True when no payload block carries data.

        ``edges`` counts as payload so emptiness stays consistent with
        :meth:`validate` — a graph result is whatever its nodes *and*
        edges say, even though a valid graph with edges always has nodes.
        """
        return not (
            self.items
            or self.roots
            or self.nodes
            or self.edges
            or self.categories
            or self.points
        )

    def payload_size(self) -> int:
        """Number of payload entries, without flattening to artifact ids.

        Used by the execution layer to detect provider-side truncation
        (a result exactly filling ``context.limit`` probably hit the cap)
        cheaply — :meth:`artifact_ids` allocates, this only counts.
        """
        if self.items:
            return len(self.items)
        if self.roots:
            return sum(1 for root in self.roots for _ in root.iter_ids())
        if self.nodes or self.edges:
            return len(self.nodes)
        if self.categories:
            return sum(category.count for category in self.categories)
        return len(self.points)


#: The callable type an endpoint resolves to.
Endpoint = Callable[["ProviderRequest"], ProviderResult]

#: Attribute carrying an endpoint's declared metadata-domain dependencies.
DEPENDENCIES_ATTR = "__metadata_domains__"


def depends_on(*domains: str) -> Callable[[Endpoint], Endpoint]:
    """Declare the metadata domains an endpoint reads.

    The execution engine keys cache invalidation on this declaration:
    a cached result is dropped only when a depended-on domain mutates.
    Endpoints that declare nothing stay correct — they fall back to
    invalidate-on-any-write — but pay for every usage event.

    Usable on plain functions and on methods (the attribute survives
    ``functools.partial``-free bound-method access since it lives on the
    underlying function object).
    """
    frozen = coerce_domains(domains)

    def decorate(endpoint: Endpoint) -> Endpoint:
        setattr(endpoint, DEPENDENCIES_ATTR, frozen)
        return endpoint

    return decorate


#: Attribute carrying an endpoint's declared cardinality estimator.
ESTIMATOR_ATTR = "__result_estimator__"

#: An estimator: given the request a fetch would receive, predict how many
#: artifacts the fetch would return — or ``None`` when it cannot say.
Estimator = Callable[["ProviderRequest"], "int | None"]


def estimates_with(estimator: Estimator) -> Callable[[Endpoint], Endpoint]:
    """Attach a cardinality estimator to an endpoint.

    The query planner asks :meth:`~repro.providers.execution.
    ExecutionEngine.estimate` how large a provider leaf's result would be
    before fetching it, so ``And`` branches evaluate most-selective
    first.  An estimator must be *cheap* (an index-size lookup, not a
    fetch) and may be approximate — estimates order evaluation, they
    never replace it, so a wrong estimate costs speed, not correctness.
    """

    def decorate(endpoint: Endpoint) -> Endpoint:
        setattr(endpoint, ESTIMATOR_ATTR, estimator)
        return endpoint

    return decorate


#: Attribute carrying an endpoint's declared delta patcher.
PATCHER_ATTR = "__result_patcher__"

#: A delta patcher: given the request a cached result answered, the cached
#: result itself, and the write-ahead event records appended since that
#: entry was fetched or last patched (see :mod:`repro.catalog.events`),
#: return the result the endpoint would produce *now* — the cached object
#: itself when the events provably cannot affect it — or ``None`` to
#: decline, which makes the engine fall back to drop-and-refetch.
ResultPatcher = Callable[
    ["ProviderRequest", ProviderResult, "Sequence[object]"],
    "ProviderResult | None",
]


def patches_with(patcher: ResultPatcher) -> Callable[[Endpoint], Endpoint]:
    """Attach a cache delta patcher to an endpoint.

    Under a streaming write load, dropping every dependent cache entry
    per write collapses the hit rate; a patcher lets the engine *update*
    a cached result in place instead.  A patcher must be exactly as
    correct as refetching — when in doubt it returns ``None`` and the
    engine drops the entry (never less correct than PR 2's behaviour,
    just faster in the monotonic common cases).

    The request a patcher receives is rebuilt from the cache key, so it
    carries only what the key holds: the inputs plus the context fields
    the endpoint declared via :func:`reads_context`.  Undeclared fields
    arrive blank (``user_id=""``, ``team_id=""``, ``limit=0``) — one
    shared entry answers many users, so there is no single requester to
    rebuild.  A patcher must therefore read only declared fields.
    """

    def decorate(endpoint: Endpoint) -> Endpoint:
        setattr(endpoint, PATCHER_ATTR, patcher)
        return endpoint

    return decorate


#: Attribute carrying an endpoint's declared request-context fields.
CONTEXT_ATTR = "__context_fields__"

#: The :class:`RequestContext` fields an endpoint can declare it reads.
CONTEXT_FIELDS = ("user_id", "team_id", "limit")


def coerce_context_fields(fields: Iterable[str]) -> frozenset[str]:
    """Validate a context-field declaration into a frozenset."""
    frozen = frozenset(fields)
    unknown = frozen.difference(CONTEXT_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown request-context field(s) {sorted(unknown)}; "
            f"expected a subset of {CONTEXT_FIELDS}"
        )
    return frozen


def reads_context(*fields: str) -> Callable[[Endpoint], Endpoint]:
    """Declare the :class:`RequestContext` fields an endpoint's answer
    can depend on.

    The execution engine keys each fetch on the declared fields only:
    an undeclared field gets a blank slot in the request key, so an
    endpoint that reads no context (``@reads_context()``) shares one
    cache entry and one in-batch slot across every user, team and limit
    (concurrent misses on the shared key each still invoke the
    endpoint).  Endpoints that declare nothing keep the full key (user,
    team and limit), which is always correct, just unshared.

    A field is "read" when *any* part of the result — membership, order,
    scores or the advisory ``fields`` snapshots — can differ with it.
    Under-declaring serves one user's answer to another, so when in
    doubt, declare.  Works on functions, methods and endpoint classes
    (the attribute is found through the instance).
    """
    frozen = coerce_context_fields(fields)

    def decorate(endpoint: Endpoint) -> Endpoint:
        setattr(endpoint, CONTEXT_ATTR, frozen)
        return endpoint

    return decorate


def list_result(
    items: list[ScoredArtifact], representation: Representation = Representation.LIST
) -> ProviderResult:
    """Convenience constructor for list/tiles results."""
    if representation not in (Representation.LIST, Representation.TILES):
        raise ValueError("list_result only builds list/tiles results")
    return ProviderResult(representation=representation, items=tuple(items))
