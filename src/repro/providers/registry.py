"""Endpoint registry.

The Humboldt spec names providers' endpoints as URIs (the paper shows
``/api/metadata/...`` style endpoints; we use ``scheme://name``).  The
registry resolves those URIs to callables.  The UI never imports provider
implementations — it only ever resolves endpoints named by the spec, which
is the decoupling the paper's design goals demand.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.catalog.domains import coerce_domains
from repro.errors import DuplicateEntityError, ProviderError
from repro.providers.base import (
    Endpoint,
    Estimator,
    ProviderRequest,
    ProviderResult,
    ResultPatcher,
    coerce_context_fields,
    declared_context,
    declared_dependencies,
    declared_estimator,
    declared_patcher,
)

_URI_RE = re.compile(r"^(?P<scheme>[a-z][a-z0-9+.-]*)://(?P<path>[A-Za-z0-9_./-]+)$")


def parse_endpoint_uri(uri: str) -> tuple[str, str]:
    """Split ``scheme://path`` and validate the shape."""
    match = _URI_RE.match(uri)
    if not match:
        raise ValueError(
            f"malformed endpoint uri {uri!r}; expected 'scheme://path'"
        )
    return (match.group("scheme"), match.group("path"))


class EndpointRegistry:
    """Maps endpoint URIs to fetch callables."""

    def __init__(self) -> None:
        self._endpoints: dict[str, Endpoint] = {}
        # Declared metadata-domain dependencies per uri.  Absent uri means
        # undeclared: the execution layer then conservatively invalidates
        # that endpoint's cached results on any catalog write.
        self._dependencies: dict[str, frozenset[str]] = {}
        # Declared cardinality estimators per uri.  Absent uri means the
        # endpoint offers no estimate; the query planner then treats its
        # result size as unknown and orders it after estimated branches.
        self._estimators: dict[str, Estimator] = {}
        # Declared cache delta patchers per uri.  Absent uri means the
        # endpoint cannot patch cached results in place; the execution
        # layer then drops them on dependent writes (drop-and-refetch).
        self._patchers: dict[str, ResultPatcher] = {}
        # Declared request-context fields per uri.  Absent uri means
        # undeclared: the execution layer then keys the endpoint's
        # fetches on every context field (user, team and limit).
        self._context: dict[str, frozenset[str]] = {}
        # Bumped on every (un)registration; the execution layer keys
        # cache validity on it so swapping an endpoint drops its results.
        self._version = 0
        # Per-uri stamp of the version at which the current callable was
        # registered.  Lets the execution layer detect that *this* uri
        # was swapped (not just that *something* changed) and retire any
        # dependency declarations overlaid on the previous callable.
        self._registered_at: dict[str, int] = {}

    @property
    def version(self) -> int:
        """Count of registry mutations."""
        return self._version

    def __len__(self) -> int:
        return len(self._endpoints)

    def __contains__(self, uri: str) -> bool:
        return uri in self._endpoints

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._endpoints))

    def register(
        self,
        uri: str,
        endpoint: Endpoint,
        replace: bool = False,
        dependencies: Iterable[str] | None = None,
        estimator: Estimator | None = None,
        patcher: ResultPatcher | None = None,
        context: Iterable[str] | None = None,
    ) -> None:
        """Register *endpoint* under *uri*.

        Re-registration must be explicit (``replace=True``) so tests catch
        accidental double-installs.

        *dependencies* names the metadata domains the endpoint reads (see
        :mod:`repro.catalog.domains`).  When omitted, the declaration is
        auto-discovered from a :func:`~repro.providers.base.depends_on`
        decoration on the endpoint; with neither, the endpoint is treated
        as depending on everything (conservative invalidation).

        *estimator* predicts the endpoint's result cardinality for a
        request without fetching (see :func:`~repro.providers.base.
        estimates_with`, the decorator equivalent).  When omitted, it is
        auto-discovered from the endpoint's decoration; with neither, the
        planner treats the endpoint's cardinality as unknown.

        *patcher* updates the endpoint's cached results in place from
        write-ahead event records (see :func:`~repro.providers.base.
        patches_with`).  When omitted, it is auto-discovered from the
        endpoint's decoration; with neither, dependent writes drop the
        endpoint's cached results instead of patching them.

        *context* names the :class:`~repro.providers.base.RequestContext`
        fields (``user_id``, ``team_id``, ``limit``) that can change the
        endpoint's answer; the execution engine keys fetches on those
        only (see :func:`~repro.providers.base.reads_context`, the
        decorator equivalent).  When omitted, it is auto-discovered from
        the endpoint's decoration; with neither, fetches are keyed on
        every context field.
        """
        parse_endpoint_uri(uri)
        if uri in self._endpoints and not replace:
            raise DuplicateEntityError("endpoint", uri)
        if dependencies is None:
            deps = declared_dependencies(endpoint)
        else:
            deps = coerce_domains(dependencies)
        if estimator is None:
            estimator = declared_estimator(endpoint)
        if patcher is None:
            patcher = declared_patcher(endpoint)
        if context is None:
            fields = declared_context(endpoint)
        else:
            fields = coerce_context_fields(context)
        self._endpoints[uri] = endpoint
        if deps is None:
            self._dependencies.pop(uri, None)
        else:
            self._dependencies[uri] = deps
        if estimator is None:
            self._estimators.pop(uri, None)
        else:
            self._estimators[uri] = estimator
        if patcher is None:
            self._patchers.pop(uri, None)
        else:
            self._patchers[uri] = patcher
        if fields is None:
            self._context.pop(uri, None)
        else:
            self._context[uri] = fields
        self._version += 1
        self._registered_at[uri] = self._version

    def unregister(self, uri: str) -> None:
        if self._endpoints.pop(uri, None) is not None:
            self._dependencies.pop(uri, None)
            self._estimators.pop(uri, None)
            self._patchers.pop(uri, None)
            self._context.pop(uri, None)
            self._registered_at.pop(uri, None)
            self._version += 1

    def dependencies(self, uri: str) -> frozenset[str] | None:
        """Declared domains for *uri*; ``None`` when undeclared."""
        return self._dependencies.get(uri)

    def estimator(self, uri: str) -> Estimator | None:
        """Declared cardinality estimator for *uri*; ``None`` when absent."""
        return self._estimators.get(uri)

    def patcher(self, uri: str) -> ResultPatcher | None:
        """Declared cache delta patcher for *uri*; ``None`` when absent."""
        return self._patchers.get(uri)

    def context_fields(self, uri: str) -> frozenset[str] | None:
        """Declared request-context fields for *uri*; ``None`` when
        undeclared (keyed on every field)."""
        return self._context.get(uri)

    def registration_generation(self, uri: str) -> int:
        """Version stamp of *uri*'s current registration (0 = never)."""
        return self._registered_at.get(uri, 0)

    def resolve(self, uri: str) -> Endpoint:
        try:
            return self._endpoints[uri]
        except KeyError:
            raise ProviderError(
                uri, "endpoint not registered (is the provider installed?)"
            ) from None

    def fetch(self, uri: str, request: ProviderRequest) -> ProviderResult:
        """Resolve and invoke, validating the response envelope."""
        endpoint = self.resolve(uri)
        result = endpoint(request)
        if not isinstance(result, ProviderResult):
            raise ProviderError(
                uri,
                f"endpoint returned {type(result).__name__}, "
                f"expected ProviderResult",
            )
        return result.validate(uri)
