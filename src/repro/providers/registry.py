"""Endpoint registry.

The Humboldt spec names providers' endpoints as URIs (the paper shows
``/api/metadata/...`` style endpoints; we use ``scheme://name``).  The
registry resolves those URIs to :class:`Registration` records: the
callable plus what it declares about itself.  The UI never imports provider
implementations — it only ever resolves endpoints named by the spec, which
is the decoupling the paper's design goals demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace as _replace
from typing import Iterable, Iterator

from repro.catalog.domains import PATCHABLE_DOMAINS, coerce_domains
from repro.errors import DuplicateEntityError, ProviderError
from repro.providers.base import (
    CONTEXT_ATTR,
    DEPENDENCIES_ATTR,
    ESTIMATOR_ATTR,
    PATCHER_ATTR,
    Endpoint,
    Estimator,
    ProviderRequest,
    ProviderResult,
    ResultPatcher,
    coerce_context_fields,
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


@dataclass(frozen=True, slots=True)
class Registration:
    """One endpoint's contract, resolved once when it is registered.

    ``None`` in an optional field means "not declared" and selects the
    conservative behaviour (see ``docs/execution.md``, "Registration
    records"): invalidation on any write, no estimate, drop-and-refetch,
    a request key on every context field.  Re-registering a URI builds a
    fresh record, so nothing declared for the old callable carries over.
    """

    endpoint: Endpoint
    dependencies: frozenset[str] | None = None
    spec_dependencies: frozenset[str] = frozenset()
    estimator: Estimator | None = None
    patcher: ResultPatcher | None = None
    context: frozenset[str] | None = None

    def __post_init__(self) -> None:
        for name in ("endpoint", "estimator", "patcher"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                raise TypeError(f"{name} {value!r} is not callable")
        if self.patcher is not None and self.dependencies is not None and not (
            self.dependencies & PATCHABLE_DOMAINS
        ):
            raise ValueError(
                f"a patcher never runs for an endpoint depending on "
                f"{sorted(self.dependencies)}; declare one of "
                f"{sorted(PATCHABLE_DOMAINS)} or drop the patcher"
            )

    @property
    def domains(self) -> frozenset[str] | None:
        """Every domain the endpoint's answer reads: its own declaration
        plus the installed spec's; ``None`` when neither declares any."""
        if not self.spec_dependencies:
            return self.dependencies
        return (self.dependencies or frozenset()) | self.spec_dependencies


class EndpointRegistry:
    """Maps endpoint URIs to their :class:`Registration` records."""

    def __init__(self) -> None:
        self._registrations: dict[str, Registration] = {}
        # Bumped on every change to a registration; the execution layer
        # stamps cache entries with it so swapping an endpoint (or its
        # declarations) drops the results cached under the old one.
        self._version = 0

    @property
    def version(self) -> int:
        """Count of registry mutations."""
        return self._version

    def __len__(self) -> int:
        return len(self._registrations)

    def __contains__(self, uri: str) -> bool:
        return uri in self._registrations

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._registrations))

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
        accidental double-installs.  Each omitted declaration is read from
        the endpoint's decorator (:func:`~repro.providers.base.depends_on`,
        :func:`~repro.providers.base.estimates_with`,
        :func:`~repro.providers.base.patches_with`,
        :func:`~repro.providers.base.reads_context`); with neither, the
        :class:`Registration` field stays undeclared.  Raises
        ``ValueError`` for unknown domains or context fields and for a
        patcher on an endpoint whose dependencies include no patchable
        domain, and ``TypeError`` for a non-callable hook.
        """
        parse_endpoint_uri(uri)
        if uri in self._registrations and not replace:
            raise DuplicateEntityError("endpoint", uri)
        if dependencies is None:
            dependencies = getattr(endpoint, DEPENDENCIES_ATTR, None)
        if context is None:
            context = getattr(endpoint, CONTEXT_ATTR, None)
        self._registrations[uri] = Registration(
            endpoint,
            dependencies=(
                None if dependencies is None else coerce_domains(dependencies)
            ),
            estimator=(
                estimator if estimator is not None
                else getattr(endpoint, ESTIMATOR_ATTR, None)
            ),
            patcher=(
                patcher if patcher is not None
                else getattr(endpoint, PATCHER_ATTR, None)
            ),
            context=None if context is None else coerce_context_fields(context),
        )
        self._version += 1

    def unregister(self, uri: str) -> None:
        if self._registrations.pop(uri, None) is not None:
            self._version += 1

    def registration(self, uri: str) -> Registration | None:
        """The record registered under *uri*; ``None`` when unregistered."""
        return self._registrations.get(uri)

    def install_spec_dependencies(
        self, declarations: Iterable[tuple[str, Iterable[str]]]
    ) -> None:
        """Set the spec-declared dependencies of every registered endpoint.

        *declarations* pairs endpoint URIs with a spec's
        ``ProviderSpec.dependencies``; pairs naming one URI are unioned.
        They replace the previously installed spec's declarations, and an
        endpoint the spec declares nothing for keeps only its own.  URIs
        not registered are skipped.  The version moves only when some
        record changes, so re-installing the same spec keeps every
        cached result.
        """
        declared: dict[str, frozenset[str]] = {}
        for uri, domains in declarations:
            domains = coerce_domains(domains)
            declared[uri] = declared.get(uri, frozenset()) | domains
        changed = False
        for uri, registration in self._registrations.items():
            spec_dependencies = declared.get(uri, frozenset())
            if registration.spec_dependencies != spec_dependencies:
                self._registrations[uri] = _replace(
                    registration, spec_dependencies=spec_dependencies
                )
                changed = True
        if changed:
            self._version += 1

    def resolve(self, uri: str) -> Endpoint:
        try:
            return self._registrations[uri].endpoint
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
