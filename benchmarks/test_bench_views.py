"""E6 — Figure 6: the six dynamically generated view types.

Times view generation for every representation from one catalog and
records the inventory (view type, artifact count, structural facts) that
corresponds to the Figure 6 montage.

``ViewFactory.build`` memoizes views and follows the catalog's event
log, so repeated opens (the warm case) time a memo hit.  The cold case
advances the catalog clock between rounds, which drops every memoized
view (``recency`` and ``freshness`` read the clock) while the engine
still serves its cached result, and times the view build.  Cards come
from the factory's card memo, which does not read the clock, so the
cold case ranks and lays out the view but re-resolves no card.  The
usage-write cases record one usage event on one shown artifact between
rounds and time the view's patch: the embedding overview swaps that
artifact's card, the ``types`` categories view re-scores and re-sorts
that one row, and the ``joinable`` graph render keeps its layout.
"""

import pytest

from benchmarks.conftest import write_result
from repro.core.render import render_view_html
from repro.core.views.factory import ViewFactory

#: representation -> (provider, inputs builder)
VIEW_CASES = {
    "tiles": ("most_viewed", lambda store: {}),
    "list": ("of_type", lambda store: {"artifact_type": "table"}),
    "hierarchy": ("lineage",
                  lambda store: {"artifact": store.by_type("table")[0]}),
    "graph": ("joinable",
              lambda store: {"artifact": store.by_type("table")[0]}),
    "categories": ("types", lambda store: {}),
    "embedding": ("embedding_map", lambda store: {}),
}

_BUILT = {}


@pytest.mark.parametrize("representation", sorted(VIEW_CASES))
def test_e6_generate_view(benchmark, mid_app, representation):
    provider_name, inputs_fn = VIEW_CASES[representation]
    store = mid_app.store
    inputs = inputs_fn(store)
    user = store.users()[0]

    def build():
        return mid_app.interface.open_view(
            provider_name, inputs=inputs, user_id=user.id, limit=20
        )

    view = benchmark(build)
    assert view.representation == representation
    assert not view.is_empty()
    _BUILT[representation] = view


@pytest.mark.parametrize("representation", sorted(VIEW_CASES))
def test_e6_generate_view_cold(benchmark, mid_app, representation):
    provider_name, inputs_fn = VIEW_CASES[representation]
    store = mid_app.store
    inputs = inputs_fn(store)
    user = store.users()[0]

    def write():
        store.clock.advance(seconds=1)

    def build():
        return mid_app.interface.open_view(
            provider_name, inputs=inputs, user_id=user.id, limit=20
        )

    view = benchmark.pedantic(build, setup=write, rounds=20, iterations=1)
    assert view.representation == representation
    assert not view.is_empty()


def _after_usage_write(benchmark, mid_app, provider_name, inputs,
                       then=lambda view: None):
    """Time reopening *provider_name*'s view (and *then*) after a usage
    event on its last shown artifact; the view must equal a fresh
    factory's build of the same result."""
    interface, store = mid_app.interface, mid_app.store
    user = store.users()[0]

    def build():
        view = interface.open_view(
            provider_name, inputs=inputs, user_id=user.id, limit=20
        )
        then(view)
        return view

    artifact = build().artifact_ids()[-1]

    def write():
        store.record(artifact, user.id, "view")

    view = benchmark.pedantic(build, setup=write, rounds=20, iterations=1)
    provider, merged, request = interface.resolve_request(
        provider_name, inputs, user_id=user.id, limit=20
    )
    result = interface.engine.execute(provider.endpoint, request).result
    fresh = ViewFactory(store, interface.spec, interface.ranker).build(
        provider, result, inputs=merged, limit=20
    )
    assert repr(view) == repr(fresh)
    assert artifact in view.artifact_ids()


def test_e6_embedding_rebuild_after_usage_write(benchmark, mid_app):
    _after_usage_write(benchmark, mid_app, "embedding_map", {})


def test_e6_categories_rebuild_after_usage_write(benchmark, mid_app):
    _after_usage_write(benchmark, mid_app, "types", {})


def test_e6_graph_render_after_usage_write(benchmark, mid_app):
    inputs = {"artifact": mid_app.store.by_type("table")[0]}
    _after_usage_write(benchmark, mid_app, "joinable", inputs,
                       then=render_view_html)


def test_e6_write_figure6_table(benchmark, mid_app):
    def build_table():
        lines = [f"{'view':<12}{'provider':<16}{'artifacts':>10}  structure"]
        for representation in sorted(VIEW_CASES):
            view = _BUILT.get(representation)
            if view is None:
                continue
            if representation == "hierarchy":
                structure = f"depth {view.max_depth()}"
            elif representation == "graph":
                structure = f"{len(view.edges)} edges"
            elif representation == "categories":
                structure = f"{len(view.groups)} groups"
            elif representation == "embedding":
                bounds = view.bounds()
                structure = (f"x∈[{bounds[0]:.1f},{bounds[2]:.1f}] "
                             f"y∈[{bounds[1]:.1f},{bounds[3]:.1f}]")
            else:
                structure = "ranked cards"
            lines.append(
                f"{representation:<12}{view.provider_name:<16}"
                f"{view.count():>10}  {structure}"
            )
        return "\n".join(lines)

    table = benchmark(build_table)
    write_result("E6_views", "Figure 6: six generated view types", table)
    assert len(_BUILT) == 6


def test_e6_render_all_views_text(benchmark, mid_app):
    """Rendering the full set must stay interactive-speed."""
    from repro.core.render import render_view_text

    views = list(_BUILT.values())
    assert len(views) == 6

    def render_all():
        return [render_view_text(view) for view in views]

    rendered = benchmark(render_all)
    assert all(rendered)


def test_e6_render_all_views_html(benchmark, mid_app):
    from repro.core.render import render_view_html

    views = list(_BUILT.values())

    def render_all():
        return [render_view_html(view) for view in views]

    rendered = benchmark(render_all)
    assert all(fragment.startswith("<section>") for fragment in rendered)
