"""Differential tests: every ``Ranker`` list entry point against a naive
reference.

The reference is the scalar path: :meth:`Ranker.score` once per
candidate, then a stable sort on ``(-score, artifact_id)``.  ``top_k``,
``top_k_items`` (live and not), ``rank_items``, ``rank_ids`` and
``id_keys`` run the batched kernel instead, and must agree with it field
for field — score, base score, contributions and order, compared by
``repr`` so ``-0.0``/``0.0`` or ``1``/``1.0`` drift would show.  When the
reference raises (a deleted id whose field only the catalog can
resolve), the kernel must raise the same error.  The sort keys the view
memo keeps (``item_keys``, ``id_keys``, and every row's key handed out
through ``keys=``) must sort into the reference's order and scores.

The view-level check replays category groups and list/tile cards of a
generated catalog against the same reference.  The repository benchmark
replays results through this very ``Ranker``, so it cannot see a
ranking difference; these tests are the guard.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, ArtifactType, BadgeAssignment
from repro.core.ranking import Ranker
from repro.core.spec.model import RankingWeight
from repro.core.views.base import make_card
from repro.core.views.categories import CategoriesView, CategoryGroup
from repro.core.views.factory import CATEGORY_PREVIEW_SIZE, ViewFactory
from repro.providers.base import (
    ProviderRequest,
    ProviderResult,
    RequestContext,
    ScoredArtifact,
)
from repro.providers.builtin import BuiltinProviders
from repro.providers.fields import FieldResolver
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog
from repro.util.clock import DAY
from tests.conftest import build_tiny_store

USERS = ("u-ann", "u-bob", "u-cyd", "u-dee")
EXTRA_IDS = tuple(f"x-{i}" for i in range(6))
DELETED_IDS = ("gone-1", "gone-2")

#: Usage fields (served from the incremental snapshot), catalog-only
#: fields, the registered ``custom`` field, a numeric ``extra`` field,
#: an unset ``extra`` field and a snapshot-only provider field.
FIELDS = (
    "views", "favorite", "opens", "unique_viewers", "recency",
    "freshness", "badge_count", "endorsed",
    "custom", "rows", "absent", "matched",
)


def _store():
    """The tiny catalog plus artifacts whose ``extra`` holds numbers,
    bools and numeric strings, and a few ties."""
    store = build_tiny_store()
    epoch = store.clock.epoch
    raw_rows = (3, 2.5, True, "4", "n/a", 3)
    for index, aid in enumerate(EXTRA_IDS):
        store.add_artifact(Artifact(
            id=aid, name=f"X{index}", artifact_type=ArtifactType.TABLE,
            owner_id=USERS[index % len(USERS)],
            created_at=epoch + (index % 3) * DAY,
            badges=(
                (BadgeAssignment("endorsed", "u-ann", epoch),)
                if index % 2 else ()
            ),
            extra={"rows": raw_rows[index]},
        ))
    return store


def _ranker(store, override_views: bool) -> Ranker:
    resolver = FieldResolver(store)
    resolver.register("custom", lambda aid: float(len(aid) % 3))
    if override_views:
        # A re-registered built-in must win over the batch snapshot.
        resolver.register("views", lambda aid: float(sum(map(ord, aid)) % 4))
    return Ranker(resolver)


# -- the naive reference ---------------------------------------------------


def _numeric_snapshot(ranker, item, live):
    return {
        key: value
        for key, value in item.fields.items()
        if isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not (live and ranker.resolver.serves(key))
    }


def _sorted(entries):
    return sorted(entries, key=lambda r: (-r.score, r.artifact_id))


def ref_ids(ranker, ids, weights, base_scores=None):
    base_scores = base_scores or {}
    return _sorted(
        ranker.score(aid, weights, base_score=base_scores.get(aid, 0.0))
        for aid in ids
    )


def ref_items(ranker, items, weights, live=False):
    return _sorted(
        ranker.score(
            item.artifact_id,
            weights,
            base_score=item.score,
            fields=_numeric_snapshot(ranker, item, live),
        )
        for item in items
    )


def _bits(entries):
    return [
        (
            e.artifact_id,
            repr(e.score),
            repr(e.base_score),
            tuple((name, repr(value)) for name, value in e.contributions),
        )
        for e in entries
    ]


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared by type below
        return None, type(exc)


def assert_same(got_call, want_call, view=_bits):
    want, want_error = _outcome(want_call)
    got, got_error = _outcome(got_call)
    assert got_error is want_error
    if want_error is None:
        assert view(got) == view(want)


# -- strategies ----------------------------------------------------------------

weights_st = st.lists(
    st.builds(
        RankingWeight,
        field=st.sampled_from(FIELDS),
        weight=st.one_of(
            st.sampled_from((4.3, 1.5, 0.0, -2.0, 1e-7)),
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        ),
    ),
    max_size=4,
)

base_st = st.one_of(
    st.sampled_from((0.0, 1.0, 0.5)),
    st.integers(-3, 3),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)

snapshot_value_st = st.one_of(
    st.integers(-4, 4),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.sampled_from(("3", "many", None)),
)

ids_st = st.lists(
    st.sampled_from(
        ("t-orders", "t-customers", "t-web", "v-orders", "d-sales")
        + EXTRA_IDS
        + DELETED_IDS
    ),
    max_size=14,
)

items_st = st.lists(
    st.builds(
        ScoredArtifact,
        artifact_id=st.sampled_from(
            ("t-orders", "t-web", "d-sales") + EXTRA_IDS + DELETED_IDS
        ),
        score=base_st,
        fields=st.dictionaries(
            st.sampled_from(FIELDS), snapshot_value_st, max_size=4
        ),
    ),
    max_size=12,
)

writes_st = st.lists(
    st.tuples(
        st.sampled_from(
            ("t-orders", "t-customers", "t-web", "d-sales") + EXTRA_IDS
        ),
        st.sampled_from(USERS),
        st.sampled_from(("view", "open", "favorite", "unfavorite")),
    ),
    max_size=6,
)

call_st = st.one_of(
    st.tuples(st.just("top_k"), ids_st, weights_st, st.integers(-2, 10),
              st.dictionaries(st.sampled_from(EXTRA_IDS + ("t-web",)),
                              base_st, max_size=3)),
    st.tuples(st.just("top_k_items"), items_st, weights_st,
              st.integers(-2, 10), st.booleans()),
    st.tuples(st.just("rank_items"), items_st, weights_st, st.booleans()),
    st.tuples(st.just("rank_ids"), ids_st, weights_st),
    st.tuples(st.just("id_keys"), ids_st, weights_st),
)


def check_call(ranker, call):
    kind, args = call[0], call[1:]
    if kind == "top_k":
        ids, weights, limit, bases = args
        assert_same(
            lambda: ranker.top_k(ids, weights, limit, base_scores=bases),
            lambda: (
                ref_ids(ranker, ids, weights, bases)[:limit] if limit > 0 else []
            ),
        )
    elif kind == "top_k_items":
        items, weights, limit, live = args
        want_limit = limit if limit > 0 else None
        keys = []
        assert_same(
            lambda: ranker.top_k_items(items, weights, limit, live=live,
                                       keys=keys),
            lambda: ref_items(ranker, items, weights, live)[:want_limit],
        )
        check_keys(keys, lambda: ranker.item_keys(items, weights, live=live),
                   lambda: ref_items(ranker, items, weights, live))
    elif kind == "rank_items":
        items, weights, live = args
        keys = []
        assert_same(
            lambda: ranker.rank_items(items, weights, live=live, keys=keys),
            lambda: ref_items(ranker, items, weights, live),
        )
        check_keys(keys, lambda: ranker.item_keys(items, weights, live=live),
                   lambda: ref_items(ranker, items, weights, live))
    elif kind == "rank_ids":
        ids, weights = args
        assert_same(
            lambda: ranker.rank_ids(ids, weights),
            lambda: ref_ids(ranker, ids, weights),
        )
    else:
        ids, weights = args
        check_keys(None, lambda: ranker.id_keys(ids, weights),
                   lambda: ref_ids(ranker, ids, weights))


def check_keys(handed_out, keys_call, want_call):
    """Unsorted sort keys sort into the reference's ids and scores; keys
    handed out through ``keys=`` (None: none) equal ``keys_call``'s."""
    want, want_error = _outcome(want_call)
    keys, error = _outcome(keys_call)
    assert error is want_error
    if want_error is not None:
        return
    if handed_out is not None:
        assert handed_out == keys
    assert [(aid, repr(-negated)) for negated, aid, _ in sorted(keys)] == [
        (entry.artifact_id, repr(entry.score)) for entry in want
    ]


@given(
    override_views=st.booleans(),
    steps=st.lists(st.tuples(writes_st, call_st), min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_entry_points_match_reference(override_views, steps):
    """Writes between calls move the usage version, so later calls run
    on the resolver's incrementally patched usage snapshot."""
    store = _store()
    ranker = _ranker(store, override_views)
    for writes, call in steps:
        for aid, user, action in writes:
            store.clock.advance(days=1)
            store.record(aid, user, action)
        check_call(ranker, call)


def test_snapshot_spares_deleted_artifact_the_resolver():
    """A deleted id whose snapshot carries the field never reaches the
    catalog, in the kernel as in ``score``."""
    store = _store()
    ranker = _ranker(store, override_views=False)
    weights = [RankingWeight("rows", 2.0), RankingWeight("views", 1.0)]
    items = [
        ScoredArtifact("gone-1", fields={"rows": 5}),
        ScoredArtifact("x-0"),
    ]
    ranked = ranker.top_k_items(items, weights, 1, live=True)
    assert _bits(ranked) == _bits(ref_items(ranker, items, weights, True)[:1])
    assert ranked[0].artifact_id == "gone-1"


# -- view-level check ----------------------------------------------------------


def _view_fixture():
    store = generate_catalog(SynthConfig(seed=11, n_tables=40, n_users=8,
                                         n_teams=2))
    spec = default_spec()
    ranker = Ranker(FieldResolver(store))
    return store, spec, ranker, BuiltinProviders(store), ViewFactory(
        store, spec, ranker
    )


def _result(providers, name, inputs):
    request = ProviderRequest(
        inputs=inputs, context=RequestContext(user_id="", limit=50)
    )
    return providers.endpoints()[name](request)


def _ref_categories(store, spec, ranker, provider, result):
    weights = spec.effective_ranking(provider.name)
    groups = []
    for category in result.categories:
        ids = [aid for aid in category.artifact_ids if store.has_artifact(aid)]
        ranked = ref_ids(ranker, ids, weights)
        groups.append(CategoryGroup(
            name=category.name,
            total=len(ids),
            preview=tuple(
                make_card(store, e.artifact_id, score=e.score)
                for e in ranked[:CATEGORY_PREVIEW_SIZE]
            ),
            all_ids=tuple(e.artifact_id for e in ranked),
        ))
    return tuple(groups)


def _ref_cards(store, spec, ranker, provider, result, limit):
    weights = spec.effective_ranking(provider.name)
    present = [
        item for item in result.items if store.has_artifact(item.artifact_id)
    ]
    ranked = ref_items(ranker, present, weights, live=True)
    cards = tuple(
        make_card(store, e.artifact_id, score=e.score) for e in ranked
    )
    return cards[:limit] if limit > 0 else cards


def test_views_match_reference_across_usage_writes():
    store, spec, ranker, providers, factory = _view_fixture()
    rng = random.Random(3)
    users = [u.id for u in store.users()]
    ids = store.artifact_ids()
    listing = {
        "most_viewed": {},
        "newest": {},
        "recent_documents": {"user": users[0]},
        "of_type": {"artifact_type": "table"},
        "badged": {"badge": "endorsed"},
    }
    for _ in range(3):
        for name in ("types", "badges"):
            provider = spec.provider(name)
            result = _result(providers, name, {})
            view = factory.build(provider, result)
            assert isinstance(view, CategoriesView)
            assert view.groups == _ref_categories(
                store, spec, ranker, provider, result
            )
        for name, inputs in listing.items():
            provider = spec.provider(name)
            result = _result(providers, name, inputs)
            # A cached result may name artifacts deleted since.
            result = ProviderResult(
                representation=result.representation,
                items=result.items + (
                    ScoredArtifact("gone-1", score=9.0),
                    ScoredArtifact("gone-2", fields={"views": 99}),
                ),
            )
            for limit in (0, 1, 4, 50):
                view = factory.build(provider, result, inputs, limit=limit)
                assert view.cards == _ref_cards(
                    store, spec, ranker, provider, result, limit
                ), (name, limit)
        for _ in range(40):
            store.clock.advance(days=0.5)
            store.record(
                rng.choice(ids), rng.choice(users),
                rng.choice(("view", "view", "open", "favorite")),
            )
