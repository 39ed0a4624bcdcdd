"""The default Humboldt specification for the built-in provider suite.

This is the reproduction's analogue of the spec the paper's use case
installs in Sigma Workbook (Section 6.1, Figure 2): every built-in
provider declared with its category, representation, inputs, visibility
and ranking — including the paper's Listing 1 global ranking weights
(``favorite``: 4.3, ``views``: 1.5).
"""

from __future__ import annotations

from repro.core.spec.builder import SpecBuilder
from repro.core.spec.model import HumboldtSpec, Visibility


def default_spec() -> HumboldtSpec:
    """Build the full default specification (validated)."""
    builder = (
        SpecBuilder()
        # -- interaction providers ------------------------------------
        .provider(
            "recents", "catalog://recents", "list",
            category="interaction",
            title="Recents",
            description="Artifacts you recently viewed or edited.",
            inputs=[("user", "user", False)],
            ranking=[("recency", 5.0)],
            dependencies=("usage", "entities"),
        )
        .provider(
            "recent_documents", "catalog://recent_documents", "list",
            category="interaction",
            title="Recent Documents",
            description="Workbooks and documents you recently used.",
            inputs=[("user", "user", False)],
            visibility=Visibility(overview=False, exploration=False,
                                  search=True),
            dependencies=("usage", "entities"),
        )
        .provider(
            "most_viewed", "catalog://most_viewed", "tiles",
            category="interaction",
            title="Most Viewed",
            description="The most viewed artifacts across the organisation.",
            ranking=[("views", 2.0), ("recency", 1.0)],
            dependencies=("usage", "entities"),
        )
        .provider(
            "newest", "catalog://newest", "list",
            category="interaction",
            title="Newly Created",
            description="Artifacts created most recently.",
            ranking=[("freshness", 3.0)],
            dependencies=("entities",),
        )
        .provider(
            "favorites", "catalog://favorites", "list",
            category="interaction",
            title="Favorites",
            description="Artifacts you marked as favorites.",
            inputs=[("user", "user", False)],
            dependencies=("usage", "entities"),
        )
        # -- annotation providers ---------------------------------------
        .provider(
            "owned_by", "catalog://owned_by", "list",
            category="annotation",
            title="Owned By",
            description="Artifacts owned by a given user.",
            inputs=[("user", "user", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities", "membership"),
        )
        .provider(
            "created_by", "catalog://created_by", "list",
            category="annotation",
            title="Created By",
            description="Artifacts created by a given user.",
            inputs=[("user", "user", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities", "membership"),
        )
        .provider(
            "of_type", "catalog://of_type", "list",
            category="annotation",
            title="Of Type",
            description="Artifacts of a given type (table, workbook, ...).",
            inputs=[("artifact_type", "artifact_type", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            search_field="type",
            dependencies=("entities",),
        )
        .provider(
            "types", "catalog://types", "categories",
            category="annotation",
            title="Type",
            description="All artifacts grouped by artifact type.",
            visibility=Visibility(overview=True, exploration=False,
                                  search=False),
            dependencies=("entities",),
        )
        .provider(
            "badges", "catalog://badges", "categories",
            category="annotation",
            title="Badges",
            description="All artifacts grouped by badge.",
            visibility=Visibility(overview=True, exploration=False,
                                  search=False),
            dependencies=("entities", "badges"),
        )
        .provider(
            "badged", "catalog://badged", "list",
            category="annotation",
            title="Badged",
            description="Artifacts carrying a given badge.",
            inputs=[("badge", "badge", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities", "badges"),
        )
        .provider(
            "badged_by", "catalog://badged_by", "list",
            category="annotation",
            title="Badged By",
            description="Artifacts with a badge granted by a given user.",
            inputs=[("user", "user", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities", "membership", "badges"),
        )
        .provider(
            "tagged", "catalog://tagged", "list",
            category="annotation",
            title="Tagged",
            description="Artifacts carrying a given tag.",
            inputs=[("text", "text", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities",),
        )
        # -- team providers -----------------------------------------------
        .provider(
            "team_popular", "catalog://team_popular", "list",
            category="team",
            title="Popular With Your Team",
            description="Most viewed by members of your team.",
            inputs=[("team", "team", False)],
            dependencies=("usage", "membership", "entities"),
        )
        .provider(
            "team_docs", "catalog://team_docs", "tiles",
            category="team",
            title="Team Documents",
            description="Artifacts belonging to your team.",
            inputs=[("team", "team", False)],
            dependencies=("entities", "membership"),
        )
        # -- relatedness providers ---------------------------------------------
        .provider(
            "joinable", "catalog://joinable", "graph",
            category="relatedness",
            title="Joinable",
            description="Tables joinable to the selected table, as a graph.",
            inputs=[("artifact", "artifact", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities",),
        )
        .provider(
            "lineage", "catalog://lineage", "hierarchy",
            category="relatedness",
            title="Lineage",
            description="Artifacts derived from the selected artifact.",
            inputs=[("artifact", "artifact", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("lineage", "entities"),
        )
        .provider(
            "lineage_graph", "catalog://lineage_graph", "graph",
            category="relatedness",
            title="Lineage Graph",
            description="Upstream and downstream lineage neighbourhood.",
            inputs=[("artifact", "artifact", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=False),
            dependencies=("lineage", "entities"),
        )
        .provider(
            "similar", "catalog://similar", "list",
            category="relatedness",
            title="Similar",
            description="Artifacts similar to the selected one "
                        "(semantic + schema ensemble).",
            inputs=[("artifact", "artifact", True)],
            visibility=Visibility(overview=False, exploration=True,
                                  search=True),
            dependencies=("entities", "text"),
        )
        .provider(
            "embedding_map", "catalog://embedding_map", "embedding",
            category="relatedness",
            title="Catalog Map",
            description="2-D embedding of the whole catalog.",
            visibility=Visibility(overview=True, exploration=False,
                                  search=False),
            dependencies=("entities", "text"),
        )
        # -- global ranking: the paper's Listing 1 ------------------------------
        .ranking("favorite", 4.3)
        .ranking("views", 1.5)
    )
    return builder.build()
