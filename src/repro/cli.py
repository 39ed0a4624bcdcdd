"""Command-line interface.

Usage (also via ``python -m repro``):

    repro demo                          # guided walkthrough
    repro search "badged: endorsed"     # run a query on a catalog
    repro search --nl "tables owned by Alex endorsed by Mike"
    repro search "type: table" --federate 4       # partitioned federation
    repro search "orders" --member sales=s.db --member ml=ml.db
    repro search "orders" --trace       # print the request's span tree
    repro metrics                       # Prometheus-format metrics dump
    repro study                         # run the simulated study (E1/E2)
    repro spec                          # print the default spec JSON
    repro spec --validate my_spec.json  # validate a spec file
    repro generate --tables 200 --out catalog.json
    repro export --out out/             # HTML views (Figure 6/7)
    repro catalog init --db cat.db --tables 200   # persistent catalog
    repro catalog info --db cat.db

Every command accepts ``--catalog FILE`` to work on a saved catalog JSON,
``--store FILE`` to open a persistent catalog database (see ``repro
catalog``), or ``--tables N --seed S`` to generate one on the fly; the
default is the study catalog with the paper's example entities.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro.catalog.persistence import load_catalog, save_catalog
from repro.catalog.store import CatalogStore
from repro.core.query.nlq import NaturalLanguageTranslator, explain
from repro.core.render import render_preview_text, render_tabs_text
from repro.core.spec import spec_from_json, spec_to_json, validate_spec
from repro.errors import HumboldtError
from repro.federation import Discovery, FederationError, federate
from repro.obs import (
    RingBufferExporter,
    Tracer,
    default_registry,
    render_span_tree,
)
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog, study_catalog
from repro.workbook.app import WorkbookApp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Humboldt (VLDB 2024) reproduction: metadata-driven "
                    "extensible data discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_catalog_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--catalog", type=Path, default=None,
                       help="load a saved catalog JSON instead of generating")
        p.add_argument("--store", type=Path, default=None,
                       help="open a persistent catalog database "
                            "(created with 'repro catalog init')")
        p.add_argument("--tables", type=int, default=None,
                       help="generate a catalog with this many tables")
        p.add_argument("--seed", type=int, default=7,
                       help="generation seed (default 7)")
        p.add_argument("--stats", action="store_true",
                       help="print provider execution stats (calls, cache "
                            "hits, latency percentiles) after the command")

    demo = sub.add_parser("demo", help="guided walkthrough")
    add_catalog_options(demo)

    search = sub.add_parser("search", help="run a query")
    search.add_argument("query", help="query text (or English with --nl)")
    search.add_argument("--nl", action="store_true",
                        help="translate natural language first")
    search.add_argument("--user", default="",
                        help="user id for personalised providers")
    search.add_argument("--limit", type=int, default=10)
    search.add_argument("--explain", action="store_true",
                        help="print the cost-based query plan (estimated "
                             "vs actual cardinality, per-node latency, "
                             "skipped fetches)")
    search.add_argument("--trace", action="store_true",
                        help="trace the request and print the span tree "
                             "(planner, engine, provider fetches — and "
                             "one member search each when federated) with "
                             "timings and cache/skip annotations")
    search.add_argument("--budget-ms", type=float, default=None,
                        help="deadline budget for provider fetches; once "
                             "spent, remaining fetches are skipped or "
                             "served stale and the result is flagged "
                             "degraded")
    search.add_argument("--federate", type=int, default=None, metavar="N",
                        help="partition the resolved catalog into N member "
                             "catalogs and search them through the "
                             "federation layer (qualified ids in output)")
    search.add_argument("--member", action="append", default=[],
                        metavar="NAME=PATH",
                        help="add a persistent catalog database as a "
                             "federation member (repeatable); the first "
                             "member is the default for bare ids")
    add_catalog_options(search)

    metrics = sub.add_parser(
        "metrics",
        help="exercise the overview fan-out, then print every metrics "
             "registry in Prometheus text exposition format",
    )
    metrics.add_argument("--user", default="",
                         help="user id for personalised providers")
    add_catalog_options(metrics)

    health = sub.add_parser(
        "health",
        help="generate an overview, then print per-endpoint resilience "
             "state (circuit breakers, stale serves, deadline skips)",
    )
    health.add_argument("--user", default="",
                        help="user id for personalised providers")
    add_catalog_options(health)

    study = sub.add_parser("study", help="run the simulated user study")
    study.add_argument("--seed", type=int, default=7)

    spec = sub.add_parser("spec", help="print or validate a specification")
    spec.add_argument("--validate", type=Path, default=None,
                      help="validate this spec JSON file")
    spec.add_argument("--lint", action="store_true",
                      help="also print usability warnings")

    generate = sub.add_parser("generate", help="generate a synthetic catalog")
    generate.add_argument("--tables", type=int, default=120)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", type=Path, required=True)

    export = sub.add_parser("export", help="render the interface to HTML")
    export.add_argument("--out", type=Path, default=Path("out"))
    add_catalog_options(export)

    catalog = sub.add_parser(
        "catalog",
        help="manage persistent catalog databases (init/ingest/compact/info)",
    )
    catsub = catalog.add_subparsers(dest="catalog_command", required=True)

    def add_db_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", type=Path, required=True,
                       help="path of the catalog database file")

    def add_synth_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tables", type=int, default=120,
                       help="synthetic tables to generate (default 120)")
        p.add_argument("--seed", type=int, default=7,
                       help="generation seed (default 7)")
        p.add_argument("--events", type=int, default=4000,
                       help="usage events to generate (default 4000)")

    cat_init = catsub.add_parser(
        "init", help="create a catalog database and ingest a synthetic corpus"
    )
    add_db_option(cat_init)
    add_synth_options(cat_init)
    cat_init.add_argument("--force", action="store_true",
                          help="replace an existing database file")

    cat_ingest = catsub.add_parser(
        "ingest",
        help="re-run the synth ingestion pipeline against an existing "
             "database; up-to-date ingestors are skipped by fingerprint",
    )
    add_db_option(cat_ingest)
    add_synth_options(cat_ingest)

    cat_compact = catsub.add_parser(
        "compact", help="flush pending writes and reclaim file space"
    )
    add_db_option(cat_compact)

    cat_info = catsub.add_parser(
        "info", help="print storage diagnostics and ingestion fingerprints"
    )
    add_db_option(cat_info)

    return parser


def _resolve_store(args) -> CatalogStore:
    if getattr(args, "store", None):
        return CatalogStore.open(args.store)
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    if getattr(args, "tables", None):
        return generate_catalog(
            SynthConfig(seed=args.seed, n_tables=args.tables)
        )
    return study_catalog(seed=getattr(args, "seed", 7))


def _maybe_print_stats(args, app: WorkbookApp, out) -> None:
    if getattr(args, "stats", False):
        print("\nexecution stats:", file=out)
        print(app.stats.render(), file=out)


def _default_user(store: CatalogStore) -> str:
    if store.find_user_by_name("Alex"):
        return store.find_user_by_name("Alex").id
    users = store.users()
    return users[0].id if users else ""


def cmd_demo(args, out) -> int:
    with contextlib.closing(_resolve_store(args)) as store, \
            WorkbookApp(store) as app:
        user_id = _default_user(store)
        session = app.session(user_id)
        tabs = session.open_home()
        print(f"catalog: {store.artifact_count} artifacts, "
              f"{store.user_count} users", file=out)
        print(render_tabs_text(tabs, max_items=5), file=out)
        query = "badged: endorsed"
        result = session.search(query)
        print(f"\nquery> {query}  ({result.total} results)", file=out)
        for entry in result.entries[:5]:
            print(f"  {store.artifact(entry.artifact_id).name}", file=out)
        if result.entries:
            preview = session.select_artifact(result.entries[0].artifact_id)
            print("", file=out)
            print(render_preview_text(preview), file=out)
        _maybe_print_stats(args, app, out)
    return 0


def _open_discovery(args) -> Discovery:
    """Build the federated surface a ``repro search`` invocation asked for."""
    if args.federate is not None and args.member:
        raise FederationError(
            "--federate partitions one catalog; --member joins existing "
            "ones — pass one or the other, not both"
        )
    if args.federate is not None:
        if args.federate < 2:
            raise FederationError("--federate needs at least 2 members")
        with contextlib.closing(_resolve_store(args)) as store:
            federation, _ = federate(store, args.federate)
        return Discovery(federation)
    members: dict[str, Path] = {}
    for item in args.member:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise FederationError(
                f"--member expects NAME=PATH, got {item!r}"
            )
        if name in members:
            raise FederationError(f"duplicate federation member {name!r}")
        members[name] = Path(path)
    return Discovery.open(members=members)


def _print_trace(ring: RingBufferExporter, out) -> None:
    print("\ntrace:", file=out)
    tree = render_span_tree(ring.spans())
    print(tree if tree else "(no spans recorded)", file=out)


def _translate(interface, query: str, out) -> str:
    """The query text an English *query* translates to (``--nl``)."""
    translated = NaturalLanguageTranslator(
        interface.language, interface.store
    ).translate(query)
    print(f"translated: {translated.query_text()}", file=out)
    return translated.query_text()


def _federated_search(args, out) -> int:
    with _open_discovery(args) as discovery:
        ring = None
        if args.trace:
            # One tracer shared by the federation and every member
            # engine, so the whole member loop lands in one trace.
            ring = RingBufferExporter()
            discovery.federation.set_tracer(Tracer(exporters=(ring,)))
        users = discovery.federation.users()
        user_id = args.user or (users[0].id if users else "")
        print(f"federation: {len(discovery.members())} members "
              f"({', '.join(discovery.members())})", file=out)
        query = args.query
        if args.nl:
            # Every member shares the spec; names resolve against the
            # default member's store.
            query = _translate(discovery.federation.member_interface(
                discovery.default_member), query, out)
        result = discovery.search(query, user_id=user_id,
                                  limit=args.limit,
                                  budget_ms=args.budget_ms)
        print(f"{result.total} result(s) for {result.query!r}", file=out)
        for entry in result.entries:
            artifact = discovery.artifact(entry.ref)
            print(f"  {entry.id:<44} {artifact.name:<40}"
                  f" score={entry.score:.2f}", file=out)
        if result.truncated:
            print("note: at least one member filled the fetch limit; "
                  "totals may under-report", file=out)
        if result.degraded:
            print("note: DEGRADED result — member catalogs or their "
                  "providers failed, were skipped or answered stale:",
                  file=out)
            for marker in result.health:
                where = marker.provider
                if marker.endpoint != marker.provider:
                    where += f" ({marker.endpoint})"
                print(f"  {where}: {marker.status}"
                      f"{' — ' + marker.detail if marker.detail else ''}",
                      file=out)
        if ring is not None:
            _print_trace(ring, out)
        if getattr(args, "stats", False):
            print("\nexecution stats:", file=out)
            print(discovery.render_stats(), file=out)
    return 0 if result.total else 1


def cmd_search(args, out) -> int:
    if args.federate is not None or args.member:
        return _federated_search(args, out)
    with contextlib.closing(_resolve_store(args)) as store, \
            WorkbookApp(store) as app:
        ring = None
        if args.trace:
            ring = RingBufferExporter()
            app.engine.enable_tracing(ring)
        user_id = args.user or _default_user(store)
        query = args.query
        if args.nl:
            query = _translate(app.interface, query, out)
        result, _ = app.interface.search(query, user_id=user_id,
                                         limit=args.limit,
                                         budget_ms=args.budget_ms)
        print(f"{result.total} result(s); "
              f"{explain(result.query.node)}", file=out)
        for entry in result.entries:
            artifact = store.artifact(entry.artifact_id)
            print(f"  {artifact.name:<40} {artifact.artifact_type.value:<14}"
                  f" score={entry.score:.2f}", file=out)
        if result.truncated:
            print("note: at least one provider filled the fetch limit; "
                  "totals may under-report", file=out)
        if result.degraded:
            print("note: DEGRADED result — some providers were stale or "
                  "skipped:", file=out)
            for marker in result.health:
                print(f"  {marker.provider}: {marker.status}"
                      f"{' — ' + marker.detail if marker.detail else ''}",
                      file=out)
        if args.explain and result.plan is not None:
            print("", file=out)
            print(result.plan.render(), file=out)
        if ring is not None:
            _print_trace(ring, out)
        _maybe_print_stats(args, app, out)
    return 0 if result.total else 1


def cmd_metrics(args, out) -> int:
    """Exercise the overview fan-out, then dump every metrics registry.

    Two registries exist: the engine's own (execution counters, invoke
    latency histogram, breaker state) and the process-wide default
    registry (always-on instrumentation such as sqlite statement
    timings).  Both are printed in Prometheus text exposition format.
    """
    with contextlib.closing(_resolve_store(args)) as store, \
            WorkbookApp(store) as app:
        user_id = args.user or _default_user(store)
        app.interface.overview_tabs(user_id=user_id)
        print("# engine registry", file=out)
        print(app.engine.stats.metrics.render_prometheus(), file=out)
        print("# process default registry", file=out)
        print(default_registry().render_prometheus(), file=out)
    return 0


def cmd_health(args, out) -> int:
    """Exercise the overview fan-out, then report resilience state.

    Exit code 1 signals degradation (an open breaker, a failed provider,
    stale serves) so scripts can alert on it; 0 means fully healthy.
    """
    with contextlib.closing(_resolve_store(args)) as store, \
            WorkbookApp(store) as app:
        user_id = args.user or _default_user(store)
        app.interface.overview_tabs(user_id=user_id)
        print(app.engine.render_health(), file=out)
        degraded = app.interface.degraded
        if degraded:
            print("\ndegraded providers:", file=out)
            for marker in app.interface.last_health:
                if marker.degraded:
                    print(f"  {marker.provider}: {marker.status}"
                          f"{' — ' + marker.detail if marker.detail else ''}",
                          file=out)
        _maybe_print_stats(args, app, out)
    return 1 if degraded else 0


def cmd_study(args, out) -> int:
    from repro.study.executor import run_study
    from repro.study.report import full_report

    run = run_study(seed=args.seed)
    print(full_report(run), file=out)
    return 0


def cmd_spec(args, out) -> int:
    if args.validate:
        spec = spec_from_json(args.validate.read_text(encoding="utf-8"))
        problems = validate_spec(spec, strict=False)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=out)
            return 1
        print(f"OK: {len(spec)} providers, spec is valid", file=out)
        if args.lint:
            from repro.core.spec import lint_spec

            for warning in lint_spec(spec):
                print(f"WARN: {warning}", file=out)
        return 0
    print(spec_to_json(default_spec()), file=out)
    return 0


def cmd_generate(args, out) -> int:
    store = generate_catalog(SynthConfig(seed=args.seed,
                                         n_tables=args.tables))
    path = save_catalog(store, args.out)
    print(f"wrote {store.artifact_count} artifacts to {path}", file=out)
    return 0


def cmd_export(args, out) -> int:
    from repro.core.render import render_interface_html, render_view_html

    with contextlib.closing(_resolve_store(args)) as store, \
            WorkbookApp(store) as app:
        session = app.session(_default_user(store))
        tabs = session.open_home()
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "interface.html").write_text(
            render_interface_html(tabs), encoding="utf-8"
        )
        for tab in tabs:
            path = args.out / f"view_{tab.provider_name}.html"
            path.write_text(
                "<!DOCTYPE html><html><body>"
                + render_view_html(tab.view)
                + "</body></html>",
                encoding="utf-8",
            )
        print(f"wrote {len(tabs) + 1} HTML files to {args.out}", file=out)
        _maybe_print_stats(args, app, out)
    return 0


def _synth_config(args) -> SynthConfig:
    return SynthConfig(seed=args.seed, n_tables=args.tables,
                       usage_events=args.events)


def cmd_catalog(args, out) -> int:
    from repro.errors import CatalogError
    from repro.synth import synth_ingestors

    if args.catalog_command == "init":
        if args.db.exists():
            if not args.force:
                raise CatalogError(
                    f"{args.db} already exists; pass --force to replace it "
                    f"or use 'repro catalog ingest' to extend it"
                )
            for suffix in ("", "-wal", "-shm"):
                Path(str(args.db) + suffix).unlink(missing_ok=True)
        with CatalogStore.open(args.db) as store:
            outcomes = synth_ingestors(_synth_config(args)).ingest_into(store)
            for name, outcome in outcomes.items():
                print(f"  {name}: {outcome}", file=out)
            print(f"initialised {args.db}: {store.artifact_count} artifacts, "
                  f"{store.user_count} users, {len(store.usage)} events",
                  file=out)
        return 0

    if args.catalog_command == "ingest":
        with CatalogStore.open(args.db) as store:
            outcomes = synth_ingestors(_synth_config(args)).ingest_into(store)
            for name, outcome in outcomes.items():
                print(f"  {name}: {outcome}", file=out)
        return 0

    if args.catalog_command == "compact":
        with CatalogStore.open(args.db) as store:
            before = store.storage_info().get("size_bytes", 0)
            store.compact()
            after = store.storage_info().get("size_bytes", 0)
            print(f"compacted {args.db}: {before} -> {after} bytes", file=out)
        return 0

    # info
    with CatalogStore.open(args.db) as store:
        info = store.storage_info()
        print(f"backend:  {info['backend']} (schema v{info['schema_version']})",
              file=out)
        print(f"path:     {info['path']} ({info['size_bytes']} bytes)",
              file=out)
        print("stored:   "
              + ", ".join(f"{k}={v}" for k, v in info["stored"].items()),
              file=out)
        print("hydrated: "
              + ", ".join(f"{k}={v}" for k, v in info["hydrated"].items()),
              file=out)
        versions = store.domain_versions
        print("versions: total={} {}".format(
            store.version,
            " ".join(f"{d}={v}" for d, v in sorted(versions.items()))),
            file=out)
        fingerprints = store.ingest_fingerprints()
        if fingerprints:
            print("ingested:", file=out)
            for name, fingerprint in sorted(fingerprints.items()):
                print(f"  {name}: {fingerprint}", file=out)
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "search": cmd_search,
    "metrics": cmd_metrics,
    "health": cmd_health,
    "study": cmd_study,
    "spec": cmd_spec,
    "generate": cmd_generate,
    "export": cmd_export,
    "catalog": cmd_catalog,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except HumboldtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
