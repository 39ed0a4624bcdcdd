"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.core.spec import spec_to_json
from repro.providers.suite import default_spec
from repro.synth import study_catalog


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestSearch:
    def test_metadata_query(self):
        code, output = run_cli("search", "badged: endorsed AIRLINES")
        assert code == 0
        assert "AIRLINES" in output

    def test_nl_translation(self):
        code, output = run_cli(
            "search", "--nl", "tables owned by Alex endorsed by Mike"
        )
        assert code == 0
        assert "translated:" in output
        assert "owned_by: Alex" in output

    def test_no_results_exit_code(self):
        code, output = run_cli("search", "zzz_nothing_matches_zzz")
        assert code == 1
        assert "0 result(s)" in output

    def test_bad_query_error_exit(self):
        code, _ = run_cli("search", "bogus_field: x")
        assert code == 2

    def test_generated_catalog_options(self):
        code, output = run_cli("search", "type: table", "--tables", "20",
                               "--seed", "3", "--limit", "2")
        assert code == 0

    def test_explains_the_query(self):
        _, output = run_cli("search", "type: workbook")
        assert "of type workbook" in output


class TestSpec:
    def test_prints_default_spec(self):
        code, output = run_cli("spec")
        assert code == 0
        payload = json.loads(output)
        assert len(payload["providers"]) == len(default_spec())

    def test_validate_good_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(default_spec()), encoding="utf-8")
        code, output = run_cli("spec", "--validate", str(path))
        assert code == 0
        assert "OK" in output

    def test_validate_bad_spec(self, tmp_path):
        payload = json.loads(spec_to_json(default_spec()))
        payload["providers"].append(dict(payload["providers"][0]))  # dup
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, output = run_cli("spec", "--validate", str(path))
        assert code == 1
        assert "INVALID" in output

    def test_lint_flag(self, tmp_path):
        import dataclasses

        spec = default_spec()
        # strip a description to trigger a lint warning
        stripped = spec.with_provider(
            dataclasses.replace(spec.provider("recents"), description="")
        )
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(stripped), encoding="utf-8")
        code, output = run_cli("spec", "--validate", str(path), "--lint")
        assert code == 0
        assert "WARN" in output
        assert "no description" in output

    def test_validate_malformed_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope", encoding="utf-8")
        code, _ = run_cli("spec", "--validate", str(path))
        assert code == 2


class TestGenerateAndLoad:
    def test_generate_then_search(self, tmp_path):
        catalog_path = tmp_path / "catalog.json"
        code, output = run_cli("generate", "--tables", "25",
                               "--out", str(catalog_path))
        assert code == 0
        assert catalog_path.exists()
        code, output = run_cli("search", "type: table",
                               "--catalog", str(catalog_path),
                               "--limit", "3")
        assert code == 0
        assert "table" in output


class TestDemoAndExport:
    def test_demo_runs(self):
        code, output = run_cli("demo", "--tables", "20")
        assert code == 0
        assert "catalog:" in output
        assert "query>" in output

    def test_export_writes_html(self, tmp_path):
        out_dir = tmp_path / "html"
        code, output = run_cli("export", "--tables", "20",
                               "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "interface.html").exists()
        assert "wrote" in output


class TestStudy:
    def test_study_prints_report(self):
        code, output = run_cli("study")
        assert code == 0
        assert "E1 — Task outcomes" in output
        assert "E2 — Post-study questionnaire" in output


class TestHealth:
    def test_healthy_catalog_exits_zero(self):
        code, output = run_cli("health")
        assert code == 0
        assert "breaker" in output
        assert "closed" in output
        assert "degraded" not in output

    def test_stats_flag_appends_table(self):
        code, output = run_cli("health", "--stats")
        assert code == 0
        assert "execution stats:" in output
        assert "TOTAL" in output


class TestSearchBudget:
    def test_spent_budget_degrades_instead_of_failing(self):
        # A budget this small expires before any provider runs: every
        # fetch is skipped, the result is flagged, and the CLI reports
        # which providers degraded rather than erroring out.
        code, output = run_cli(
            "search", "badged: endorsed", "--budget-ms", "0.000001"
        )
        assert code == 1  # no results, but a clean degraded exit
        assert "DEGRADED" in output
        assert "skipped" in output

    def test_ample_budget_behaves_normally(self):
        code, output = run_cli(
            "search", "badged: endorsed AIRLINES", "--budget-ms", "60000"
        )
        assert code == 0
        assert "AIRLINES" in output
        assert "DEGRADED" not in output


class TestFederatedSearch:
    def test_federate_partitions_and_qualifies_ids(self):
        code, output = run_cli(
            "search", "badged: endorsed", "--federate", "3", "--limit", "5"
        )
        assert code == 0
        assert "federation: 3 members (cat0, cat1, cat2)" in output
        # Every printed entry is catalog-qualified.
        entry_lines = [
            line for line in output.splitlines()
            if line.startswith("  cat")
        ]
        assert entry_lines
        assert all(":" in line.split()[0] for line in entry_lines)

    def test_federate_needs_two_members(self):
        code, _ = run_cli("search", "orders", "--federate", "1")
        assert code == 2  # HumboldtError exit

    def test_federate_and_member_are_mutually_exclusive(self):
        code, _ = run_cli(
            "search", "orders", "--federate", "2", "--member", "a=b.db"
        )
        assert code == 2

    def test_nl_under_federation_returns_the_monolith_ids(self):
        query = "tables owned by Alex endorsed by Mike"
        code, single = run_cli("search", "--nl", query)
        assert code == 0
        code, federated = run_cli("search", "--nl", query, "--federate", "2")
        assert code == 0
        assert "DEGRADED" not in federated

        def translated(output):
            return [line for line in output.splitlines()
                    if line.startswith("translated:")]

        assert translated(federated) == translated(single) == [
            "translated: owned_by: Alex & badged: endorsed & "
            "badged_by: Mike & type: table"
        ]
        # The single-catalog search prints names; map them to ids.
        store = study_catalog()
        by_name = {store.artifact(aid).name: aid
                   for aid in store.artifact_ids()}
        want = [by_name[line.split()[0]] for line in single.splitlines()
                if line.startswith("  ")]
        got = [line.split()[0].split(":", 1)[1]
               for line in federated.splitlines()
               if line.startswith("  cat")]
        assert got == want
        assert len(got) == 3

    def test_member_spec_must_be_name_equals_path(self):
        code, _ = run_cli("search", "orders", "--member", "nonsense")
        assert code == 2

    def test_members_join_persistent_catalogs(self, tmp_path):
        for name in ("a", "b"):
            code, _ = run_cli(
                "catalog", "init", "--db", str(tmp_path / f"{name}.db"),
                "--tables", "12", "--events", "50", "--seed",
                "3" if name == "a" else "4",
            )
            assert code == 0
        code, output = run_cli(
            "search", "type: table",
            "--member", f"sales={tmp_path / 'a.db'}",
            "--member", f"ml={tmp_path / 'b.db'}",
            "--limit", "6",
        )
        assert code == 0
        assert "federation: 2 members (sales, ml)" in output
        assert "sales:" in output and "ml:" in output

    def test_one_member_stats_show_the_member_engine(self, tmp_path):
        db = tmp_path / "main.db"
        code, _ = run_cli(
            "catalog", "init", "--db", str(db), "--tables", "12",
            "--events", "50",
        )
        assert code == 0
        code, output = run_cli(
            "search", "type: table", "--member", f"main={db}", "--stats"
        )
        assert code == 0
        guard, member = output.split("execution stats:")[1].split(
            "member main:"
        )
        (row,) = [
            line for line in member.splitlines() if line.startswith("TOTAL")
        ]
        # One member-guard line, then the member engine's stats: a
        # one-member search runs on the member engine only.
        assert guard.split() == [
            "member", "guard", "breaker", "fails", "retry", "s",
            "main", "closed", "0", "0.0",
        ]
        assert int(row.split()[1]) > 0


class TestCatalogCommands:
    def _init(self, tmp_path, tables=30, events=200):
        db = tmp_path / "catalog.db"
        code, output = run_cli(
            "catalog", "init", "--db", str(db),
            "--tables", str(tables), "--events", str(events),
        )
        assert code == 0, output
        return db, output

    def test_init_creates_and_populates(self, tmp_path):
        db, output = self._init(tmp_path)
        assert db.exists()
        assert "synth:entities: applied" in output
        assert "synth:usage: applied" in output
        assert "initialised" in output

    def test_init_refuses_to_clobber_without_force(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, _ = run_cli("catalog", "init", "--db", str(db), "--tables", "30")
        assert code == 2  # HumboldtError exit
        code, output = run_cli(
            "catalog", "init", "--db", str(db),
            "--tables", "30", "--events", "200", "--force",
        )
        assert code == 0, output

    def test_reingest_same_config_skips(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, output = run_cli(
            "catalog", "ingest", "--db", str(db),
            "--tables", "30", "--events", "200",
        )
        assert code == 0
        assert "synth:entities: skipped" in output
        assert "synth:usage: skipped" in output

    def test_reingest_changed_config_fails_loudly(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, _ = run_cli(
            "catalog", "ingest", "--db", str(db),
            "--tables", "31", "--events", "200",
        )
        assert code == 2

    def test_info_reports_storage_and_fingerprints(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, output = run_cli("catalog", "info", "--db", str(db))
        assert code == 0
        assert "backend:  sqlite" in output
        assert "synth:entities" in output
        assert "versions:" in output

    def test_compact_runs(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, output = run_cli("catalog", "compact", "--db", str(db))
        assert code == 0
        assert "compacted" in output

    def test_search_against_persistent_store(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, output = run_cli(
            "search", "badged: endorsed", "--store", str(db)
        )
        assert code in (0, 1)  # result count depends on the badge draw
        assert "result(s)" in output

    def test_demo_against_persistent_store(self, tmp_path):
        db, _ = self._init(tmp_path)
        code, output = run_cli("demo", "--store", str(db))
        assert code == 0
        assert "catalog:" in output
