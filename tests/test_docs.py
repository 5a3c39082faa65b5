"""The documentation surface stays sound: links resolve, docs exist.

Guards the satellite promise of the docs PR — a README and docs pages
whose relative links cannot rot — by running the same checker CI uses
(:mod:`repro.tools.docscheck`) against the repository itself, plus unit
coverage of the checker's parsing and escape handling.
"""

from __future__ import annotations

from pathlib import Path

from repro.tools.clidoc import (
    all_flags,
    render_cli_doc,
    render_metrics_doc,
    series_rows,
)
from repro.tools.cli import build_parser
from repro.tools.docscheck import (
    check_cli_doc,
    check_file,
    check_metrics_doc,
    check_tree,
    default_documents,
    iter_links,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestLinkParsing:
    def test_iter_links_finds_inline_targets(self):
        md = "See [a](docs/a.md) and ![img](x.png) but not `[b](c)`-ish"
        assert iter_links(md) == ["docs/a.md", "x.png", "c"]

    def test_external_and_anchor_links_are_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[web](https://example.com) [mail](mailto:a@b.c) "
            "[anchor](#section)"
        )
        assert check_file(doc, tmp_path) == []

    def test_broken_relative_link_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[missing](nope.md) [ok](doc.md)")
        assert check_file(doc, tmp_path) == ["nope.md"]

    def test_anchor_suffix_on_existing_file_resolves(self, tmp_path):
        (tmp_path / "other.md").write_text("# t")
        doc = tmp_path / "doc.md"
        doc.write_text("[sec](other.md#t)")
        assert check_file(doc, tmp_path) == []

    def test_link_escaping_the_repo_is_reported(self, tmp_path):
        root = tmp_path / "repo"
        root.mkdir()
        doc = root / "doc.md"
        doc.write_text("[up](../outside.md)")
        (tmp_path / "outside.md").write_text("exists but outside")
        broken = check_file(doc, root)
        assert broken and "escapes" in broken[0]


class TestRepositoryDocs:
    def test_readme_and_docs_exist(self):
        documents = {
            p.relative_to(REPO_ROOT).as_posix()
            for p in default_documents(REPO_ROOT)
        }
        assert "README.md" in documents
        assert "docs/architecture.md" in documents
        assert "docs/fleet.md" in documents
        assert "docs/restore.md" in documents
        assert "docs/cli.md" in documents

    def test_all_repository_doc_links_resolve(self):
        assert check_tree(REPO_ROOT) == {}

    def test_cli_entry_point_passes_on_this_repo(self, capsys):
        assert main(["--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "all resolve" in out

    def test_cli_reports_broken_links(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("[x](gone.md)")
        assert main(["--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "BROKEN LINK" in err


class TestCliReference:
    """docs/cli.md is generated from the parser and cannot drift."""

    def test_repo_cli_doc_covers_every_parser_flag(self):
        assert check_cli_doc(REPO_ROOT) == []

    def test_rendered_doc_contains_every_flag(self):
        rendered = render_cli_doc()
        for command, flags in all_flags(build_parser()).items():
            for flag in flags:
                assert flag in rendered, f"{command}: {flag} missing"

    def test_missing_flag_is_detected(self, tmp_path):
        """Removing one flag from the doc must fail the drift check —
        the guarantee tests/test_docs.py gives every future flag."""
        docs = tmp_path / "docs"
        docs.mkdir()
        stripped = render_cli_doc().replace("`--quota-bytes`", "`--qb`")
        (docs / "cli.md").write_text(stripped, encoding="utf-8")
        missing = check_cli_doc(tmp_path)
        assert missing[0] == "fleet: --quota-bytes"
        assert "stale" in missing[-1]

    def test_stale_doc_without_missing_flags_is_detected(self, tmp_path):
        """Removing a flag from the *parser* side of the contract —
        i.e. the doc still names a flag that no longer exists, or any
        help/default text changed — must fail as staleness even though
        every current flag is still documented."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text(
            render_cli_doc() + "\n| `--retired-flag` | unset | gone |\n",
            encoding="utf-8",
        )
        report = check_cli_doc(tmp_path)
        assert len(report) == 1 and "stale" in report[0]

    def test_flag_matching_is_whole_word(self, tmp_path):
        """A documented --admission-backlog-factor must not satisfy a
        missing --admission: prefixes match only as whole words."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text(
            "`--admission-backlog-factor` only", encoding="utf-8"
        )
        missing = check_cli_doc(tmp_path)
        assert "fleet: --admission" in missing
        assert "fleet: --admission-backlog-factor" not in missing

    def test_missing_doc_file_is_reported(self, tmp_path):
        report = check_cli_doc(tmp_path)
        assert len(report) == 1 and "missing" in report[0]

    def test_cli_entry_point_fails_on_drift(self, tmp_path, capsys):
        """docscheck's exit status covers the CLI reference too."""
        (tmp_path / "README.md").write_text("no links here")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text(
            render_cli_doc().replace("`--quota-bytes`", "`--qb`"),
            encoding="utf-8",
        )
        assert main(["--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "UNDOCUMENTED CLI FLAG" in err


class TestMetricsReference:
    """docs/metrics.md is generated from the ``series(...)``
    declarations and cannot drift."""

    def test_repo_metrics_doc_covers_every_declared_series(self):
        assert check_metrics_doc(REPO_ROOT) == []

    def test_every_surface_declares_series(self):
        names = [row[0] for row in series_rows()]
        assert len(names) == len(set(names)) == 57
        assert {name.split("_")[1] for name in names} == {
            "scan",
            "fleet",
            "plan",
            "serving",
        }

    def test_missing_series_is_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "metrics.md").write_text(
            render_metrics_doc().replace(
                "`repro_fleet_restores`", "`repro_fleet_rst`"
            ),
            encoding="utf-8",
        )
        report = check_metrics_doc(tmp_path)
        assert report[0] == "repro_fleet_restores"
        assert "stale" in report[-1]

    def test_cli_entry_point_fails_on_missing_series(
        self, tmp_path, capsys
    ):
        (tmp_path / "README.md").write_text("no links here")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text(render_cli_doc(), encoding="utf-8")
        (docs / "metrics.md").write_text(
            render_metrics_doc().replace(
                "`repro_scan_torn_checkpoints`", "`gone`"
            ),
            encoding="utf-8",
        )
        assert main(["--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "UNDOCUMENTED SERIES repro_scan_torn_checkpoints" in err
