"""Markdown link + CLI-reference checker for the docs surface.

CI runs this over ``README.md`` and ``docs/*.md`` so the documented
entry points cannot rot: every relative link must resolve to a file (or
directory) inside the repository, and every intra-document anchor link
must at least point at a markdown file that exists. External
``http(s)``/``mailto`` links are skipped — CI must not depend on the
network.

It also guards ``docs/cli.md`` against drift
(:func:`check_cli_doc`): every option string of every ``repro``
subcommand (from :func:`repro.tools.cli.build_parser`) must appear in
the generated reference — adding a flag without re-running
``python -m repro.tools.clidoc --out docs/cli.md`` fails CI and
``tests/test_docs.py``. ``docs/metrics.md`` is guarded the same way
(:func:`check_metrics_doc`) against the Prometheus series the report
dataclasses declare.

Usage::

    python -m repro.tools.docscheck [--root REPO_ROOT]

Exit status 0 when every link resolves and both generated references
are complete, 1 otherwise (problems are listed on stderr).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: Markdown inline links: [text](target). Images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Link schemes that are not checked (no network in CI).
_SKIPPED_PREFIXES = ("http://", "https://", "mailto:")


def iter_links(markdown: str) -> list[str]:
    """All inline link targets in a markdown document, in order."""
    return _LINK_RE.findall(markdown)


def check_file(path: Path, root: Path) -> list[str]:
    """Broken link targets of one markdown file.

    Relative targets resolve against the file's own directory and must
    stay inside ``root``; a pure ``#anchor`` refers to the file itself
    and is always fine.
    """
    broken = []
    for target in iter_links(path.read_text(encoding="utf-8")):
        if target.startswith(_SKIPPED_PREFIXES):
            continue
        if target.startswith("#"):
            continue  # intra-document anchor
        candidate = target.split("#", 1)[0]
        resolved = (path.parent / candidate).resolve()
        if not resolved.is_relative_to(root.resolve()):
            broken.append(f"{target} (escapes the repository)")
            continue
        if not resolved.exists():
            broken.append(target)
    return broken


def default_documents(root: Path) -> list[Path]:
    """The repo's documentation surface: README.md plus docs/*.md."""
    documents = []
    readme = root / "README.md"
    if readme.exists():
        documents.append(readme)
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        documents.extend(sorted(docs_dir.glob("*.md")))
    return documents


def check_tree(root: Path) -> dict[str, list[str]]:
    """Broken links per document (relative path -> targets)."""
    report: dict[str, list[str]] = {}
    for document in default_documents(root):
        broken = check_file(document, root)
        if broken:
            report[str(document.relative_to(root))] = broken
    return report


#: Locations of the generated references relative to the repo root.
CLI_DOC = Path("docs") / "cli.md"
METRICS_DOC = Path("docs") / "metrics.md"


def _generated_doc_drift(
    root: Path,
    doc: Path,
    entries: list[tuple[str, str]],
    rendered: str,
    regenerate: str,
) -> list[str]:
    """Drift between a generated reference and its committed file.

    Two guards, reported in order:

    * **missing entries** — every ``(label, token)`` whose token does
      not appear in the document as a whole word (so a documented
      ``--admission-backlog-factor`` does not hide a missing
      ``--admission``) is reported by its label. These name exactly
      what a code change added.
    * **staleness** — the document is fully generated, so anything
      short of byte-equality with ``rendered`` (something removed or
      renamed, a changed default or help string) is drift too,
      reported as one ``stale`` entry.

    A missing file is reported as a single entry. Either way the fix
    is the same: run ``regenerate``.
    """
    doc_path = root / doc
    if not doc_path.exists():
        return [f"missing {doc} (run `{regenerate}`)"]
    text = doc_path.read_text(encoding="utf-8")
    problems = [
        label
        for label, token in entries
        if not re.search(re.escape(token) + r"(?![\w-])", text)
    ]
    if text != rendered:
        problems.append(
            f"{doc} is stale — regenerate with `{regenerate}`"
        )
    return problems


def check_cli_doc(root: Path) -> list[str]:
    """Drift between the CLI parsers and the committed ``docs/cli.md``.

    Missing flags read ``<subcommand>: <flag>``; see
    :func:`_generated_doc_drift` for the two guards.
    """
    from .cli import build_parser
    from .clidoc import all_flags, render_cli_doc

    parser = build_parser()
    return _generated_doc_drift(
        root,
        CLI_DOC,
        [
            (f"{command}: {flag}", flag)
            for command, flags in sorted(all_flags(parser).items())
            for flag in sorted(flags)
        ],
        render_cli_doc(parser),
        "python -m repro.tools.clidoc --out docs/cli.md",
    )


def check_metrics_doc(root: Path) -> list[str]:
    """Drift between the declared series and ``docs/metrics.md``."""
    from .clidoc import render_metrics_doc, series_rows

    return _generated_doc_drift(
        root,
        METRICS_DOC,
        [(row[0], row[0]) for row in series_rows()],
        render_metrics_doc(),
        "python -m repro.tools.clidoc --metrics --out docs/metrics.md",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-docscheck",
        description="check README.md/docs/*.md links resolve",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (default: current directory)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root)
    documents = default_documents(root)
    if not documents:
        print(f"no documentation found under {root}", file=sys.stderr)
        return 1
    report = check_tree(root)
    for document, broken in sorted(report.items()):
        for target in broken:
            print(f"BROKEN LINK {document}: {target}", file=sys.stderr)
    undocumented = check_cli_doc(root)
    for entry in undocumented:
        print(f"UNDOCUMENTED CLI FLAG {entry}", file=sys.stderr)
    undeclared = check_metrics_doc(root)
    for entry in undeclared:
        print(f"UNDOCUMENTED SERIES {entry}", file=sys.stderr)
    if report or undocumented or undeclared:
        return 1
    total = sum(
        len(iter_links(d.read_text(encoding="utf-8")))
        for d in documents
    )
    print(
        f"checked {len(documents)} documents, {total} links: all "
        "resolve; CLI reference covers every parser flag, metrics "
        "reference every declared series"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
