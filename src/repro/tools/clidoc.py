"""Generate the ``repro`` CLI reference (``docs/cli.md``) from argparse.

The flag tables are emitted straight from :func:`repro.tools.cli.build_parser`,
so the reference cannot silently drift from the code: the companion
checker (:func:`repro.tools.docscheck.check_cli_doc`) fails CI — and
``tests/test_docs.py`` — whenever a flag exists in the parser but is
missing from the committed document.

``--metrics`` emits the Prometheus series reference
(``docs/metrics.md``) the same way, from the
:func:`repro.reporting.series` declarations on the report dataclasses.

Usage::

    python -m repro.tools.clidoc --out docs/cli.md   # (re)generate
    python -m repro.tools.clidoc                     # print to stdout
    python -m repro.tools.clidoc --metrics --out docs/metrics.md
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HEADER = """\
# `repro` CLI reference

<!-- Generated by `python -m repro.tools.clidoc --out docs/cli.md`.
     Regenerate after changing any parser in repro/tools/cli.py —
     repro.tools.docscheck (and tests/test_docs.py) fail when a flag
     exists in the parser but not here. -->

Run any command as `PYTHONPATH=src python -m repro.tools <command> …`.
The fleet workflows behind these flags are documented in
[fleet.md](fleet.md), the storage knobs in [storage.md](storage.md),
and the restore path (storms, read-side admission, retention modes) in
[restore.md](restore.md).
"""


def subcommand_parsers(
    parser: argparse.ArgumentParser,
) -> dict[str, argparse.ArgumentParser]:
    """The parser's subcommands, in declaration order."""
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            return dict(action.choices)
    raise ValueError("parser has no subcommands")


def subcommand_helps(parser: argparse.ArgumentParser) -> dict[str, str]:
    """Each subcommand's one-line help string."""
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            return {
                choice.dest: choice.help or ""
                for choice in action._choices_actions  # noqa: SLF001
            }
    return {}


def iter_flags(
    sub: argparse.ArgumentParser,
) -> list[tuple[str, str, str]]:
    """(flag spelling, default, help) rows of one subcommand's options."""
    rows = []
    for action in sub._actions:  # noqa: SLF001
        if not action.option_strings:
            continue  # positionals (none today)
        if isinstance(action, argparse._HelpAction):  # noqa: SLF001
            continue
        spelling = ", ".join(f"`{opt}`" for opt in action.option_strings)
        if action.choices is not None:
            spelling += (
                " `{" + ",".join(str(c) for c in action.choices) + "}`"
            )
        elif action.metavar is not None:
            spelling += f" `{action.metavar}`"
        elif action.type is not None or isinstance(
            action, argparse._StoreAction  # noqa: SLF001
        ):
            spelling += f" `{action.dest.upper()}`"
        if action.required:
            default = "required"
        elif isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            default = "off"
        elif action.default is None:
            default = "unset"
        else:
            default = f"`{action.default}`"
        help_text = " ".join((action.help or "").split())
        rows.append((spelling, default, help_text))
    return rows


def all_flags(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Every option string per subcommand — the drift-check inventory."""
    flags: dict[str, set[str]] = {}
    for name, sub in subcommand_parsers(parser).items():
        flags[name] = {
            opt
            for action in sub._actions  # noqa: SLF001
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)  # noqa: SLF001
            for opt in action.option_strings
        }
    return flags


def render_cli_doc(parser: argparse.ArgumentParser | None = None) -> str:
    """The full markdown reference for the ``repro`` CLI."""
    if parser is None:
        from .cli import build_parser

        parser = build_parser()
    sections = [HEADER]
    helps = subcommand_helps(parser)
    for name, sub in subcommand_parsers(parser).items():
        title = (sub.description or "").strip() or helps.get(name, name)
        sections.append(
            f"\n## `repro {name}`\n\n"
            f"{title.splitlines()[0].strip().capitalize()}\n"
        )
        rows = iter_flags(sub)
        if not rows:
            sections.append("(no options)\n")
            continue
        sections.append("| flag | default | meaning |")
        sections.append("| --- | --- | --- |")
        for spelling, default, help_text in rows:
            sections.append(
                f"| {spelling} | {default} | {help_text or '—'} |"
            )
        sections.append("")
    return "\n".join(sections).rstrip() + "\n"


METRICS_HEADER = """\
# Prometheus series reference

<!-- Generated by `python -m repro.tools.clidoc --metrics --out
     docs/metrics.md`. Regenerate after changing any `series(...)`
     declaration — repro.tools.docscheck (and tests/test_docs.py) fail
     when a declared series is missing here. -->

`--metrics-out PATH` writes a Prometheus textfile: `repro scan` the
`repro_scan_*` series, `repro fleet` `repro_fleet_*`, `repro plan`
`repro_plan_*` and `repro serve` `repro_serving_*`. A series is declared
once, on the report dataclass field it exports
(`repro.reporting.series`): *source* names that field, and the HELP
text is the field's documentation.

| series | type | labels | help | source |
| --- | --- | --- | --- | --- |
"""


def series_rows() -> list[tuple[str, str, str, str, str]]:
    """(series, type, labels, help, source field) of every series."""
    from ..core.integrity import IntegrityReport
    from ..fleet import FleetRunReport, PlanPoint, ProvisioningCurve
    from ..reporting import declared_series
    from ..serving import ServingReport
    from .metrics import PREFIX

    surfaces = (
        ("scan", IntegrityReport, "job"),
        ("fleet", FleetRunReport, "—"),
        ("plan", ProvisioningCurve, "—"),
        ("plan", PlanPoint, "quota, keep_last, admission"),
        ("serving", ServingReport, "—"),
    )
    return [
        (
            f"{PREFIX}_{prefix}_{spec.name or attr}",
            spec.type,
            labels,
            spec.help,
            f"{cls.__name__}.{attr}",
        )
        for prefix, cls, labels in surfaces
        for attr, spec in declared_series(cls)
    ]


def render_metrics_doc() -> str:
    """The full markdown reference of the exported series."""
    return METRICS_HEADER + "".join(
        f"| `{name}` | {kind} | {labels} | {help_text} | `{source}` |\n"
        for name, kind, labels, help_text, source in series_rows()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-clidoc",
        description="emit docs/cli.md from the repro argparse parsers",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the reference here (default: stdout)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="emit the Prometheus series reference (docs/metrics.md) "
        "instead of the CLI reference",
    )
    args = parser.parse_args(argv)
    body = render_metrics_doc() if args.metrics else render_cli_doc()
    if args.out is None:
        sys.stdout.write(body)
    else:
        Path(args.out).write_text(body, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
