"""Argument handling for the ``repro lint`` subcommand.

Beyond the original run-the-rules flags, the CLI fronts the incremental
engine:

* ``--cache-dir`` / ``--no-cache`` — the incremental findings cache
  (default ``.repro-lint-cache`` in the working directory; git-ignored);
* ``--baseline`` / ``--update-baseline`` — the committed accepted-debt
  file (see :mod:`repro.lint.baseline`);
* ``--format sarif`` + ``--output`` — SARIF 2.1.0 for code scanning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .baseline import DEFAULT_BASELINE_NAME, load_baseline, write_baseline
from .engine import lint_paths, ruleset_fingerprint
from .registry import RULES, all_rules
from .sarif import render_sarif

__all__ = ["add_lint_arguments", "run_lint"]

#: Default cache location, relative to the working directory. Git-ignored.
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RPR001,RPR002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=(
            "incremental cache directory (default: "
            f"{DEFAULT_CACHE_DIR}); findings and symbol tables are reused "
            "for files whose content, rule set, and cross-module summary "
            "dependencies are unchanged"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline file of accepted findings (default: "
            f"{DEFAULT_BASELINE_NAME} in the working directory, if present)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.rule_id}  {rule.title}")
        print(f"        {rule.rationale}")
    return 0


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output is not None:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code.

    Exit codes: 0 clean, 1 violations found, 2 usage error.
    """
    if args.list_rules:
        return _list_rules()

    rules = None
    if args.select is not None:
        wanted = [tok.strip() for tok in args.select.split(",") if tok.strip()]
        unknown = sorted(set(wanted) - set(RULES))
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES[rule_id] for rule_id in wanted]

    baseline_path = Path(args.baseline) if args.baseline else Path(
        DEFAULT_BASELINE_NAME
    )
    baseline = None
    if not args.update_baseline:
        try:
            loaded = load_baseline(baseline_path)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        baseline = loaded or None

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        report = lint_paths(
            args.paths, rules=rules, cache_dir=cache_dir, baseline=baseline
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.update_baseline:
        count = write_baseline(report.violations, baseline_path)
        print(f"recorded {count} finding(s) into {baseline_path}")
        return 0

    active = list(rules) if rules is not None else list(all_rules())
    if args.format == "json":
        _emit(args, json.dumps(report.to_json(), indent=2))
    elif args.format == "sarif":
        _emit(args, render_sarif(report, active, ruleset_fingerprint()))
    else:
        _emit(args, report.render_text())
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checks for this repository",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
