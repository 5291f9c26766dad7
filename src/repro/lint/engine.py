"""The lint engine: parse files, build the whole-program context, run rules.

``lint_source`` is the unit every test exercises (lint one string);
``lint_paths`` walks directories, builds the cross-module
:class:`~repro.lint.summaries.SummaryTable` that RPR201's interprocedural
leg reads, and aggregates a
:class:`~repro.lint.model.LintReport` with deterministic ordering.

``lint_paths`` additionally supports:

* an **incremental cache** (``cache_dir=``): per-file findings, symbol
  tables, and local mutation summaries are keyed by content hash plus a
  fingerprint of the rule set itself. A file is re-analyzed only when its
  bytes change, the rules change, or one of the *call-summary lookups it
  performed last time* now resolves differently — each lookup a rule makes
  through :meth:`FileContext.lookup_call` is recorded as a dependency and
  re-validated against the fresh summary table on every warm run, so an
  edit to a helper three modules away correctly invalidates its callers
  and nothing else. Cached and cold runs produce bit-identical reports.

Suppression pragmas (``# repro-lint: disable=...``) cover the line they
sit on *and*, via :attr:`FileContext.statement_anchors`, any continuation
line of a multi-line statement whose first physical line carries the
pragma.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from .callgraph import CallDesc, ModuleInfo, ProjectIndex, module_name_for
from .model import LintReport, Violation, parse_suppressions
from .registry import RULES, Rule
from .summaries import (
    FunctionSummary,
    SummaryTable,
    build_summaries,
    extract_module,
    summary_fingerprint,
)

__all__ = [
    "FileContext",
    "build_project",
    "lint_paths",
    "lint_source",
    "ruleset_fingerprint",
]

#: Rule id reserved for meta-violations of the suppression policy itself.
SUPPRESSION_RULE_ID = "RPR000"
#: Rule id reserved for files that fail to parse.
SYNTAX_RULE_ID = "RPR999"

#: Cache schema version; bump on any layout change to invalidate cleanly.
_CACHE_VERSION = 1
_CACHE_FILENAME = "cache.json"

#: AST statements whose *body* is indented below a header; only the header
#: lines anchor to the statement for suppression purposes (a pragma on
#: ``if x:`` must not blanket the whole block).
_COMPOUND_STMTS = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Try,
)


class FileContext:
    """One parsed source file plus lazily computed shared analyses.

    When built by ``lint_paths`` (or ``lint_source``) the context carries
    the whole-program ``project`` summary table; rules reach it through
    :meth:`lookup_call`, which also records the lookup as a cache
    dependency in :attr:`deps`.
    """

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        project: Optional[SummaryTable] = None,
        module_name: Optional[str] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.project = project
        self.module_name = module_name or module_name_for(path)
        #: Recorded summary lookups, serialized into the incremental cache
        #: and re-validated on warm runs (see :func:`_deps_valid`).
        self.deps: list[list[Any]] = []

    # -- whole-program lookups (dependency-recording) ----------------------

    def lookup_call(
        self, desc: CallDesc, class_name: Optional[str] = None
    ) -> Optional[FunctionSummary]:
        """Summary of the project function a call descriptor resolves to.

        Returns ``None`` for external/unresolvable calls. Every lookup —
        including misses — is recorded as a cache dependency, so a call
        that *starts* resolving (a helper moved into the project) will
        invalidate this file's cached findings.
        """
        qualname: Optional[str] = None
        summary: Optional[FunctionSummary] = None
        if self.project is not None:
            info = self.project.index.resolve_call(self.module_name, desc, class_name)
            if info is not None:
                qualname = info.qualname
                summary = self.project.get(qualname)
        fingerprint = summary_fingerprint(summary) if summary is not None else None
        self.deps.append(
            ["call", self.module_name, class_name, desc[0], desc[1], qualname, fingerprint]
        )
        return summary

    # -- per-file analyses -------------------------------------------------

    @cached_property
    def statement_anchors(self) -> dict[int, int]:
        """Continuation line -> first physical line of its statement.

        Used by suppression matching: a pragma on the first line of a
        multi-line statement covers violations reported on any of its
        continuation lines. Compound statements anchor only their header
        (up to the line before the first body statement).
        """
        anchors: dict[int, int] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            end = node.end_lineno or node.lineno
            if isinstance(node, _COMPOUND_STMTS):
                body = node.body
                if body:
                    end = min(end, body[0].lineno - 1)
            for line in range(node.lineno + 1, end + 1):
                # Outer statements are walked first; keep the innermost
                # anchor only where no outer statement claimed the line.
                anchors.setdefault(line, node.lineno)
        return anchors

    @cached_property
    def import_aliases(self) -> dict[str, str]:
        """Local name -> fully qualified dotted name it refers to.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
        random as nr`` maps ``nr -> numpy.random``; ``from os import
        urandom`` maps ``urandom -> os.urandom``. Only module-level and
        nested imports are tracked; the map is name-collision-last-wins,
        which is the right approximation for lint purposes.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    target = name.name if name.asname else name.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never hit stdlib/numpy rules
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    aliases[local] = f"{node.module}.{name.name}"
        return aliases

    def dotted_name(self, node: ast.expr) -> str | None:
        """Resolve ``Attribute``/``Name`` chains to a canonical dotted path.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``"numpy.random.rand"``; unresolvable shapes (calls, subscripts)
        return ``None``.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.import_aliases.get(cur.id, cur.id)
        parts.append(root)
        return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Project construction
# ----------------------------------------------------------------------


def build_project(
    entries: Sequence[tuple[str, ast.Module]],
) -> SummaryTable:
    """Whole-program summary table for a set of ``(path, tree)`` pairs."""
    index = ProjectIndex()
    local: dict[str, FunctionSummary] = {}
    for path, tree in entries:
        info = ModuleInfo(module_name_for(path), str(path), tree)
        index.add(info)
        local.update(extract_module(info, tree))
    return build_summaries(index, local)


@lru_cache(maxsize=1)
def ruleset_fingerprint() -> str:
    """Content hash of the registered rule ids plus the lint package source.

    Any edit to a rule, the engine, or the analysis layer changes this
    fingerprint and therefore invalidates every cached finding — the cache
    can only return stale results if the code that produced them is
    byte-identical.
    """
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parent
    for source_file in sorted(package_root.rglob("*.py")):
        digest.update(str(source_file.relative_to(package_root)).encode("utf-8"))
        digest.update(source_file.read_bytes())
    for rule_id in sorted(RULES):
        digest.update(rule_id.encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Core per-file lint (shared by serial, parallel, and lint_source paths)
# ----------------------------------------------------------------------


def _syntax_violation(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        rule_id=SYNTAX_RULE_ID,
        message=f"file does not parse: {exc.msg}",
    )


def _lint_tree(
    ctx: FileContext, rules: Sequence[Rule]
) -> tuple[list[Violation], int]:
    """Run ``rules`` over one parsed file; returns (findings, suppressed)."""
    raw: list[Violation] = []
    for rule in rules:
        raw.extend(rule.check(ctx))

    findings: list[Violation] = []
    suppressed = 0
    suppressions = parse_suppressions(ctx.lines)
    for sup in suppressions:
        if not sup.has_reason:
            findings.append(
                Violation(
                    path=ctx.path,
                    line=sup.line,
                    col=0,
                    rule_id=SUPPRESSION_RULE_ID,
                    message=(
                        "suppression without a reason; write "
                        "`# repro-lint: disable="
                        + ",".join(sup.rule_ids)
                        + " (why this line is exempt)`"
                    ),
                )
            )

    anchors = ctx.statement_anchors
    for violation in raw:
        anchor = anchors.get(violation.line)
        covering = [s for s in suppressions if s.covers(violation, anchor)]
        if covering and all(s.has_reason for s in covering):
            suppressed += 1
            continue
        findings.append(violation)
    findings.sort()
    return findings, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
    project: Optional[SummaryTable] = None,
) -> LintReport:
    """Lint one source string; returns a report with suppressions applied.

    Without an explicit ``project``, a single-file summary table is built
    from the source itself, so interprocedural rules still see same-file
    helper chains.
    """
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.violations.append(_syntax_violation(path, exc))
        return report

    if project is None:
        project = build_project([(path, tree)])
    ctx = FileContext(path=path, source=source, tree=tree, project=project)
    active = list(rules) if rules is not None else list(RULES.values())
    findings, suppressed = _lint_tree(ctx, active)
    report.violations.extend(findings)
    report.suppressed_count = suppressed
    report.sort()
    return report


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------


def _content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _load_cache(cache_dir: Path) -> dict[str, Any]:
    cache_path = cache_dir / _CACHE_FILENAME
    if not cache_path.is_file():
        return {}
    try:
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return {}
    if (
        not isinstance(payload, dict)
        or payload.get("version") != _CACHE_VERSION
        or payload.get("ruleset") != ruleset_fingerprint()
    ):
        return {}
    files = payload.get("files")
    return files if isinstance(files, dict) else {}


def _write_cache(cache_dir: Path, files: dict[str, Any]) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": _CACHE_VERSION,
        "ruleset": ruleset_fingerprint(),
        "files": files,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # Atomic replace so an interrupted run can never leave a torn cache.
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, prefix=".cache-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp_name, cache_dir / _CACHE_FILENAME)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _deps_valid(deps: list[list[Any]], table: SummaryTable) -> bool:
    """Do the recorded summary lookups still resolve identically?

    This is the precise invalidation step: cached findings survive only if
    every call-summary lookup the rules performed last time resolves to
    the same function with the same mutation fingerprint today. It catches
    both changed helpers *and* previously-unresolved calls that now
    resolve (e.g. a helper module newly added to the tree).
    """
    for dep in deps:
        if not dep or dep[0] != "call":
            return False
        _, module, class_name, kind, name, qualname, fingerprint = dep
        info = table.index.resolve_call(module, (kind, name), class_name)
        new_qualname = info.qualname if info is not None else None
        if new_qualname != qualname:
            return False
        if new_qualname is not None:
            summary = table.get(new_qualname)
            new_fp = summary_fingerprint(summary) if summary is not None else None
            if new_fp != fingerprint:
                return False
    return True


def _dedup_deps(deps: list[list[Any]]) -> list[list[Any]]:
    seen: set[tuple] = set()
    out: list[list[Any]] = []
    for dep in deps:
        key = tuple(dep)
        if key not in seen:
            seen.add(key)
            out.append(dep)
    return out


# ----------------------------------------------------------------------
# Directory walking + the orchestrating entry point
# ----------------------------------------------------------------------


def _iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") or part == "__pycache__"
                           for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(set(files))


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    *,
    cache_dir: str | Path | None = None,
    baseline: Optional[dict] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    ``cache_dir`` enables the incremental findings cache; ``baseline`` is
    a loaded baseline multiset (see :mod:`repro.lint.baseline`) filtered
    at report level.

    The report is byte-identical across cold and cached runs for the same
    tree.
    """
    from .baseline import apply_baseline

    active = list(rules) if rules is not None else list(RULES.values())
    files = _iter_python_files(paths)
    sources: dict[str, str] = {}
    hashes: dict[str, str] = {}
    for file_path in files:
        key = str(file_path)
        sources[key] = file_path.read_text(encoding="utf-8")
        hashes[key] = _content_hash(sources[key])

    cache_path = Path(cache_dir) if cache_dir is not None else None
    cached_files = _load_cache(cache_path) if cache_path is not None else {}
    # Only a full-rule-set run may reuse or refresh cached findings; a
    # --select run would otherwise poison the cache with partial results.
    full_ruleset = rules is None

    # Phase 1: per-file symbol tables + local summaries (cache-aware).
    trees: dict[str, ast.Module] = {}
    syntax_findings: dict[str, Violation] = {}
    index = ProjectIndex()
    local: dict[str, FunctionSummary] = {}
    # path -> per-file local summary qualnames (to serialize into cache)
    local_by_file: dict[str, dict[str, FunctionSummary]] = {}

    for key in sorted(sources):
        entry = cached_files.get(key)
        if entry is not None and entry.get("hash") == hashes[key]:
            if entry.get("syntax_error") is not None:
                err = entry["syntax_error"]
                syntax_findings[key] = Violation(
                    path=key,
                    line=err["line"],
                    col=err["col"],
                    rule_id=SYNTAX_RULE_ID,
                    message=err["message"],
                )
                local_by_file[key] = {}
                continue
            info = ModuleInfo.from_data(entry["module"])
            index.add(info)
            file_local = {
                qualname: FunctionSummary.from_json(data)
                for qualname, data in entry["summaries"].items()
            }
            local.update(file_local)
            local_by_file[key] = file_local
            continue
        try:
            tree = ast.parse(sources[key], filename=key)
        except SyntaxError as exc:
            syntax_findings[key] = _syntax_violation(key, exc)
            local_by_file[key] = {}
            continue
        trees[key] = tree
        info = ModuleInfo(module_name_for(key), key, tree)
        index.add(info)
        file_local = extract_module(info, tree)
        local.update(file_local)
        local_by_file[key] = file_local

    # Phase 2: close summaries over the whole-program call graph.
    table = build_summaries(index, local)

    # Phase 3: decide which files need fresh rule execution.
    results: dict[str, tuple[list[Violation], int, list]] = {}
    to_lint: list[str] = []
    for key in sorted(sources):
        if key in syntax_findings:
            results[key] = ([syntax_findings[key]], 0, [])
            continue
        entry = cached_files.get(key)
        if (
            full_ruleset
            and entry is not None
            and entry.get("hash") == hashes[key]
            and entry.get("findings") is not None
            and _deps_valid(entry.get("deps", []), table)
        ):
            results[key] = (
                [Violation(**v) for v in entry["findings"]],
                entry.get("suppressed", 0),
                entry.get("deps", []),
            )
            continue
        to_lint.append(key)

    # Phase 4: run the rules.
    for key in to_lint:
        tree = trees.get(key)
        if tree is None:
            tree = ast.parse(sources[key], filename=key)
        ctx = FileContext(path=key, source=sources[key], tree=tree, project=table)
        findings, suppressed = _lint_tree(ctx, active)
        results[key] = (findings, suppressed, _dedup_deps(ctx.deps))

    # Phase 5: assemble the report deterministically.
    report = LintReport()
    for key in sorted(sources):
        report.files_checked += 1
        findings, suppressed, _deps = results.get(key, ([], 0, []))
        report.violations.extend(findings)
        report.suppressed_count += suppressed
    if baseline:
        apply_baseline(report, baseline)
    report.sort()

    # Phase 6: persist the refreshed cache.
    if cache_path is not None:
        new_cache: dict[str, Any] = {}
        for key in sorted(sources):
            entry: dict[str, Any] = {"hash": hashes[key]}
            if key in syntax_findings:
                v = syntax_findings[key]
                entry["syntax_error"] = {
                    "line": v.line,
                    "col": v.col,
                    "message": v.message,
                }
                entry["summaries"] = {}
            else:
                info = index.modules.get(module_name_for(key))
                cached_entry = cached_files.get(key)
                if (
                    cached_entry is not None
                    and cached_entry.get("hash") == hashes[key]
                    and "module" in cached_entry
                ):
                    entry["module"] = cached_entry["module"]
                elif info is not None:
                    entry["module"] = info.to_data()
                entry["summaries"] = {
                    qualname: summary.to_json()
                    for qualname, summary in local_by_file.get(key, {}).items()
                }
            if full_ruleset and key in results and key not in syntax_findings:
                findings, suppressed, deps = results[key]
                entry["findings"] = [v.to_json() for v in findings]
                entry["suppressed"] = suppressed
                entry["deps"] = deps
            else:
                entry["findings"] = None
            new_cache[key] = entry
        _write_cache(cache_path, new_cache)

    return report
