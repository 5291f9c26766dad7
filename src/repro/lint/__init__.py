"""``repro lint`` — AST-based invariant checking for this repository.

The paper's empirical theorem checks (the FIFO Ω(log m) lower bound, LPF
optimality, the MC replay lemma) are only reproducible if every run is
bit-deterministic and every scheduler honours the engine's contracts. This
package makes those invariants *machine-checked* instead of
convention-checked: a pluggable static-analysis framework whose rules
encode the repo-specific hazards that code review keeps having to catch by
hand.

Rule families (see :mod:`repro.lint.rules` and ``docs/lint.md``):

* ``RPR0xx`` — determinism hazards (global RNG state, unordered iteration
  feeding scheduler selections, wall-clock/entropy reads);
* ``RPR1xx`` — scheduler-contract rules (``select`` must not mutate the
  model, engine-reserved private names);
* ``RPR2xx`` — engine-safety rules (no in-place ops on frozen CSR arrays —
  now interprocedural, following tainted arrays through helper calls —
  no bare ``except``, no mutable default arguments);
* ``RPR30x`` — picklability of experiment-harness callables;
* ``RPR31x`` — whole-program contract verification: a tie-break's
  declared purity is checked against *inferred* per-function effect
  summaries built over a cross-module call graph
  (:mod:`repro.lint.callgraph`, :mod:`repro.lint.summaries`), with the
  offending call path named in every message.

Violations can be suppressed per line with an *explained* pragma::

    risky_call()  # repro-lint: disable=RPR003 (reason the rule is wrong here)

A suppression without a reason is itself an error (``RPR000``).

Use as a library::

    from repro.lint import lint_paths

    report = lint_paths(["src"])
    for violation in report.violations:
        print(violation.format())

or from the command line: ``python -m repro lint src [--format json]``.
"""

from __future__ import annotations

from .callgraph import ProjectIndex, build_index, module_name_for
from .engine import (
    FileContext,
    build_project,
    lint_paths,
    lint_source,
    ruleset_fingerprint,
)
from .model import LintReport, Violation
from .registry import RULES, Rule, all_rules, get_rule, register_rule
from .summaries import FunctionSummary, SummaryTable, build_summaries

# Importing the rule modules registers every built-in rule.
from . import rules as _rules  # noqa: F401

__all__ = [
    "FileContext",
    "FunctionSummary",
    "LintReport",
    "ProjectIndex",
    "RULES",
    "Rule",
    "SummaryTable",
    "Violation",
    "all_rules",
    "build_index",
    "build_project",
    "build_summaries",
    "get_rule",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register_rule",
    "ruleset_fingerprint",
]
