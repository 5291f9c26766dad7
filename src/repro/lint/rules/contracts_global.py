"""W1 whole-program contract verification: RPR312 (pure tie-break whose
``key()`` is transitively impure).

The per-file rule RPR004 catches a ``key()`` that draws randomness
*directly*. This module catches what no single file can show: a tie-break
whose ``key()`` looks clean but reaches an unseeded RNG draw two helper
calls away, in another module.

The rule consults the whole-program effect summaries
(:mod:`repro.lint.summaries`) through
:meth:`FileContext.lookup_summary`, which both returns the transitively
closed effects of a method and records the lookup as an incremental-cache
dependency — so editing a helper three modules down correctly re-lints
the tie-break that calls it. Every violation names the full call path
from the method to the offending effect
(``key -> pkg.helpers.jitter -> pkg.helpers.draw``), because "your
contract is wrong somewhere below this call" is not actionable and
"this exact chain reads the RNG" is.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from ..model import Violation
from ..registry import Rule, register_rule
from ..summaries import EffectRecord, FunctionSummary
from .determinism import ImpureTieBreakKeyRule

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import FileContext

__all__ = ["TransitiveImpureTieBreakRule"]

#: Effect kinds that contradict a determinism contract: anything that
#: makes repeated evaluation return different answers.
_NONDET_KINDS = ("rng", "clock", "env")


def _methods(node: ast.ClassDef, names: Iterable[str]) -> Iterator[ast.FunctionDef]:
    wanted = set(names)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            stmt.name in wanted
        ):
            yield stmt  # type: ignore[misc]


def _dedup_effects(effects: list[EffectRecord]) -> list[EffectRecord]:
    """One report per distinct origin statement, deterministic order."""
    seen: set[tuple[str, str, int]] = set()
    out: list[EffectRecord] = []
    for effect in sorted(effects):
        key = (effect.kind, effect.origin, effect.line)
        if key not in seen:
            seen.add(key)
            out.append(effect)
    return out


def _method_summary(
    ctx: "FileContext", class_name: str, method: str
) -> FunctionSummary | None:
    return ctx.lookup_summary(f"{ctx.module_name}.{class_name}.{method}")


@register_rule
class TransitiveImpureTieBreakRule(Rule):
    rule_id = "RPR312"
    title = "pure tie-breaks must not reach impure effects through helpers"
    rationale = (
        "a TieBreak that does not declare `pure = False` promises the "
        "kernel fast path may materialize its priorities once per job via "
        "`priority_kernel`. RPR004 catches a `key()` that draws randomness "
        "*directly*; this rule follows `key()` through every project-local "
        "helper call — a jitter utility two modules away still makes the "
        "key impure, and the heap path and kernel path silently diverge. "
        "The message names the exact call chain."
    )
    bad_example = """\
def _noise(rng):
    return rng.random()

class JitterTieBreak(TieBreak):
    def key(self, job, node):
        return _noise(self._rng)
"""
    good_example = """\
def _noise(rng):
    return rng.random()

class JitterTieBreak(TieBreak):
    pure = False  # per-call RNG is the point; kernel path disabled

    def key(self, job, node):
        return _noise(self._rng)
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not ImpureTieBreakKeyRule._is_tie_break_subclass(node):
                continue
            if ImpureTieBreakKeyRule._declares_impure(node):
                continue
            for func in _methods(node, ("key",)):
                summary = _method_summary(ctx, node.name, func.name)
                if summary is None:
                    continue
                start = f"{node.name}.{func.name}"
                transitive = [
                    e
                    for e in summary.effects_of_kind(*_NONDET_KINDS)
                    if e.path  # direct effects are RPR004's report
                ]
                for effect in _dedup_effects(transitive):
                    yield self.violation(
                        ctx,
                        func.lineno,
                        func.col_offset,
                        f"`{start}()` reaches nondeterminism through a "
                        f"helper chain — {effect.detail} "
                        f"(call path: {effect.route(start)}, "
                        f"line {effect.line}); priorities are materialized "
                        "once per job on the kernel path, so the impure key "
                        "silently diverges — make the chain pure or declare "
                        "`pure = False`",
                    )
