"""C1 scheduler-contract rule: RPR102 (select must not mutate the model).

``select`` observes the instance through read-only state — mutating
``Instance`` / ``DAG`` / ``Job`` objects there corrupts every other
scheduler sharing the instance (they are reused across experiment sweeps).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..model import Violation
from ..registry import Rule, register_rule
from .common import attribute_parts, iter_functions

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import FileContext

__all__ = [
    "SelectMutatesModelRule",
]


#: Local/attribute names that (by repo convention) refer to shared model
#: objects a scheduler must never mutate inside ``select``.
_MODEL_NAMES = frozenset({"instance", "_instance", "job", "jobs", "_jobs", "dag"})


@register_rule
class SelectMutatesModelRule(Rule):
    rule_id = "RPR102"
    title = "select() must not mutate Instance/DAG state"
    rationale = (
        "instances and DAGs are shared, frozen, and reused across every "
        "scheduler in a sweep; `select()` writing through `instance.*`, "
        "`job.*`, or `dag.*` corrupts later runs. Keep per-run bookkeeping "
        "on the scheduler itself (`self._...`)."
    )
    bad_example = """\
class GreedyScheduler:
    def select(self, m, state):
        for job in state.unfinished:
            job.priority += 1
        return []
"""
    good_example = """\
class GreedyScheduler:
    def select(self, m, state):
        for job_id in state.unfinished:
            self._priority[job_id] += 1
        return []
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for func in iter_functions(ctx.tree):
            if func.name != "select":
                continue
            for node in ast.walk(func):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = node.targets
                else:
                    continue
                for target in targets:
                    part = self._model_part(target)
                    if part is not None:
                        yield self.violation(
                            ctx,
                            target.lineno,
                            target.col_offset,
                            f"`select()` writes through `{part}`, mutating "
                            "shared Instance/DAG state; keep bookkeeping on "
                            "`self` instead",
                        )

    @staticmethod
    def _model_part(target: ast.expr) -> str | None:
        """The model name a write passes *through*, or None if clean.

        ``self._instance = x`` only binds an attribute on self (fine), but
        ``self._instance.jobs = x`` or ``job.dag.height[v] = 0`` write into
        the model. Subscript targets count their terminal name too
        (``jobs[0] = x`` writes into the job list).
        """
        parts = attribute_parts(target)
        if parts is None:
            return None
        candidates = parts if isinstance(target, ast.Subscript) else parts[:-1]
        # A bare Name target is a local rebind, never a model write.
        if isinstance(target, ast.Name):
            return None
        for part in candidates:
            if part in _MODEL_NAMES:
                return part
        return None
