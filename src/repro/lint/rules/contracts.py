"""C1 scheduler-contract rules: RPR102 (select must not mutate the model)
and RPR103 (engine-reserved names).

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
    "ReservedEngineNameRule",
    "SelectMutatesModelRule",
]


def _names_defined_in_class_body(node: ast.ClassDef) -> set[str]:
    defined: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            defined.add(stmt.target.id)
    return defined


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


#: Method-name prefixes and exact names the engine reserves for itself on
#: scheduler instances. ``_engine_*`` is the documented reserved namespace.
_RESERVED_PREFIX = "_engine_"
_RESERVED_NAMES = frozenset({"_fast_forward", "_fast_forward_state"})


@register_rule
class ReservedEngineNameRule(Rule):
    rule_id = "RPR103"
    title = "scheduler subclasses must not define engine-reserved names"
    rationale = (
        "the simulation engine reserves the `_engine_*` namespace (plus "
        "`_fast_forward*`) on scheduler instances for its own bookkeeping; "
        "a subclass overriding one shadows engine internals and breaks in "
        "ways the type checker cannot see."
    )
    bad_example = """\
class MyScheduler(Scheduler):
    def _engine_checkpoint(self, state):
        return state
"""
    good_example = """\
class MyScheduler(Scheduler):
    def _checkpoint(self, state):
        return state
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_scheduler_subclass(node):
                continue
            for name in sorted(_names_defined_in_class_body(node)):
                if name.startswith(_RESERVED_PREFIX) or name in _RESERVED_NAMES:
                    yield self.violation(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"scheduler subclass `{node.name}` defines "
                        f"engine-reserved name `{name}`",
                    )

    @staticmethod
    def _is_scheduler_subclass(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if name.endswith("Scheduler") or name.endswith("SchedulerBase"):
                return True
        return False
