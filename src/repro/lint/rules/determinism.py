"""D1 determinism rules: RPR001 (global RNG), RPR002 (unordered iteration
in scheduler selection paths), RPR003 (wall-clock / entropy reads),
RPR004 (impure ``TieBreak.key()``).

Every experiment in this repo must be bit-reproducible from an integer
seed. These rules flag the ways nondeterminism has historically leaked
into scheduling codebases: process-global RNG state, iteration order of
unordered containers feeding tie-breaks, reads of the real clock or OS
entropy pool, and tie-break keys whose value depends on anything beyond
``(job, node)``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..model import Violation
from ..registry import Rule, register_rule

# The canonical nondeterminism tables live in ``repro.lint.summaries`` so
# that the interprocedural layer and these per-file rules can never drift
# apart (and so summaries.py needs no import from the rules package).
from ..summaries import NUMPY_SEEDED_API as _NUMPY_SEEDED_API
from ..summaries import WALL_CLOCK_CALLS as _WALL_CLOCK_CALLS
from ..summaries import rng_part as _rng_part
from .common import attribute_parts, iter_functions

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import FileContext

__all__ = [
    "GlobalRNGRule",
    "ImpureTieBreakKeyRule",
    "UnorderedIterationRule",
    "WallClockRule",
]


@register_rule
class GlobalRNGRule(Rule):
    rule_id = "RPR001"
    title = "no global-state RNG calls"
    rationale = (
        "stdlib `random` and the legacy `np.random.*` module functions draw "
        "from hidden process-global state, so results depend on import order "
        "and on what other code ran first. Thread an explicit "
        "`numpy.random.Generator` (seeded via `np.random.default_rng(seed)`) "
        "through instead."
    )
    bad_example = """\
import numpy as np

def sample_sizes(n):
    return np.random.randint(1, 10, size=n)
"""
    good_example = """\
import numpy as np

def sample_sizes(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 10, size=n)
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted == "random" or dotted.startswith("random."):
                yield self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"call to stdlib `{dotted}` uses process-global RNG "
                    "state; use numpy.random.default_rng(seed)",
                )
            elif dotted.startswith("numpy.random."):
                attr = dotted.split(".")[2]
                if attr not in _NUMPY_SEEDED_API:
                    yield self.violation(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"`{dotted}` draws from numpy's global RNG; "
                        "construct a Generator via "
                        "numpy.random.default_rng(seed) instead",
                    )


#: Method names whose bodies decide which subjobs run, and therefore must
#: not depend on hash/iteration order.
_ORDER_SENSITIVE_METHODS = frozenset(
    {"select", "frontier_priorities", "fast_path_job_order"}
)

#: Calls whose result does not depend on the iteration order of their
#: iterable argument, so an unordered iterable flowing straight into them
#: is safe.
_ORDER_NORMALIZING_NAMES = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)
_ORDER_NORMALIZING_ATTRS = frozenset({"nsmallest", "nlargest"})

_SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet")


def _is_set_valued(node: ast.expr) -> bool:
    """Does this expression evaluate to a set (syntactically)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.expr | None) -> bool:
    text = "" if node is None else ast.dump(node)
    return any(f"'{name}'" in text for name in _SET_ANNOTATIONS)


def _normalizing_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _ORDER_NORMALIZING_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in _ORDER_NORMALIZING_ATTRS | _ORDER_NORMALIZING_NAMES
    return False


@register_rule
class UnorderedIterationRule(Rule):
    rule_id = "RPR002"
    title = "no unordered iteration in scheduler selection paths"
    rationale = (
        "`select()` and the list-rule hooks (`frontier_priorities()`, "
        "`fast_path_job_order()`) decide which subjobs run; iterating a set "
        "or a dict view there makes the schedule depend on hash order. Iterate "
        "`sorted(...)` (or feed the container into an order-insensitive "
        "reduction such as min/max/sum/heapq.nsmallest)."
    )
    bad_example = """\
class MyScheduler:
    def select(self, m, state):
        ready = {node for node in state}
        picked = []
        for node in ready:
            picked.append(node)
        return picked[:m]
"""
    good_example = """\
class MyScheduler:
    def select(self, m, state):
        ready = {node for node in state}
        picked = []
        for node in sorted(ready):
            picked.append(node)
        return picked[:m]
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        set_attrs = self._set_typed_self_attrs(ctx.tree)
        for func in iter_functions(ctx.tree):
            if func.name not in _ORDER_SENSITIVE_METHODS:
                continue
            yield from self._check_function(ctx, func, set_attrs)

    @staticmethod
    def _set_typed_self_attrs(tree: ast.Module) -> frozenset[str]:
        """``self.X`` attributes assigned/annotated as sets anywhere."""
        attrs: set[str] = set()
        for node in ast.walk(tree):
            target: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                set_valued = _is_set_valued(node.value)
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                set_valued = _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_valued(node.value)
                )
            else:
                continue
            if (
                set_valued
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
        return frozenset(attrs)

    def _check_function(
        self,
        ctx: "FileContext",
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        set_attrs: frozenset[str],
    ) -> Iterator[Violation]:
        set_locals: set[str] = set()
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(func):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
            if isinstance(node, ast.Assign) and _is_set_valued(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_locals.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_valued(node.value)
                ):
                    set_locals.add(node.target.id)

        def unordered(expr: ast.expr) -> str | None:
            """A description of why ``expr`` is unordered, or ``None``."""
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return "a set literal/comprehension"
            if isinstance(expr, ast.Call):
                if isinstance(expr.func, ast.Name) and expr.func.id in (
                    "set",
                    "frozenset",
                ):
                    return f"a `{expr.func.id}(...)` result"
                if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
                    "values",
                    "keys",
                    "items",
                ):
                    return f"a dict `.{expr.func.attr}()` view"
                return None
            if isinstance(expr, ast.Name) and expr.id in set_locals:
                return f"the set `{expr.id}`"
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in set_attrs
            ):
                return f"the set attribute `self.{expr.attr}`"
            return None

        def normalized(comp_node: ast.expr) -> bool:
            """Is this comprehension a direct argument of sorted()/min()/...?"""
            parent = parents.get(comp_node)
            return isinstance(parent, ast.Call) and _normalizing_call(parent)

        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                why = unordered(node.iter)
                if why is not None:
                    yield self.violation(
                        ctx,
                        node.iter.lineno,
                        node.iter.col_offset,
                        f"`{func.name}()` iterates {why}; hash order leaks "
                        "into the schedule — iterate sorted(...) instead",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ) and not normalized(node):
                for comp in node.generators:
                    why = unordered(comp.iter)
                    if why is not None:
                        yield self.violation(
                            ctx,
                            comp.iter.lineno,
                            comp.iter.col_offset,
                            f"`{func.name}()` iterates {why} in a "
                            "comprehension; hash order leaks into the "
                            "schedule — iterate sorted(...) instead",
                        )


@register_rule
class WallClockRule(Rule):
    rule_id = "RPR003"
    title = "no wall-clock or entropy reads in the library"
    rationale = (
        "`time.time()`, `os.urandom()`, `uuid.uuid4()` etc. make output "
        "depend on when/where the run happened. Measurement code uses the "
        "harness timer `time.perf_counter()`, which never feeds results."
    )
    bad_example = """\
import time

def run_id():
    return int(time.time())
"""
    good_example = """\
import time

def elapsed(start):
    return time.perf_counter() - start
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _WALL_CLOCK_CALLS:
                source = _WALL_CLOCK_CALLS[dotted]
            elif dotted.startswith("secrets."):
                source = "the OS entropy pool"
            else:
                continue
            yield self.violation(
                ctx,
                node.lineno,
                node.col_offset,
                f"`{dotted}` reads {source}, which is nondeterministic; "
                "use an explicit seed (or time.perf_counter for timing)",
            )


@register_rule
class ImpureTieBreakKeyRule(Rule):
    rule_id = "RPR004"
    title = "TieBreak.key() must be pure"
    rationale = (
        "the kernel fast path materializes a tie-break's priorities ONCE "
        "per job (`priority_kernel`, precomputed at arrival); a `key()` "
        "that reads RNG streams, the clock, or mutable globals returns "
        "different values on later calls, so the heap path and the kernel "
        "path silently diverge. Keep `key()` a function of `(job, node)` "
        "only — or declare the class `pure = False`, which disables the "
        "kernel path and keeps the per-call heap semantics."
    )
    bad_example = """\
class JitterTieBreak(TieBreak):
    def key(self, job, node):
        return self._rng.random()
"""
    good_example = """\
class JitterTieBreak(TieBreak):
    pure = False  # per-call RNG is the point; kernel path disabled

    def key(self, job, node):
        return self._rng.random()
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_tie_break_subclass(node):
                continue
            if self._declares_impure(node):
                continue
            for func in iter_functions(node):
                if func.name == "key":
                    yield from self._check_key(ctx, node.name, func)

    @staticmethod
    def _is_tie_break_subclass(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if name.endswith("TieBreak"):
                return True
        return False

    @staticmethod
    def _declares_impure(node: ast.ClassDef) -> bool:
        """``pure = False`` in the class body opts out of the kernel path
        (and of this rule: the fallback heap re-evaluates ``key()`` per
        push, so impurity is then well-defined behaviour)."""
        for stmt in node.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "pure"
                    and isinstance(value, ast.Constant)
                    and value.value is False
                ):
                    return True
        return False

    def _check_key(
        self,
        ctx: "FileContext",
        class_name: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"`{class_name}.key()` declares `{kind} "
                    f"{', '.join(node.names)}`; mutable shared state makes "
                    "the key impure — priorities are precomputed once at "
                    "arrival, so later calls would diverge from the kernel "
                    "path (declare `pure = False` if this is intended)",
                )
            elif isinstance(node, ast.Call):
                why = self._impure_call(ctx, node)
                if why is not None:
                    yield self.violation(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"`{class_name}.key()` {why}; the kernel fast path "
                        "precomputes priorities once per job, so an impure "
                        "key silently diverges from it (make the key a "
                        "function of (job, node) only, or declare "
                        "`pure = False` to keep the heap path)",
                    )

    @staticmethod
    def _impure_call(ctx: "FileContext", node: ast.Call) -> str | None:
        """Why this call makes ``key()`` impure, or ``None``."""
        dotted = ctx.dotted_name(node.func)
        if dotted is not None:
            if dotted == "random" or dotted.startswith("random."):
                return f"draws from stdlib `{dotted}`"
            if dotted.startswith("numpy.random."):
                return f"draws from `{dotted}`"
            if dotted in _WALL_CLOCK_CALLS:
                return f"reads {_WALL_CLOCK_CALLS[dotted]} via `{dotted}`"
            if dotted == "time.perf_counter" or dotted == "time.monotonic":
                return f"reads the clock via `{dotted}`"
            if dotted.startswith("secrets."):
                return f"reads the OS entropy pool via `{dotted}`"
        if isinstance(node.func, ast.Attribute):
            parts = attribute_parts(node.func)
            # The terminal part is the method name; an RNG-ish part anywhere
            # in the chain (``self._rng.random()``, ``rng.integers(...)``)
            # marks the call as a stream draw.
            if parts is not None and any(_rng_part(p) for p in parts):
                chain = ".".join(parts)
                return f"draws from the RNG stream `{chain}`"
        return None
