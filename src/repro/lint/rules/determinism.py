"""D1 determinism rules: RPR001 (global RNG), RPR002 (unordered iteration
in scheduler selection paths), RPR003 (wall-clock / entropy reads).

Every experiment in this repo must be bit-reproducible from an integer
seed. These rules flag the ways nondeterminism has historically leaked
into scheduling codebases: process-global RNG state, iteration order of
unordered containers feeding tie-breaks, and reads of the real clock or
OS entropy pool.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..model import Violation
from ..registry import Rule, register_rule
from .common import iter_functions

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import FileContext

__all__ = [
    "GlobalRNGRule",
    "UnorderedIterationRule",
    "WallClockRule",
]

#: numpy.random attributes that are explicitly-seeded constructors, not
#: the hidden global-state convenience API.
_NUMPY_SEEDED_API = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",
    }
)

#: dotted call -> what it reads. The harness timer ``time.perf_counter``
#: is deliberately absent: it measures, and never feeds results.
_WALL_CLOCK_CALLS = {
    "time.time": "the wall clock",
    "time.time_ns": "the wall clock",
    "datetime.datetime.now": "the wall clock",
    "os.urandom": "the OS entropy pool",
    "uuid.uuid1": "the host clock/MAC",
    "uuid.uuid4": "the OS entropy pool",
}


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
_ORDER_SENSITIVE_METHODS = frozenset({"select", "list_rule", "priority_kernel"})

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
        "`select()` and a list rule's declarations (`list_rule()` and the "
        "`priority_kernel()` it names) decide which subjobs run; iterating a "
        "set or a dict view there makes the schedule depend on hash order. Iterate "
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
