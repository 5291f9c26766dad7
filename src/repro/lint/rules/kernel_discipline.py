"""Kernel discipline: RPR008 (honor the declared ``KERNEL_STYLE``).

The engine's kernel module (``repro/core/kernels.py``) declares a
module-level ``KERNEL_STYLE = "vectorized"``: its kernels are whole-array
NumPy passes. A Python-level loop or comprehension there silently
de-vectorizes the hot path — the code still produces the right answer,
so nothing but a profiler (or this rule) would ever notice the 100x
slowdown. Object-dtype arrays are banned too: an ``object`` ndarray
boxes every element, defeating vectorized execution.

The rule triggers on the declaration, not the path: any module that
assigns ``KERNEL_STYLE = "vectorized"`` is checked, and modules without
the constant (everything else in the repo) are exempt.

Escape hatch: a measured exception (say, a short Python loop over a
handful of segments that beats the vectorized form) carries a reasoned
suppression: ``# repro-lint: disable=RPR008 (measured faster)``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..model import Violation
from ..registry import Rule, register_rule
from .common import iter_functions

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import FileContext

__all__ = ["KernelStyleRule"]

#: numpy constructors whose dtype parameter is positional; value = the
#: 0-based position the dtype lands in when passed positionally.
_DTYPE_POSITIONS = {
    "empty": 1,
    "zeros": 1,
    "ones": 1,
    "array": 1,
    "asarray": 1,
    "arange": 1,  # only the 1-arg form; false negatives are acceptable
    "full": 2,
}


def _declares_vectorized(tree: ast.Module) -> bool:
    """Does the module assign ``KERNEL_STYLE = "vectorized"``?"""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "KERNEL_STYLE"
                and isinstance(value, ast.Constant)
                and value.value == "vectorized"
            ):
                return True
    return False


def _is_object_dtype(ctx: "FileContext", expr: ast.expr) -> bool:
    """Does this expression denote the numpy object dtype?"""
    if isinstance(expr, ast.Constant) and expr.value in ("object", "O"):
        return True
    if isinstance(expr, ast.Name) and expr.id == "object":
        return True
    dotted = ctx.dotted_name(expr)
    return dotted in ("numpy.object_", "numpy.dtypes.ObjectDType")


def _object_dtype_args(ctx: "FileContext", call: ast.Call) -> Iterator[ast.expr]:
    """Arguments of ``call`` that pass an object dtype (keyword or
    positional in a known numpy-constructor slot)."""
    for kw in call.keywords:
        if kw.arg == "dtype" and _is_object_dtype(ctx, kw.value):
            yield kw.value
    dotted = ctx.dotted_name(call.func)
    if dotted is not None and dotted.startswith("numpy."):
        pos = _DTYPE_POSITIONS.get(dotted.split(".", 1)[1])
        if pos is not None and len(call.args) > pos:
            if _is_object_dtype(ctx, call.args[pos]):
                yield call.args[pos]


@register_rule
class KernelStyleRule(Rule):
    rule_id = "RPR008"
    title = "kernel modules must honor their declared KERNEL_STYLE"
    rationale = (
        "kernel modules declare `KERNEL_STYLE = \"vectorized\"`: their "
        "kernels are whole-array passes, where a Python-level loop (or an "
        "object-dtype array, which boxes every element) silently "
        "de-vectorizes the engine's hot path. Measured exceptions carry a "
        "reasoned suppression (`# repro-lint: disable=RPR008 (why)`)."
    )
    bad_example = """\
import numpy as np

KERNEL_STYLE = "vectorized"

def csr_children(indptr, indices, nodes):
    out = []
    for u in nodes:
        out.extend(indices[indptr[u]:indptr[u + 1]])
    return np.array(out, dtype=object)
"""
    good_example = """\
import numpy as np

KERNEL_STYLE = "vectorized"

def csr_children(indptr, indices, nodes):
    counts = indptr[nodes + 1] - indptr[nodes]
    base = np.repeat(indptr[nodes], counts)
    offs = np.arange(counts.sum(), dtype=np.int64)
    offs -= np.repeat(np.cumsum(counts) - counts, counts)
    return indices[base + offs]
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        if not _declares_vectorized(ctx.tree):
            return
        for func in iter_functions(ctx.tree):
            yield from self._check_vectorized(ctx, func)

    def _check_vectorized(
        self, ctx: "FileContext", func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                kind = "while" if isinstance(node, ast.While) else "for"
                yield self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"Python-level `{kind}` loop in `{func.name}` of a "
                    "vectorized kernel module; express it as a whole-array "
                    "pass (or suppress with a measured reason)",
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                yield self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"comprehension in `{func.name}` of a vectorized kernel "
                    "module iterates element-by-element; express it as a "
                    "whole-array pass (or suppress with a measured reason)",
                )
            elif isinstance(node, ast.Call):
                for arg in _object_dtype_args(ctx, node):
                    yield self.violation(
                        ctx,
                        arg.lineno,
                        arg.col_offset,
                        f"object-dtype array in `{func.name}`; boxed "
                        "elements defeat vectorized execution — use a "
                        "fixed-width dtype",
                    )
