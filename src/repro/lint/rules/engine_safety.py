"""E1 engine-safety rules: RPR201 (no in-place ops on frozen CSR arrays),
RPR202 (no bare except), RPR203 (no mutable default arguments).

``build_csr`` and ``Instance.flat_graph`` return arrays with
``writeable=False`` because the engine shares them across schedulers and
experiment sweeps. Most writes through them raise at runtime — stores,
views of them, ufunc ``out=`` targets — but ``np.subtract.at(frozen, idx,
1)`` and the other ufunc ``.at`` methods write into a read-only array
without raising and without flipping the flag, so the corruption goes
unseen by the flag and by the engine's ``writable_arrays()`` backstop.
RPR201 catches such writes statically with a per-scope taint analysis:
names bound from ``build_csr(...)`` or from an attribute chain through
``.flat_graph`` (and attributes, slices, or unpacked elements of those
names) are tainted, and so is any such chain written in place;
``.copy()`` or any other call result clears the taint.

RPR201 is additionally *interprocedural*: when a tainted expression is
passed as an argument to a project-local function, the whole-program
mutation summaries (:mod:`repro.lint.summaries`) are consulted through
:meth:`FileContext.lookup_call` — if the callee (or anything it calls,
transitively) writes through that parameter, the violation is reported at
the offending call site with the full helper chain in the message.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from ..callgraph import describe_call
from ..model import Violation
from ..registry import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import FileContext

__all__ = ["BareExceptRule", "FrozenArrayWriteRule", "MutableDefaultRule"]

#: ndarray methods that modify the array in place.
_MUTATING_METHODS = frozenset(
    {"sort", "fill", "resize", "put", "partition", "itemset", "setfield",
     "byteswap"}
)


def _is_build_csr_call(ctx: "FileContext", expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    dotted = ctx.dotted_name(expr.func)
    return dotted is not None and (
        dotted == "build_csr" or dotted.endswith(".build_csr")
    )


class _ScopeScanner:
    """Flow-sensitive (statement-ordered) taint scan of one function/module
    scope. Nested function and class bodies are separate scopes.

    ``class_name`` is the enclosing class when scanning a method body, so
    ``self.helper(tainted)`` calls resolve against the right class in the
    interprocedural lookup.
    """

    def __init__(
        self, rule: Rule, ctx: "FileContext", class_name: Optional[str] = None
    ) -> None:
        self.rule = rule
        self.ctx = ctx
        self.class_name = class_name
        self.tainted: set[str] = set()
        self.violations: list[Violation] = []

    # -- taint bookkeeping ------------------------------------------------

    def _value_is_tainted(self, expr: ast.expr) -> bool:
        return _is_build_csr_call(self.ctx, expr) or self._frozen(expr) is not None

    def _set_taint(self, name: str, tainted: bool) -> None:
        if tainted:
            self.tainted.add(name)
        else:
            self.tainted.discard(name)

    def _bind(self, target: ast.expr, value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            tainted = value is not None and self._value_is_tainted(value)
            self._set_taint(target.id, tainted)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if value is not None and _is_build_csr_call(self.ctx, value):
                # build_csr returns (indptr, indices): both frozen.
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self._set_taint(elt.id, True)
            elif isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for elt, val in zip(target.elts, value.elts):
                    self._bind(elt, val)
            else:
                for elt in target.elts:
                    self._bind(elt, None)

    # -- violation checks -------------------------------------------------

    def _frozen(self, expr: ast.expr) -> str | None:
        """``expr`` as written if it reaches a frozen array, else ``None``.

        It does when its attribute/subscript chain passes through
        ``.flat_graph`` or hangs off a tainted name. A call anywhere in the
        chain ends it: ``.copy()`` and every other call result are fresh
        values.
        """
        cur = expr
        while isinstance(cur, (ast.Attribute, ast.Subscript)):
            if isinstance(cur, ast.Attribute) and cur.attr == "flat_graph":
                return ast.unparse(expr)
            cur = cur.value
        if isinstance(cur, ast.Name) and cur.id in self.tainted:
            return ast.unparse(expr)
        return None

    def _flag(self, node: ast.AST, root: str, what: str) -> None:
        self.violations.append(
            self.rule.violation(
                self.ctx,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                f"{what} `{root}`, which comes from build_csr/flat_graph "
                "and is frozen (writeable=False); operate on a `.copy()`",
            )
        )

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            root = self._frozen(func.value)
            if root is not None:
                if func.attr in _MUTATING_METHODS:
                    self._flag(call, root, f"in-place `.{func.attr}()` on")
                elif func.attr == "setflags" and self._requests_writeable(call):
                    self._flag(call, root, "re-enabling writes via "
                                           "`.setflags(write=True)` on")
            if func.attr == "at" and call.args:
                target_root = self._frozen(call.args[0])
                if target_root is not None:
                    self._flag(call, target_root, "in-place ufunc `.at()` on")
        for kw in call.keywords:
            if kw.arg == "out":
                root = self._frozen(kw.value)
                if root is not None:
                    self._flag(call, root, "ufunc `out=` writes into")
        self._check_helper_mutation(call)

    def _check_helper_mutation(self, call: ast.Call) -> None:
        """Interprocedural leg: a frozen array passed to a project helper
        that (transitively) writes through the matching parameter."""
        tainted_args = [
            (pos, root)
            for pos, arg in enumerate(call.args)
            if (root := self._frozen(arg)) is not None
        ]
        if not tainted_args:
            return
        desc = describe_call(call)
        if desc is None:
            return
        summary = self.ctx.lookup_call(desc, self.class_name)
        if summary is None:
            return
        # Bound method calls (`self.f(x)`) and constructors skip the
        # implicit `self` slot in the callee's positional parameters.
        offset = (
            1
            if desc[0] in ("self", "cls") or summary.qualname.endswith(".__init__")
            else 0
        )
        for pos, root in tainted_args:
            hit = summary.mutates_param(pos + offset)
            if hit is None:
                continue
            self.violations.append(
                self.rule.violation(
                    self.ctx,
                    call.lineno,
                    call.col_offset,
                    f"passing `{root}`, which comes from build_csr/flat_graph "
                    "and is frozen (writeable=False), to "
                    f"`{summary.qualname}`, which performs {hit.detail} "
                    f"`{hit.param_name}` "
                    f"(via {hit.route(summary.qualname)}, line {hit.line}); "
                    "pass a `.copy()` instead",
                )
            )

    @staticmethod
    def _requests_writeable(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "write" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
        if call.args and isinstance(call.args[0], ast.Constant):
            return bool(call.args[0].value)
        return False

    def _check_expr(self, node: ast.AST | None) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._check_call(sub)

    # -- statement driver -------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> list[Violation]:
        for stmt in body:
            self._visit(stmt)
        return self.violations

    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # separate scope
        if isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value)
            for target in stmt.targets:
                self._check_write_target(target)
            for target in stmt.targets:
                self._bind(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self._check_expr(stmt.value)
            self._check_write_target(stmt.target)
            if stmt.value is not None:
                self._bind(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._check_expr(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                if target.id in self.tainted:
                    self._flag(stmt, target.id, "augmented assignment to")
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                root = self._frozen(target.value)
                if root is not None:
                    self._flag(stmt, root, "augmented assignment into")
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(stmt.iter)
            self._bind(stmt.target, None)
            for sub in stmt.body:
                self._visit(sub)
            for sub in stmt.orelse:
                self._visit(sub)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.test)
            for sub in stmt.body:
                self._visit(sub)
            for sub in stmt.orelse:
                self._visit(sub)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.test)
            for sub in stmt.body:
                self._visit(sub)
            for sub in stmt.orelse:
                self._visit(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None)
            for sub in stmt.body:
                self._visit(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._visit(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._visit(sub)
            for sub in stmt.orelse:
                self._visit(sub)
            for sub in stmt.finalbody:
                self._visit(sub)
        else:
            self._check_expr(stmt)

    def _check_write_target(self, target: ast.expr) -> None:
        # `x.flat_graph = g` rebinds an attribute; `x.flat_graph.a[0] = 1`
        # and `frozen[0] = 1` write into the array the target hangs off.
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root = self._frozen(target.value)
            if root is not None:
                self._flag(target, root, "assignment into")


@register_rule
class FrozenArrayWriteRule(Rule):
    rule_id = "RPR201"
    title = "no in-place writes to build_csr/flat_graph arrays"
    rationale = (
        "the CSR arrays from `build_csr` and `Instance.flat_graph` are "
        "shared across schedulers and frozen with writeable=False; writing "
        "through them (or views of them) either raises mid-run or, via "
        "ufunc `.at()` methods, silently corrupts every later run."
    )
    bad_example = """\
def consume(instance):
    flat = instance.flat_graph
    indegree = flat.indegree
    indegree[0] = 0
    return indegree
"""
    good_example = """\
def consume(instance):
    flat = instance.flat_graph
    indegree = flat.indegree.copy()
    indegree[0] = 0
    return indegree
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        yield from _ScopeScanner(self, ctx).run(ctx.tree.body)
        for node, class_name in _function_scopes(ctx.tree):
            yield from _ScopeScanner(self, ctx, class_name=class_name).run(node.body)


def _function_scopes(
    node: ast.AST, class_name: Optional[str] = None
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, Optional[str]]]:
    """Every function scope paired with its enclosing class (if any).

    Nested functions inherit the enclosing method's class: a closure inside
    a method still calls ``self.helper(...)`` against that class.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, class_name
            yield from _function_scopes(child, class_name)
        elif isinstance(child, ast.ClassDef):
            yield from _function_scopes(child, child.name)
        else:
            yield from _function_scopes(child, class_name)


@register_rule
class BareExceptRule(Rule):
    rule_id = "RPR202"
    title = "no bare except"
    rationale = (
        "`except:` swallows KeyboardInterrupt/SystemExit and hides engine "
        "bugs behind silently wrong results; catch a concrete exception "
        "type (`except Exception:` at the very least)."
    )
    bad_example = """\
def load(path):
    try:
        return open(path).read()
    except:
        return None
"""
    good_example = """\
def load(path):
    try:
        return open(path).read()
    except OSError:
        return None
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare `except:` swallows KeyboardInterrupt/SystemExit; "
                    "catch a concrete exception type",
                )


_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


@register_rule
class MutableDefaultRule(Rule):
    rule_id = "RPR203"
    title = "no mutable default arguments"
    rationale = (
        "a mutable default is evaluated once at def time and shared across "
        "calls — scheduler state carried in one survives into the next "
        "experiment. Default to None and construct inside the function."
    )
    bad_example = """\
def collect(x, acc=[]):
    acc.append(x)
    return acc
"""
    good_example = """\
def collect(x, acc=None):
    if acc is None:
        acc = []
    acc.append(x)
    return acc
"""

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        ctx,
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in `{name}`; default to "
                        "None and construct inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES
        )
