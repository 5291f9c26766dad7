"""Shared AST helpers for the built-in rule packs."""

from __future__ import annotations

import ast
from typing import Iterator, Union

__all__ = [
    "FunctionNode",
    "attribute_parts",
    "iter_functions",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def iter_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    """Every (sync or async) function definition anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def attribute_parts(node: ast.expr) -> list[str] | None:
    """``self._instance.jobs`` -> ``["self", "_instance", "jobs"]``.

    Subscripts are looked through (``job.dag.height[v]`` keeps the chain);
    any other shape (calls, literals) returns ``None``.
    """
    parts: list[str] = []
    cur: ast.expr = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        elif isinstance(cur, ast.Name):
            parts.append(cur.id)
            return list(reversed(parts))
        else:
            return None
