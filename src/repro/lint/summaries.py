"""Per-function mutation summaries and their interprocedural propagation.

This is the analysis core behind RPR201's interprocedural leg: for every
function in the analyzed file set we compute a :class:`FunctionSummary`
recording which positional parameters the function writes through in
place (subscript/attribute stores, mutating method calls, ufunc
``out=``/``.at()`` targets, ``setflags(write=True)``), directly or through
any chain of project-local calls, by mapping arguments to parameters at
each call site.

The leg exists because ``writeable=False`` does not stop every write:
``np.subtract.at(frozen, idx, 1)`` writes into a read-only array without
raising and without flipping the flag, so neither the flag nor the
engine's ``writable_arrays()`` backstop sees it. Static analysis is the
only guard against such a write made two helpers away from the frozen
array it receives.

Every transitive record carries a witness ``path`` — the chain of
fully-qualified callees from the summarized function down to the origin —
so rule messages can name the route (``release -> pkg.low.bump``).
Summaries serialize to plain JSON for the incremental cache and hash to a
stable :func:`summary_fingerprint`, which is what the engine uses to
decide whether a dependent file must be re-analyzed.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .callgraph import (
    CallDesc,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    describe_call,
    module_name_for,
)

__all__ = [
    "FunctionSummary",
    "MutationRecord",
    "SummaryTable",
    "build_summaries",
    "extract_local",
    "extract_module",
    "project_from_sources",
    "summary_fingerprint",
]

#: Container methods that mutate their receiver in place. Includes both
#: ndarray in-place methods and the list/dict/set mutators.
MUTATING_METHODS = frozenset(
    {
        "sort", "fill", "resize", "put", "partition", "itemset", "setfield",
        "byteswap",  # ndarray
        "append", "extend", "insert", "remove", "pop", "clear", "update",
        "add", "discard", "popitem", "setdefault", "reverse",  # containers
    }
)


@dataclass(frozen=True, order=True)
class MutationRecord:
    """A parameter this function mutates in place (maybe transitively)."""

    param: int  #: positional index in the function's own signature
    param_name: str
    detail: str  #: e.g. "in-place `.fill()`" or "assignment into"
    origin: str
    line: int
    path: tuple[str, ...] = ()

    def route(self, start: str) -> str:
        return " -> ".join((start, *self.path))

    def to_json(self) -> dict:
        return {
            "param": self.param,
            "param_name": self.param_name,
            "detail": self.detail,
            "origin": self.origin,
            "line": self.line,
            "path": list(self.path),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MutationRecord":
        return cls(
            param=data["param"],
            param_name=data["param_name"],
            detail=data["detail"],
            origin=data["origin"],
            line=data["line"],
            path=tuple(data["path"]),
        )


@dataclass(frozen=True)
class CallSite:
    """One call made by a function, with the argument→parameter map."""

    desc: CallDesc
    line: int
    #: caller-parameter-index -> callee-positional-index, for arguments
    #: that are the caller's own parameters or attribute/subscript chains
    #: off one.
    arg_params: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> dict:
        return {
            "desc": list(self.desc),
            "line": self.line,
            "arg_params": [list(pair) for pair in self.arg_params],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CallSite":
        return cls(
            desc=(data["desc"][0], data["desc"][1]),
            line=data["line"],
            arg_params=tuple((p[0], p[1]) for p in data["arg_params"]),
        )


@dataclass
class FunctionSummary:
    """Parameter mutations of one function, local or transitively closed."""

    qualname: str
    mutations: tuple[MutationRecord, ...] = ()
    calls: tuple[CallSite, ...] = ()

    def mutates_param(self, index: int) -> Optional[MutationRecord]:
        for record in self.mutations:
            if record.param == index:
                return record
        return None

    def to_json(self) -> dict:
        return {
            "qualname": self.qualname,
            "mutations": [m.to_json() for m in self.mutations],
            "calls": [c.to_json() for c in self.calls],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"],
            mutations=tuple(MutationRecord.from_json(m) for m in data["mutations"]),
            calls=tuple(CallSite.from_json(c) for c in data["calls"]),
        )


def summary_fingerprint(summary: FunctionSummary) -> str:
    """Stable content hash of a summary's *observable* part.

    Call sites are excluded: two revisions whose transitive mutations
    agree are interchangeable for every consumer, even if the internal
    call routing changed — that is what makes the findings cache survive
    refactors that do not change behaviour summaries.
    """
    payload = {"mutations": [m.to_json() for m in sorted(summary.mutations)]}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Local (intraprocedural) extraction
# ----------------------------------------------------------------------


def _expression_root(node: ast.expr) -> Optional[str]:
    cur: ast.expr = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    return cur.id if isinstance(cur, ast.Name) else None


def _requests_writeable(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "write" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    if call.args and isinstance(call.args[0], ast.Constant):
        return bool(call.args[0].value)
    return False


def extract_local(
    info: FunctionInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
) -> FunctionSummary:
    """Intraprocedural summary of one function body.

    Nested function/class bodies are *included* (a closure defined and
    called inside counts toward the enclosing function's mutations — the
    over-approximation errs on the reporting side, which suits lint).
    """
    mutations: dict[int, MutationRecord] = {}
    calls: list[CallSite] = []
    param_set = set(info.params)

    def mutate(name: str, detail: str, line: int) -> None:
        index = info.param_index(name)
        if index is None or index in mutations:
            return
        mutations[index] = MutationRecord(
            param=index,
            param_name=name,
            detail=detail,
            origin=info.qualname,
            line=line,
        )

    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets
                if isinstance(sub, ast.Assign)
                else [sub.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _expression_root(target)
                    if root is not None and root in param_set:
                        what = (
                            "augmented assignment into"
                            if isinstance(sub, ast.AugAssign)
                            else "assignment into"
                        )
                        mutate(root, what, target.lineno)
        elif isinstance(sub, ast.Call):
            # Receiver mutation: `p.sort()`, `p.setflags(write=True)`.
            func = sub.func
            if isinstance(func, ast.Attribute):
                root = _expression_root(func.value)
                if root is not None and root in param_set:
                    if func.attr in MUTATING_METHODS:
                        mutate(root, f"in-place `.{func.attr}()` on", sub.lineno)
                    elif func.attr == "setflags" and _requests_writeable(sub):
                        mutate(
                            root,
                            "re-enabling writes via `.setflags(write=True)` on",
                            sub.lineno,
                        )
                # `np.add.at(p, ...)` mutates its first argument.
                if func.attr == "at" and sub.args:
                    root = _expression_root(sub.args[0])
                    if root is not None and root in param_set:
                        mutate(root, "in-place ufunc `.at()` on", sub.lineno)
            for kw in sub.keywords:
                if kw.arg == "out":
                    root = _expression_root(kw.value)
                    if root is not None and root in param_set:
                        mutate(root, "ufunc `out=` writes into", sub.lineno)
            # Call edge for interprocedural propagation.
            desc = describe_call(sub)
            if desc is not None:
                arg_params = []
                for pos, arg in enumerate(sub.args):
                    # `helper(p)` and `helper(p.attr[i])` both hand the
                    # callee something that writes reach `p` through.
                    root = _expression_root(arg)
                    if root is not None and root in param_set:
                        caller_index = info.param_index(root)
                        if caller_index is not None:
                            arg_params.append((caller_index, pos))
                calls.append(
                    CallSite(
                        desc=desc,
                        line=sub.lineno,
                        arg_params=tuple(arg_params),
                    )
                )

    return FunctionSummary(
        qualname=info.qualname,
        mutations=tuple(sorted(mutations.values())),
        calls=tuple(calls),
    )


def extract_module(
    info: ModuleInfo, tree: ast.Module
) -> dict[str, FunctionSummary]:
    """Local summaries for every function defined at module or class level."""
    out: dict[str, FunctionSummary] = {}

    def visit(node: ast.stmt, class_name: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = f"{class_name}.{node.name}" if class_name else node.name
            fn = info.functions.get(local)
            if fn is not None:
                out[fn.qualname] = extract_local(fn, node)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                visit(sub, node.name)

    for stmt in tree.body:
        visit(stmt, None)
    return out


# ----------------------------------------------------------------------
# Interprocedural propagation
# ----------------------------------------------------------------------

#: Witness chains longer than this are truncated (they still report, the
#: path display just stops growing); prevents pathological blowup.
_MAX_PATH = 12


class SummaryTable:
    """Transitively-closed summaries for a whole project."""

    def __init__(
        self,
        index: ProjectIndex,
        summaries: dict[str, FunctionSummary],
    ) -> None:
        self.index = index
        self.summaries = summaries

    def get(self, qualname: str) -> Optional[FunctionSummary]:
        return self.summaries.get(qualname)


def build_summaries(
    index: ProjectIndex,
    local: dict[str, FunctionSummary],
) -> SummaryTable:
    """Close local summaries over the call graph (fixpoint iteration).

    Parameter mutations propagate caller <- callee through the
    argument→parameter map recorded at each call site. Cycles converge
    because the mutation sets only grow and each parameter keeps its first
    witness.
    """
    # Pre-resolve call edges once; resolution is pure table lookup.
    edges: dict[str, list[tuple[CallSite, str]]] = {}
    for qualname, summary in local.items():
        info = index.function(qualname)
        if info is None:
            edges[qualname] = []
            continue
        resolved = []
        for call in summary.calls:
            callee = index.resolve_call(info.module, call.desc, info.class_name)
            if callee is not None and callee.qualname in local:
                resolved.append((call, callee.qualname))
        edges[qualname] = resolved

    closed = {qualname: summary for qualname, summary in local.items()}

    changed = True
    while changed:
        changed = False
        for qualname in sorted(closed):
            summary = closed[qualname]
            mutated = {m.param for m in summary.mutations}
            new_mutations = list(summary.mutations)
            for call, callee_qualname in edges[qualname]:
                callee = closed[callee_qualname]
                for caller_param, callee_param in call.arg_params:
                    if caller_param in mutated:
                        continue
                    hit = callee.mutates_param(callee_param)
                    if hit is None:
                        continue
                    info = index.function(qualname)
                    param_name = (
                        info.params[caller_param]
                        if info is not None and caller_param < len(info.params)
                        else f"arg{caller_param}"
                    )
                    path = (callee_qualname, *hit.path)[:_MAX_PATH]
                    new_mutations.append(
                        MutationRecord(
                            param=caller_param,
                            param_name=param_name,
                            detail=hit.detail,
                            origin=hit.origin,
                            line=hit.line,
                            path=path,
                        )
                    )
                    mutated.add(caller_param)
            if len(new_mutations) != len(summary.mutations):
                closed[qualname] = FunctionSummary(
                    qualname=qualname,
                    mutations=tuple(sorted(new_mutations)),
                    calls=summary.calls,
                )
                changed = True

    return SummaryTable(index, closed)


def project_from_sources(
    entries: Sequence[tuple[str, str, ast.Module]],
) -> SummaryTable:
    """Convenience: build the full table from ``(path, source, tree)``."""
    index = ProjectIndex()
    local: dict[str, FunctionSummary] = {}
    for path, _source, tree in entries:
        info = ModuleInfo(module_name_for(path), str(path), tree)
        index.add(info)
        local.update(extract_module(info, tree))
    return build_summaries(index, local)
