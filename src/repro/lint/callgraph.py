"""Cross-module symbol table and call graph for whole-program lint rules.

Per-file AST rules see one module at a time; RPR201's interprocedural
leg (its call-site taint lookup) needs to know *which function a call
lands in*, across modules. This module builds
that map:

* :func:`module_name_for` — ``src/repro/core/dag.py`` → ``repro.core.dag``
  (walks up while ``__init__.py`` exists, so temp fixture packages resolve
  the same way the real tree does);
* :class:`ModuleInfo` — one parsed module: import aliases (absolute *and*
  relative imports), class table (name → bases), function table
  (qualname → :class:`FunctionInfo`);
* :class:`ProjectIndex` — the union over all modules, with
  :meth:`ProjectIndex.resolve_call`: best-effort resolution of a call
  descriptor to the fully-qualified name of the project function it
  invokes.

Resolution is deliberately conservative: a call that cannot be resolved to
a project-local function returns ``None`` and the interprocedural leg
treats it as mutation-free (external library calls are vetted by the
per-file checks instead). The descriptors are plain tuples so they serialize into
the incremental cache (:mod:`repro.lint.engine`) without re-parsing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "CallDesc",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
    "describe_call",
    "module_name_for",
]

#: A serializable call descriptor, produced by :func:`describe_call`:
#:
#: ``("name", "f")``            — bare-name call ``f(...)``
#: ``("self", "method")``       — ``self.method(...)``
#: ``("cls", "method")``        — ``cls.method(...)`` (classmethods)
#: ``("attr", "base.attr.f")``  — dotted call ``base.attr.f(...)``
CallDesc = tuple[str, str]


def module_name_for(path: str | Path) -> str:
    """Dotted module name for ``path``, walking up through packages.

    The file's package root is the outermost ancestor directory that still
    contains an ``__init__.py``; everything from there down is the dotted
    name (``src/repro/core/dag.py`` → ``repro.core.dag``). A file outside
    any package is just its stem, so single-file fixtures still get a
    usable module identity.
    """
    p = Path(path)
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        new_parent = parent.parent
        if new_parent == parent:
            break
        parent = new_parent
    return ".".join(parts) if parts else p.stem


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  #: fully qualified, e.g. ``repro.schedulers.fifo.FIFOScheduler.select``
    module: str
    name: str
    class_name: Optional[str]  #: enclosing class, if a method
    params: tuple[str, ...]  #: positional parameter names, in order
    lineno: int

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition: name, base-class expressions, method names."""

    qualname: str
    module: str
    name: str
    #: Base classes as written (dotted source text); resolved lazily
    #: against the import table by :meth:`ProjectIndex.resolve_base`.
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    lineno: int


def _dotted_source(node: ast.expr) -> Optional[str]:
    """``a.b.c`` source text for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


class ModuleInfo:
    """Symbol information for one parsed module."""

    def __init__(self, name: str, path: str, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.aliases: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}  # local qualpath -> info
        self.classes: dict[str, ClassInfo] = {}  # class name -> info
        self._collect_imports(tree)
        self._collect_defs(tree)

    # -- imports ----------------------------------------------------------

    def _resolve_relative(self, level: int, module: Optional[str]) -> Optional[str]:
        """``from ..model import X`` inside ``repro.lint.rules.contracts``
        resolves against the *package* path (``repro.lint.rules``)."""
        package_parts = self.name.split(".")[:-1]
        if level - 1 > len(package_parts):
            return None
        base_parts = package_parts[: len(package_parts) - (level - 1)]
        if module:
            base_parts = base_parts + module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    target = name.name if name.asname else name.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._resolve_relative(node.level, node.module)
                    if base is None:
                        continue
                elif node.module is not None:
                    base = node.module
                else:
                    continue
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    self.aliases[local] = f"{base}.{name.name}"

    # -- definitions ------------------------------------------------------

    def _collect_defs(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                methods = []
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(sub, class_name=stmt.name)
                        methods.append(sub.name)
                bases = tuple(
                    d for d in (_dotted_source(b) for b in stmt.bases) if d is not None
                )
                self.classes[stmt.name] = ClassInfo(
                    qualname=f"{self.name}.{stmt.name}",
                    module=self.name,
                    name=stmt.name,
                    bases=bases,
                    methods=tuple(methods),
                    lineno=stmt.lineno,
                )

    def _add_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: Optional[str],
    ) -> None:
        local = f"{class_name}.{node.name}" if class_name else node.name
        args = node.args
        params = tuple(
            a.arg for a in (*args.posonlyargs, *args.args)
        )
        info = FunctionInfo(
            qualname=f"{self.name}.{local}",
            module=self.name,
            name=node.name,
            class_name=class_name,
            params=params,
            lineno=node.lineno,
        )
        self.functions[local] = info

    def to_data(self) -> dict:
        """Plain-data form for the incremental cache (no AST nodes)."""
        return {
            "name": self.name,
            "path": self.path,
            "aliases": dict(self.aliases),
            "functions": {
                local: {
                    "qualname": f.qualname,
                    "name": f.name,
                    "class_name": f.class_name,
                    "params": list(f.params),
                    "lineno": f.lineno,
                }
                for local, f in self.functions.items()
            },
            "classes": {
                name: {
                    "qualname": c.qualname,
                    "bases": list(c.bases),
                    "methods": list(c.methods),
                    "lineno": c.lineno,
                }
                for name, c in self.classes.items()
            },
        }

    @classmethod
    def from_data(cls, data: dict) -> "ModuleInfo":
        self = cls.__new__(cls)
        self.name = data["name"]
        self.path = data["path"]
        self.aliases = dict(data["aliases"])
        self.functions = {
            local: FunctionInfo(
                qualname=f["qualname"],
                module=self.name,
                name=f["name"],
                class_name=f["class_name"],
                params=tuple(f["params"]),
                lineno=f["lineno"],
            )
            for local, f in data["functions"].items()
        }
        self.classes = {
            name: ClassInfo(
                qualname=c["qualname"],
                module=self.name,
                name=name,
                bases=tuple(c["bases"]),
                methods=tuple(c["methods"]),
                lineno=c["lineno"],
            )
            for name, c in data["classes"].items()
        }
        return self


def describe_call(call: ast.Call) -> Optional[CallDesc]:
    """Serializable descriptor for a call expression, or ``None``.

    Constructor calls (``ClassName(...)``) come out as ``("name", ...)``
    and resolve to ``__init__`` in :meth:`ProjectIndex.resolve_call`.
    """
    func = call.func
    if isinstance(func, ast.Name):
        return ("name", func.id)
    if isinstance(func, ast.Attribute):
        dotted = _dotted_source(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if root == "self" and rest and "." not in rest:
            return ("self", rest)
        if root == "cls" and rest and "." not in rest:
            return ("cls", rest)
        return ("attr", dotted)
    return None


@dataclass
class ProjectIndex:
    """Union symbol table over every module in the analyzed file set."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    def add(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info

    # -- lookups ----------------------------------------------------------

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        # A method qualname splits as module / Class.method, a plain
        # function as module / f; try every cut, longest module first.
        for cut_module, cut_local in self._qualname_cuts(qualname):
            info = self.modules.get(cut_module)
            if info is not None and cut_local in info.functions:
                return info.functions[cut_local]
        return None

    @staticmethod
    def _qualname_cuts(qualname: str) -> Iterable[tuple[str, str]]:
        parts = qualname.split(".")
        # Longest module prefix first: module.f and module.Class.method.
        for split in range(len(parts) - 1, 0, -1):
            yield ".".join(parts[:split]), ".".join(parts[split:])

    def class_info(self, qualname: str) -> Optional[ClassInfo]:
        module, _, name = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is not None:
            return info.classes.get(name)
        return None

    def resolve_base(self, module: str, base: str) -> Optional[ClassInfo]:
        """Resolve a base-class expression written in ``module``."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        root, _, rest = base.partition(".")
        target = mod.aliases.get(root, root)
        dotted = f"{target}.{rest}" if rest else target
        # `from x import Cls` aliases Cls -> x.Cls directly.
        cls = self.class_info(dotted)
        if cls is not None:
            return cls
        # Same-module base written bare.
        if "." not in base and base in mod.classes:
            return mod.classes[base]
        return None

    def _resolve_method(
        self, module: str, class_name: str, method: str, _seen: Optional[set[str]] = None
    ) -> Optional[FunctionInfo]:
        """``self.method`` resolution: the class itself, then its bases
        (depth-first in declaration order, cycle-safe)."""
        mod = self.modules.get(module)
        if mod is None or class_name not in mod.classes:
            return None
        seen = _seen if _seen is not None else set()
        cls = mod.classes[class_name]
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        local = f"{class_name}.{method}"
        if local in mod.functions:
            return mod.functions[local]
        for base in cls.bases:
            base_cls = self.resolve_base(module, base)
            if base_cls is None:
                continue
            found = self._resolve_method(base_cls.module, base_cls.name, method, seen)
            if found is not None:
                return found
        return None

    def resolve_call(
        self,
        module: str,
        desc: CallDesc,
        class_name: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a call descriptor written in ``module`` (inside
        ``class_name``, if the caller is a method) to a project function.

        Returns ``None`` for anything that is not confidently a
        project-local function — external calls are the per-file rules'
        problem.
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        kind, name = desc
        if kind in ("self", "cls"):
            if class_name is None:
                return None
            return self._resolve_method(module, class_name, name)
        if kind == "name":
            # Local function in the same module?
            if name in mod.functions:
                return mod.functions[name]
            # Local class constructor?
            if name in mod.classes:
                return self._resolve_method(module, name, "__init__")
            # Imported: `from pkg.mod import f` maps name -> pkg.mod.f.
            target = mod.aliases.get(name)
            if target is not None:
                found = self.function(target)
                if found is not None:
                    return found
                cls = self.class_info(target)
                if cls is not None:
                    return self._resolve_method(cls.module, cls.name, "__init__")
            return None
        if kind == "attr":
            root, _, rest = name.partition(".")
            if not rest:
                return None
            target_root = mod.aliases.get(root, root)
            dotted = f"{target_root}.{rest}"
            found = self.function(dotted)
            if found is not None:
                return found
            # `ClassName.method(...)` within the same module.
            if root in mod.classes and "." not in rest:
                return self._resolve_method(module, root, rest)
            return None
        return None



def build_index(
    entries: Sequence[tuple[str, ast.Module]],
) -> ProjectIndex:
    """Index a set of ``(path, tree)`` pairs."""
    index = ProjectIndex()
    for path, tree in entries:
        index.add(ModuleInfo(module_name_for(path), str(path), tree))
    return index
