"""Unit tests for the cross-module symbol table and call graph
(:mod:`repro.lint.callgraph`)."""

import ast

import pytest

from repro.lint.callgraph import (
    ModuleInfo,
    ProjectIndex,
    build_index,
    describe_call,
    module_name_for,
)


def _module(name: str, source: str) -> ModuleInfo:
    return ModuleInfo(name, f"{name.replace('.', '/')}.py", ast.parse(source))


def _index(**modules: str) -> ProjectIndex:
    index = ProjectIndex()
    for name, source in modules.items():
        index.add(_module(name.replace("__", "."), source))
    return index


class TestModuleNameFor:
    def test_walks_up_through_packages(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for(pkg / "mod.py") == "pkg.sub.mod"

    def test_init_file_names_the_package(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        assert module_name_for(pkg / "__init__.py") == "pkg"

    def test_bare_file_is_its_stem(self, tmp_path):
        target = tmp_path / "loose.py"
        target.write_text("")
        assert module_name_for(target) == "loose"


class TestDescribeCall:
    def _call(self, expr: str) -> ast.Call:
        node = ast.parse(expr).body[0].value
        assert isinstance(node, ast.Call)
        return node

    def test_shapes(self):
        assert describe_call(self._call("f(1)")) == ("name", "f")
        assert describe_call(self._call("self.helper(x)")) == ("self", "helper")
        assert describe_call(self._call("cls.make()")) == ("cls", "make")
        assert describe_call(self._call("mod.sub.f()")) == ("attr", "mod.sub.f")
        # A computed callee has no stable descriptor.
        assert describe_call(self._call("fns[0]()")) is None


class TestImports:
    def test_absolute_and_aliased(self):
        mod = _module(
            "pkg.a",
            "import numpy as np\nfrom os import urandom\nimport json\n",
        )
        assert mod.aliases["np"] == "numpy"
        assert mod.aliases["urandom"] == "os.urandom"
        assert mod.aliases["json"] == "json"

    def test_relative_import_resolves_against_package(self):
        mod = _module("pkg.rules.impl", "from ..model import Violation\n")
        assert mod.aliases["Violation"] == "pkg.model.Violation"

    def test_single_dot_relative(self):
        mod = _module("pkg.rules.impl", "from .common import helper\n")
        assert mod.aliases["helper"] == "pkg.rules.common.helper"

    def test_over_deep_relative_is_ignored(self):
        mod = _module("pkg.a", "from ....nowhere import thing\n")
        assert "thing" not in mod.aliases


class TestResolveCall:
    SOURCES = dict(
        pkg__helpers="def jitter(x):\n    return x\n",
        pkg__sched=(
            "from pkg.helpers import jitter\n"
            "from pkg import helpers\n"
            "def local(y):\n    return y\n"
            "class Base:\n"
            "    def shared(self):\n        pass\n"
            "class Sched(Base):\n"
            "    def __init__(self):\n        pass\n"
            "    def select(self):\n        pass\n"
        ),
    )

    @pytest.fixture()
    def index(self) -> ProjectIndex:
        return _index(**self.SOURCES)

    def test_local_function(self, index):
        info = index.resolve_call("pkg.sched", ("name", "local"))
        assert info is not None and info.qualname == "pkg.sched.local"

    def test_imported_name(self, index):
        info = index.resolve_call("pkg.sched", ("name", "jitter"))
        assert info is not None and info.qualname == "pkg.helpers.jitter"

    def test_attr_through_module_alias(self, index):
        info = index.resolve_call("pkg.sched", ("attr", "helpers.jitter"))
        assert info is not None and info.qualname == "pkg.helpers.jitter"

    def test_self_method(self, index):
        info = index.resolve_call("pkg.sched", ("self", "select"), "Sched")
        assert info is not None and info.qualname == "pkg.sched.Sched.select"

    def test_self_method_through_base_class(self, index):
        info = index.resolve_call("pkg.sched", ("self", "shared"), "Sched")
        assert info is not None and info.qualname == "pkg.sched.Base.shared"

    def test_constructor_resolves_to_init(self, index):
        info = index.resolve_call("pkg.sched", ("name", "Sched"))
        assert info is not None and info.qualname == "pkg.sched.Sched.__init__"

    def test_external_call_is_none(self, index):
        assert index.resolve_call("pkg.sched", ("attr", "np.zeros")) is None
        assert index.resolve_call("pkg.sched", ("name", "print")) is None

    def test_unknown_module_is_none(self, index):
        assert index.resolve_call("nowhere", ("name", "local")) is None

    def test_base_class_cycle_is_safe(self):
        index = _index(
            pkg__cyc=(
                "class A(B):\n    pass\n"
                "class B(A):\n    def hit(self):\n        pass\n"
            )
        )
        info = index.resolve_call("pkg.cyc", ("self", "hit"), "A")
        assert info is not None and info.qualname == "pkg.cyc.B.hit"
        assert index.resolve_call("pkg.cyc", ("self", "missing"), "A") is None


def test_index_round_trips_through_plain_data():
    """The incremental cache keeps each module as plain data and rebuilds
    the index from it."""
    index = _index(**TestResolveCall.SOURCES)
    clone = ProjectIndex()
    for info in index.modules.values():
        clone.add(ModuleInfo.from_data(info.to_data()))
    assert sorted(clone.modules) == sorted(index.modules)
    info = clone.resolve_call("pkg.sched", ("self", "shared"), "Sched")
    assert info is not None and info.qualname == "pkg.sched.Base.shared"
    original = index.function("pkg.helpers.jitter")
    restored = clone.function("pkg.helpers.jitter")
    assert restored is not None and restored.params == original.params


def test_build_index_from_paths(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("def f(a, b):\n    return a\n")
    entries = [
        (str(p), ast.parse(p.read_text()))
        for p in sorted(pkg.rglob("*.py"))
    ]
    index = build_index(entries)
    info = index.function("pkg.mod.f")
    assert info is not None
    assert info.params == ("a", "b")
    assert info.param_index("b") == 1
    assert info.param_index("zz") is None
