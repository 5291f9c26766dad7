"""Unit tests for per-function mutation summaries and their
interprocedural closure (:mod:`repro.lint.summaries`)."""

import ast
import textwrap

from repro.lint.summaries import (
    FunctionSummary,
    project_from_sources,
    summary_fingerprint,
)


def _table(**modules: str):
    entries = [
        (f"{name}.py", textwrap.dedent(source), ast.parse(textwrap.dedent(source)))
        for name, source in modules.items()
    ]
    return project_from_sources(entries)


def _summary(table, qualname: str) -> FunctionSummary:
    summary = table.get(qualname)
    assert summary is not None, f"no summary for {qualname}"
    return summary


# ----------------------------------------------------------------------
# Local extraction
# ----------------------------------------------------------------------


class TestLocalMutations:
    def test_subscript_store(self):
        table = _table(m="def f(a, b):\n    b[0] = 1\n")
        (mut,) = _summary(table, "m.f").mutations
        assert (mut.param, mut.param_name) == (1, "b")

    def test_mutating_method_and_setflags(self):
        table = _table(
            m=(
                "def f(a):\n    a.fill(0)\n"
                "def g(a):\n    a.setflags(write=True)\n"
                "def h(a):\n    a.setflags(write=False)\n"
            )
        )
        assert _summary(table, "m.f").mutates_param(0)
        assert _summary(table, "m.g").mutates_param(0)
        assert _summary(table, "m.h").mutates_param(0) is None

    def test_ufunc_out_and_at(self):
        table = _table(
            m=(
                "import numpy as np\n"
                "def f(a, b):\n    np.add(a, 1, out=b)\n"
                "def g(a):\n    np.add.at(a, [0], 1)\n"
            )
        )
        assert _summary(table, "m.f").mutates_param(1)
        assert _summary(table, "m.f").mutates_param(0) is None
        assert _summary(table, "m.g").mutates_param(0)

    def test_read_only_use_is_not_mutation(self):
        table = _table(m="def f(a):\n    return a[0] + len(a)\n")
        assert _summary(table, "m.f").mutations == ()


# ----------------------------------------------------------------------
# Interprocedural closure
# ----------------------------------------------------------------------


class TestPropagation:
    def test_mutation_crosses_modules_with_witness_path(self):
        table = _table(
            low=(
                "import numpy as np\n"
                "def bump(counts, idx):\n    np.subtract.at(counts, idx, 1)\n"
            ),
            mid=(
                "from low import bump\n"
                "def release(counts, kids):\n    bump(counts, kids)\n"
            ),
            engine=(
                "import mid\n"
                "class Engine:\n"
                "    def step(self, flat, kids):\n"
                "        mid.release(flat, kids)\n"
            ),
        )
        hit = _summary(table, "engine.Engine.step").mutates_param(1)
        assert hit is not None
        assert hit.origin == "low.bump"
        assert hit.path == ("mid.release", "low.bump")
        assert hit.route("Engine.step") == (
            "Engine.step -> mid.release -> low.bump"
        )

    def test_mutation_propagates_through_argument_map(self):
        table = _table(
            m=(
                "def deep(z):\n    z[0] = 1\n"
                "def mid(y):\n    deep(y)\n"
                "def outer(a, x):\n    mid(x)\n"
            )
        )
        outer = _summary(table, "m.outer")
        hit = outer.mutates_param(1)
        assert hit is not None
        assert hit.param_name == "x"
        assert hit.path == ("m.mid", "m.deep")
        assert outer.mutates_param(0) is None

    def test_mutation_propagates_through_attribute_argument(self):
        """``helper(p.attr)`` hands the callee an array owned by ``p``, so a
        write in the callee is a write through ``p``."""
        table = _table(
            m=(
                "def bump(counts):\n    counts.fill(0)\n"
                "def release(flat):\n    bump(flat.indegree)\n"
                "def peek(flat):\n    bump(flat.indegree.copy())\n"
            )
        )
        hit = _summary(table, "m.release").mutates_param(0)
        assert hit is not None and hit.path == ("m.bump",)
        assert _summary(table, "m.peek").mutations == ()

    def test_recursive_cycle_converges(self):
        table = _table(
            m=(
                "def a(x, n):\n    return b(x, n - 1)\n"
                "def b(x, n):\n    x[n] = 0\n    return a(x, n) if n else None\n"
            )
        )
        assert _summary(table, "m.a").mutates_param(0)
        assert _summary(table, "m.b").mutates_param(0)
        assert _summary(table, "m.a").mutates_param(1) is None

    def test_unresolved_external_calls_add_nothing(self):
        table = _table(m="import numpy as np\ndef f(x):\n    return np.sort(x)\n")
        assert _summary(table, "m.f").mutations == ()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_stable_for_identical_summaries(self):
        t1 = _table(m="def f(a):\n    a[0] = 1\n")
        t2 = _table(m="def f(a):\n    a[0] = 1\n")
        assert summary_fingerprint(_summary(t1, "m.f")) == summary_fingerprint(
            _summary(t2, "m.f")
        )

    def test_ignores_call_routing_but_not_mutations(self):
        # Same observable mutations through different internal routing: the
        # fingerprint must agree (cache survives pure refactors) ...
        direct = _table(h="def f(a):\n    a.fill(0)\n    g(a)\ndef g(b):\n    pass\n")
        routed = _table(h="def f(a):\n    a.fill(0)\n    g()\ndef g():\n    pass\n")
        assert summary_fingerprint(_summary(direct, "h.f")) == summary_fingerprint(
            _summary(routed, "h.f")
        )
        # ... while different mutations must disagree.
        read_only = _table(h="def f(a):\n    return sorted(a)\n")
        other_param = _table(h="def f(b, a):\n    a.fill(0)\n")
        fingerprints = {
            summary_fingerprint(_summary(table, "h.f"))
            for table in (direct, read_only, other_param)
        }
        assert len(fingerprints) == 3

    def test_round_trip_preserves_fingerprint(self):
        table = _table(
            m="def g(z):\n    z[0] = 1\ndef f(a, out):\n    g(out)\n"
        )
        summary = _summary(table, "m.f")
        assert summary.mutates_param(1)
        clone = FunctionSummary.from_json(summary.to_json())
        assert summary_fingerprint(clone) == summary_fingerprint(summary)
        assert clone.mutations == summary.mutations
        assert clone.calls == summary.calls
