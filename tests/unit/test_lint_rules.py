"""Fixture-driven tests for ``repro.lint``.

Every rule ships its own ``bad_example`` / ``good_example`` snippet pair;
the parametrized tests below are the contract that each rule fires on the
former and stays silent on the latter. The remaining tests cover the
engine: suppression pragmas (with the mandatory-reason policy), import
alias resolution, report aggregation, and the JSON payload shape.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintReport, Violation, lint_paths, lint_source
from repro.lint.engine import SUPPRESSION_RULE_ID, SYNTAX_RULE_ID, FileContext
from repro.lint.model import parse_suppressions
from repro.lint.registry import RULES, Rule, all_rules, get_rule, register_rule

ALL_RULES = all_rules()


# ----------------------------------------------------------------------
# The fixture contract: bad fires, good is silent
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.rule_id)
def test_rule_fires_on_bad_example(rule):
    assert rule.bad_example.strip(), f"{rule.rule_id} ships no bad_example"
    report = lint_source(rule.bad_example, path="bad.py", rules=[rule])
    fired = {v.rule_id for v in report.violations}
    assert rule.rule_id in fired, f"{rule.rule_id} silent on its own bad_example"


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.rule_id)
def test_rule_silent_on_good_example(rule):
    assert rule.good_example.strip(), f"{rule.rule_id} ships no good_example"
    report = lint_source(rule.good_example, path="good.py", rules=[rule])
    assert report.violations == [], (
        f"{rule.rule_id} false positive on its good_example: "
        f"{[v.format() for v in report.violations]}"
    )


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.rule_id)
def test_rule_metadata_complete(rule):
    assert rule.rule_id.startswith("RPR") and len(rule.rule_id) == 6
    assert rule.title
    assert rule.rationale


def test_rule_catalog_is_stable():
    # Adding a rule is fine; renumbering or dropping one is an API break
    # that needs a deliberate edit here.
    expected = {
        "RPR001", "RPR002", "RPR003",  # determinism
        "RPR005",  # failure paths
        "RPR008",  # kernel-module style discipline
        "RPR009",  # streaming unbounded-accumulation discipline
        "RPR102",  # scheduler contracts
        "RPR201", "RPR202", "RPR203",  # engine safety
        "RPR301",  # picklability
    }
    assert expected <= set(RULES)


def test_lint_doc_has_one_section_per_rule():
    """``docs/lint.md`` documents every registered rule exactly once, under a
    ``#### RPRnnn`` heading, and documents no unregistered id."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "lint.md"
    headings = re.findall(r"^#### (RPR\d{3})\b", doc.read_text(), flags=re.M)
    assert sorted(headings) == sorted(rule.rule_id for rule in ALL_RULES)


# ----------------------------------------------------------------------
# RPR009 — unbounded accumulation on long-lived streaming state
# ----------------------------------------------------------------------


class TestUnboundedAccumulationScope:
    GROWING = textwrap.dedent(
        """\
        class Tracker:
            def __init__(self):
                self.history = []

            def on_event(self, item):
                self.history.append(item)
        """
    )

    def _violations(self, source, path):
        rule = get_rule("RPR009")
        report = lint_source(source, path=path, rules=[rule])
        return [v for v in report.violations if v.rule_id == "RPR009"]

    def test_fires_in_streaming_package(self):
        assert self._violations(self.GROWING, "src/repro/streaming/engine.py")

    def test_exempt_in_batch_mode_layers(self):
        for path in (
            "src/repro/core/simulator.py",
            "src/repro/experiments/runner.py",
            "src/repro/analysis/fairness.py",
            "tests/unit/test_x.py",
        ):
            assert not self._violations(self.GROWING, path), path

    def test_retire_path_bounds_the_attr(self):
        src = textwrap.dedent(
            """\
            class Window:
                def __init__(self):
                    self.live = {}

                def admit(self, index, job):
                    self.live[index] = job

                def retire(self, index):
                    del self.live[index]
            """
        )
        assert not self._violations(src, "src/repro/streaming/engine.py")

    def test_dict_grow_without_retire_fires(self):
        src = textwrap.dedent(
            """\
            class Window:
                def __init__(self):
                    self.live = {}

                def admit(self, index, job):
                    self.live[index] = job
            """
        )
        assert self._violations(src, "src/repro/streaming/engine.py")

    def test_rebinding_counts_as_compaction(self):
        src = textwrap.dedent(
            """\
            class Window:
                def __init__(self):
                    self.recent = []

                def note(self, item):
                    self.recent.append(item)

                def compact(self):
                    self.recent = self.recent[-64:]
            """
        )
        assert not self._violations(src, "src/repro/streaming/engine.py")

    def test_suppression_with_reason_is_honored(self):
        src = textwrap.dedent(
            """\
            class Hist:
                def __init__(self):
                    self.counts = {}

                def note(self, bucket):
                    self.counts[bucket] = self.counts.get(bucket, 0) + 1  # repro-lint: disable=RPR009 (bounded: 64 log2 buckets)
            """
        )
        assert not self._violations(src, "src/repro/streaming/metrics.py")

    def test_free_list_recycling_pop_is_not_retirement(self):
        # `slot = free.pop()` recycles an element (arena free-list idiom);
        # it says nothing about the list's bound, so the grow site fires.
        src = textwrap.dedent(
            """\
            class Arena:
                def __init__(self):
                    self.free = []

                def new_slot(self):
                    if self.free:
                        return self.free.pop()
                    return 0

                def retire(self, slot):
                    self.free.append(slot)
            """
        )
        violations = self._violations(src, "src/repro/streaming/arena.py")
        assert len(violations) == 1
        assert "free" in violations[0].message

    def test_discarding_pops_still_count_as_retirement(self):
        # A pop whose value is discarded (bare statement / positional arg)
        # genuinely trims the container and remains shrink evidence.
        for trim in ("self.recent.pop(0)", "self.recent.pop()"):
            src = textwrap.dedent(
                f"""\
                class Window:
                    def __init__(self):
                        self.recent = []

                    def note(self, item):
                        self.recent.append(item)

                    def trim(self):
                        {trim}
                """
            )
            assert not self._violations(
                src, "src/repro/streaming/engine.py"
            ), trim

    def test_arena_free_list_needs_its_reasoned_suppression(self):
        # The shipped StreamArena free list is clean only because of its
        # reasoned suppression at the grow site — strip the pragma and the
        # free-list grow site must fire (coverage pin for the rule).
        import inspect

        from repro.streaming import arena as arena_mod

        src = inspect.getsource(arena_mod)
        path = "src/repro/streaming/arena.py"
        rule = get_rule("RPR009")
        report = lint_source(src, path=path, rules=[rule])
        assert [v for v in report.violations if v.rule_id == "RPR009"] == []
        assert report.suppressed_count >= 1
        stripped = src.replace("# repro-lint: disable=RPR009", "# pragma-off")
        report = lint_source(stripped, path=path, rules=[rule])
        fired = [v for v in report.violations if v.rule_id == "RPR009"]
        assert any("_free_slots" in v.message for v in fired)


# ----------------------------------------------------------------------
# RPR005 — silently swallowed exceptions (engine/scheduler scope)
# ----------------------------------------------------------------------


class TestSilentSwallowScope:
    SNIPPET = textwrap.dedent(
        """\
        def load(path):
            try:
                return open(path).read()
            except OSError:
                pass
        """
    )

    def _violations(self, path):
        rule = get_rule("RPR005")
        report = lint_source(self.SNIPPET, path=path, rules=[rule])
        return [v for v in report.violations if v.rule_id == "RPR005"]

    def test_fires_in_core_and_schedulers(self):
        assert self._violations("src/repro/core/simulator.py")
        assert self._violations("src/repro/schedulers/fifo.py")

    def test_exempt_in_harness_layers(self):
        for layer in ("experiments", "workloads", "viz", "analysis", "lint"):
            assert not self._violations(f"src/repro/{layer}/x.py"), layer

    def test_ellipsis_body_counts_as_swallow(self):
        rule = get_rule("RPR005")
        src = "try:\n    f()\nexcept ValueError:\n    ...\n"
        report = lint_source(src, path="core.py", rules=[rule])
        assert any(v.rule_id == "RPR005" for v in report.violations)

    def test_handler_that_records_is_allowed(self):
        rule = get_rule("RPR005")
        src = (
            "try:\n    f()\nexcept ValueError:\n"
            "    log.warning('recovering')\n"
        )
        report = lint_source(src, path="core.py", rules=[rule])
        assert not report.violations

    def test_suppression_with_reason_is_honored(self):
        rule = get_rule("RPR005")
        src = (
            "try:\n    f()\n"
            "except ValueError:  "
            "# repro-lint: disable=RPR005 (benign probe failure)\n"
            "    pass\n"
        )
        report = lint_source(src, path="core.py", rules=[rule])
        assert report.violations == []
        assert report.suppressed_count == 1


# ----------------------------------------------------------------------
# RPR201 — writes that reach a frozen array through an attribute chain
# ----------------------------------------------------------------------


class TestFrozenArrayChains:
    """``np.subtract.at`` writes into a ``writeable=False`` array without
    raising or flipping the flag, so these forms corrupt silently at run
    time; the rule must see them statically."""

    def _fired(self, source):
        report = lint_source(
            textwrap.dedent(source), rules=[get_rule("RPR201")]
        )
        return report.violations

    def test_store_through_flat_graph_chain(self):
        (v,) = self._fired(
            """
            def scrub(instance):
                instance.flat_graph.indegree[0] = 1
            """
        )
        assert "`instance.flat_graph.indegree`" in v.message

    def test_ufunc_at_through_flat_graph_chain(self):
        (v,) = self._fired(
            """
            import numpy as np

            def release(instance, kids):
                np.subtract.at(instance.flat_graph.indegree, kids, 1)
            """
        )
        assert "ufunc `.at()`" in v.message

    def test_name_bound_from_flat_graph_chain(self):
        (v,) = self._fired(
            """
            def order(instance):
                ind = instance.flat_graph.indegree
                ind.sort()
            """
        )
        assert "`.sort()` on `ind`" in v.message

    def test_copies_and_attribute_rebinding_are_silent(self):
        assert not self._fired(
            """
            import numpy as np

            def release(instance, kids):
                ind = instance.flat_graph.indegree.copy()
                ind[0] = 1
                np.subtract.at(ind, kids, 1)
                instance.flat_graph.indegree.copy().sort()

            class Holder:
                def swap(self, graph):
                    self.flat_graph = graph
            """
        )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

BARE_EXCEPT = textwrap.dedent(
    """
    try:
        x = 1
    except:
        pass
    """
)


def _violation_line(source: str, rule_id: str) -> int:
    report = lint_source(source, rules=[get_rule(rule_id)])
    assert report.violations, "expected the seed snippet to fire"
    return report.violations[0].line


def test_suppression_with_reason_filters_violation():
    line = _violation_line(BARE_EXCEPT, "RPR202")
    lines = BARE_EXCEPT.splitlines()
    lines[line - 1] += "  # repro-lint: disable=RPR202 (narrow enough here)"
    report = lint_source("\n".join(lines), rules=[get_rule("RPR202")])
    assert report.violations == []
    assert report.suppressed_count == 1


def test_suppression_without_reason_is_itself_a_violation():
    line = _violation_line(BARE_EXCEPT, "RPR202")
    lines = BARE_EXCEPT.splitlines()
    lines[line - 1] += "  # repro-lint: disable=RPR202"
    report = lint_source("\n".join(lines), rules=[get_rule("RPR202")])
    fired = {v.rule_id for v in report.violations}
    # The original violation survives AND the reason-less pragma is flagged.
    assert fired == {"RPR202", SUPPRESSION_RULE_ID}
    assert report.suppressed_count == 0


def test_suppression_for_other_rule_does_not_cover():
    line = _violation_line(BARE_EXCEPT, "RPR202")
    lines = BARE_EXCEPT.splitlines()
    lines[line - 1] += "  # repro-lint: disable=RPR001 (wrong id on purpose)"
    report = lint_source("\n".join(lines), rules=[get_rule("RPR202")])
    assert {v.rule_id for v in report.violations} == {"RPR202"}


def test_suppression_multiple_ids_one_reason():
    pragma = "# repro-lint: disable=RPR001, RPR202 (fixture)"
    sup, = parse_suppressions([pragma])
    assert sup.rule_ids == ("RPR001", "RPR202")
    assert sup.has_reason
    assert sup.covers(
        Violation(path="x", line=1, col=0, rule_id="RPR202", message="m")
    )
    assert not sup.covers(
        Violation(path="x", line=2, col=0, rule_id="RPR202", message="m")
    )


def test_suppression_reason_of_whitespace_does_not_count():
    sup, = parse_suppressions(["pass  # repro-lint: disable=RPR202 (   )"])
    assert not sup.has_reason


class TestMultiLineStatementSuppression:
    """A pragma on the *first physical line* of a multi-line statement
    covers violations reported on any of its continuation lines; a pragma
    on the violating line itself keeps working. Both placements are legal.
    """

    def test_pragma_on_first_line_covers_continuation_line(self):
        src = (
            "import numpy as np\n"
            "x = (  # repro-lint: disable=RPR001 (fixture: seeded upstream)\n"
            "    np.random.rand(3),\n"
            ")\n"
        )
        report = lint_source(src, rules=[get_rule("RPR001")])
        assert report.violations == []
        assert report.suppressed_count == 1

    def test_pragma_on_continuation_line_still_works(self):
        src = (
            "import numpy as np\n"
            "x = (\n"
            "    np.random.rand(3),"
            "  # repro-lint: disable=RPR001 (fixture: seeded upstream)\n"
            ")\n"
        )
        report = lint_source(src, rules=[get_rule("RPR001")])
        assert report.violations == []
        assert report.suppressed_count == 1

    def test_unrelated_first_line_pragma_does_not_cover(self):
        # Pragma sits on a *different* statement's line: must not cover.
        src = (
            "import numpy as np"
            "  # repro-lint: disable=RPR001 (wrong statement on purpose)\n"
            "x = (\n"
            "    np.random.rand(3),\n"
            ")\n"
        )
        report = lint_source(src, rules=[get_rule("RPR001")])
        assert {v.rule_id for v in report.violations} == {"RPR001"}

    def test_compound_header_pragma_does_not_blanket_the_body(self):
        src = (
            "import numpy as np\n"
            "if True:  # repro-lint: disable=RPR001 (header only on purpose)\n"
            "    x = np.random.rand(3)\n"
        )
        report = lint_source(src, rules=[get_rule("RPR001")])
        assert {v.rule_id for v in report.violations} == {"RPR001"}

    def test_multiline_compound_header_is_covered(self):
        # The header of a compound statement spans two physical lines; a
        # pragma on the `if` line covers a violation inside the condition.
        src = (
            "import numpy as np\n"
            "if (  # repro-lint: disable=RPR001 (fixture: probe only)\n"
            "    np.random.rand() > 0.5\n"
            "):\n"
            "    x = 1\n"
        )
        report = lint_source(src, rules=[get_rule("RPR001")])
        assert report.violations == []
        assert report.suppressed_count == 1


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------


def test_syntax_error_reports_rpr999():
    report = lint_source("def broken(:\n    pass\n", path="oops.py")
    assert [v.rule_id for v in report.violations] == [SYNTAX_RULE_ID]
    assert report.files_checked == 1


def test_import_alias_resolution_sees_through_renames():
    # `import numpy.random as nr` must still resolve to numpy.random.*.
    snippet = "import numpy.random as nr\nx = nr.rand(3)\n"
    report = lint_source(snippet, rules=[get_rule("RPR001")])
    assert {v.rule_id for v in report.violations} == {"RPR001"}


def test_dotted_name_resolution():
    import ast

    source = "import numpy as np\nv = np.random.default_rng(0)\n"
    ctx = FileContext("x.py", source, ast.parse(source))
    call = ctx.tree.body[1].value
    assert ctx.dotted_name(call.func) == "numpy.random.default_rng"
    assert ctx.dotted_name(ast.parse("f()(x)").body[0].value.func) is None


def test_lint_paths_walks_and_skips_caches(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "ok.py").write_text("x = 1\n")
    (pkg / "bad.py").write_text(BARE_EXCEPT)
    (pkg / "__pycache__" / "junk.py").write_text("try:\n    x = 1\nexcept:\n    pass\n")
    report = lint_paths([pkg])
    assert report.files_checked == 2
    # `except: pass` trips both the bare-except and silent-swallow rules.
    assert {v.rule_id for v in report.violations} == {"RPR202", "RPR005"}
    assert all("__pycache__" not in v.path for v in report.violations)


def test_lint_paths_rejects_non_python(tmp_path):
    target = tmp_path / "notes.txt"
    target.write_text("hello")
    with pytest.raises(FileNotFoundError):
        lint_paths([target])


def test_report_json_shape():
    report = lint_source(BARE_EXCEPT, path="bad.py")
    payload = report.to_json()
    assert payload["version"] == 2
    assert payload["files_checked"] == 1
    assert payload["baselined"] == 0
    assert payload["violation_count"] == len(payload["violations"])
    entry = payload["violations"][0]
    assert set(entry) == {"path", "line", "col", "rule_id", "message"}
    assert entry["path"] == "bad.py"


def test_report_merge_and_render():
    merged = LintReport()
    merged.merge(lint_source("x = 1\n", path="a.py"))
    merged.merge(lint_source(BARE_EXCEPT, path="b.py"))
    merged.sort()
    text = merged.render_text()
    assert "b.py" in text
    assert text.endswith("in 2 files")


def test_register_rule_rejects_duplicates_and_blank_ids():
    class Blank(Rule):
        rule_id = ""

        def check(self, ctx):  # pragma: no cover - never called
            return iter(())

    with pytest.raises(ValueError, match="rule_id"):
        register_rule(Blank)

    class Duplicate(Rule):
        rule_id = "RPR202"

        def check(self, ctx):  # pragma: no cover - never called
            return iter(())

    with pytest.raises(ValueError, match="duplicate"):
        register_rule(Duplicate)


def test_get_rule_unknown_id():
    with pytest.raises(KeyError, match="RPR777"):
        get_rule("RPR777")


# ----------------------------------------------------------------------
# RPR008 — kernel-module KERNEL_STYLE discipline
# ----------------------------------------------------------------------


class TestKernelStyleScope:
    RULE = get_rule("RPR008")

    def _lint(self, source):
        report = lint_source(textwrap.dedent(source), path="x.py",
                             rules=[self.RULE])
        return [v for v in report.violations if v.rule_id == "RPR008"]

    def test_silent_without_kernel_style(self):
        # The same loop outside a declared kernel module is fine.
        assert self._lint(
            """\
            def walk(nodes):
                total = 0
                for u in nodes:
                    total += u
                return total
            """
        ) == []

    def test_vectorized_flags_object_dtype(self):
        violations = self._lint(
            """\
            import numpy as np

            KERNEL_STYLE = "vectorized"

            def pack(values):
                return np.asarray(values, dtype=np.object_)
            """
        )
        assert len(violations) == 1
        assert "object-dtype" in violations[0].message

    def test_vectorized_flags_comprehension(self):
        violations = self._lint(
            """\
            KERNEL_STYLE = "vectorized"

            def keys(nodes, prio):
                return [prio[n] for n in nodes]
            """
        )
        assert len(violations) == 1
        assert "comprehension" in violations[0].message

    def test_reasoned_suppression_accepted(self):
        report = lint_source(
            textwrap.dedent(
                """\
                KERNEL_STYLE = "vectorized"

                def take(seg, k):
                    out = []
                    for b in range(len(k)):  # repro-lint: disable=RPR008 (<= 8 segments, measured faster than np.repeat)
                        out.append(seg[b])
                    return out
                """
            ),
            path="x.py",
            rules=[self.RULE],
        )
        assert [v for v in report.violations if v.rule_id == "RPR008"] == []
        assert report.suppressed_count == 1

    def test_shipped_backends_cover_arena_kernels(self):
        # The shipped kernel module declares KERNEL_STYLE, so its
        # arena_gather/arena_commit kernels sit under RPR008. Pin the
        # coverage: the source is clean as shipped, and stripping its one
        # reasoned escape hatch (the int64-overflow per-slot fallback
        # inside arena_commit) makes the rule fire exactly there.
        import inspect

        from repro.core import kernels

        src = inspect.getsource(kernels)
        report = lint_source(src, path="kernels.py", rules=[self.RULE])
        assert [v for v in report.violations if v.rule_id == "RPR008"] == []
        stripped = src.replace("# repro-lint: disable=RPR008", "# pragma-off")
        report = lint_source(stripped, path="kernels.py", rules=[self.RULE])
        fired = [v for v in report.violations if v.rule_id == "RPR008"]
        assert len(fired) == 1
        assert "arena_commit" in fired[0].message
