"""Whole-program lint: interprocedural findings across a fixture package.

The acceptance fixture for the RPR31x family: a tie-break that stays
``pure`` while its ``key()`` reaches an unseeded RNG read two helper calls
deep, in *other modules*. No per-file rule can see the contradiction; the
whole-program analyzer must flag it at the ``key()`` definition and name
the full call chain in the message.
"""

import json

import pytest

from repro.lint import lint_paths
from repro.lint.registry import RULES


def _write_fixture(root):
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    # Hop 2: the actual unseeded RNG read.
    (pkg / "rand_util.py").write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def draw():\n"
        "    return np.random.rand()\n"
    )
    # Hop 1: an innocent-looking forwarder in a second module.
    (pkg / "helpers.py").write_text(
        "from .rand_util import draw\n"
        "\n"
        "\n"
        "def jitter():\n"
        "    return draw()\n"
    )
    # The implied purity contract, two modules away from the RNG read.
    (pkg / "sched.py").write_text(
        "from repro.schedulers import TieBreak\n"
        "\n"
        "from .helpers import jitter\n"
        "\n"
        "\n"
        "class JitterTieBreak(TieBreak):\n"
        "    def key(self, job, node):\n"
        "        return (jitter(), node)\n"
    )
    return pkg


@pytest.fixture()
def fixture_pkg(tmp_path):
    return _write_fixture(tmp_path)


def test_hidden_rng_two_calls_deep_fires_rpr312(fixture_pkg):
    report = lint_paths([fixture_pkg], rules=[RULES["RPR312"]])
    hits = [v for v in report.violations if v.rule_id == "RPR312"]
    assert len(hits) == 1, [v.format() for v in report.violations]
    (violation,) = hits
    # Flagged at the tie-break's `key`, not at the distant RNG read.
    assert violation.path.endswith("sched.py")
    # The message names the complete helper chain.
    assert (
        "JitterTieBreak.key -> pkg.helpers.jitter -> pkg.rand_util.draw"
        in violation.message
    )
    assert "pure = False" in violation.message


def test_full_ruleset_flags_both_layers(fixture_pkg):
    report = lint_paths([fixture_pkg])
    by_rule = {}
    for violation in report.violations:
        by_rule.setdefault(violation.rule_id, []).append(violation)
    # The distant read itself trips the per-file rule in rand_util.py ...
    assert any(v.path.endswith("rand_util.py") for v in by_rule["RPR001"])
    # ... and the contract contradiction is pinned to the scheduler.
    assert any(v.path.endswith("sched.py") for v in by_rule["RPR312"])


def test_fixing_the_distant_helper_clears_the_finding(fixture_pkg):
    (fixture_pkg / "rand_util.py").write_text(
        "def draw():\n    return 0.5\n"
    )
    report = lint_paths([fixture_pkg], rules=[RULES["RPR312"]])
    assert report.violations == []


def test_serial_parallel_cached_reports_are_bit_identical(fixture_pkg, tmp_path):
    cache_dir = tmp_path / "cache"
    serial = lint_paths([fixture_pkg])
    parallel = lint_paths([fixture_pkg], jobs=2)
    cold = lint_paths([fixture_pkg], cache_dir=cache_dir)
    warm = lint_paths([fixture_pkg], cache_dir=cache_dir)
    blobs = {
        json.dumps(r.to_json(), sort_keys=True)
        for r in (serial, parallel, cold, warm)
    }
    assert len(blobs) == 1, "serial/parallel/cold/warm reports differ"
    assert serial.violations, "fixture unexpectedly clean"


def test_restrict_reports_only_named_files(fixture_pkg):
    sched = str(fixture_pkg / "sched.py")
    report = lint_paths([fixture_pkg], restrict={sched})
    assert report.files_checked == 1
    assert report.violations, "whole-program finding lost under restrict"
    assert all(v.path == sched for v in report.violations)
    # The interprocedural finding survives scoping: the unchanged helper
    # modules still feed the call graph.
    assert any(v.rule_id == "RPR312" for v in report.violations)
