"""Whole-program lint: interprocedural findings across a fixture package.

The acceptance fixture for RPR201's interprocedural leg: ``engine.py``
passes a frozen ``flat_graph`` array to ``mid.release``, which hands it to
``low.bump``, which writes into it with ``np.subtract.at``. That write
neither raises nor flips ``writeable=False``, so nothing at run time sees
it. No single file shows the bug — each helper only writes its own
parameter — so the whole-program analyzer must flag the call site in
``engine.py`` and name the full helper chain in the message.
"""

import json

import pytest

from repro.lint import lint_paths
from repro.lint.registry import RULES


def _write_fixture(root):
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    # Hop 2: the actual in-place write.
    (pkg / "low.py").write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def bump(counts, idx):\n"
        "    np.subtract.at(counts, idx, 1)\n"
    )
    # Hop 1: an innocent-looking forwarder in a second module.
    (pkg / "mid.py").write_text(
        "from .low import bump\n"
        "\n"
        "\n"
        "def release(counts, kids):\n"
        "    bump(counts, kids)\n"
    )
    # The frozen array, two modules away from the write.
    (pkg / "engine.py").write_text(
        "from . import mid\n"
        "\n"
        "\n"
        "def step(instance, kids):\n"
        "    flat = instance.flat_graph\n"
        "    mid.release(flat.indegree, kids)\n"
    )
    return pkg


@pytest.fixture()
def fixture_pkg(tmp_path):
    return _write_fixture(tmp_path)


def test_frozen_array_two_helpers_deep_fires_rpr201(fixture_pkg):
    report = lint_paths([fixture_pkg], rules=[RULES["RPR201"]])
    assert len(report.violations) == 1, [v.format() for v in report.violations]
    (violation,) = report.violations
    # Flagged at the call site, not at the distant write.
    assert violation.path.endswith("engine.py")
    assert violation.line == 6
    assert "`flat.indegree`" in violation.message
    # The message names the complete helper chain.
    assert "via pkg.mid.release -> pkg.low.bump" in violation.message
    assert "ufunc `.at()`" in violation.message


def test_full_ruleset_flags_both_layers(fixture_pkg):
    (fixture_pkg / "direct.py").write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def settle(instance, kids):\n"
        "    np.subtract.at(instance.flat_graph.indegree, kids, 1)\n"
    )
    report = lint_paths([fixture_pkg])
    flagged = {v.path.rsplit("/", 1)[-1] for v in report.violations}
    # The per-scope taint sees the direct write in direct.py, the
    # interprocedural leg the helper chain from engine.py; the helpers
    # themselves only write their own parameters.
    assert flagged == {"direct.py", "engine.py"}
    assert {v.rule_id for v in report.violations} == {"RPR201"}


def test_fixing_the_distant_helper_clears_the_finding(fixture_pkg):
    (fixture_pkg / "low.py").write_text(
        "def bump(counts, idx):\n    return counts[idx] - 1\n"
    )
    report = lint_paths([fixture_pkg], rules=[RULES["RPR201"]])
    assert report.violations == []


def test_serial_parallel_cached_reports_are_bit_identical(fixture_pkg, tmp_path):
    cache_dir = tmp_path / "cache"
    serial = lint_paths([fixture_pkg])
    cold = lint_paths([fixture_pkg], cache_dir=cache_dir)
    warm = lint_paths([fixture_pkg], cache_dir=cache_dir)
    blobs = {json.dumps(r.to_json(), sort_keys=True) for r in (serial, cold, warm)}
    assert len(blobs) == 1, "uncached/cold/warm reports differ"
    assert serial.violations, "fixture unexpectedly clean"
