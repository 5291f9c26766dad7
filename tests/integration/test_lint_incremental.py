"""The incremental lint cache: correctness under edits, byte-identical
warm runs, and cross-file invalidation through summary dependencies."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_paths
from repro.lint.registry import RULES

#: Small file-set with cross-module call chains and a mix of clean and
#: violating files; index-addressable so hypothesis can pick edit subsets.
_FILES = {
    "pkg/__init__.py": "",
    "pkg/low.py": (
        "import numpy as np\n"
        "def bump(counts, idx):\n"
        "    np.subtract.at(counts, idx, 1)\n"
    ),
    "pkg/mid.py": (
        "from .low import bump\n"
        "def release(counts, kids):\n"
        "    bump(counts, kids)\n"
    ),
    "pkg/engine.py": (
        "from . import mid\n"
        "def step(instance, kids):\n"
        "    flat = instance.flat_graph\n"
        "    mid.release(flat.indegree, kids)\n"
    ),
    "pkg/clean.py": "def add(a, b):\n    return a + b\n",
    "pkg/sloppy.py": (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except:\n"
        "        return None\n"
    ),
}

#: ``pkg/low.py`` with its write turned into a read.
_READ_ONLY_LOW = "def bump(counts, idx):\n    return counts[idx] - 1\n"

#: Replacement bodies an edit can swap in (index-addressable).
_EDITS = [
    "def touched():\n    return 1\n",  # wipes prior content/violations
    "x = 1\n# touched\n",
    (
        "import numpy as np\n"
        "def fresh_violation():\n"
        "    return np.random.rand()\n"
    ),
]


def _write_tree(root, files):
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    return root / "pkg"


def _report_blob(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def test_warm_run_is_byte_identical_and_reuses_cache(tmp_path):
    pkg = _write_tree(tmp_path, _FILES)
    cache = tmp_path / "cache"
    cold = lint_paths([pkg], cache_dir=cache)
    assert (cache / "cache.json").is_file()
    warm = lint_paths([pkg], cache_dir=cache)
    assert _report_blob(cold) == _report_blob(warm)
    assert cold.violations, "fixture unexpectedly clean"


def test_editing_distant_helper_invalidates_dependents(tmp_path):
    """engine.py never changes, but making the write two modules away a
    read must clear engine.py's cached RPR201 finding on the next warm
    run."""
    pkg = _write_tree(tmp_path, _FILES)
    cache = tmp_path / "cache"
    cold = lint_paths([pkg], cache_dir=cache)
    assert any(v.rule_id == "RPR201" for v in cold.violations)

    (pkg / "low.py").write_text(_READ_ONLY_LOW)
    warm = lint_paths([pkg], cache_dir=cache)
    assert not any(v.rule_id == "RPR201" for v in warm.violations)
    # And the invalidation is precise: the unrelated sloppy.py finding
    # came straight from cache and is still present.
    assert any(v.rule_id == "RPR202" for v in warm.violations)


def test_breaking_a_helper_creates_findings_in_unchanged_files(tmp_path):
    files = dict(_FILES)
    files["pkg/low.py"] = _READ_ONLY_LOW
    pkg = _write_tree(tmp_path, files)
    cache = tmp_path / "cache"
    cold = lint_paths([pkg], cache_dir=cache)
    assert not any(v.rule_id == "RPR201" for v in cold.violations)

    # Re-introduce the write: the cached (clean) engine.py entry must be
    # re-linted because its recorded summary dependency changed.
    (pkg / "low.py").write_text(_FILES["pkg/low.py"])
    warm = lint_paths([pkg], cache_dir=cache)
    assert any(v.rule_id == "RPR201" for v in warm.violations)


def test_cache_survives_syntax_errors(tmp_path):
    pkg = _write_tree(tmp_path, _FILES)
    cache = tmp_path / "cache"
    (pkg / "broken.py").write_text("def broken(:\n")
    cold = lint_paths([pkg], cache_dir=cache)
    warm = lint_paths([pkg], cache_dir=cache)
    assert _report_blob(cold) == _report_blob(warm)
    assert any(v.rule_id == "RPR999" for v in warm.violations)
    # Repairing the file clears the syntax finding.
    (pkg / "broken.py").write_text("def fixed():\n    return 1\n")
    repaired = lint_paths([pkg], cache_dir=cache)
    assert not any(v.rule_id == "RPR999" for v in repaired.violations)


def test_select_runs_do_not_poison_the_cache(tmp_path):
    pkg = _write_tree(tmp_path, _FILES)
    cache = tmp_path / "cache"
    full_cold = lint_paths([pkg], cache_dir=cache)
    # A --select style partial run must not overwrite full findings.
    lint_paths([pkg], rules=[RULES["RPR202"]], cache_dir=cache)
    full_warm = lint_paths([pkg], cache_dir=cache)
    assert _report_blob(full_cold) == _report_blob(full_warm)


@settings(max_examples=15, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(sorted(k for k in _FILES if k != "pkg/__init__.py")),
            st.integers(min_value=0, max_value=len(_EDITS) - 1),
        ),
        max_size=4,
    )
)
def test_warm_cache_always_matches_cold_run(tmp_path_factory, edits):
    """Property: after ANY sequence of file edits, a warm incremental run
    reports exactly what a from-scratch run over the same tree reports."""
    root = tmp_path_factory.mktemp("prop")
    pkg = _write_tree(root, _FILES)
    cache = root / "cache"
    lint_paths([pkg], cache_dir=cache)  # populate

    files = dict(_FILES)
    for rel, edit_index in edits:
        files[rel] = _EDITS[edit_index]
        (root / rel).write_text(files[rel])

    warm = lint_paths([pkg], cache_dir=cache)
    cold = lint_paths([pkg])  # no cache: ground truth
    assert _report_blob(warm) == _report_blob(cold)
