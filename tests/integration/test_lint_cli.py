"""End-to-end test of the ``repro lint`` CLI as a real subprocess.

Builds a temp package seeded with one violation per rule id, runs
``python -m repro lint`` over it, and asserts on the exit code, the set of
rule ids reported, and the JSON payload shape — the same contract the CI
lint job relies on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.registry import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

EXPECTED_RULE_IDS = sorted(rule.rule_id for rule in all_rules())


def run_lint(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )


@pytest.fixture(scope="module")
def seeded_package(tmp_path_factory) -> Path:
    """A temp package with exactly one file per rule, each file seeded with
    that rule's own ``bad_example``."""
    pkg = tmp_path_factory.mktemp("lintpkg") / "seeded"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for rule in all_rules():
        name = f"bad_{rule.rule_id.lower()}.py"
        (pkg / name).write_text(rule.bad_example)
    return pkg


def test_clean_tree_exits_zero(tmp_path):
    (tmp_path / "fine.py").write_text("import numpy as np\n\nX = np.arange(3)\n")
    proc = run_lint(str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout


def test_seeded_package_fires_every_rule(seeded_package):
    proc = run_lint(str(seeded_package), "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr

    payload = json.loads(proc.stdout)
    assert payload["version"] == 2
    # __init__.py plus one seeded file per rule.
    assert payload["files_checked"] == 1 + len(EXPECTED_RULE_IDS)
    assert payload["suppressed"] == 0
    assert payload["baselined"] == 0
    assert payload["violation_count"] == len(payload["violations"])
    for entry in payload["violations"]:
        assert set(entry) == {"path", "line", "col", "rule_id", "message"}
        assert entry["line"] >= 1
    fired = {entry["rule_id"] for entry in payload["violations"]}
    assert fired == set(EXPECTED_RULE_IDS), (
        f"missing: {set(EXPECTED_RULE_IDS) - fired}; extra: "
        f"{fired - set(EXPECTED_RULE_IDS)}"
    )
    # Each seeded file must be flagged by the rule it was seeded with.
    for rule_id in EXPECTED_RULE_IDS:
        expected_file = f"bad_{rule_id.lower()}.py"
        assert any(
            entry["rule_id"] == rule_id and entry["path"].endswith(expected_file)
            for entry in payload["violations"]
        ), f"{rule_id} did not fire on {expected_file}"


def test_text_format_reports_locations(seeded_package):
    proc = run_lint(str(seeded_package))
    assert proc.returncode == 1
    assert "RPR202" in proc.stdout
    # path:line:col: prefix on every violation line.
    body = proc.stdout.strip().splitlines()
    assert all(":" in line for line in body[:-1])
    assert "violations in" in body[-1]


def test_select_runs_only_requested_rule(seeded_package):
    proc = run_lint(str(seeded_package), "--select", "RPR202", "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert {e["rule_id"] for e in payload["violations"]} == {"RPR202"}


def test_select_unknown_rule_is_usage_error(seeded_package):
    proc = run_lint(str(seeded_package), "--select", "RPR777")
    assert proc.returncode == 2
    assert "RPR777" in proc.stderr


def test_missing_path_is_usage_error(tmp_path):
    proc = run_lint(str(tmp_path / "does_not_exist.txt"))
    assert proc.returncode == 2


def test_reasoned_suppression_exits_zero(tmp_path):
    (tmp_path / "suppressed.py").write_text(
        "try:\n"
        "    x = 1\n"
        "except:  # repro-lint: disable=RPR202 (fixture exercises the pragma)\n"
        "    x = 0\n"
    )
    proc = run_lint(str(tmp_path), "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["violations"] == []
    assert payload["suppressed"] == 1


def test_reasonless_suppression_fails_with_rpr000(tmp_path):
    (tmp_path / "suppressed.py").write_text(
        "try:\n"
        "    x = 1\n"
        "except:  # repro-lint: disable=RPR202\n"
        "    x = 0\n"
    )
    proc = run_lint(str(tmp_path), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert {e["rule_id"] for e in payload["violations"]} == {"RPR000", "RPR202"}


def test_list_rules_prints_catalog():
    proc = run_lint("--list-rules")
    assert proc.returncode == 0
    for rule_id in EXPECTED_RULE_IDS:
        assert rule_id in proc.stdout


def test_repo_src_tree_is_clean():
    """Dogfood: the shipped source tree passes its own linter."""
    proc = run_lint(str(SRC))
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# Incremental/parallel/scoped flags
# ----------------------------------------------------------------------

BAD_EXCEPT = (
    "try:\n"
    "    x = 1\n"
    "except:\n"
    "    pass\n"
)


def run_lint_in(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def _git(cwd: Path, *argv: str) -> None:
    subprocess.run(
        ["git", *argv],
        cwd=cwd,
        check=True,
        capture_output=True,
        timeout=60,
        env={
            **os.environ,
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.invalid",
        },
    )


def test_changed_scopes_report_to_git_diff(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "old.py").write_text(BAD_EXCEPT)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    (pkg / "new.py").write_text(BAD_EXCEPT)

    proc = run_lint_in(tmp_path, "pkg", "--changed", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    # Only the untracked file is reported; the committed violation is not.
    assert payload["files_checked"] == 1
    assert all(v["path"].endswith("new.py") for v in payload["violations"])

    full = run_lint_in(tmp_path, "pkg", "--format", "json")
    assert json.loads(full.stdout)["files_checked"] == 3


def test_baseline_accepts_existing_debt_but_not_new(tmp_path):
    (tmp_path / "legacy.py").write_text(BAD_EXCEPT)
    record = run_lint_in(tmp_path, ".", "--update-baseline")
    assert record.returncode == 0, record.stdout + record.stderr
    assert (tmp_path / "lint-baseline.json").is_file()

    clean = run_lint_in(tmp_path, ".", "--format", "json")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    payload = json.loads(clean.stdout)
    assert payload["violations"] == []
    assert payload["baselined"] >= 1

    (tmp_path / "fresh.py").write_text(BAD_EXCEPT)
    dirty = run_lint_in(tmp_path, ".", "--format", "json")
    assert dirty.returncode == 1
    payload = json.loads(dirty.stdout)
    assert all(v["path"].endswith("fresh.py") for v in payload["violations"])


def test_jobs_and_cache_reports_match_serial(tmp_path, seeded_package):
    serial = run_lint_in(tmp_path, str(seeded_package), "--format", "json")
    parallel = run_lint_in(
        tmp_path, str(seeded_package), "--jobs", "4", "--format", "json"
    )
    warm = run_lint_in(tmp_path, str(seeded_package), "--format", "json")
    assert serial.stdout == parallel.stdout == warm.stdout
    assert (tmp_path / ".repro-lint-cache" / "cache.json").is_file()


def test_no_cache_writes_nothing(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    proc = run_lint_in(tmp_path, ".", "--no-cache")
    assert proc.returncode == 0
    assert not (tmp_path / ".repro-lint-cache").exists()


def test_sarif_output_is_valid_json(tmp_path, seeded_package):
    proc = run_lint_in(
        tmp_path,
        str(seeded_package),
        "--format",
        "sarif",
        "--output",
        str(tmp_path / "out.sarif"),
    )
    assert proc.returncode == 1
    log = json.loads((tmp_path / "out.sarif").read_text())
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["ruleId"] for r in run["results"]} >= {"RPR202", "RPR312"}
