"""Hypothesis configuration for the property suite, and the conformance
matrix's coverage table in the terminal summary."""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,  # simulations have variable per-example cost
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: The (path x check) cell counts of the last conformance matrix run.
COVERAGE_TABLE = pytest.StashKey[str]()


def pytest_terminal_summary(terminalreporter, config):
    table = config.stash.get(COVERAGE_TABLE, None)
    if table is not None:
        terminalreporter.write_sep("-", "conformance matrix: cells per (path, check)")
        terminalreporter.write_line(table)
