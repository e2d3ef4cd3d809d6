"""Shared pytest plumbing.

Acceptance tests register a one-line verdict via ``record_criterion``;
the lines are replayed after the test summary so they stay visible even
when pytest captures stdout.  ``assert_same_fit`` compares two fit
results bit for bit.  At the end of the session the demo's worker process
is shut down, and then no child process may be left running.
"""

from __future__ import annotations

import multiprocessing

import pytest

from echofit import pipeline

_CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    _CRITERION_LINES.append(line)


def assert_same_fit(res, lone):
    """Every field of two FitResults, arrays by their bytes."""
    assert (res.params, res.stderr, res.sse, res.dof, res.converged, res.n_iterations,
            res.n_restarts_agreeing, res.sse_trace, res.flags, res.fixed) == (
        lone.params, lone.stderr, lone.sse, lone.dof, lone.converged, lone.n_iterations,
        lone.n_restarts_agreeing, lone.sse_trace, lone.flags, lone.fixed)
    assert res.covariance.tobytes() == lone.covariance.tobytes()
    assert res.residuals.tobytes() == lone.residuals.tobytes()


@pytest.fixture(scope="session", autouse=True)
def _no_process_left_running():
    yield
    pipeline._close_demo_worker()
    assert multiprocessing.active_children() == []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)
