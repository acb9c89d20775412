"""Shared test plumbing: the acceptance-criteria result banner, and a
transducer loss whose gradient carries a NaN.

Each acceptance test records exactly one PASS/FAIL line; they are echoed
in the terminal summary so the verdicts are visible even when everything
passes and pytest swallows per-test stdout.
"""

import math

import pytest

import pmu.losses

_LINES: list[str] = []


@pytest.fixture
def acceptance():
    def record(line: str):
        _LINES.append(line)
        print(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def nan_transducer_grad(monkeypatch):
    """Make every transducer loss keep its finite value but put a NaN in its
    gradient, the case a loss-value check cannot see: the batched kernel's
    results get a NaN in their blank column at (t, u) = (0, 0)."""
    real = pmu.losses.transducer_losses

    def nan_grad(rows):
        results = real(rows)
        for res in results:
            res.grad[0, 0] = math.nan
        return results

    monkeypatch.setattr(pmu.losses, "transducer_losses", nan_grad)
