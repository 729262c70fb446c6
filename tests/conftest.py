"""Shared pytest plumbing: surface the acceptance lines in the summary, count
kernel compilations, and a system whose trajectories leave f's domain."""

import pytest

from occtl import lyapunov, sysmodel
from occtl.sysmodel import SystemSpec

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def compile_calls(monkeypatch) -> list:
    """Number of expressions of each kernel `sysmodel` and `lyapunov`
    compile during the test, in compile order."""
    calls = []
    real = sysmodel.compile_expr

    def counting(exprs, names):
        calls.append(len(exprs))
        return real(exprs, names)
    monkeypatch.setattr(sysmodel, "compile_expr", counting)
    monkeypatch.setattr(lyapunov, "compile_expr", counting)
    return calls


@pytest.fixture
def sqrt_decay() -> SystemSpec:
    """xdot1 = -sqrt(x1), xdot2 = -x2, y = x1 + x2.  From x1 = a > 0 the exact
    x1 = (sqrt(a) - t/2)^2 reaches 0 at t = 2 sqrt(a); the trial stages past
    it take sqrt of a negative value."""
    return SystemSpec.from_strings(
        "sqrt-decay", 2, 1, ["-sqrt(x1)", "-x2"], ["x1 + x2"])
