"""Shared pytest plumbing: surface the acceptance lines in the summary, and
count kernel compilations."""

import pytest

from occtl import sysmodel

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def compile_calls(monkeypatch) -> list:
    """Number of expressions of each kernel `sysmodel` compiles during the
    test, in compile order."""
    calls = []
    real = sysmodel.compile_expr

    def counting(exprs, names):
        calls.append(len(exprs))
        return real(exprs, names)
    monkeypatch.setattr(sysmodel, "compile_expr", counting)
    return calls
