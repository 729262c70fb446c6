"""The suite's own pytest configuration lets every failure report itself.

pyproject.toml turns warnings into errors.  Hypothesis's failure path
imports mypy_extensions, whose TypedDict deprecation warning would then
abort the run with an INTERNALERROR, hiding the falsifying example and
skipping every later test; that one warning is ignored.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out and "x=5," in out, out
    assert "1 failed, 1 passed" in out
