"""The demo scripts and the README's Python quick start run to completion,
in-process and under the suite's RuntimeWarning-as-error filter, so a change
to what they call shows here."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _run_readme(path: Path) -> None:
    """Run the fenced ``python`` blocks of a Markdown file as one script."""
    blocks = re.findall(r"^```python\n(.*?)^```", path.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    exec(compile("".join(blocks), str(path), "exec"), {"__name__": "__main__"})


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    if path.suffix == ".md":
        _run_readme(path)
    else:
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
