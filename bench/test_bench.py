"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Each workload runs at the small "smoke" size, untraced and traced, in a
copy of the checkout holding only BENCHMARK.json, bench/ and src/.  The
tests check the result line against BENCHMARK.json, that traced and
untraced digests agree, that nothing outside bench/ is written, and that
the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


def _run(checkout: Path, workload: str, trace: int):
    command = SPEC["command"] + ["--workload", workload, "--seed", "11",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--size", "smoke"]
    command[0] = sys.executable
    return subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return _copy_checkout(tmp_path_factory.mktemp("bench") / "checkout",
                          with_src=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(checkout, workload, trace):
    outside = {k: v for k, v in _tree(checkout).items()
               if not k.startswith("bench/")}
    proc = _run(checkout, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["ops"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for name, unit in ((m["name"], m["unit"]) for m in declared):
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), f"{name} not printed with {unit}"
    assert "failed_frac" in proc.stdout

    digests = {op["kind"]: set() for op in detail["ops"]}
    for op in detail["ops"]:
        digests[op["kind"]].add(op["digest"])
    timed = digests["untraced"] | digests.get("traced", set())
    assert len(timed) == 1, digests
    if trace:
        assert digests["traced"] == digests["untraced"]
        # the span table is the last traced operation's: with the tracer's
        # cost moved to "trace", no self time is negative and together they
        # fit in that operation's wall time
        self_s = detail["spans"]["self_s"]
        last = [op for op in detail["ops"] if op["kind"] == "traced"][-1]
        assert min(self_s.values()) >= 0.0, self_s
        assert sum(self_s.values()) <= last["wall_s"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])

    after = {k: v for k, v in _tree(checkout).items()
             if not k.startswith("bench/")}
    assert after == outside


def test_refuses_to_run_without_the_package(tmp_path):
    bare = _copy_checkout(tmp_path / "bare", with_src=False)
    proc = _run(bare, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
