"""Smoke test of the benchmark at a tiny size, for every workload.

Run from the root of a checkout with either

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py

It is not named test_*.py, so the repository's own test suite does not
collect it.  It runs each workload untraced and traced at `--size tiny`,
checks the result line against BENCHMARK.json, and checks that the
benchmark fails without a result when the lv3 sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seconds="0.5"):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record = json.loads(proc.stdout.splitlines()[-2])
    assert record["environment"]["seed"] == 3
    if not trace:
        assert record["metrics"]["fail_frac"]["value"] == 0.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_verify_a_center():
    _check_result("verify-a-center", 0)
    _check_result("verify-a-center", 1)


def test_verify_b_offmanifold():
    _check_result("verify-b-offmanifold", 0)
    _check_result("verify-b-offmanifold", 1)


def test_integrate_long():
    _check_result("integrate-long", 0)
    _check_result("integrate-long", 1)


def test_fails_without_sources():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("integrate-long", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
