"""The byte-and-verdict sweep (golden_sweep.py) against its table."""

import os
import subprocess
import sys

import golden_sweep
from conftest import cpython_only
from lv3 import cli

HERE = os.path.dirname(os.path.abspath(__file__))


@cpython_only
def test_the_sweep_matches_its_table():
    done = subprocess.run([sys.executable, os.path.join(HERE, "golden_sweep.py"), "--check"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_the_table_names_each_invocation_once():
    table = golden_sweep.read_table()
    assert list(table) == [name for name, _ in golden_sweep.INVOCATIONS]
    assert {row["argv"] for row in table.values()} == {argv for _, argv in golden_sweep.INVOCATIONS}
    assert {row["exit"] for row in table.values()} == {"0", "1", "2", "64", "74"}


@cpython_only
def test_one_printed_digit_less_moves_the_row(monkeypatch):
    name, argv = next(item for item in golden_sweep.INVOCATIONS if item[0] == "classify-s-minus")
    expected = {name: golden_sweep.read_table()[name]}
    assert golden_sweep.differences(expected, {name: {"name": name, **golden_sweep.run(argv)}}) == []
    monkeypatch.setattr(cli, "_fmt", lambda value: f"{value:.16g}")
    moved = golden_sweep.differences(expected, {name: {"name": name, **golden_sweep.run(argv)}})
    assert [line.split(" ")[1] for line in moved] == ["stdout_sha256"]
