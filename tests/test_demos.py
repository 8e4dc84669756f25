"""Smoke test: every script in ``demos/`` runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

import flipcert as fc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the child imports the same flipcert package this test imported
    package_root = str(Path(fc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
