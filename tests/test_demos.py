"""Smoke test: every script in ``demos/`` runs to completion, with every
warning, a deprecation among them, made an error; and README's Layout, a
map of the package, names each of its files once."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import flipcert as fc

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the child imports the same flipcert package this test imported
    package_root = str(Path(fc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr


def test_the_readme_map_names_each_package_file_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = sorted(re.findall(r"`(\w+\.py)`", layout))
    assert named == sorted(p.name for p in (ROOT / "src" / "flipcert").glob("*.py"))
