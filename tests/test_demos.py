"""Every demo script runs to completion on a copy of ``demos/``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("[0-9]*.py")))
def test_demo_runs(script, tmp_path):
    shutil.copytree(DEMOS, tmp_path / "demos", ignore=shutil.ignore_patterns("output"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, script], cwd=tmp_path / "demos", env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
