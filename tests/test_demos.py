"""Every narrative script in demos/ runs to completion against src/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr
