"""Smoke test: every narrative script under demos/ runs to completion.

Each script is copied into a temporary directory first, so the files it
writes next to itself land there and not in the repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
