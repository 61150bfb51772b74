"""Every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # conftest.py puts src/ on PYTHONPATH; TMPDIR keeps the exported
    # trajectory of the steering demo inside the test's directory
    r = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                       env={**os.environ, "TMPDIR": str(tmp_path)},
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout
