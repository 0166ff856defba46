"""Smoke tests: each demo runs from a copy in a temporary directory, exits 0
and writes the files it says it writes (demos/output/ stays untouched)."""

import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, written", [
    ("hysteresis_loop.py", ["output/loop.txt", "output/hysteresis_loop.svg"]),
    ("ellipticity_study.py", ["output/chi_study/points.txt",
                              "output/chi_study/trends.txt",
                              "output/chi_study/loops.svg"]),
    ("field_estimates.py", []),
])
def test_demo_runs(tmp_path, demo, written):
    shutil.copy(ROOT / "demos" / demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in written:
        assert (tmp_path / name).stat().st_size > 0
    if not written:
        assert [p.name for p in tmp_path.iterdir()] == [demo]
