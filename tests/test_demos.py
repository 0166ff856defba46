"""Smoke tests: each demo runs from a copy in a temporary directory, exits 0
and writes the files it says it writes (demos/output/ stays untouched)."""

import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_copy(tmp_path, demo, argv):
    """Run python with argv in tmp_path, which holds a copy of the demo."""
    shutil.copy(ROOT / "demos" / demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("demo, written", [
    ("hysteresis_loop.py", ["output/loop.txt", "output/hysteresis_loop.svg"]),
    ("ellipticity_study.py", ["output/chi_study/points.txt",
                              "output/chi_study/trends.txt",
                              "output/chi_study/loops.svg"]),
    ("field_estimates.py", []),
])
def test_demo_runs(tmp_path, demo, written):
    proc = _run_copy(tmp_path, demo, [demo])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in written:
        assert (tmp_path / name).stat().st_size > 0
    if not written:
        assert [p.name for p in tmp_path.iterdir()] == [demo]


def test_importing_the_study_demo_runs_no_study(tmp_path):
    # the study runs only when the demo runs as a script, not on import
    proc = _run_copy(tmp_path, "ellipticity_study.py", ["-B", "-c", "import ellipticity_study"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["ellipticity_study.py"]
