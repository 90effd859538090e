"""Smoke runs of the scripts in ``scripts/`` at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "run_desk_pipeline.py": ["--texts", "2", "--n", "40", "--specdec-texts", "1"],
    "run_boundary_scan.py": ["--p", "0.2", "--q", "0.5", "--m", "1000", "--reps", "1000"],
    "run_regime_power.py": [
        "--regime", "weak", "--p", "0.2", "--q", "0.5", "--m", "1000", "--reps", "1000",
    ],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    out = tmp_path / "out.txt"
    env = dict(os.environ, WMKIT_CALIB_DIR=str(tmp_path / "calib"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script], "--out", str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {out}" in proc.stdout
    text = out.read_text()
    if script == "run_desk_pipeline.py":
        assert json.loads(text)["texts"] == 2
    else:
        assert len(text.splitlines()) >= 2
