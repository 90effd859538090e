"""Smoke runs of the scripts in ``scripts/`` at tiny sizes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "run_boundary_scan.py": ["--p", "0.2", "--q", "0.5", "--m", "1000", "--reps", "1000"],
}


def _run_script(tmp_path, script, args):
    out = tmp_path / "out.txt"
    env = dict(os.environ, WMKIT_CALIB_DIR=str(tmp_path / "calib"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {out}" in proc.stdout
    return out.read_bytes()


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    text = _run_script(tmp_path, script, SCRIPTS[script]).decode()
    assert len(text.splitlines()) >= 2


def test_every_script_has_a_smoke_run():
    assert set(SCRIPTS) == {p.name for p in (ROOT / "scripts").glob("*.py")}


# sha256 of the run_boundary_scan.py CSV for a 2 x 2 grid, captured while
# each (p, q) still drew its own null cell.
GOLDEN_SCAN = "e66b5949a2fe2d78f1911c249e500e2aebef989e28e4e7fe6710345332e6edfe"


def test_boundary_scan_golden(tmp_path):
    args = ["--p", "0.1,0.2", "--q", "0.3,0.5", "--m", "1000", "--reps", "1000"]
    csv = _run_script(tmp_path, "run_boundary_scan.py", args)
    assert hashlib.sha256(csv).hexdigest() == GOLDEN_SCAN
