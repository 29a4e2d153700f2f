"""Smoke tests: each script under scripts/ runs to exit 0 on a small input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=300)


def test_calibration_report_runs():
    proc = run_script("calibration_report.py", "--profiles", "sz000001")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2].startswith("sz000001")


def test_run_end_to_end_runs(tmp_path):
    proc = run_script("run_end_to_end.py", "--epochs", "1",
                      "--out", str(tmp_path / "e2e"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "e2e" / "transfer" / "report.txt").is_file()
