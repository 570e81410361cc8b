import os
import subprocess
import sys
from pathlib import Path

import pytest

import asrti

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# 06 runs a reduced benchmark study (about 30 s); the CLI tests cover its code path.
@pytest.mark.parametrize(
    "script",
    [
        "01_radau_integrator.py",
        "02_transcription_and_sqp.py",
        "03_two_phase_condensing.py",
        "04_inner_iteration_levels.py",
        "05_closed_loop.py",
    ],
)
def test_demo_runs_to_completion(script, tmp_path):
    # the child interpreter imports the same asrti package as this one
    root = os.path.dirname(os.path.dirname(asrti.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
