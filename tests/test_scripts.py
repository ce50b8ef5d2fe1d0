"""Smoke tests: each script under scripts/ runs and prints its header lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, headers",
    [
        (
            "magic_square_report.py", [],
            ["classical value (exact enumeration over 262144 strategies): 0.8888888888888888 = 8/9",
             "known values: classical 0.888888889, witnessed quantum lower bound 0.934912618",
             "mixture win probabilities by input:"],
        ),
        (
            "protocol_statistics.py", ["--n", "2000", "--trials", "3"],
            ["N=2000 q=0.05 trials=3", "optimal device: score mean 85.4, sd 9.0",
             "classical device:"],
        ),
        (
            "rate_curve_soundness.py", ["--devices", "4"],
            ["device,eps,score,randomness,slack_over_eps"],
        ),
    ],
)
def test_script_runs(script, args, headers):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for header in headers:
        assert header in lines
