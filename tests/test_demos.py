"""Smoke runs of the demos that are fast enough for the test suite.

Demos 02 and 03 run long chains and stay out of it.
"""
import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_exact_verification_demo(capsys):
    runpy.run_path(str(DEMOS / "01_exact_verification.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(r"stationarity residual \S+\s+<- not stationary", out)
    diff = re.search(r"max \|lumped - projection\| = (\S+)", out)
    assert diff and float(diff.group(1)) <= 1e-12
