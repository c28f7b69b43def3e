"""The benchmark harness under perfbench/ imports plan_from_dict,
plan_estimator and replicate_seed_sequences and traces lasso_cv's keyword
arguments by name, so its self-test fails when a rename in src/ breaks it."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
