"""The benchmark harness still runs against the package it measures.

A traced smoke run installs every span and counter of perfbench/layers.py
over the package, so a refactor that breaks a wrapped entry point fails
here, not first in a benchmark run; a traced cross-check run does the same
for the oracle's hook.  A traced rr-cold run computes the Rogers-Ramanujan
image table on an empty cache, so a change to any computed image fails here
against the golden digest.  About 1 s, 1.6 s and 1.6 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# cross-check runs the tracer's direct_oracle hook, which smoke never
# reaches; rr-cold runs its compute_m_constants hook and checks every image
# it computes against the golden digest
@pytest.mark.parametrize("workload", ["smoke", "cross-check", "rr-cold"])
def test_traced_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
