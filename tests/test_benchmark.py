"""The benchmark harness still runs against the package it measures.

A traced smoke run installs every span and counter of perfbench/layers.py
over the package, so a refactor that breaks a wrapped entry point fails
here, not first in a benchmark run; a traced cross-check run does the same
for the oracle's hook.  A traced rr-cold run computes the Rogers-Ramanujan
image table on an empty cache, so a change to any computed image fails here
against the golden digest.  About 1 s, 1.6 s and 1.6 s.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_span_names_a_package_attribute():
    # the tracer skips a name it cannot find, so a renamed entry point would
    # drop its layer from every traced run without an error; SPANS is read
    # from the source, so nothing under perfbench/ is run or written
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    spans, = (ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS")
    missing = []
    for name, mod_name, attr, cls_name in spans:
        mod = importlib.import_module("etacheck." + mod_name)
        if attr not in vars(getattr(mod, cls_name) if cls_name else mod):
            missing.append(name)
    assert spans and missing == []


# cross-check runs the tracer's direct_oracle hook, which smoke never
# reaches; rr-cold runs its compute_m_constants hook, checks every image it
# computes against the golden digest, and its tracer sees each of them
# computed, since every image is computed in the traced process
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
    if workload == "rr-cold":
        golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
        assert (result["metrics"]["ujump.images_computed"]["value"]
                == len(golden["rr-B5"]["image_keys"]) == 33)
