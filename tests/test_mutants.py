"""The mutant catalogue stays in step with the code it breaks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_targets_exactly_one_text():
    # the catalogue script reports a stale entry only after minutes of
    # tier-1 runs; a text that no longer occurs exactly once fails here
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for file, old, new, _ in mutants.MUTANTS:
        assert old != new
        assert (ROOT / file).read_text().count(old) == 1, (file, old)
