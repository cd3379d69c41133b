"""The mutant catalogue: small breakages of the verdict path that tier-1
must notice.

Each entry is (file, old, new, reason).  For each, the script copies the
repository to a temporary directory, replaces the one occurrence of old by
new in file, runs tier-1 there with ``-x -q`` and prints killed, with the
first test that failed, or survived.  Tier-1 there leaves out
``tests/test_mutants.py``, which checks this catalogue against the
unmutated tree.  An entry with a reason is an equivalent mutant: the reason
says why it cannot change a result, and it is expected to survive.  An
optional argument runs only the entries whose file, old or new text
contains it.  The script exits 1 when a mutant
without a reason survives, when an old text no longer occurs exactly once,
or when the argument matches no entry.  It uses only the standard library;
pytest does not collect it.

    python3 tests/mutants.py            # the whole catalogue, about 10 min
    python3 tests/mutants.py series.py  # only the entries whose file, old or
                                        # new text contains "series.py"
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    # a conjecture that fails only at its last step
    ("src/etacheck/verifier.py",
     "return all(p for p in self.passed if p is not None)",
     "return all(p for p in self.passed[:-1] if p is not None)", None),
    # a unit that is 1 mod ell**B for every B <= 9
    ("src/etacheck/ujump.py",
     "acc[key] = acc.get(key, 0) + c * v",
     "acc[key] = acc.get(key, 0) + c * v * (1 + table.ell ** 9)", None),
    # the alpha = 0 side of the consistency check
    ("src/etacheck/verifier.py",
     "return QSeries.one(ring, count)",
     "return QSeries.zero(ring, count)", None),
    ("src/etacheck/basis.py", "if any(rem):", "if any(rem[:-1]):", None),
    ("src/etacheck/ujump.py",
     "if prod.trunc < 1 + self.SLACK:", "if prod.trunc < 1:", None),
    # a precision one more than the least, and one less
    ("src/etacheck/ujump.py",
     "+ self.SLACK) + 1 - val", "+ self.SLACK) + 2 - val", None),
    ("src/etacheck/ujump.py",
     "+ self.SLACK) + 1 - val", "+ self.SLACK) - val", None),
    ("src/etacheck/ujump.py",
     """    for x, ot, of in zip(cusps, ord_scaled_t, ords):
        if m * ot + of < 0:
            raise ContractError(f"{what}: no taming power works at {x}")
""", "", None),
    ("src/etacheck/verifier.py",
     'if gcd(_whole(c, "c"), gen.ell) != 1:',
     'if gcd(_whole(c, "c"), gen.ell) != 1 and False:', None),
    ("src/etacheck/ujump.py", "if i not in (0, 1):", "if i not in (0, 1, 2):", None),
    # the kernels: Newton's new half one term short, a square of the wrong
    # class, a power product spread back past its truncation, an odd t-power
    # made as the square of its lower half, a repeated cache term taking the
    # last value
    ("src/etacheck/series.py",
     "g += self._conv(g, [-x for x in r], t - k)",
     "g += self._conv(g, [-x for x in r], t - k - 1)", None),
    ("src/etacheck/series.py",
     "ys = xs if square and r == s else", "ys = xs if square else", None),
    ("src/etacheck/eta.py",
     "return out.substitute_power(g).truncate(n)",
     "return out.substitute_power(g)", None),
    ("src/etacheck/basis.py",
     "return half.mul(half if e % 2 == 0 else self.monomial(e - e // 2, 0, n))",
     "return half.mul(half)", None),
    ("src/etacheck/ujump.py",
     "if (jj, kk) in terms:", "if False:", None),
    # the limb width: block pairs allowed one block past the last wanted
    # coefficient (exact, but wider limbs), and a bound that no longer holds
    # the operands' own coefficients; the division step's residual read from
    # h - 1; Jacobi's terms with the wrong sign
    ("src/etacheck/series.py",
     "last = (n_in - 1) // _BLOCK", "last = (n_in - 1) // _BLOCK + 1", None),
    ("src/etacheck/series.py",
     "bound = max(meet * min(len(a), len(b)), ma[-1], mb[-1]) + 1",
     "bound = meet * min(len(a), len(b)) + 1", None),
    ("src/etacheck/series.py",
     "zip(a[h:], self._conv(b, f, m)[h:])",
     "zip(a[h - 1:], self._conv(b, f, m)[h - 1:])", None),
    ("src/etacheck/eta.py",
     "-(2 * k + 1) if k % 2 else 2 * k + 1", "2 * k + 1 if k % 2 else -(2 * k + 1)", None),
    # the two-point read-back: the odd outputs one bit too high, the shifted
    # product at x = -2**h added, the odd halves packed unshifted (the int
    # path packs both operands through one pack, so both lose the shift)
    ("src/etacheck/series.py", "(plus - minus) >> h + 1", "(plus - minus) >> h", None),
    ("src/etacheck/series.py", "-(p[1] << h)]", "p[1] << h]", None),
    ("src/etacheck/series.py",
     "_pack(v[1::2], k) << h", "_pack(v[1::2], k)", None),
    # the q-strides of a division: the numerator compressed from offset 1,
    # the numerator's stride ignored, a quotient spread past its window, and
    # the inverse's stride taken over all m coefficients instead of its h
    ("src/etacheck/series.py",
     "a, b = self.coeffs[:n:s], den.coeffs[:n:s]",
     "a, b = self.coeffs[1:n:s], den.coeffs[:n:s]", None),
    ("src/etacheck/series.py",
     "s = _stride(den.coeffs, n, _stride(self.coeffs, n)) or n",
     "s = _stride(den.coeffs, n) or n", None),
    ("src/etacheck/series.py",
     "out = [0] * n\n    out[::s] = vals",
     "out = [0] * (s * len(vals))\n    out[::s] = vals", None),
    ("src/etacheck/series.py", "e = _stride(b, h) or h", "e = _stride(b, m) or h", None),
    ("src/etacheck/ujump.py",
     "if head != (self.basis.level, self.ell, i, j, k, self.basis.v):",
     "if head[:5] != (self.basis.level, self.ell, i, j, k):",
     "the fingerprint directory pins the basis, so every file stored there "
     "carries its v, and the terms are range-checked against the table's own"),
    ("src/etacheck/ujump.py",
     "if (1 - ell * ell) * wsum % 24:", "if False:",
     "ell**2 == 1 mod 24 for every prime ell >= 5, the only ell a "
     "FamilyGenerator accepts, so the shift is always integral"),
)


def _run(file: str, old: str, new: str) -> tuple:
    with tempfile.TemporaryDirectory(prefix="etacheck-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_*"))
        path = copy / file
        text = path.read_text()
        if text.count(old) != 1:
            return "stale", ""
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "ETACHECK_CACHE": str(Path(tmp) / "cache")}
        try:
            # the catalogue's own check reads the unmutated tree, so it
            # would fail on every mutant and hide which test kills it
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--deselect", "tests/test_mutants.py::test_every_mutant_targets_exactly_one_text"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=1200)
        except subprocess.TimeoutExpired:
            return "killed", "timeout"
        if done.returncode == 0:
            return "survived", ""
        failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return "killed", failed[0] if failed else done.stdout[-200:]


def main(argv: list) -> int:
    bad = ran = 0
    for file, old, new, reason in MUTANTS:
        if argv and not any(argv[0] in text for text in (file, old, new)):
            continue
        ran += 1
        status, detail = _run(file, old, new)
        print(f"{status:8s}  {file}: {' '.join(old.split())[:70]!r} -> {new.strip()[:60]!r}", flush=True)
        if detail or reason:
            print(f"          {detail or 'equivalent: ' + reason}", flush=True)
        bad += status == "stale" or (status == "survived" and not reason)
    if not ran:
        print(f"no entry contains {argv[0]!r}")
    return 1 if bad or not ran else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
