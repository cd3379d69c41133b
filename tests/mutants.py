"""The mutant catalogue: small breakages of the verdict path that tier-1
must notice.

Each entry is (file, old, new, reason).  For each, the script copies the
repository to a temporary directory, replaces the one occurrence of old by
new in file, runs tier-1 there with ``-x -q`` and prints killed, with the
first test that failed, or survived.  Tier-1 there runs the module's own
``tests/test_<module>.py`` first, when it exists (``tests/test_series.py``
for eta.py, whose tests live there), and the other test files
after it in name order, so a mutant that its own file kills stops in
seconds and one that file misses still meets every test.  It leaves out
``tests/test_mutants.py``, which checks this catalogue against the
unmutated tree.  An entry with a reason is an equivalent mutant: the reason
says why it cannot change a result, and it is expected to survive.  An
optional argument runs only the entries whose file, old or new text
contains it.  The script exits 1 when a mutant
without a reason survives, when an old text no longer occurs exactly once,
or when the argument matches no entry.  It uses only the standard library;
pytest does not collect it.

    python3 tests/mutants.py            # the whole catalogue, 20 min on 2 cores
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
    # the batched reduction: the residual check skipping q**1 or stopping
    # one position early, the overflow bound never checked, slots read one
    # by one, so a negative slot's borrow from the one above stays, and a
    # non-monic basis reduced instead of refused
    ("src/etacheck/basis.py",
     "for p in range(len(rem)) if rem[p]",
     "for p in range(max(0, 2 - lo), len(rem)) if rem[p]",
     None),
    ("src/etacheck/basis.py",
     "for p in range(len(rem)) if rem[p]", "for p in range(len(rem) - 1) if rem[p]",
     None),
    ("src/etacheck/basis.py", "if bound >= 1 << width - 1:", "if False:", None),
    ("src/etacheck/basis.py",
     "        x += bias\n        return [(x >> shift & mask) - half",
     "        return [((x >> shift) + half & mask) - half", None),
    ("src/etacheck/basis.py", "if s.coeffs[0] != 1:", "if False:", None),
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
    # the monic division and the positive powers, each killed by its test in
    # test_series.py: only the zero denominator refused, so that one leading
    # with 2 or -1 is divided as if it led with 1 (test_ring_laws and
    # test_inv_requires_unit_leading), and the exponent 0 taken, for which
    # pow returns None (test_pow_zero_and_inverse_pairing)
    ("src/etacheck/series.py", "if lead != 1:", "if not lead:", None),
    ("src/etacheck/series.py", "if n < 1:", "if n < 0:", None),
    ("src/etacheck/ujump.py",
     "if head != (self.basis.level, self.ell, i, j, k, self.basis.v):",
     "if head[:5] != (self.basis.level, self.ell, i, j, k):",
     "the fingerprint directory pins the basis, so every file stored there "
     "carries its v, and the terms are range-checked against the table's own"),
    # the basis: a pole order one t-power short, and verify_basis passing a
    # g of residue 0 or a constituent at another level
    ("src/etacheck/basis.py", "(self.v + 1) * e", "self.v * e", None),
    ("src/etacheck/basis.py", "if 0 in residues or ", "if ", None),
    ("src/etacheck/basis.py", "eq.level != b.level or ", "", None),
    # the refusals that outside input reaches, each killed by its row of
    # test_cli.py::test_usage_errors_exit_2: a level or a cusp that does not
    # exist, a --mod that names no ring (an image is then computed and
    # cached), an M below 1, an unknown pattern, a missing spec field
    ("src/etacheck/eta.py", "if level < 1:", "if level < 0:", None),
    ("src/etacheck/modcurve.py", "if N < 1:", "if N < 0:", None),
    ("src/etacheck/modcurve.py", "if a == 0:", "if False:", None),
    ("src/etacheck/series.py", "if not _is_prime(ell):", "if False:", None),
    ("src/etacheck/series.py", "if power < 1:", "if False:", None),
    ("src/etacheck/series.py", "if not ell:", "if False:", None),
    ("src/etacheck/ujump.py", "if M < 1:", "if M < 0:", None),
    ("src/etacheck/verifier.py", "if pattern not in PATTERN_STEPS:", "if False:", None),
    ("src/etacheck/verifier.py",
     """        except KeyError as exc:
            raise SpecError(f"family spec is missing field {exc}") from exc
""", "", None),
    # the guards of public functions, each killed by its row of the
    # test_guards_refuse table of tests/test_<module>.py (eta's in
    # test_series.py)
    ("src/etacheck/series.py", "if ell or power:", "if ell:", None),
    ("src/etacheck/series.py", "if val + len(coeffs) > trunc:", "if False:", None),
    ("src/etacheck/series.py", "if e >= self.trunc:", "if False:", None),
    ("src/etacheck/series.py",
     'if self.is_zero():\n            raise SpecError("zero series has no leading term")',
     'if False:\n            raise SpecError("zero series has no leading term")', None),
    ("src/etacheck/series.py", "if self.ring != other.ring:", "if False:", None),
    ("src/etacheck/series.py", "if d < 1:", "if d < 0:", None),
    ("src/etacheck/series.py", "if trunc > self.trunc:", "if False:", None),
    ("src/etacheck/eta.py", "if level % d:", "if False:", None),
    ("src/etacheck/eta.py", "if m < 1:", "if m < 0:", None),
    ("src/etacheck/eta.py", "if trunc < 0:", "if False:", None),
    ("src/etacheck/eta.py", "if trunc < 1:", "if trunc < 0:", None),
    ("src/etacheck/modcurve.py",
     "if other.__class__ is not self.__class__:", "if False:", None),
    ("src/etacheck/modcurve.py", "if not 0 <= r < ell:", "if False:", None),
    ("src/etacheck/modcurve.py",
     'if x.is_infinity():\n        raise SpecError("scale',
     'if False:\n        raise SpecError("scale', None),
    ("src/etacheck/search.py", "if bound < 1:", "if bound < 0:", None),
    ("src/etacheck/basis.py", "if t is None:", "if False:", None),
    ("src/etacheck/basis.py",
     'raise ContractError(f"no basis element covers residue {rho} mod {v1}")',
     "return 0", None),
    ("src/etacheck/ujump.py", "if any(o % scale for o in ords):", "if False:", None),
    # the searches' own refusals and verify_W's p0' sign, each killed by its
    # test in test_basis.py and test_tfinder.py
    ("src/etacheck/basis.py",
     "if len(hits) < len(needed):\n        raise SearchExhaustedError(",
     "if False:\n        raise SearchExhaustedError(", None),
    ("src/etacheck/basis.py", "if not verify_basis(b):", "if False:", None),
    ("src/etacheck/tfinder.py",
     """    raise SearchExhaustedError(
        f"no generator with""", """    return None
    raise SearchExhaustedError(
        f"no generator with""", None),
    ("src/etacheck/tfinder.py", "if order_numerator(eq, x) < 0:", "if False:", None),
    # branches whose deletion changed no result in the rest of tier-1, each
    # killed by its row or assertion in tests/test_<module>.py: verify_basis
    # passing a t of the wrong pole order, a g without a pole, or unsorted
    # g's; a t-power 1 printed as t^1; the valuation a basis function's
    # refusal names; `python -m etacheck.cli`, a missing spec file's reason,
    # the infinity-class mark, --help's exit 0, --mod without ^power; a cusp
    # with c < 0 or no "/"; the order matrix inverted without a row swap;
    # the byte-order fallback; p1' folded into p0'; the report text's blank
    # verdict, ok, saturation mark and requirement
    ("src/etacheck/basis.py", "if -b.t.ord_inf != v1:", "if False:", None),
    ("src/etacheck/basis.py", "if any(o <= 0 for o in orders):", "if False:", None),
    ("src/etacheck/basis.py", "if sorted(orders) != orders:", "if False:", None),
    ("src/etacheck/basis.py", 'f"t^{j}" if j != 1 else "t"', 'f"t^{j}"', None),
    ("src/etacheck/basis.py", "out.val if not out.is_zero() else None", "out.val", None),
    ("src/etacheck/basis.py", "out.val if not out.is_zero() else None", "None", None),
    ("src/etacheck/cli.py", 'if __name__ == "__main__":', "if False:", None),
    ("src/etacheck/cli.py", "if not path.exists():", "if False:", None),
    ("src/etacheck/cli.py", '"   (infinity class)" if x == infinity_class(args.N) else ""',
     '"   (infinity class)"', None),
    ("src/etacheck/cli.py", "2 if exc.code not in (0, None) else 0", "2", None),
    ("src/etacheck/cli.py", "int(power) if caret else 1", "int(power)", None),
    ("src/etacheck/modcurve.py", "if c < 0:", "if False:", None),
    ("src/etacheck/modcurve.py", "int(c) if slash else 1", "int(c)", None),
    ("src/etacheck/search.py", "range(col, k) if a[r][col])", "range(col, k))", None),
    ("src/etacheck/series.py", 'if sys.byteorder != "little" or', "if False and", None),
    ("src/etacheck/tfinder.py", "if images_coarse[x] <= (p_a | p_g | {x})}", "}", None),
    ("src/etacheck/verifier.py", 'verdict = ("  " if req is None\n                       else ',
     "verdict = (", None),
    ("src/etacheck/verifier.py", '"ok" if self.passed[alpha] else "FAIL"', '"FAIL"', None),
    ("src/etacheck/verifier.py", '" (saturated)" if self.saturated[alpha] else ""', '""', None),
    ("src/etacheck/verifier.py", '"" if req is None else f" need>={req}"', 'f" need>={req}"', None),
    # single clauses and handlers whose deletion changed no result in the
    # rest of tier-1, each killed by a new row, assertion or test: an eta
    # piece without ^exponent refused without naming it; Newman's weight condition;
    # verify_basis passing a constituent that is not modular; a divisor
    # below 1; a spec file's unparsable divisor key (exit 3 with a
    # traceback); --json printed beside -o FILE; a support that escapes
    # upward; the product closure taking a pair of another residue, or the
    # first pair of the missing one; a zero basis function refused by
    # truncate instead of by name; the array path kept on a host whose C int
    # is not 4 bytes, and dropped where int() has no digit limit
    ("src/etacheck/cli.py", 'if not piece.partition("^")[2].strip():', "if False:", None),
    ("src/etacheck/modcurve.py", "if eq.sum_r() != 0 or ", "if ", None),
    ("src/etacheck/basis.py", " or not newman_check(eq)[0]", "", None),
    ("src/etacheck/eta.py", "if d < 1 or level % d:", "if level % d:", None),
    ("src/etacheck/verifier.py", "except (SpecError, ValueError, TypeError, AttributeError)",
     "except (SpecError, TypeError, AttributeError)", None),
    ("src/etacheck/cli.py", "if args.json and not args.output:", "if args.json:", None),
    ("src/etacheck/verifier.py", "if j_lo < -J_CEILING or j_hi > J_CEILING:",
     "if j_lo < -J_CEILING:", None),
    ("src/etacheck/basis.py", "if (o1 + o2) % v1 == rho and ", "if ", None),
    ("src/etacheck/basis.py", "(best is None or o1 + o2 < best[0])", "best is None", None),
    ("src/etacheck/basis.py", "if out.is_zero() or out.val != self.ord_inf:",
     "if out.val != self.ord_inf:", None),
    ("src/etacheck/series.py",
     " or any(array(c).itemsize != w for w, c in _WORDS.items())", "", None),
    ("src/etacheck/series.py", "(str_digits == 0 or digits <= str_digits)",
     "digits <= str_digits", None),
    ("src/etacheck/search.py", "if (all(a % den == 0 for a in acc[1:]) and ", "if (",
     "the search's exactness guard: the cusp-weighted sum of a leaf's orders is "
     "(index/24) * sum w_d, so it is 0 exactly when sum w_d = 0, and a non-integral w "
     "floors to exponents summing below 0, which newman_check's weight condition refuses"),
    # the one owner of each rule an image's expansions follow (the
    # precision of t**j and y is the pair of entries above): t**m read one
    # short of its window, or read as if every U_ell product started at q**0
    # or above, short for a key whose product starts below q**0 (each first
    # killed by test_least_exponent_gives_the_same_images, and by
    # test_precision_is_the_least_sufficient[key3, key4] and [key4]), the
    # monomial of a pole order off by one t-power
    # (test_reduce_t_times_g1), a monomial known one coefficient short of a
    # truncation (test_reduce_detects_corruption), and A dropped from the
    # store key, so that A * g_k and g_k share one entry
    # (test_a_product_is_kept_beside_its_monomial)
    ("src/etacheck/ujump.py", "1 + self.SLACK - min(", "self.SLACK - min(", None),
    ("src/etacheck/ujump.py", "min(u.val, 0)", "0", None),
    ("src/etacheck/basis.py", "return (e, k) if e >= 0 else None",
     "return (e + 1, k) if e >= 0 else None", None),
    ("src/etacheck/basis.py", "return trunc + self.pole_order(e, k)",
     "return trunc - 1 + self.pole_order(e, k)", None),
    ("src/etacheck/basis.py", "(e, k, a), prec, build)", "(e, k, ()), prec, build)", None),
    # the one store of expansions: a basis function's quotients read through
    # eta_expand instead of the store, so h has no entry and g and h are
    # expanded once per function that reads them
    # (test_a_product_is_kept_beside_its_monomial), and a g_k that is one
    # quotient with coefficient 1 copied through scale into an entry of its
    # own beside the quotient's
    # (test_a_quotient_is_expanded_once_per_length_it_outgrows)
    ("src/etacheck/basis.py", "series(n, lambda eq, m: self.monomial(0, 0, m, eq))",
     "series(n, eta_expand)", None),
    ("src/etacheck/basis.py", "for key, q in gs.items() if q}", "for key, q in gs.items() if False}",
     None),
    # a batch's keys taken shallowest first, so that its products rebuild
    # an entry they read shorter for an earlier key
    # (test_cold_iterate_builds_each_expansion_once_per_phase)
    ("src/etacheck/ujump.py", "self._precision(*key), reverse=True)", "self._precision(*key))",
     None),
    # two clause deletions that make a loop run forever, each killed by the
    # per-test deadline of tests/conftest.py: the pole-set closure adding
    # cusps it already holds (in the set-up of test_tfinder.py's
    # rr_pole_sets), and the valuation loop past B on the zero element,
    # whose gcd 0 every power of ell divides
    ("src/etacheck/tfinder.py", "if x not in forced and ", "if ", None),
    ("src/etacheck/verifier.py", "while v < spec.B and ", "while ", None),
    # the integer orders and the on-demand libmpdec: the N / gcd(c^2, N)
    # factor read as N / gcd(c, N) (test_modcurve.py::
    # test_order_values_at_level_20), the integrality guard of the stability
    # exponents checking N alone, not 24N (test_ujump.py::test_guards_refuse),
    # the inverse's pivot taken from a row already eliminated
    # (test_search.py::test_search_matches_brute_force), and libmpdec
    # imported by every product, whatever its size
    # (test_cli.py::test_a_check_loads_neither_fractions_nor_decimal)
    ("src/etacheck/modcurve.py", "return N // gcd(c * c, N) * sum(",
     "return N // gcd(c, N) * sum(", None),
    ("src/etacheck/ujump.py", "if any(o % scale for o in ords):",
     "if any(o % eq.level for o in ords):", None),
    ("src/etacheck/search.py", "next(r for r in range(col, k)", "next(r for r in range(k)", None),
    ("src/etacheck/series.py", "if (digits * size >= _DECIMAL_DIGITS and",
     "if (_libmpdec() and digits * size >= _DECIMAL_DIGITS and", None),
    ("src/etacheck/series.py", "except ImportError:", "except ():",
     "CPython builds ship _decimal, so the import never fails and the handler "
     "never runs (tests/linecov.py allows its one statement for that reason)"),
)


# a module whose tests live in another module's test file
_TESTS_OF = {"eta": "series"}


def _test_files(file: str) -> list:
    """Tier-1's test files, the mutated module's own first when it exists.
    pytest keeps the order of the files it is given, but a directory given
    with them would not move its own file first, so each file is named.
    test_mutants.py checks this catalogue against the unmutated tree, so it
    would fail on every mutant and hide which test kills it."""
    stem = Path(file).stem
    own = f"tests/test_{_TESTS_OF.get(stem, stem)}.py"
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    files.remove("tests/test_mutants.py")
    return sorted(files, key=lambda f: f != own)


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
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *_test_files(file)],
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
