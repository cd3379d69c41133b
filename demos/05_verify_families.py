#!/usr/bin/env python3
"""Verifying the two built-in congruence families end to end.

Rogers-Ramanujan subpartition counts a(n) (generating function
(q^2;q^2)^5 / ((q;q)^3 (q^4;q^4)^2)) should satisfy a(n) == 0 mod 5^a
whenever 24n == 1 mod 5^(2a); 2-colored Frobenius counts cphi2(n) should
satisfy cphi2(n) == 0 mod 5^a whenever 12n == 1 mod 5^a.  Checking a(n)
directly dies fast: the smallest n in the fourth case already needs the
coefficient at 599 of a subexponentially growing series, per 625 steps.
The iteration below checks five cases of each family in seconds.
"""

import time

from etacheck.basis import load_basis_n20
from etacheck.ujump import UImageTable, build_A
from etacheck.verifier import (
    andrews_sellers,
    consistency_check,
    direct_oracle,
    iterate,
    residue_for_case,
    rogers_ramanujan,
)

b = load_basis_n20()

for spec in (rogers_ramanujan(B=5), andrews_sellers(B=5)):
    print("=" * 60)
    table = UImageTable(b, build_A(spec.gen), 5)
    t0 = time.monotonic()
    report = iterate(spec, table)
    print(report.text())
    print(f"({time.monotonic() - t0:.1f}s)")
    print()

print("=" * 60)
print("cross-checks against raw coefficient expansion:")
rr = rogers_ramanujan()
print("  progression residues: 24n == 1 mod 5^2 means n == "
      f"{residue_for_case(24, 5, 2)} mod 25; mod 5^4 means n == "
      f"{residue_for_case(24, 5, 4)} mod 625")
print("  5 | a(25n+24) for n <= 100:",
      direct_oracle(rr.gen, 25, 24, 5, 1, 100) is None)
print("  5 | a(125n+99) for n <= 50: ",
      direct_oracle(rr.gen, 125, 99, 5, 1, 50) is None)
witness = direct_oracle(rr.gen, 125, 99, 5, 2, 50)
print(f"  25 | a(125n+99)?  fails at n = {witness}, as it should:")
print("  the odd steps only ever gain a single factor of 5.")
asp = andrews_sellers()
print("  5 | cphi2(5n+3) for n <= 200:",
      direct_oracle(asp.gen, 5, 3, 5, 1, 200) is None)

print()
print("and the step functions really are the progression slices:")
table = UImageTable(b, build_A(rr.gen), 5)
for alpha in (1, 2):
    ok = consistency_check(rr, table, alpha, 40)
    print(f"  step {alpha} expansion == direct slice mod 5^5 "
          f"(40 coefficients): {ok}")
