#!/usr/bin/env python3
"""Fundamental operator images, stability exponents, and the mod-5 cycle.

U_5 maps the module to itself once each image is multiplied by the right
power of t; those powers (the stability exponents) come from cusp orders
alone.  The resulting image table is exact integer data, computed once and
reused by every verification run.

The closing act shows why this machinery verifies but cannot prove: the
images of the reciprocal generator settle into a cycle mod 5, so they never
vanish 5-adically on their own.
"""

from etacheck.basis import ModuleElement, load_basis_n20, module_element_series
from etacheck.eta import eta_expand
from etacheck.series import zmod
from etacheck.ujump import UImageTable, build_A, u_ell, u_step
from etacheck.verifier import rogers_ramanujan

b = load_basis_n20()
spec = rogers_ramanujan()
table = UImageTable(b, build_A(spec.gen), 5)

se = table.se
print("stability exponents (least t-powers canceling all finite-cusp poles):")
print(f"  m_A = {se.exponent(1, 0, 0)}, m_t = {se.exponent(0, 1, 0)}, "
      f"m_1/t = {se.exponent(0, -1, 0)}, "
      f"m_k = {[se.exponent(0, 0, k) for k in range(1, b.v + 1)]}")
print(f"  so e.g. U(A * t^-2 * g3) needs t^{se.exponent(1, -2, 3)}")

print()
print("the first image: U(A) expressed over the basis")
me = table.image(1, 0, 0)
print(f"  {me}")
check = module_element_series(me, b, 20)
direct = u_ell(eta_expand(table.A, 400), 5)
print("  matches U applied to the raw expansion:",
      check.agrees_with(direct.truncate(20)))

print()
print("images of the reciprocal generator, reduced mod 5:")
seq = {1: ModuleElement(zmod(5, 1), table.image(0, -1, 0).terms)}
for a in range(2, 15):
    seq[a] = u_step(table, seq[a - 1], with_A=(a % 2 == 0))
for a in range(1, 15):
    print(f"  step {a:2d}: {seq[a]}")
print()
print("steps 11..14 repeat steps 3..6 exactly:",
      all(seq[a + 8] == seq[a] for a in (3, 4, 5, 6)))
print("a cycle mod 5 can never reach 0, which is why this method gathers")
print("evidence case by case instead of delivering a proof for all cases.")
