#!/usr/bin/env python3
"""The level-20 algebra basis and greedy membership reduction.

Functions with a single pole (at infinity) reduce against the basis by
repeatedly killing the leading term of the principal part: the pole order
mod 5 selects the unique basis element that can reach it, and the order
strictly drops.  A constant remainder proves membership and yields the
module element; an unreachable order disproves it.
"""

from etacheck.basis import load_basis_n20, module_element_series, mw_reduce
from etacheck.errors import ContractError
from etacheck.series import ZZ, QSeries

b = load_basis_n20()
print(f"basis at level {b.level}: generator of order {b.t.ord_inf}, v = {b.v}")
for fn in (b.t, *b.gs):
    print(f"  {fn.describe()}   [ord_inf {fn.ord_inf}]")
orders = [-g.ord_inf for g in b.gs]
print(f"pole orders {orders} cover residues {[o % 5 for o in orders]} mod 5,")
print("with multiples of 5 handled by powers of t: every pole order except 1")
print("is reachable, and order 1 is exactly the gap of the underlying curve.")
print("Every monomial t^e*g_k leads with coefficient 1, so the reduction")
print("runs over the integers and no step divides.")

print()
print("reduce f = 3*t*g1 - 7*g3 + 5 (built from its expansion alone):")
f = (b.monomial(1, 1, 60).scale(3)
     .add(b.monomial(0, 3, 60).scale(-7))
     .add(QSeries.one(ZZ, 35).scale(5)))
me = mw_reduce([f], b)[0]
print(f"  {me}")
print("  reconstruction matches the input:",
      module_element_series(me, b, f.trunc).agrees_with(f))

print()
print("a simple pole at infinity stalls the reduction immediately:")
bad = QSeries(ZZ, [1], -1, 20)
try:
    mw_reduce([bad], b)[0]
except ContractError as exc:
    print(f"  not a member: {exc}")
