#!/usr/bin/env python3
"""Cusps of Gamma0(N), equivalence witnesses, and orders of eta quotients.

Everything downstream rests on three pieces of classical machinery shown
here: enumerating cusp classes, deciding when two fractions are the same
cusp, and reading off the order of an eta quotient at any cusp from its
exponent vector alone.
"""

from etacheck.eta import EtaQuotient
from etacheck.modcurve import (
    Cusp,
    cusp_equivalent,
    cusp_image_under_scaling,
    cusp_representatives,
    eta_order_at_cusp,
    newman_check,
    order_vector,
)

print("Cusp classes of Gamma0(20) and Gamma0(100)")
print("-" * 50)
for N in (20, 100):
    reps = cusp_representatives(N)
    print(f"Gamma0({N}) has {len(reps)} cusps: {', '.join(map(str, reps))}")

print()
print("Equivalence comes with a checkable witness (m, n):")
m, n = cusp_equivalent(Cusp(31, 50), Cusp(1, 50), 100)
print(f"  31/50 ~ 1/50 over Gamma0(100) via m={m}, n={n}")
print(f"  check: m*1 = {m} == 31 + {n}*50 (mod 100) and 50 == {m}*50 (mod 100)")

print()
print("Modularity of an eta quotient is four arithmetic conditions:")
t = EtaQuotient(20, {1: 2, 4: 2, 10: 8, 5: -2, 20: -10})
ok, k0 = newman_check(t)
print(f"  t = eta(tau)^2 eta(4tau)^2 eta(10tau)^8 / (eta(5tau)^2 eta(20tau)^10)")
print(f"  modular on Gamma0(20): {ok} (square witness {k0})")

print()
print("Orders at every cusp come from the exponent vector (no expansion):")
orders = order_vector(t)
for cusp, order in orders.items():
    print(f"  ord of t at {cusp}: {order}")
print("  the orders of a modular function sum to zero:",
      sum(orders.values()) == 0)

print()
print("The operator analysis needs to know which cusps the maps")
print("tau -> (tau + r)/5 reach.  From each cusp of Gamma0(20):")
for x in cusp_representatives(20):
    images = [str(cusp_image_under_scaling(x, r, 5, 100)) for r in range(5)]
    print(f"  {str(x):>5} -> " + "  ".join(f"{im:>6}" for im in images))
