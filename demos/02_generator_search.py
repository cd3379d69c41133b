#!/usr/bin/env python3
"""Finding the taming generator t by its orders at the cusps.

The operator U_5 can drag poles from the finer level down to cusps of
Gamma0(20).  The pole-set analysis classifies every finite cusp by the sign
constraint it imposes on a candidate generator.  The search then walks the
integer order vectors that meet all of them at once, maps each back to an
exponent vector, and keeps the smallest-pole generator.
"""

from etacheck.modcurve import order_vector
from etacheck.tfinder import EXPONENT_BOUND, compute_pole_sets, find_t, solve_W, verify_W
from etacheck.ujump import build_A
from etacheck.verifier import rogers_ramanujan

spec = rogers_ramanujan()
A = build_A(spec.gen)
print(f"auxiliary quotient A at level {A.level}: {A}")
print("poles of A:", ", ".join(str(x) for x, o in order_vector(A).items() if o < 0))

ps = compute_pole_sets(A, 5)
print()
print("sign constraints on the generator's order at the finite cusps:")
print("  strictly positive:", sorted(map(str, ps.p_A | ps.p_g)))
print("  nonnegative:      ", sorted(map(str, ps.p0_prime)))
print("  exactly zero:     ", sorted(map(str, ps.p1_prime)))

print()
print("climbing the pole order at infinity until the system is feasible:")
for n0 in range(1, 7):
    sol = solve_W(20, ps, n0)
    if sol is None:
        print(f"  order {n0}: no exponent vector within bound {EXPONENT_BOUND}")
    else:
        print(f"  order {n0}: found {sol}")
        print(f"  re-verified against the order formulas: {verify_W(sol, n0, ps)}")
        break

t = find_t(spec.gen)
print()
print("the generator (smallest pole, lexicographically first):")
print(" ", t)
for cusp, order in order_vector(t).items():
    print(f"  ord at {cusp}: {order}")
