"""Search for the generator t whose zeros cancel every pole the U_ell images meet.

Given the auxiliary quotient A at level ell*N, the finite cusps of Gamma0(N)
split into four camps that dictate sign constraints on the order of t:

* p_A      -- cusps whose images under tau -> (tau+r)/ell meet a pole of A,
              closed under the pull-back induced by poles of 1/t (forcing a
              positive order wherever an already-positive cusp is reachable);
* p_g      -- cusps whose images meet the infinity class, where t and the
              basis functions themselves have poles;
* p0_prime -- leftover cusps whose images stay within the constrained camps
              (or themselves), so nonnegative order suffices;
* p1_prime -- the rest, pinned to order exactly zero (a blunt but complete
              choice).

The system W(n0) then asks for a modular eta quotient with order -n0 at
infinity, positive order on p_A and p_g, and the p0'/p1' signs; n0 climbs
from 1 until the search over cusp-order vectors finds a solution, and that
quotient is the generator t.
"""

from __future__ import annotations

from .errors import SearchExhaustedError, SpecError
from .eta import EtaQuotient
from .modcurve import (
    cusp_image_under_scaling,
    cusp_representatives,
    finite_cusps,
    infinity_class,
    newman_check,
    order_numerator,
)
from .search import search_modular_quotients
from .series import Frozen
from .ujump import FamilyGenerator, build_A

EXPONENT_BOUND = 12  # |w_d| bound of the generator search
N0_MAX = 12          # largest pole order at infinity the generator search tries


class PoleSets(Frozen):
    """The four camps of finite cusps, each a frozenset."""

    __slots__ = ("p_A", "p_g", "p0_prime", "p1_prime")


def compute_pole_sets(A: EtaQuotient, ell: int, N: int) -> PoleSets:
    """Classify the finite cusps of Gamma0(N) as described in the module docstring.

    Image classes are computed from the raw fractions (a + c*r)/(c*ell), so the
    result only depends on cusp classes, never on representative choices.
    """
    if A.level != ell * N:
        raise SpecError(f"A must live at level {ell}*{N}={ell * N}, got {A.level}")

    inf_N = infinity_class(N)
    finite = finite_cusps(N)

    a_poles = frozenset(x for x in cusp_representatives(A.level) if order_numerator(A, x) < 0)
    images_fine = {x: {cusp_image_under_scaling(x, r, ell, ell * N) for r in range(ell)}
                   for x in finite}
    images_coarse = {x: {cusp_image_under_scaling(x, r, ell, N) for r in range(ell)}
                     for x in finite}

    p_a = {x for x in finite if images_fine[x] & a_poles}
    p_g = {x for x in finite if inf_N in images_coarse[x]}

    # 1/t has a pole wherever t is forced positive; cusps whose images reach
    # the forced set inherit the requirement, so close under that pull-back.
    forced = set(p_a) | set(p_g)
    while True:
        new = {x for x in finite
               if x not in forced and images_coarse[x] & forced}
        if not new:
            break
        forced |= new
    p_a |= forced - p_g

    rest = [x for x in finite if x not in p_a and x not in p_g]
    p0 = {x for x in rest if images_coarse[x] <= (p_a | p_g | {x})}
    p1 = set(rest) - p0
    return PoleSets(frozenset(p_a), frozenset(p_g), frozenset(p0), frozenset(p1))


def solve_W(N: int, pole_sets: PoleSets, n0: int):
    """The lexicographically smallest eta quotient at level N solving W(n0),
    with exponents within EXPONENT_BOUND, or None."""
    hits = search_modular_quotients(N, n0, EXPONENT_BOUND,
                                    positive=pole_sets.p_A | pole_sets.p_g,
                                    nonneg=pole_sets.p0_prime,
                                    zero=pole_sets.p1_prime)
    return hits[0] if hits else None


def verify_W(eq: EtaQuotient, n0: int, pole_sets: PoleSets) -> bool:
    """Re-check every condition of W(n0) through the order formula, each
    order scaled by 24 times the level."""
    if not newman_check(eq)[0]:
        return False
    if order_numerator(eq, infinity_class(eq.level)) != -24 * eq.level * n0:
        return False
    for x in pole_sets.p_A | pole_sets.p_g:
        if order_numerator(eq, x) <= 0:
            return False
    for x in pole_sets.p0_prime:
        if order_numerator(eq, x) < 0:
            return False
    for x in pole_sets.p1_prime:
        if order_numerator(eq, x) != 0:
            return False
    return True


def find_t(gen: FamilyGenerator) -> EtaQuotient:
    """Generator t for a congruence family: the first n0 >= 1 whose W(n0)
    admits a solution wins, so -ord(t) at infinity is minimal within bounds.
    """
    A = build_A(gen)
    N = gen.ell * gen.M
    pole_sets = compute_pole_sets(A, gen.ell, N)
    for n0 in range(1, N0_MAX + 1):
        t = solve_W(N, pole_sets, n0)
        if t is not None:
            return t
    raise SearchExhaustedError(
        f"no generator with -ord(infinity) <= {N0_MAX} and exponents within "
        f"{EXPONENT_BOUND}")
