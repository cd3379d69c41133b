"""Symbolic verification of infinite families of partition congruences.

The pipeline: express the family's generating function data as eta quotients,
find a generator t whose zeros cancel every pole the U_ell operator can
introduce, build an algebra basis with one pole at infinity, tabulate the
fundamental images U_ell(A**i t**j g_k) with exact integer coefficients, and
iterate the operator with coefficients reduced mod ell**B while recording the
ell-adic valuation gained at each step.
"""

from .errors import ContractError, EtacheckError, SearchExhaustedError, SpecError
from .series import CoeffRing, QSeries, ZZ, zmod
from .eta import EtaQuotient, divisors, eta_expand, euler_product, euler_quotient
from .modcurve import (
    Cusp,
    canonical_cusp,
    cusp_count,
    cusp_equivalent,
    cusp_image_under_scaling,
    cusp_representatives,
    eta_order_at_cusp,
    infinity_class,
    newman_check,
    order_vector,
)
from .tfinder import PoleSets, compute_pole_sets, find_t, solve_W, verify_W
from .basis import (
    AlgebraBasis,
    BasisFunction,
    ModuleElement,
    construct_basis,
    load_basis_n20,
    module_element_series,
    mw_reduce,
    verify_basis,
)
from .ujump import (
    FamilyGenerator,
    StabilityExponents,
    UImageTable,
    build_A,
    compute_m_constants,
    u_ell,
    u_step,
)
from .verifier import (
    CongruenceFamilySpec,
    VerificationReport,
    builtin_spec,
    direct_oracle,
    iterate,
    residue_for_case,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
