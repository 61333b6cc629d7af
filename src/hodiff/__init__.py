"""Exact difference equations for root-system hypergeometric polynomials
and their strong-coupling Toda-Whittaker limit."""

from .rootsys import Multiplicities, RootDatum, build_root_system
from .weylalg import ExpPoly, apply_L, expansion_E_omega, orbit_sum
from .jacobi import (jacobi_polynomial, opdam_leading_coefficient, verify_eigen,
                     JacobiPolynomial)
from .diffeq import (PoleAtSpectralPoint, coeff_U, coeff_V, pieri_terms,
                     verify_pieri, specialization_consistency)
from .nonreduced import coeff_U_Kp, coeff_V_signed, expansion_E_ell, verify_pieri_bc
from .rankone import (HypergeometricParams, gauss_2f1_jacobi, recurrence_rr,
                      verify_de)
from .whittaker import (coeff_Vbar, g_of_t, homogeneity_identity,
                        rank_one_whittaker_check, verify_confluence)

__version__ = "0.1.0"

__all__ = [
    "Multiplicities", "RootDatum", "build_root_system",
    "ExpPoly", "apply_L", "expansion_E_omega", "orbit_sum",
    "jacobi_polynomial", "opdam_leading_coefficient", "verify_eigen",
    "JacobiPolynomial",
    "PoleAtSpectralPoint", "coeff_U", "coeff_V", "pieri_terms",
    "verify_pieri", "specialization_consistency",
    "coeff_U_Kp", "coeff_V_signed", "expansion_E_ell", "verify_pieri_bc",
    "HypergeometricParams", "gauss_2f1_jacobi", "recurrence_rr", "verify_de",
    "coeff_Vbar", "g_of_t", "homogeneity_identity", "rank_one_whittaker_check",
    "verify_confluence",
]
