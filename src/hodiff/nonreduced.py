"""Difference-equation coefficients for the nonreduced family, rank n.

On the BC_n datum (g on e_j +- e_k, g1 on e_j, g2 on 2e_j) the coefficients
are the reduced ones, ``diffeq.coeff_V``/``coeff_U`` read with
m_a = g_a + g_{a/2}/2 (``Multiplicities.factor_values``) by the alpha/2 rule
of ``diffeq.term_factors``, a shift being its row e_{eps J}.  The Pieri terms
at omega = e_1 + ... + e_l are those of ``diffeq.pieri_index``, and
``verify_pieri_bc`` checks them as ``diffeq.verify_pieri`` does, against the
one E_omega builder ``weylalg.expansion_labels``, twisted on BC into the
displayed E_l (``expansion_E_ell``, which the bc suite compares with it).
The generic Jacobi recursion applied to the BC datum, whose operator holds
both the e_j and 2e_j strings, gives the hyperoctahedral polynomials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q

from .diffeq import PoleAtSpectralPoint, coeff_U, coeff_V, pieri_check
from .rootsys import Multiplicities, RootDatum
from .weylalg import ExpPoly, exp_to_json, expansion_labels


def coeff_V_signed(datum: RootDatum, mults: Multiplicities, row, xi):
    """Shift coefficient of the signed subset J on BC_n, given by its row
    e_{eps J} (length n, entries in {-1, 0, 1}; else ValueError): ``coeff_V``,
    singleton factors on J, cross factors against the complement and +g pair
    factors inside J."""
    if len(row) != datum.rank or any(s not in (-1, 0, 1) for s in row):
        raise ValueError(f"{row} is not a signed subset row of length {datum.rank}")
    return coeff_V(datum, mults, row, xi)


def coeff_U_Kp(datum: RootDatum, mults: Multiplicities, K, p: int, xi):
    """Complementary coefficient: the sum over signed p-subsets I of K of
    ``coeff_U(e_J, e_{eps I})``, J the complement of K, each the V-type
    product restricted to K with -g in the shifted pair factor and the
    sign (-1)^p in its alpha/2 entries."""
    K = tuple(sorted(K))
    if not 0 <= p <= len(K):
        raise ValueError(f"p={p} out of range for |K|={len(K)}")
    n = datum.rank
    nu = tuple(int(k not in K) for k in range(n))
    return sum(coeff_U(datum, mults, nu, eta, xi) for I in itertools.combinations(K, p)
               for eta in itertools.product(*((1, -1) if k in I else (0,) for k in range(n))))


def expansion_E_ell(n: int, ell: int) -> ExpPoly:
    """Exact expansion of the degree-ell symmetric shift polynomial, using
    4 sinh^2(x_j/2) = e^{x_j} - 2 + e^{-x_j}; hyperoctahedrally invariant."""
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} out of range for rank {n}")

    def basis_factor(j):   # e^{x_j} - 2 + e^{-x_j}
        return ExpPoly({tuple(Q(s * (k == j)) for k in range(n)): Q(1 if s else -2)
                        for s in (1, 0, -1)})

    return sum((math.prod(map(basis_factor, J), start=ExpPoly.constant(1, n))
                for J in itertools.combinations(range(n), ell)), ExpPoly({}))


def bc_multiplicities(datum: RootDatum, g, g1, g2) -> Multiplicities:
    """Attach (g, g1, g2) to the orbits of the nonreduced datum by length:
    squared length 2 -> g, 1 -> g1, 4 -> g2.  Rank one has no g orbit."""
    by_norm = {Q(2): g, Q(1): g1, Q(4): g2}
    return Multiplicities(datum, [by_norm[norm] for norm in datum.orbit_norms])


@dataclass
class BcPieriReport:
    n: int
    ell: int
    lam: tuple
    ok: bool
    n_terms: int
    residual: list

    def to_dict(self):
        return {"n": self.n, "ell": self.ell,
                "lambda": [str(x) for x in self.lam],
                "status": "pass" if self.ok else "fail",
                "n_terms": self.n_terms, "residual": self.residual}


def verify_pieri_bc(datum: RootDatum, mults: Multiplicities, ell: int, lam,
                    perturb: str | None, cache: dict) -> BcPieriReport:
    """Exact Pieri identity for the nonreduced system at xi = rho_g + lam, as
    ``diffeq.verify_pieri``: ``pieri_check`` of omega = e_1 + ... + e_ell
    against E_omega of ``expansion_labels`` (the twisted E_omega, which on BC
    is the displayed E_ell), and lam must be dominant (a partition).  n_terms
    counts the surviving shifts nu; the residual is keyed by labels until
    the report writes it."""
    if not 1 <= ell <= datum.rank:
        raise ValueError(f"ell={ell} out of range for rank {datum.rank}")
    omega = datum.from_labels(datum.labels(tuple(Q(int(k < ell)) for k in range(datum.rank))))
    terms, residual = pieri_check(datum, mults, omega, lam, expansion_labels(datum, omega),
                                  perturb, cache)
    return BcPieriReport(datum.rank, ell, lam, ok=not residual,
                         n_terms=len({e.nu_labels for e, _eta, _c in terms}),
                         residual=exp_to_json(datum, residual))


def _check_den(value, n: int, root: dict, shift=0):
    """value, unless it is 0: then a pole at the BC_n root sum_k root[k] e_k
    and the shift of its denominator, as ``integer_product`` raises it."""
    if value == 0:
        raise PoleAtSpectralPoint(tuple(root.get(k, 0) for k in range(n)), shift)
    return value


def rank_one_shift_coefficient(n: int, gs, j: int, xi):
    """The displayed single-shift coefficient, exact on exact input and a float
    (1/2 read as 0.5) at a float xi_j: the singleton factor at slot j times
    the cross factors against every other slot, each denominator named by its
    root (xi_j: 2e_j; 1 + 2xi_j: e_j, shifted; xi_j +- xi_k: e_j +- e_k).  At
    n = 1 it is the rank-one equation's up coefficient, its down one at -xi."""
    g, g1, g2 = gs
    x = xi[j]
    total = (x + (0.5 if isinstance(x, float) else Q(1, 2)) * g1 + g2) * (1 + 2 * x + g1) / (
        _check_den(x, n, {j: 2}) * _check_den(1 + 2 * x, n, {j: 1}, 1))
    for k, y in enumerate(xi[:n]):
        if k != j:
            total *= (x + y + g) * (x - y + g) / (
                _check_den(x + y, n, {j: 1, k: 1}) * _check_den(x - y, n, {j: 1, k: -1}))
    return total


def rearrangement_gap(datum: RootDatum, gs, xi):
    """U_{full,1}(xi) + sum_j (V_j(xi) + V_j(-xi)) on BC_n given by datum, U
    on the multiplicities ``bc_multiplicities`` attaches gs = (g, g1, g2) by,
    V_j by ``rank_one_shift_coefficient``; identically zero, checked at
    rational points as a guard on signs and sum structure."""
    n = datum.rank
    gap = coeff_U_Kp(datum, bc_multiplicities(datum, *gs), tuple(range(n)), 1, xi)
    neg = tuple(-x for x in xi)
    for j in range(n):
        gap += rank_one_shift_coefficient(n, gs, j, xi)
        gap += rank_one_shift_coefficient(n, gs, j, neg)
    return gap
