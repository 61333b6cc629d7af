"""Difference-equation coefficients for the nonreduced family, rank n.

On the BC_n datum (g on e_j +- e_k, g1 on e_j, g2 on 2e_j) the coefficients
are the reduced factor lists read with m_a = g_a + g_{a/2}/2 (``bc_factors``,
``Multiplicities.factor_values``), evaluated by ``diffeq.integer_product``.
The hyperoctahedral Jacobi polynomials come from the generic recursion
applied to the BC datum, whose operator contains both the e_j and 2e_j strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import add

from .diffeq import (PoleAtSpectralPoint, integer_product, pieri_residual, point_table,
                     poly_cache_get, scaled_table, term_factors)
from .rootsys import Multiplicities, RootDatum, build_root_system
from .weylalg import ExpPoly, InternalConsistencyError, exp_to_json, label_form


@dataclass(frozen=True)
class SignedSubset:
    """A subset J of coordinate slots with a sign attached to each."""
    indices: tuple      # strictly increasing, 0-based
    signs: tuple        # matching +1/-1 entries

    def __post_init__(self):
        if len(self.indices) != len(self.signs):
            raise ValueError("indices and signs must align")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly increasing")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    def shift_vector(self, n: int):
        """e_{eps J} = sum over J of eps_j e_j, in integers."""
        signs = dict(zip(self.indices, self.signs))
        return tuple(signs.get(k, 0) for k in range(n))


def signed_subsets(indices):
    """All sign assignments over each subset of the given index tuple."""
    for signs in itertools.product((1, -1), repeat=len(indices)):
        yield SignedSubset(tuple(indices), signs)


def bc_factors(datum: RootDatum, nu, eta=None) -> tuple:
    """``term_factors(datum, nu, eta)`` on the BC datum by the alpha/2 rule:
    a root alpha with 2alpha a root drops its shift-0 entry, which the m of
    2alpha carries, and its shift-1 entry takes sign +."""
    halves = set(datum.half_root_index)
    return tuple(f if f[0] not in halves else (f[0], 1, 1)
                 for f in term_factors(datum, nu, eta) if f[1] or f[0] not in halves)


def bc_u_factors(datum: RootDatum, K: tuple, p: int) -> tuple:
    """U_{K,p}'s lists: ``bc_factors(e_J, e_{eps I})`` per signed p-subset I
    of K, J the complement of K."""
    n = datum.rank
    nu = tuple(int(k not in K) for k in range(n))
    return tuple(bc_factors(datum, nu, sub.shift_vector(n))
                 for I in itertools.combinations(K, p) for sub in signed_subsets(I))


def _table(datum: RootDatum, mults: Multiplicities, xi, table):
    """table, else the ``scaled_table`` of xi with m (``factor_values``)."""
    return scaled_table(datum.pairings(xi), mults.factor_values) if table is None else table


def coeff_V_signed(datum: RootDatum, mults: Multiplicities, subset: SignedSubset, xi,
                   table=None, factors=None):
    """Shift coefficient of the signed subset J on BC_n, the ``bc_factors`` of
    e_{eps J}: singleton factors on J, cross factors against the complement
    and +g pair factors inside J; table (``_table``) and factors made if not
    given."""
    if factors is None:
        factors = bc_factors(datum, subset.shift_vector(datum.rank))
    return Q(*integer_product(datum, factors, _table(datum, mults, xi, table)))


def coeff_U_Kp(datum: RootDatum, mults: Multiplicities, K, p: int, xi,
               table=None, factors=None):
    """Complementary coefficient: (-1)^p times the sum over signed p-subsets
    of K of the V-type product restricted to K, with -g in the shifted pair
    factor, as one integer numerator over one denominator; table as for
    ``coeff_V_signed``, factors ``bc_u_factors(K, p)``."""
    K = tuple(sorted(K))
    if not 0 <= p <= len(K):
        raise ValueError(f"p={p} out of range for |K|={len(K)}")
    table = _table(datum, mults, xi, table)
    terms = [integer_product(datum, f, table) for f in factors or bc_u_factors(datum, K, p)]
    den = math.lcm(*(b for _a, b in terms))
    return Q((-1) ** p * sum(a * (den // b) for a, b in terms), den)


def expansion_E_ell(n: int, ell: int) -> ExpPoly:
    """Exact expansion of the degree-ell symmetric shift polynomial, using
    4 sinh^2(x_j/2) = e^{x_j} - 2 + e^{-x_j}; hyperoctahedrally invariant."""
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} out of range for rank {n}")

    def basis_factor(j):   # e^{x_j} - 2 + e^{-x_j}
        return ExpPoly({tuple(Q(s * (k == j)) for k in range(n)): Q(1 if s else -2)
                        for s in (1, 0, -1)})

    return sum((math.prod(map(basis_factor, J), start=ExpPoly.constant(1, n))
                for J in itertools.combinations(range(n), ell)), ExpPoly.zero())


def bc_multiplicities(datum: RootDatum, g, g1, g2) -> Multiplicities:
    """Attach (g, g1, g2) to the orbits of the nonreduced datum by length:
    squared length 2 -> g, 1 -> g1, 4 -> g2.  Rank one has no g orbit."""
    by_norm = {Q(2): g, Q(1): g1, Q(4): g2}
    return Multiplicities(datum, [by_norm[datum.norm_sq(orbit[0])]
                                  for orbit in datum.root_orbits])


def is_partition(v) -> bool:
    return all(x.denominator == 1 for x in v) and \
        all(v[i] >= v[i + 1] for i in range(len(v) - 1)) and v[-1] >= 0


@dataclass
class BcPieriReport:
    n: int
    ell: int
    lam: tuple
    g: Q
    g1: Q
    g2: Q
    ok: bool
    n_terms: int
    residual: list = field(default_factory=list)

    def to_dict(self):
        return {"n": self.n, "ell": self.ell,
                "lambda": [str(x) for x in self.lam],
                "g": str(self.g), "g1": str(self.g1), "g2": str(self.g2),
                "status": "pass" if self.ok else "fail",
                "n_terms": self.n_terms, "residual": self.residual}


def pieri_bc_index(datum: RootDatum, ell: int) -> tuple:
    """The point-independent part of ``pieri_terms_bc`` on BC_n: per J of at
    most ell slots, (K, p, U's ``bc_u_factors``, per signed subset of J its
    ``SignedSubset``, integer shift row and V's ``bc_factors``), K the
    complement of J and p = ell - |J|.  Built once per (n, ell), memoized on
    the datum (``pieri_bc_memo``)."""
    found = datum.pieri_bc_memo.get(ell)
    if found is None:
        n, found = datum.rank, []
        for size in range(ell + 1):
            for J in itertools.combinations(range(n), size):
                K = tuple(k for k in range(n) if k not in J)
                rows = [(sub, sub.shift_vector(n)) for sub in signed_subsets(J)]
                found.append((K, ell - size, bc_u_factors(datum, K, ell - size),
                              tuple((sub, row, bc_factors(datum, row)) for sub, row in rows)))
        found = datum.pieri_bc_memo[ell] = tuple(found)
    return found


def pieri_terms_bc(datum: RootDatum, mults: Multiplicities, ell: int, lam):
    """Surviving (signed subset, shifted partition, U*V) triples at the
    spectral point rho_g + lam, on BC_n given by datum, lam an integral
    partition: ``pieri_bc_index`` evaluated on the point's
    ``diffeq.point_table``, the shifts as integer tuples.

    Terms whose shifted weight is not a partition must carry a vanishing V
    coefficient; a violation is fatal, a pole requests a resample.
    """
    base = tuple(map(int, lam))
    table = point_table(datum, mults, datum.labels(base))
    terms = []
    for K, p, u_factors, subs in pieri_bc_index(datum, ell):
        u = coeff_U_Kp(datum, mults, K, p, None, table, u_factors)
        for sub, row, factors in subs:
            v = coeff_V_signed(datum, mults, sub, None, table, factors)
            shifted = tuple(map(add, base, row))
            if is_partition(shifted):
                terms.append((sub, shifted, u * v))
            elif v != 0:
                raise InternalConsistencyError(
                    f"V did not vanish at excluded shift {sub} for lam={lam}")
    return terms


def verify_pieri_bc(n: int, gs, ell: int, lam, cache: dict | None = None,
                    datum: RootDatum | None = None) -> BcPieriReport:
    """Exact Pieri identity for the nonreduced system at xi_j = rho_j + lam_j,
    compared on the dominant chamber below lam + e_1 + ... + e_n.  The
    ``LabelForm`` of E_ell is memoized on the datum under ell (an int, so
    apart from the label tuples of ``expansion_labels``).  cache also keeps
    the multiplicities of gs under (n, gs), with rho_g memoized on them."""
    gs = tuple(Q(x) for x in gs)
    lam = tuple(Q(x) for x in lam)
    cache = {} if cache is None else cache
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    datum = datum or build_root_system("BC", n)
    mults = cache.get((n, gs))
    if mults is None:
        mults = cache[n, gs] = bc_multiplicities(datum, *gs)
    terms = pieri_terms_bc(datum, mults, ell, lam)
    poly = poly_cache_get(cache, datum, mults, lam)
    shifted = [(poly_cache_get(cache, datum, mults, sh), c) for _sub, sh, c in terms]
    e_form = datum.expansion_label_memo.get(ell)
    if e_form is None:
        e_form = datum.expansion_label_memo[ell] = label_form(datum, expansion_E_ell(n, ell))
    residual = pieri_residual(datum, e_form, poly, shifted,
                              datum.labels(tuple(x + 1 for x in lam)))
    return BcPieriReport(n, ell, lam, *gs, ok=residual.is_zero(), n_terms=len(terms),
                         residual=exp_to_json(residual))


def _check_den(value, n: int, root: dict, which="<xi,a^vee>"):
    """value, unless it is 0: then a pole named as ``integer_product`` names
    it, at the BC_n root sum_k root[k] e_k."""
    if value == 0:
        raise PoleAtSpectralPoint(tuple(root.get(k, 0) for k in range(n)), which)
    return value


def rank_one_shift_coefficient(n: int, gs, j: int, xi):
    """The displayed single-shift coefficient, in Fractions: the singleton
    factor at slot j times the cross factors against every other slot, each
    denominator named by its root (xi_j: 2e_j; 1 + 2xi_j: e_j, shifted;
    xi_j +- xi_k: e_j +- e_k)."""
    g, g1, g2 = gs
    x = xi[j]
    total = (x + Q(1, 2) * g1 + g2) * (1 + 2 * x + g1) / (
        _check_den(x, n, {j: 2}) * _check_den(1 + 2 * x, n, {j: 1}, "1+<xi,a^vee>"))
    for k, y in enumerate(xi[:n]):
        if k != j:
            total *= (x + y + g) * (x - y + g) / (
                _check_den(x + y, n, {j: 1, k: 1}) * _check_den(x - y, n, {j: 1, k: -1}))
    return total


def rearrangement_gap(datum: RootDatum, gs, xi):
    """U_{full,1}(xi) + sum_j (V_j(xi) + V_j(-xi)) on BC_n given by datum, V_j
    by ``rank_one_shift_coefficient``; identically zero, checked at rational
    points as a guard on signs and sum structure."""
    n = datum.rank
    gap = coeff_U_Kp(datum, bc_multiplicities(datum, *gs), tuple(range(n)), 1, xi)
    neg = tuple(-x for x in xi)
    for j in range(n):
        gap += rank_one_shift_coefficient(n, gs, j, xi)
        gap += rank_one_shift_coefficient(n, gs, j, neg)
    return gap
