"""Difference-equation coefficients for the nonreduced family, rank n.

Everything is written in the orthonormal coordinates of the standard
realization: multiplicity g on the roots e_j +- e_k, g1 on e_j, g2 on 2e_j.
The hyperoctahedral Jacobi polynomials are not reimplemented; they come from
the generic recursion applied to the BC datum, whose operator contains both
the e_j and 2e_j strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import add

from .diffeq import PoleAtSpectralPoint, pieri_residual, poly_cache_get
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
        v = [0] * n
        for j, s in zip(self.indices, self.signs):
            v[j] = s
        return tuple(v)


def signed_subsets(indices):
    """All sign assignments over each subset of the given index tuple."""
    for signs in itertools.product((1, -1), repeat=len(indices)):
        yield SignedSubset(tuple(indices), signs)


def _check_den(value, what):
    if value == 0:
        raise PoleAtSpectralPoint(what, "denominator")
    return value


def cleared_point(gs, xi) -> tuple:
    """(d, x, e): xi as integers over the lcm d of the denominators of xi, g,
    h1 = g1/2 and g2, and from their integers the numerator shifts
    e = (h1 + g2, 2 h1, g, -g) of ``_slot_factors``; once per spectral point."""
    values = [Q(v) for v in (*xi, gs[0], Q(gs[1], 2), gs[2])]
    d = math.lcm(*(v.denominator for v in values))
    *x, g, h1, g2 = (v.numerator * (d // v.denominator) for v in values)
    return d, x, (h1 + g2, 2 * h1, g, -g)


def _slot_factors(slots: tuple, others, pair_sign: int) -> tuple:
    """The factors of one signed-slot product, each (c, s, j, t, k, i, what)
    for (w + e[i]) / w with w = c d + s x_j + t x_k on a ``cleared_point``,
    a pole named what where w = 0: singleton factors on the (slot, sign)
    pairs of slots, cross factors against the slots in others, and pair
    factors (u+g)/u * (1+u+pair_sign*g)/(1+u) inside slots, with
    u = eps_j xi_j + eps_j' xi_j'."""
    out = []
    for j, s in slots:
        out += [(0, s, j, 0, 0, 0, f"{s}*xi_j"), (1, 2 * s, j, 0, 0, 1, "1+2xi_j")]
        for k in others:
            out += [(0, s, j, 1, k, 2, "xi_j+xi_k"), (0, s, j, -1, k, 2, "xi_j-xi_k")]
    for (j, sj), (jp, sp) in itertools.combinations(slots, 2):
        out += [(0, sj, j, sp, jp, 2, "eps_j xi_j + eps_j' xi_j'"),
                (1, sj, j, sp, jp, 2 if pair_sign > 0 else 3, "1 + eps_j xi_j + eps_j' xi_j'")]
    return tuple(out)


def _product(point, factors) -> tuple:
    """(numerator, denominator) of a ``_slot_factors`` product at a
    ``cleared_point``; at a pole, the first vanishing w names it."""
    d, x, e = point
    num = den = 1
    for c, s, j, t, k, i, _what in factors:
        w = c * d + s * x[j] + t * x[k]
        num *= w + e[i]
        den *= w
    if not den:
        for c, s, j, t, k, _i, what in factors:
            _check_den(c * d + s * x[j] + t * x[k], what)
    return num, den


def _u_factors(K: tuple, p: int) -> tuple:
    """The ``_slot_factors`` of U_{K,p}, one per signed p-subset I of K,
    with cross factors against K minus I and -g in the shifted pair factor."""
    return tuple(_slot_factors(tuple(zip(I, signs)), [k for k in K if k not in I], -1)
                 for I in itertools.combinations(K, p)
                 for signs in itertools.product((1, -1), repeat=p))


def coeff_V_signed(n: int, gs, subset: SignedSubset, xi, point=None, factors=None):
    """Shift coefficient of the signed subset: singleton factors on J, cross
    factors against the complement, and +g pair factors inside J.  point is
    the ``cleared_point`` of (gs, xi) and factors the subset's
    ``_slot_factors`` (as the Pieri index holds them), each made if not given."""
    if factors is None:
        others = [k for k in range(n) if k not in subset.indices]
        factors = _slot_factors(tuple(zip(subset.indices, subset.signs)), others, 1)
    return Q(*_product(point or cleared_point(gs, xi), factors))


def coeff_U_Kp(n: int, gs, K, p: int, xi, point=None, factors=None):
    """Complementary coefficient: (-1)^p times the sum over signed p-subsets
    of K of the V-type product restricted to K, with -g in the last factor,
    as one integer numerator over one denominator; point as for
    ``coeff_V_signed``, factors the ``_u_factors`` of (K, p)."""
    K = tuple(sorted(K))
    if not 0 <= p <= len(K):
        raise ValueError(f"p={p} out of range for |K|={len(K)}")
    point = point or cleared_point(gs, xi)
    terms = [_product(point, f) for f in factors or _u_factors(K, p)]
    den = math.lcm(*(b for _a, b in terms))
    return Q((-1) ** p * sum(a * (den // b) for a, b in terms), den)


def expansion_E_ell(n: int, ell: int) -> ExpPoly:
    """Exact expansion of the degree-ell symmetric shift polynomial, using
    4 sinh^2(x_j/2) = e^{x_j} - 2 + e^{-x_j}; hyperoctahedrally invariant."""
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} out of range for rank {n}")

    def basis_factor(j):
        plus = tuple(Q(1) if k == j else Q(0) for k in range(n))
        minus = tuple(Q(-1) if k == j else Q(0) for k in range(n))
        zero = (Q(0),) * n
        return ExpPoly({plus: Q(1), zero: Q(-2), minus: Q(1)})

    acc = ExpPoly.zero()
    for J in itertools.combinations(range(n), ell):
        prod = ExpPoly.constant(1, n)
        for j in J:
            prod = prod * basis_factor(j)
        acc = acc + prod
    return acc


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
    most ell slots, (K, p, U's ``_u_factors``, per signed subset of J its
    ``SignedSubset``, integer shift row and V's ``_slot_factors``), K the
    complement of J and p = ell - |J|.  Built once per (n, ell), memoized on
    the datum (``pieri_bc_memo``)."""
    found = datum.pieri_bc_memo.get(ell)
    if found is None:
        n, found = datum.rank, []
        for size in range(ell + 1):
            for J in itertools.combinations(range(n), size):
                K = tuple(k for k in range(n) if k not in J)
                found.append((K, ell - size, _u_factors(K, ell - size), tuple(
                    (sub, sub.shift_vector(n), _slot_factors(tuple(zip(J, sub.signs)), K, 1))
                    for sub in signed_subsets(J))))
        found = datum.pieri_bc_memo[ell] = tuple(found)
    return found


def pieri_terms_bc(datum: RootDatum, gs, ell: int, lam, xi):
    """Surviving (signed subset, shifted partition, U*V) triples at xi, on
    BC_n given by datum, lam an integral partition: ``pieri_bc_index``
    evaluated on one ``cleared_point``, the shifts as integer tuples.

    Terms whose shifted weight is not a partition must carry a vanishing V
    coefficient; a violation is fatal, a pole requests a resample.
    """
    n, point, base = datum.rank, cleared_point(gs, xi), tuple(map(int, lam))
    terms = []
    for K, p, u_factors, subs in pieri_bc_index(datum, ell):
        u = coeff_U_Kp(n, gs, K, p, xi, point, u_factors)
        for sub, row, factors in subs:
            v = coeff_V_signed(n, gs, sub, xi, point, factors)
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
    rho = datum.rho(mults)
    terms = pieri_terms_bc(datum, gs, ell, lam, tuple(rho[j] + lam[j] for j in range(n)))
    poly = poly_cache_get(cache, datum, mults, lam)
    shifted = [(poly_cache_get(cache, datum, mults, sh), c) for _sub, sh, c in terms]
    e_form = datum.expansion_label_memo.get(ell)
    if e_form is None:
        e_form = datum.expansion_label_memo[ell] = label_form(datum, expansion_E_ell(n, ell))
    residual = pieri_residual(datum, e_form, poly, shifted,
                              datum.labels(tuple(x + 1 for x in lam)))
    g, g1, g2 = gs
    return BcPieriReport(
        n=n, ell=ell, lam=lam, g=g, g1=g1, g2=g2,
        ok=residual.is_zero(), n_terms=len(terms),
        residual=exp_to_json(residual),
    )


def rank_one_shift_coefficient(n: int, gs, j: int, xi):
    """The displayed single-shift coefficient, in Fractions: the singleton
    factor at slot j times the cross factors against every other slot."""
    g, g1, g2 = gs
    x = xi[j]
    total = (x + Q(1, 2) * g1 + g2) * (1 + 2 * x + g1) / (
        _check_den(x, "1*xi_j") * _check_den(1 + 2 * x, "1+2xi_j"))
    for y in xi[:j] + xi[j + 1:n]:
        total *= (x + y + g) * (x - y + g) / (
            _check_den(x + y, "xi_j+xi_k") * _check_den(x - y, "xi_j-xi_k"))
    return total


def rearrangement_gap(n: int, gs, xi):
    """U_{full,1}(xi) + sum_j (V_j(xi) + V_j(-xi)); identically zero, checked
    at rational points as a guard on signs and sum structure."""
    full = tuple(range(n))
    gap = coeff_U_Kp(n, gs, full, 1, xi)
    neg = tuple(-x for x in xi)
    for j in range(n):
        gap += rank_one_shift_coefficient(n, gs, j, xi)
        gap += rank_one_shift_coefficient(n, gs, j, neg)
    return gap
