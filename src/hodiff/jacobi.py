"""Jacobi polynomials attached to a root system, built by linear recursion.

The coefficients are produced by collecting exponents in the eigenvalue
equation for the operator L, using the expansion
(1+e^{-a})/(1-e^{-a}) = 1 + 2 sum_{j>=1} e^{-ja}.  Two independent checks
guard the construction: the closed-form leading coefficient, and the exact
eigencheck through the division-based operator action.

A polynomial is held on Dynkin labels: the labels of lambda and one
coefficient per labels of a dominant mu <= lambda.  Its realization vectors
(``lam``, ``coeffs``, ``exp_poly``, ``to_json``) are views built on demand,
where the polynomial leaves the exact engines.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import add, mul

from .rootsys import Multiplicities, RootDatum, Vector, vadd
from .weylalg import (ExpPoly, apply_L_labels, eigenvalue_E, exp_to_json,
                      require_exact)


class JacobiPolynomial:
    """Triangular expansion of P_lambda in orbit sums, normalized P(0) = 1:
    ``top`` holds the labels of lambda and ``label_coeffs`` the coefficient
    of each dominant mu <= lambda under the labels of mu."""

    def __init__(self, datum: RootDatum, mults: Multiplicities, top: tuple,
                 label_coeffs: dict):
        self.datum = datum
        self.mults = mults
        self.top = top
        self.label_coeffs = label_coeffs
        self._cleared = None

    @property
    def lam(self) -> Vector:
        return self.datum.from_labels(self.top)

    @property
    def coeffs(self) -> dict:
        """The coefficients keyed by the vectors of the dominant mu."""
        return {self.datum.from_labels(m): c for m, c in self.label_coeffs.items()}

    def leading_coefficient(self) -> Q:
        return self.label_coeffs[self.top]

    def cleared_terms(self) -> tuple:
        """(d, terms): d the lcm of the coefficient denominators, and terms
        the expansion times d over the saturated support in integers, keyed
        by the labels of each exponent (built once; zero terms left out)."""
        if self._cleared is None:
            d = math.lcm(*(c.denominator for c in self.label_coeffs.values()))
            dom = {m: c.numerator * (d // c.denominator)
                   for m, c in self.label_coeffs.items()}
            sat = self.datum.saturated_labels(self.top)
            self._cleared = d, {l: c for l, m in sat.items() if (c := dom[m])}
        return self._cleared

    def exp_poly(self) -> ExpPoly:
        """The polynomial as an explicit sum over its saturated support."""
        d, terms = self.cleared_terms()
        return ExpPoly({self.datum.from_labels(l): Q(c, d) for l, c in terms.items()})

    def to_json(self):
        from .weylalg import _q_str
        return {
            "lambda": [_q_str(x) for x in self.lam],
            "g": [_q_str(Q(v)) for v in self.mults.values],
            "coeffs": [{"mu": [_q_str(x) for x in mu], "c": _q_str(c)}
                       for mu, c in sorted(self.coeffs.items())],
        }


def jacobi_polynomial(datum: RootDatum, mults: Multiplicities,
                      lam: Vector) -> JacobiPolynomial:
    """Solve the triangular recursion for the coefficients of P_lambda.

    With c_lambda = 1 and the W-invariant extension c~ of c to the whole
    saturated set, the coefficient at a dominant mu < lambda satisfies

        (E(rho+lam) - E(rho+mu)) c_mu
            = 2 sum_{alpha>0} g_alpha sum_{j>=1} <mu + j alpha, alpha> c~_{mu+j alpha}.

    The denominator is strictly positive for positive multiplicities, and the
    j-sum is finite because c~ vanishes outside the saturated set.
    """
    require_exact(mults)
    top = datum.dominant_labels(lam)
    sat = datum.saturated_labels(top)
    # lam is the unique top of the height order, and the recursion at mu
    # reads only greater heights, so ties may come in any order
    height_row = datum.height_row
    doms = sorted(datum.below_labels(top),
                  key=lambda m: -sum(map(mul, height_row, m)))
    # E(rho+mu) - E(rho) = <2 rho + mu, mu>, read on labels through the
    # fundamental-weight Gram form and scaled by d * den to an integer
    gram = datum.weight_gram
    rho_labels = datum.rho_labels(mults)
    d = math.lcm(*(x.denominator for x in rho_labels))
    rho_d = [x.numerator * (d // x.denominator) for x in rho_labels]

    def energy(m):
        return sum((2 * r + d * x) * sum(map(mul, row, m))
                   for r, x, row in zip(rho_d, m, gram))

    scale = d * datum.weight_gram_den
    e_top = energy(top)
    # per positive root: coroot coefficients, labels, and g_alpha |alpha|^2,
    # since 2 g <mu + j alpha, alpha> = g |alpha|^2 (<mu, alpha^vee> + 2j)
    positive = [(datum.coroot_coefficients[i], datum.root_labels[i],
                 mults.root_values[i] * datum.root_norms[i])
                for i in datum.positive_indices]

    monic: dict[tuple, Q] = {top: Q(1)}     # keyed by the labels of mu
    for mu in doms[1:]:
        rhs = Q(0)
        for cc, lab, weight in positive:
            k = sum(map(mul, cc, mu)) + 2
            nu = tuple(map(add, mu, lab))
            while (rep := sat.get(nu)) is not None:
                c = monic.get(rep)
                if c:
                    rhs += weight * k * c
                k += 2
                nu = tuple(map(add, nu, lab))
        denom = e_top - energy(mu)
        if denom == 0:
            raise ArithmeticError(
                f"vanishing recursion denominator at mu={datum.from_labels(mu)}; "
                "impossible for positive multiplicities")
        monic[mu] = rhs * scale / denom

    # P(0): the monic coefficients summed over P(lam), one per orbit element
    z = sum(monic[m] * n for m, n in Counter(sat.values()).items())
    if z == 0:
        raise ArithmeticError("vanishing value at the origin; cannot normalize")
    return JacobiPolynomial(datum, mults, top, {m: c / z for m, c in monic.items()})


def opdam_leading_coefficient(datum: RootDatum, mults: Multiplicities,
                              lam: Vector) -> Q:
    """Closed double product for the leading coefficient of P_lambda.

    Over each positive root alpha and 0 <= j < <lam, alpha^vee>, the factor is
    (<rho_g,a^vee> + g_{a/2}/2 + j) / (<rho_g,a^vee> + g_a + g_{a/2}/2 + j),
    with g_{a/2} = 0 when a/2 is not a root.  Empty product for lam = 0.
    """
    require_exact(mults)
    lam_pairs = datum.label_pairings(datum.dominant_labels(lam))
    rho_pairs = datum.label_pairings(datum.rho_labels(mults))
    g, half = mults.root_values, datum.half_root_index
    # (k, b, g) per root with k = <lam, a^vee> > 0, b = <rho_g,a^vee> + g_{a/2}/2
    rows = [(lam_pairs[i], rho_pairs[i] + (0 if half[i] is None else Q(g[half[i]], 2)), g[i])
            for i in datum.positive_indices if lam_pairs[i] > 0]
    # one cleared product: every factor scaled by the lcm d of b and g
    d = math.lcm(*(x.denominator for _k, b, gi in rows for x in (b, gi)))
    num = den = 1
    for k, b, gi in rows:
        b, gi = (b * d).numerator, (gi * d).numerator
        for j in range(0, k * d, d):
            if b + gi + j == 0:
                raise ArithmeticError("vanishing factor in the leading product")
            num *= b + j
            den *= b + gi + j
    return Q(num, den)


@dataclass
class EigenReport:
    """Outcome of the exact eigencheck L P = E(rho+lam) P."""
    system: str
    lam: Vector
    g: tuple
    eigenvalue: Q
    ok: bool
    residual: list = field(default_factory=list)

    def to_dict(self):
        from .weylalg import _q_str
        return {
            "system": self.system,
            "lambda": [_q_str(x) for x in self.lam],
            "g": [str(v) for v in self.g],
            "eigenvalue": str(self.eigenvalue),
            "status": "pass" if self.ok else "fail",
            "residual": self.residual,
        }


def verify_eigen(datum: RootDatum, mults: Multiplicities, lam: Vector,
                 poly: JacobiPolynomial | None = None) -> EigenReport:
    """Assert L P_lambda equals E(rho+lam) P_lambda with zero residual.

    The check runs in integers: with D the lcm of the coefficient
    denominators, L(D P) = E (D P) is compared key by key, and only a
    nonzero difference is divided back into the residual.
    """
    poly = poly or jacobi_polynomial(datum, mults, lam)
    ev = Q(eigenvalue_E(datum, mults, vadd(datum.rho(mults), lam)))
    d, cleared = poly.cleared_terms()
    n, image = apply_L_labels(datum, mults, cleared)
    residual = {}
    for l, v in image.items():
        r = v * ev.denominator - n * ev.numerator * cleared.get(l, 0)
        if r:
            residual[datum.from_labels(l)] = Q(r, n * ev.denominator * d)
    return EigenReport(
        system=f"{datum.family}{datum.rank}",
        lam=lam,
        g=mults.key(),
        eigenvalue=ev,
        ok=not residual,
        residual=exp_to_json(ExpPoly(residual)),
    )
