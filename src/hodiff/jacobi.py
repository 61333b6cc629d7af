"""Jacobi polynomials attached to a root system, built by linear recursion.

The coefficients are produced by collecting exponents in the eigenvalue
equation for the operator L, using the expansion
(1+e^{-a})/(1-e^{-a}) = 1 + 2 sum_{j>=1} e^{-ja}.  Two independent checks
guard the construction: the closed-form leading coefficient, and the exact
eigencheck through the division-based operator action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import mul

from .rootsys import Multiplicities, RootDatum, Vector, vadd, vscale
from .weylalg import (ExpPoly, apply_L_labels, eigenvalue_E, exp_to_json,
                      require_exact)


class JacobiPolynomial:
    """Triangular expansion of P_lambda in orbit sums, normalized P(0) = 1."""

    def __init__(self, datum: RootDatum, mults: Multiplicities, lam: Vector,
                 coeffs: dict):
        self.datum = datum
        self.mults = mults
        self.lam = lam
        self.coeffs = coeffs              # dominant mu <= lam -> coefficient
        self._label_terms = None

    def coefficient(self, mu: Vector) -> Q:
        return self.coeffs.get(mu, Q(0))

    def leading_coefficient(self) -> Q:
        return self.coeffs[self.lam]

    def label_terms(self) -> dict:
        """The expansion over the saturated support, keyed by the labels of
        each exponent (built once; zero coefficients are left out)."""
        if self._label_terms is None:
            dom = {self.datum.labels(mu): c for mu, c in self.coeffs.items()}
            self._label_terms = {
                l: c for l, m in self.datum.saturated_label_map(self.lam).items()
                if (c := dom[m])}
        return self._label_terms

    def exp_poly(self) -> ExpPoly:
        """The polynomial as an explicit sum over its saturated support."""
        return ExpPoly({self.datum.from_labels(l): c
                        for l, c in self.label_terms().items()})

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
    lam = datum.check_dominant(lam)
    sat = datum.saturated_label_map(lam)
    height_row = datum.height_row
    doms = sorted(datum.dominant_below(lam),
                  key=lambda mu: (-sum(map(mul, height_row, datum.labels(mu))), mu))
    assert doms[0] == lam or datum.height(doms[0]) == datum.height(lam)
    # E(rho+mu) - E(rho) = <2 rho + mu, mu>, read on labels through the
    # fundamental-weight Gram form and scaled by d * den to an integer
    gram = datum.weight_gram
    rho_labels = datum.labels(datum.rho(mults))
    d = math.lcm(*(x.denominator for x in rho_labels))
    rho_d = [x.numerator * (d // x.denominator) for x in rho_labels]

    def energy(m):
        return sum((2 * r + d * x) * sum(map(mul, row, m))
                   for r, x, row in zip(rho_d, m, gram))

    scale = d * datum.weight_gram_den
    e_top = energy(datum.labels(lam))
    # per positive root: labels, and g_alpha |alpha|^2, since
    # 2 g <mu + j alpha, alpha> = g |alpha|^2 (<mu, alpha^vee> + 2j)
    positive = [(i, datum.root_labels[i],
                 mults.root_values[i] * datum.norm_sq(datum.roots[i]))
                for i in datum.positive_indices]

    monic: dict[tuple, Q] = {}        # keyed by the labels of mu
    for mu in doms:
        mu_labels = datum.labels(mu)
        if mu == lam:
            monic[mu_labels] = Q(1)
            continue
        rhs = Q(0)
        pairs = datum.pairings(mu)
        for i, lab, weight in positive:
            k = pairs[i] + 2
            nu = tuple(a + b for a, b in zip(mu_labels, lab))
            while (rep := sat.get(nu)) is not None:
                c = monic.get(rep)
                if c:
                    rhs += weight * k * c
                k += 2
                nu = tuple(a + b for a, b in zip(nu, lab))
        denom = e_top - energy(mu_labels)
        if denom == 0:
            raise ArithmeticError(
                f"vanishing recursion denominator at mu={mu}; "
                "impossible for positive multiplicities")
        monic[mu_labels] = rhs * scale / denom

    coeffs = {mu: monic[datum.labels(mu)] for mu in doms}
    z = sum(c * len(datum.weyl_orbit(mu)) for mu, c in coeffs.items())
    if z == 0:
        raise ArithmeticError("vanishing value at the origin; cannot normalize")
    return JacobiPolynomial(datum, mults, lam, {mu: c / z for mu, c in coeffs.items()})


def opdam_leading_coefficient(datum: RootDatum, mults: Multiplicities,
                              lam: Vector) -> Q:
    """Closed double product for the leading coefficient of P_lambda.

    Over each positive root alpha and 0 <= j < <lam, alpha^vee>, the factor is
    (<rho_g,a^vee> + g_{a/2}/2 + j) / (<rho_g,a^vee> + g_a + g_{a/2}/2 + j),
    with g_{a/2} = 0 when a/2 is not a root.  Empty product for lam = 0.
    """
    lam = datum.check_dominant(lam)
    rho_pairs = datum.pairings(datum.rho(mults))
    lam_pairs = datum.pairings(lam)
    total = Q(1)
    for i in datum.positive_indices:
        top = lam_pairs[i]
        if top <= 0:
            continue
        half = datum.root_index.get(vscale(Q(1, 2), datum.roots[i]))
        g_half = mults.root_values[half] if half is not None else Q(0)
        base = rho_pairs[i] + Q(1, 2) * g_half
        g = mults.root_values[i]
        for j in range(top):
            den = base + g + j
            if den == 0:
                raise ArithmeticError("vanishing factor in the leading product")
            total *= (base + j) / den
    return total


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
    terms = poly.label_terms()
    d = math.lcm(*(c.denominator for c in terms.values()))
    cleared = {l: c.numerator * (d // c.denominator) for l, c in terms.items()}
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
