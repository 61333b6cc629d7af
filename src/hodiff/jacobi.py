"""Jacobi polynomials attached to a root system, built by linear recursion.

The coefficients are produced by collecting exponents in the eigenvalue
equation for the operator L, using the expansion
(1+e^{-a})/(1-e^{-a}) = 1 + 2 sum_{j>=1} e^{-ja}.  Which coefficients feed
which, through which root orbit and with which pairing sums, depends on the
datum and lambda alone: that pattern is read once from the alpha-string
table of P(lambda) and memoized on the datum, and each multiplicity sample
solves it in integers.  Two independent checks guard the construction: the
closed-form leading coefficient, and the exact eigencheck through the
division-based operator action, read on the same alpha-string table.

A polynomial is held on Dynkin labels: the labels of lambda and one
coefficient per labels of a dominant mu <= lambda.  Its realization vectors
(``lam``, ``coeffs``, ``exp_poly``, ``to_json``) are views built on demand,
where the polynomial leaves the exact engines.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul

from .rootsys import Multiplicities, RootDatum, Vector
from .weylalg import ExpPoly, _apply_L_table, _q_str, exp_to_json


class JacobiPolynomial:
    """Triangular expansion of P_lambda in orbit sums, normalized P(0) = 1:
    ``top`` holds the labels of lambda and ``label_coeffs`` the coefficient
    of each dominant mu <= lambda under the labels of mu."""

    def __init__(self, datum: RootDatum, mults: Multiplicities, top: tuple,
                 label_coeffs: dict):
        self.datum, self.mults, self.top, self.label_coeffs = datum, mults, top, label_coeffs
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
            dom = {m: c.numerator * (d // c.denominator) for m, c in self.label_coeffs.items()}
            sat = self.datum.saturated_labels(self.top)
            self._cleared = d, {l: c for l, m in sat.items() if (c := dom[m])}
        return self._cleared

    def exp_poly(self) -> ExpPoly:
        """The polynomial as an explicit sum over its saturated support."""
        d, terms = self.cleared_terms()
        return ExpPoly({self.datum.from_labels(l): Q(c, d) for l, c in terms.items()})

    def to_json(self):
        return {"lambda": [_q_str(x) for x in self.lam],
                "g": [_q_str(v) for v in self.mults.values],
                "coeffs": [{"mu": [_q_str(x) for x in mu], "c": _q_str(c)}
                           for mu, c in sorted(self.coeffs.items())]}


def _pattern(datum: RootDatum, top: tuple) -> tuple:
    """The recursion pattern of P_lambda, lam with dominant labels top, read
    from the alpha-string table of P(lam) (memoized in ``jacobi_memo``): a
    dominant mu pairs >= 0 with alpha, so only the labels above it on its
    string feed it, the top on a k = 2 string (mu its middle, ``mids``) or
    those walked on a k >= 3 string; a k = 1 string has none.  Returns
    (doms, rows, counts, weights), doms the dominant mu <= lam by falling
    height, counts their orbit sizes.  rows[i] = (terms, dq, bs) for mu =
    doms[i + 1]: per (p, o, K) in terms, K sums <nu, alpha^vee> over the nu =
    mu + j alpha (j >= 1, alpha > 0 in root orbit o) with dominant
    representative doms[p].  With 2 rho_g = sum_o g_o S_o (S_o: the positive
    roots of orbit o) and n = q ``weight_gram_den`` (q: the lcm of the root
    norm denominators), n |alpha_o|^2 = weights[o] and n (E(rho_g+lam) -
    E(rho_g+mu)) = dq + sum_o g_o bs[o], bs[o] = n <S_o, lam - mu>."""
    found = datum.jacobi_memo.get(top)
    if found is None:
        table = datum.string_table((top,))
        sat = datum.saturated_labels(top)
        doms = sorted(datum.below_labels(top),
                      key=lambda m: -sum(map(mul, datum.height_row, m)))
        pos = {m: p for p, m in enumerate(doms)}
        rep = [pos[sat[l]] for l in table.index]
        at = {table.index[m]: p for m, p in pos.items()}
        acc = [defaultdict(int) for _ in doms]
        for o, mids in enumerate(table.mids):
            for m, highs in mids.items():
                if (p := at.get(m)) is not None:
                    for t in highs:
                        acc[p][rep[t], o] += 2
        for r, k, string in table.strings:
            for j in range(1, k // 2 + 1):
                if (p := at.get(string[j])) is not None:
                    for i in range(j):
                        acc[p][rep[string[i]], datum.root_orbit_ids[r]] += k - 2 * i
        q = math.lcm(*(n.denominator for n in datum.orbit_norms))
        sg = [[q * sum(map(mul, s, col)) for col in zip(*datum.weight_gram)]
              for s in datum._orbit_label_sums]
        rows = tuple((tuple((p, o, k) for (p, o), k in acc[i].items()),
                      q * (table.quad[table.index[top]] - table.quad[table.index[mu]]),
                      tuple(sum(x * (a - b) for x, a, b in zip(row, top, mu)) for row in sg))
                     for i, mu in enumerate(doms) if i)
        counts = Counter(sat.values())
        found = datum.jacobi_memo[top] = (
            doms, rows, [counts[m] for m in doms],
            [(n * q).numerator * datum.weight_gram_den for n in datum.orbit_norms])
    return found


def jacobi_polynomial(datum: RootDatum, mults: Multiplicities,
                      lam: Vector) -> JacobiPolynomial:
    """Solve the triangular recursion for the coefficients of P_lambda.

    With c_lambda = 1 and the W-invariant extension c~ of c to the whole
    saturated set, the coefficient at a dominant mu < lambda satisfies

        (E(rho+lam) - E(rho+mu)) c_mu
            = 2 sum_{alpha>0} g_alpha sum_{j>=1} <mu + j alpha, alpha> c~_{mu+j alpha}.

    The denominator is strictly positive for positive multiplicities, and the
    j-sum is finite because c~ vanishes outside the saturated set.  The
    recursion is solved on the memoized ``_pattern``: the g_o are cleared by
    the lcm d of their denominators, and each c_mu is one integer sum over
    its pattern row, reduced once.
    """
    doms, rows, counts, weights = _pattern(datum, datum.dominant_labels(lam))
    d = math.lcm(*(v.denominator for v in mults.values))
    gd = [v.numerator * (d // v.denominator) for v in mults.values]
    w = list(map(mul, gd, weights))
    nums, dens = [1], [1]       # the monic coefficients, reduced, by position
    for (terms, dq, bs), mu in zip(rows, doms[1:]):
        gap = d * dq + sum(map(mul, gd, bs))
        if gap == 0:
            raise ArithmeticError(
                f"vanishing recursion denominator at mu={datum.from_labels(mu)}; "
                "impossible for positive multiplicities")
        den = math.lcm(*[dens[p] for p, _o, _k in terms])
        t = sum([w[o] * k * nums[p] * (den // dens[p]) for p, o, k in terms])
        den *= gap
        c = math.gcd(t, den)
        nums.append(t // c)
        dens.append(den // c)
    # P(0): the monic coefficients summed over P(lam), one per orbit element
    den = math.lcm(*dens)
    z = sum(n * (den // e) * k for n, e, k in zip(nums, dens, counts))
    if z == 0:
        raise ArithmeticError("vanishing value at the origin; cannot normalize")
    return JacobiPolynomial(datum, mults, doms[0], {
        m: Q(n * den, e * z) for m, n, e in zip(doms, nums, dens)})


def opdam_leading_coefficient(datum: RootDatum, mults: Multiplicities,
                              lam: Vector) -> Q:
    """Closed double product for the leading coefficient of P_lambda.

    Over each positive root alpha and 0 <= j < <lam, alpha^vee>, the factor is
    (z + g_{a/2}/2 + j) / (z + g_a + g_{a/2}/2 + j), z = <rho_g,a^vee>, with
    g_{a/2}/2 = m_a - g_a (``factor_values``), 0 when a/2 is not a root.
    Empty product for lam = 0.  On the rows (Z, M, G) = d (z, m_a, g_a) of
    the sample's ``record`` each factor reads (Z+M-G+j)/(Z+M+j), j stepping by d.
    """
    record = mults.record()
    d, lam_pairs = record.d, datum.label_pairings(datum.dominant_labels(lam))
    num = den = 1
    for i in datum.positive_indices:
        z, m, g = record.rows[i]
        for w in range(z + m, z + m + lam_pairs[i] * d, d):   # w = Z+M+j
            if w == 0:
                raise ArithmeticError("vanishing factor in the leading product")
            num *= w - g
            den *= w
    return Q(num, den)


@dataclass
class EigenReport:
    """Outcome of the exact eigencheck L P = E(rho+lam) P."""
    system: str
    lam: Vector
    g: tuple
    eigenvalue: Q
    ok: bool
    residual: list

    def to_dict(self):
        return {"system": self.system, "lambda": [_q_str(x) for x in self.lam],
                "g": [str(v) for v in self.g], "eigenvalue": str(self.eigenvalue),
                "status": "pass" if self.ok else "fail", "residual": self.residual}


def _shifted_eigenvalue(datum: RootDatum, mults: Multiplicities, l: tuple) -> Q:
    """E(rho_g + v) = <v, v + 2 rho_g> for v with labels l, through the
    fundamental-weight Gram form over r, which clears rho_g's labels (``Multiplicities.record``)."""
    record = mults.record()
    shifted = [record.r * a + b for a, b in zip(l, record.rho2)]
    return Q(sum(a * sum(map(mul, row, shifted)) for a, row in zip(l, datum.weight_gram)),
             record.r * datum.weight_gram_den)


def verify_eigen(datum: RootDatum, mults: Multiplicities, lam: Vector,
                 poly: JacobiPolynomial) -> EigenReport:
    """Assert L P_lambda equals E(rho+lam) P_lambda with zero residual.

    The check runs in integers on the string table ``_pattern`` built for P
    (``weylalg._apply_L_table``, no tops search): L(D P) = E (D P), D clearing
    the coefficients and E from lam, is compared at every label in one pass.
    The residual is keyed by labels until the report writes it (``exp_to_json``).
    """
    ev = _shifted_eigenvalue(datum, mults, datum.labels(lam))
    d, cleared = poly.cleared_terms()
    table = datum.string_table((poly.top,))
    n, coef, image = _apply_L_table(datum, mults, [poly.top], table, cleared)
    residual, num, den = {}, n * ev.numerator, ev.denominator
    for l, v, c in zip(table.index, image, coef):
        if r := v * den - num * c:
            residual[l] = Q(r, n * den * d)
    return EigenReport(system=datum.name, lam=lam, g=mults.values,
                       eigenvalue=ev, ok=not residual, residual=exp_to_json(datum, residual))
