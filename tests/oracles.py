"""Earlier forms of package computations, kept as oracles for the tests.

Each walks its data afresh on every call, in Fractions or label dicts, the
way the package did before its tables and cleared integers:

- ``string_walk_apply_L``: the operator L on label-keyed terms, grouping
  the alpha-strings of the support by their base label on every call;
- ``fraction_opdam``: the closed leading-coefficient product, one Fraction
  operation per factor, with alpha/2 looked up by its vector;
- ``fraction_signed_product``: the BC signed-subset product, one Fraction
  operation per factor;
- ``fraction_factor_product`` and ``stepwise_limit``: a finite-coupling
  coefficient at float g with each s+z an exact Fraction, and its g -> oo
  limit with one SqrtRational operation per factor;
- ``per_t_confluence_rows``: the rows of the confluence check from one
  ``coeff_V``/``coeff_U`` call per term and t, one ``coeff_Vbar``/
  ``coeff_Ubar`` call per term, and the E_omega inner products per t.
"""

import itertools
import math
from fractions import Fraction as Q
from operator import mul

from hodiff import whittaker
from hodiff.diffeq import PoleAtSpectralPoint, coeff_U, coeff_V, pieri_index
from hodiff.rootsys import vscale, vsub
from hodiff.weylalg import (InternalConsistencyError, _is_invariant,
                            expansion_E_omega, require_exact)
from hodiff.whittaker import SqrtRational, coeff_Ubar, coeff_Vbar, eta_alpha


def string_walk_apply_L(datum, mults, terms):
    """(n, image) with image[l] = n (L p)[l], as ``weylalg.apply_L_labels``
    gives it, from a per-call walk over the strings of the support."""
    require_exact(mults)
    if not _is_invariant(datum, terms):
        raise ValueError("apply_L requires a W-invariant argument")
    sums = [{} for _ in datum.root_orbits]
    for i in datum.positive_indices:
        lab = datum.root_labels[i]
        cc = datum.coroot_coefficients[i]
        strings = {}
        for l, c in terms.items():
            k = int(sum(map(mul, cc, l)))
            if k == 0:
                continue
            base = tuple(a - (k // 2) * b for a, b in zip(l, lab))
            strings.setdefault(base, {})[k] = k * c
        acc = sums[datum.root_orbit_ids[i]]
        for base, d in strings.items():
            s_above = s = 0
            for k in range(max(d), min(d) - 1, -2):
                s = s_above + d.get(k, 0)
                h = s + s_above
                if h:
                    key = tuple(a + (k // 2) * b for a, b in zip(base, lab))
                    acc[key] = acc.get(key, 0) + h
                s_above = s
            if s != 0:
                raise InternalConsistencyError(
                    f"division by 1 - e^-{datum.roots[i]} left remainder {s}")
    weights = [mults.values[o] * datum.norm_sq(orbit[0]) / 2
               for o, orbit in enumerate(datum.root_orbits)]
    n = math.lcm(datum.weight_gram_den, *(w.denominator for w in weights))
    weighted = [((w * n).numerator, acc) for w, acc in zip(weights, sums) if acc]
    lap = n // datum.weight_gram_den
    gram = datum.weight_gram
    image = {}
    for l in set(terms).union(*sums):
        v = sum(w * acc.get(l, 0) for w, acc in weighted)
        c = terms.get(l)
        if c:
            v += lap * c * sum(x * sum(map(mul, row, l)) for x, row in zip(l, gram))
        image[l] = v
    return n, image


def fraction_opdam(datum, mults, lam):
    """The product of ``jacobi.opdam_leading_coefficient``, factor by factor."""
    lam = datum.check_dominant(lam)
    rho_pairs = datum.pairings(datum.rho(mults))
    lam_pairs = datum.pairings(lam)
    total = Q(1)
    for i in datum.positive_indices:
        half = datum.root_index.get(vscale(Q(1, 2), datum.roots[i]))
        g_half = mults.root_values[half] if half is not None else Q(0)
        base = rho_pairs[i] + Q(1, 2) * g_half
        for j in range(max(lam_pairs[i], 0)):
            den = base + mults.root_values[i] + j
            if den == 0:
                raise ArithmeticError("vanishing factor in the leading product")
            total *= (base + j) / den
    return total


def _check_den(value, what):
    if value == 0:
        raise PoleAtSpectralPoint(what, "denominator")
    return value


def fraction_signed_product(gs, subset, others, xi, pair_g):
    """The product of ``nonreduced._signed_product``, factor by factor, with
    the same pole checks in the same order."""
    g, g1, g2 = gs
    total = Q(1)
    slots = list(zip(subset.indices, subset.signs))
    for j, s in slots:
        xj = xi[j]
        total *= (s * xj + Q(1, 2) * g1 + g2) * (1 + 2 * s * xj + g1) / (
            _check_den(s * xj, f"{s}*xi_j") * _check_den(1 + 2 * s * xj, "1+2xi_j"))
        for k in others:
            xk = xi[k]
            total *= (s * xj + xk + g) * (s * xj - xk + g) / (
                _check_den(s * xj + xk, "xi_j+xi_k") * _check_den(s * xj - xk, "xi_j-xi_k"))
    for (j, sj), (jp, sp) in itertools.combinations(slots, 2):
        u = sj * xi[j] + sp * xi[jp]
        total *= (u + g) / _check_den(u, "eps_j xi_j + eps_j' xi_j'")
        total *= (1 + u + pair_g) / _check_den(1 + u, "1 + eps_j xi_j + eps_j' xi_j'")
    return total


def fraction_factor_product(datum, factors, xi, g):
    """The float product of ``diffeq.factor_product`` at rational xi, each
    s+z kept an exact Fraction until it meets g."""
    z = datum.pairings(xi)
    total = Q(1)
    for i, s, e in factors:
        w = z[i] + 1 if s else z[i]
        if w == 0:
            raise PoleAtSpectralPoint(datum.roots[i],
                                      "1+<xi,a^vee>" if s else "<xi,a^vee>")
        total *= (w + g[i] if e > 0 else w - g[i]) / w
    return total


def stepwise_limit(datum, factors, xi):
    """``whittaker.limit_product`` at rational xi, one SqrtRational
    operation per factor."""
    z = datum.pairings(xi)
    total = SqrtRational(1)
    for i, s, e in factors:
        eta = eta_alpha(datum, datum.roots[i])
        total = total * (eta if e > 0 else -eta) / (z[i] + 1 if s else z[i])
    return total


def per_t_confluence_rows(datum, omega, xi, x, t_list, tol=1e-6):
    """The rows of ``whittaker.verify_confluence``, every coefficient
    evaluated afresh at ``TodaCoefficients.multiplicities_at(t)``."""
    toda = whittaker.TodaCoefficients(datum, omega)
    rho_vee = datum.rho_vee()
    t_list = tuple(map(float, t_list))

    def row(family, label, devs, limit):
        return whittaker._deviation_row(family, label, devs, t_list, tol, limit)

    rate_omega = datum.inner(omega, rho_vee)
    e_poly = expansion_E_omega(datum, omega)
    limit = whittaker.ebar(datum, omega, x)
    devs = []
    for t in t_list:
        val = 0.0
        for nu, c in e_poly.terms.items():
            expo = whittaker._inner_float(datum, nu, x) + t * float(
                datum.inner(nu, rho_vee) - rate_omega)
            val += float(c) * math.exp(expo)
        devs.append(abs(val - limit) / abs(limit))
    rows = [row("E", "E_omega", devs, limit)]
    for entry in pieri_index(datum, omega):
        rate_v = float(datum.inner(entry.nu_plus, rho_vee))
        vbar = float(coeff_Vbar(datum, entry.nu, xi))
        devs = [abs(math.exp(-t * rate_v) * coeff_V(
                    datum, toda.multiplicities_at(t), entry.nu, xi) - vbar) / abs(vbar)
                for t in t_list]
        rows.append(row("V", f"nu={entry.nu}", devs, vbar))
        rate_u = float(datum.inner(vsub(toda.omega, entry.nu_plus), rho_vee))
        for eta_wt in entry.etas:
            ubar = float(coeff_Ubar(datum, entry.nu, eta_wt, xi))
            devs = [abs(math.exp(-t * rate_u) * coeff_U(
                        datum, toda.multiplicities_at(t), entry.nu, eta_wt, xi)
                        - ubar) / abs(ubar) for t in t_list]
            rows.append(row("U", f"nu={entry.nu}, eta={eta_wt}", devs, ubar))
    return rows
