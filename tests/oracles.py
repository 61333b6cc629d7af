"""Earlier forms of package computations, kept as oracles for the tests.

Each walks its data afresh on every call, in Fractions or label dicts, the
way the package did before its tables and cleared integers:

- ``tuple_walk_jacobi``: the Jacobi triangular recursion stepping label
  tuples up each alpha-string through the saturated map and adding
  Fractions, with no memo per datum and lambda;
- ``string_walk_apply_L``: the operator L on label-keyed terms, grouping
  the alpha-strings of the support by their base label on every call;
- ``fraction_opdam``: the closed leading-coefficient product, one Fraction
  operation per factor, with alpha/2 looked up by its vector;
- ``fraction_signed_product``: the BC signed-subset product, one Fraction
  operation per factor, and ``per_call_pieri_terms_bc``, the BC Pieri terms
  from it with every signed subset and shift made afresh per call;
- ``bc_factors``, ``bc_u_factors`` and ``pieri_bc_index``: the BC factor
  lists built per signed subset from the pairings, and BC's own index of
  them per complement K and p, as ``nonreduced`` kept them before
  ``diffeq.pieri_index`` served BC;
- ``pochhammer_jacobi_poly_1d``: the rank-one terminating series with three
  Pochhammer products per term, and ``bc1_orbit_sum_in_s`` and
  ``coefficient_list_bc1_crosscheck``: m_k(s) from the coefficient list of
  the Chebyshev polynomial T_k, per k and s;
- ``fraction_factor_product`` and ``stepwise_limit``: a finite-coupling
  coefficient at float g with each s+z an exact Fraction, and its g -> oo
  limit with one SqrtRational operation per factor;
- ``per_t_confluence_rows``: the rows of the confluence check from one
  ``coeff_V``/``coeff_U`` call per term and t, one ``coeff_Vbar``/
  ``coeff_Ubar`` call per term, and the E_omega inner products with
  ``rho_vee`` per t.

Then the exact Pieri path before its per-sample and per-orbit memos:

- ``fraction_point_table``: the ``scaled_table`` of rho_g + lambda from the
  Fraction labels of rho_g plus lambda, its d found afresh per point;
- ``every_u_pieri_terms``: ``pieri_terms`` on that table, evaluating the U
  lists of every term, excluded ones too;
- ``orbitwise_expansion_labels``: E_omega on labels with ``parabolic_orbit``
  walked once per orbit element and each W-orbit walked afresh.

Then come vector-side forms of what the package computes on labels, each
taking the root datum first:

- ``orbit_under_reflections``: the orbit under the reflections in any set
  of roots, by the generic search (the package enumerates stabilizer
  orbits as parabolic orbits);
- ``dominant_representative``: v+ and the word of the shortest w with
  w v = v+;
- ``simple_coefficients``, ``height``, ``dominance_leq`` and ``rho_vee``:
  simple-root coordinates and their sum, the dominance order, and rho^vee
  as a vector;
- ``eval_at`` and ``exp_from_json``: an ExpPoly evaluated at a point and
  read back from its ``exp_to_json`` form;
- ``vector_sample_spectral_point``: a sampled spectral point summed as a
  Fraction vector over the fundamental weights, its pole test reading the
  labels back through the Gram form (the package draws the labels).

Then the rank-one Toda oracle as it was before its fixed-point sums:

- ``hyp0f1_log_phi``: log phi of ``whittaker.WhittakerA1`` with two
  ``mpmath.hyp0f1`` calls per point, at the same precision and integer
  order shift.

Last, a constructor and a per-point residual only the tests use:

- ``constant_multiplicities``: the same multiplicity g on every root orbit;
- ``de_residual``: the rank-one difference-equation residual at one point
  from three ``gauss_2f1_jacobi`` calls, each with its own
  ``HypergeometricParams`` (``rankone.verify_de`` shares that work over its
  grid).
"""

import itertools
import math
from collections import Counter
from fractions import Fraction as Q
from operator import add, mul

import mpmath

from hodiff import whittaker
from hodiff.diffeq import (PoleAtSpectralPoint, coeff_U, coeff_V, integer_product, perturbed,
                           pieri_index, scaled_table)
from hodiff.jacobi import jacobi_polynomial
from hodiff.nonreduced import SignedSubset, bc_multiplicities, is_partition, signed_subsets
from hodiff.rankone import (HypergeometricParams, gauss_2f1_jacobi,
                            shift_coefficients)
from hodiff.rootsys import Multiplicities, vadd, weight_str
from hodiff.weylalg import (ExpPoly, InternalConsistencyError, LabelForm, _is_invariant,
                            expansion_E_omega, require_exact)
from hodiff.whittaker import SqrtRational, coeff_Ubar, coeff_Vbar, eta_alpha


def tuple_walk_jacobi(datum, mults, lam):
    """The ``label_coeffs`` of ``jacobi.jacobi_polynomial(datum, mults, lam)``
    from the recursion walked label by label: for each dominant mu < lam by
    falling height, c_mu = 2 sum_{alpha>0} g_alpha sum_{j>=1}
    <mu + j alpha, alpha> c~_{mu+j alpha} / (E(rho+lam) - E(rho+mu)),
    then everything divided by P(0)."""
    require_exact(mults)
    top = datum.dominant_labels(lam)
    sat = datum.saturated_labels(top)
    height_row = datum.height_row
    doms = sorted(datum.below_labels(top),
                  key=lambda m: -sum(map(mul, height_row, m)))
    gram = datum.weight_gram
    rho_labels = datum.rho_labels(mults)
    d = math.lcm(*(x.denominator for x in rho_labels))
    rho_d = [x.numerator * (d // x.denominator) for x in rho_labels]

    def energy(m):
        return sum((2 * r + d * x) * sum(map(mul, row, m))
                   for r, x, row in zip(rho_d, m, gram))

    scale = d * datum.weight_gram_den
    e_top = energy(top)
    positive = [(datum.coroot_coefficients[i], datum.root_labels[i],
                 mults.root_values[i] * datum.root_norms[i])
                for i in datum.positive_indices]
    monic = {top: Q(1)}
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
            raise ArithmeticError("vanishing recursion denominator")
        monic[mu] = rhs * scale / denom
    z = sum(monic[m] * n for m, n in Counter(sat.values()).items())
    if z == 0:
        raise ArithmeticError("vanishing value at the origin; cannot normalize")
    return {m: c / z for m, c in monic.items()}


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
    """The BC signed-subset product in the slot coordinates of the displayed
    formula, factor by factor: V of subset (pair_g = g) or one term of U
    (pair_g = -g), singleton factors on its slots, cross factors against
    others and pair factors inside it; a pole is named by its slot form."""
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


def per_call_pieri_terms_bc(n, gs, ell, lam, xi):
    """The (signed subset, shifted partition, U*V) triples of the BC Pieri
    identity at ell, one per surviving shift (the package's terms summed
    over the etas of each nu), the signed subsets, complements, shift
    vectors and every product made afresh on each call, in Fractions, at xi
    (rho_g + lam for the package's terms), raising at a pole wherever the
    package does, with the pole named in slot form."""
    gs, lam, xi = tuple(map(Q, gs)), tuple(map(Q, lam)), tuple(map(Q, xi))
    terms = []
    for size in range(ell + 1):
        for J in itertools.combinations(range(n), size):
            K = tuple(k for k in range(n) if k not in J)
            p = ell - size
            if p > len(K):
                raise ValueError(f"p={p} out of range for |K|={len(K)}")
            u = Q(0)
            for I in itertools.combinations(K, p):
                rest = [k for k in K if k not in I]
                for signs in itertools.product((1, -1), repeat=p):
                    u += fraction_signed_product(gs, SignedSubset(I, signs), rest, xi, -gs[0])
            u *= (-1) ** p
            for sub in signed_subsets(J):
                v = fraction_signed_product(gs, sub, K, xi, gs[0])
                shifted = tuple(a + Q(b) for a, b in zip(lam, sub.shift_vector(n)))
                if is_partition(shifted):
                    terms.append((sub, shifted, u * v))
                elif v != 0:
                    raise InternalConsistencyError(
                        f"V did not vanish at excluded shift {sub} for lam={lam}")
    return terms


def bc_factors(datum, nu, eta=None):
    """V_nu's list (eta None) or U_{nu,eta}'s on the BC datum, root by root
    from the pairings: shift 0 where nu (for U, eta on the roots orthogonal
    to nu) pairs positively, shift 1 with g sign + (V) or - (U) where it
    pairs 2; a root alpha with 2alpha a root has no shift-0 entry, and its
    shift-1 entry sign +, the (-1)^p of U left outside the list."""
    halves = set(datum.half_root_index)
    pairs = datum.pairings(nu)
    rows = (enumerate(pairs) if eta is None else
            ((i, k) for i, (k, z) in enumerate(zip(datum.pairings(eta), pairs)) if z == 0))
    out = []
    for i, k in rows:
        if k > 0 and i not in halves:
            out.append((i, 0, 1))
        if k == 2:
            out.append((i, 1, 1 if eta is None or i in halves else -1))
    return tuple(out)


def bc_u_factors(datum, K, p):
    """U_{K,p}'s lists: ``bc_factors(e_J, e_{eps I})`` per signed p-subset I
    of K, J the complement of K."""
    n = datum.rank
    nu = tuple(int(k not in K) for k in range(n))
    return tuple(bc_factors(datum, nu, sub.shift_vector(n))
                 for I in itertools.combinations(K, p) for sub in signed_subsets(I))


def pieri_bc_index(datum, ell):
    """Per J of at most ell slots: (K, p, U's ``bc_u_factors``, per signed
    subset of J its ``SignedSubset``, integer shift row and V's
    ``bc_factors``), K the complement of J and p = ell - |J|."""
    n, found = datum.rank, []
    for size in range(ell + 1):
        for J in itertools.combinations(range(n), size):
            K = tuple(k for k in range(n) if k not in J)
            rows = [(sub, sub.shift_vector(n)) for sub in signed_subsets(J)]
            found.append((K, ell - size, bc_u_factors(datum, K, ell - size),
                          tuple((sub, row, bc_factors(datum, row)) for sub, row in rows)))
    return tuple(found)


def pochhammer_jacobi_poly_1d(g1, g2, l, s):
    """``rankone.jacobi_poly_1d`` as the sum over k of
    (a)_k (b)_k / ((c)_k k!) (-s)^k, each Pochhammer product formed afresh."""
    def pochhammer(a, k):
        out = Q(1)
        for i in range(k):
            out *= a + i
        return out

    g1, g2, s = Q(g1), Q(g2), Q(s)
    a, b, c = Q(-l), l + g1 + 2 * g2, Q(1, 2) + g1 + g2
    return sum((pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * math.factorial(k))
                * (-s) ** k for k in range(l + 1)), Q(0))


def chebyshev_t(k):
    """Coefficient list of T_k as a polynomial (integer coefficients)."""
    prev, cur = [Q(1)], [Q(0), Q(1)]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [Q(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def bc1_orbit_sum_in_s(k, s):
    """m_k of the rank-one nonreduced datum as a polynomial in s, by Horner
    on the coefficient list of T_k: e^{kx} + e^{-kx} = 2 T_k(1 + 2s) with
    s = sinh^2(x/2); m_0 = 1."""
    if k == 0:
        return Q(1)
    total = Q(0)
    for c in reversed(chebyshev_t(k)):
        total = total * (1 + 2 * Q(s)) + c
    return 2 * total


def coefficient_list_bc1_crosscheck(g1, g2, l, s_values, datum):
    """``rankone.bc1_crosscheck`` with each m_k(s) from ``bc1_orbit_sum_in_s``
    and the series from ``pochhammer_jacobi_poly_1d``."""
    mults = bc_multiplicities(datum, Q(1), Q(g1), Q(g2))
    poly = jacobi_polynomial(datum, mults, (Q(l),))
    return all(sum(c * bc1_orbit_sum_in_s(int(mu[0]), s) for mu, c in poly.coeffs.items())
               == pochhammer_jacobi_poly_1d(g1, g2, l, s) for s in map(Q, s_values))


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
    evaluated afresh at ``whittaker.multiplicities_at(datum, t)``."""
    rv = rho_vee(datum)
    t_list = tuple(map(float, t_list))

    def row(family, label, devs, limit):
        return whittaker._deviation_row(family, label, devs, t_list, tol, limit)

    rate_omega = datum.inner(omega, rv)
    e_poly = expansion_E_omega(datum, omega)
    limit = whittaker.ebar(datum, omega, x)
    devs = []
    for t in t_list:
        val = 0.0
        for nu, c in e_poly.terms.items():
            expo = whittaker._inner_float(datum, nu, x) + t * float(
                datum.inner(nu, rv) - rate_omega)
            val += float(c) * math.exp(expo)
        devs.append(abs(val - limit) / abs(limit))
    rows = [row("E", "E_omega", devs, limit)]
    for entry in pieri_index(datum, omega):
        rate_v = float(datum.inner(entry.nu_plus, rv))
        vbar = float(coeff_Vbar(datum, entry.nu, xi))
        devs = [abs(math.exp(-t * rate_v) * coeff_V(
                    datum, whittaker.multiplicities_at(datum, t), entry.nu, xi) - vbar) / abs(vbar)
                for t in t_list]
        rows.append(row("V", f"nu={entry.nu}", devs, vbar))
        rate_u = float(datum.inner(omega, rv) - datum.inner(entry.nu_plus, rv))
        for eta_wt in entry.etas:
            ubar = float(coeff_Ubar(datum, entry.nu, eta_wt, xi))
            devs = [abs(math.exp(-t * rate_u) * coeff_U(
                        datum, whittaker.multiplicities_at(datum, t), entry.nu, eta_wt, xi)
                        - ubar) / abs(ubar) for t in t_list]
            rows.append(row("U", f"nu={entry.nu}, eta={eta_wt}", devs, ubar))
    return rows


def vscale(c, u):
    """The vector c u."""
    c = Q(c)
    return tuple(c * a for a in u)


def half_weighted_sum(datum, weight_of_root):
    """(1/2) sum over positive roots of weight(alpha) * alpha, as a vector:
    the package forms rho_g on labels (``RootDatum.rho_labels``)."""
    acc = (Q(0),) * datum.dim
    for a in datum.positive_roots:
        acc = tuple(x + y for x, y in zip(acc, vscale(weight_of_root(a), a)))
    return vscale(Q(1, 2), acc)


def multiplicity_of(mults, alpha):
    """g_alpha for a root vector alpha."""
    return mults.root_values[mults.datum.root_index[alpha]]


def invert_rational_matrix(m):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(m)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _factor_list(pairs, indices, sign):
    """(i, 0, 1) for each root index i (ascending) with pairs[i] > 0,
    followed by (i, 1, sign) where pairs[i] is 2."""
    out = []
    for i in indices:
        k = pairs[i]
        if k > 0:
            out.append((i, 0, 1))
            if k == 2:
                out.append((i, 1, sign))
    return tuple(out)


def scan_pieri_index(datum, omega):
    """Per nu of P(omega), in the order of the vectors: (labels of nu, word,
    labels of nu+, labels of the etas, V's list, the U lists), each list
    scanned from the pairing rows of nu and eta (``label_pairings``), the
    etas being the stabilizer orbit ``stabilizer_orbit`` finds on its own:
    the package carries both down the Weyl descent instead."""
    out = []
    for nu in sorted(datum.saturated_map(omega)):
        l = datum.labels(nu)
        plus, steps = datum._make_dominant(l)
        word = tuple(steps[::-1])
        start = datum.from_labels(datum._apply_word(steps, datum.labels(omega)))
        etas = tuple(map(datum.labels, datum.stabilizer_orbit(nu, start)))
        pairs = datum.label_pairings(l)
        orth = [i for i, k in enumerate(pairs) if k == 0]
        out.append((l, word, plus, etas, _factor_list(pairs, range(len(pairs)), 1),
                    tuple(_factor_list(datum.label_pairings(e), orth, -1) for e in etas)))
    return out


def fraction_point_table(datum, mults, lam):
    """The ``scaled_table`` of rho_g + lambda, lam the labels of a weight,
    from the pairings of the Fraction labels of rho_g plus lam."""
    return scaled_table(datum.label_pairings(tuple(map(add, datum.rho_labels(mults), lam))),
                        mults.root_values)


def every_u_pieri_terms(datum, mults, omega, lam, perturb=None):
    """``pieri_terms`` with the U lists of every term evaluated before the
    term is kept or its V's vanishing asserted."""
    require_exact(mults)
    table = fraction_point_table(datum, mults, lam)
    out = []
    for entry in pieri_index(datum, omega):
        v_num, v_den = integer_product(datum, perturbed(entry.v_factors, perturb), table)
        us = [integer_product(datum, perturbed(f, perturb), table) for f in entry.u_factors]
        if all(a + b >= 0 for a, b in zip(lam, entry.nu_labels)):
            out.extend((entry, eta, Q(u_num * v_num, u_den * v_den))
                       for eta, (u_num, u_den) in zip(entry.eta_labels, us))
        elif v_num and perturb is None:
            raise InternalConsistencyError(
                f"V did not vanish at the excluded shift nu={weight_str(entry.nu)}, "
                f"lambda labels {lam}: V={Q(v_num, v_den)}")
    return out


def orbitwise_expansion_labels(datum, omega):
    """E_omega as a ``LabelForm``: per dominant mu <= omega, its W-orbit
    walked afresh in the order of the vectors, each element with the size of
    its own ``parabolic_orbit`` call."""
    top = datum.dominant_labels(omega)
    return LabelForm(datum, {
        l: len(datum.parabolic_orbit(mu, top))
        for mu in datum.below_labels(top)
        for l in sorted(datum._dominant_orbit(mu), key=datum._vector_key)})


def orbit_under_reflections(datum, gen_roots, v):
    """Orbit of v (in the root span) under the reflections in gen_roots,
    sorted: the generic label search over every generator."""
    tables = [(datum.coroot_coefficients[i], datum.root_labels[i])
              for i in map(datum.root_index.__getitem__, gen_roots)]
    l = datum.labels(v)
    seen = {l}
    stack = [l]
    while stack:
        u = stack.pop()
        for c, row in tables:
            k = sum(map(mul, c, u))
            if k:
                w = tuple(a - k * b for a, b in zip(u, row))
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return tuple(sorted(map(datum.from_labels, seen)))


def dominant_representative(datum, v):
    """(v+, word for the shortest w with w(v) = v+ dominant), v in the span:
    greedy reflection at the least simple root with a negative pairing."""
    l, steps = datum._make_dominant(datum.labels(v))
    return datum.from_labels(l), tuple(reversed(steps))


def simple_coefficients(datum, v):
    """Coordinates of v in the simple-root basis, or None if v is off-span."""
    l = datum.labels(v)
    if datum.from_labels(l) != v:
        return None
    inv = invert_rational_matrix(datum.cartan)
    return tuple(sum((l[j] * inv[j][k] for j in range(datum.rank)), Q(0))
                 for k in range(datum.rank))


def height(datum, v):
    """Sum of the simple-root coordinates of v, read from its labels."""
    l = datum.labels(v)
    if datum.from_labels(l) != v:
        raise ValueError("vector is not in the root span")
    return Q(sum(map(mul, datum.height_row, l)), datum.height_den)


def dominance_leq(datum, mu, lam):
    """mu <= lam in dominance order: lam - mu in Q+ (dominant inputs)."""
    return datum.dominant_labels(mu) in datum.below_labels(datum.dominant_labels(lam))


def rho_vee(datum):
    """rho^vee = (1/2) sum_{alpha > 0} alpha^vee, alpha^vee = 2 alpha / |alpha|^2."""
    return half_weighted_sum(datum, lambda a: 2 / datum.norm_sq(a))


def eval_at(datum, p, x):
    """Floating-point evaluation of an ExpPoly at the point x."""
    xf = [float(v) for v in x]
    total = 0.0
    for nu, c in p.terms.items():
        if datum.gram is None:
            expo = sum(float(a) * b for a, b in zip(nu, xf))
        else:
            expo = sum(float(nu[i]) * float(datum.gram[i][j]) * xf[j]
                       for i in range(datum.dim) for j in range(datum.dim))
        total += float(c) * math.exp(expo)
    return total


def exp_from_json(items):
    """The ExpPoly of ``weylalg.exp_to_json`` records."""
    return ExpPoly({tuple(Q(w) for w in item["weight"]): Q(item["coeff"])
                    for item in items})


def vector_sample_spectral_point(datum, rng, max_tries=200):
    """Rational xi with every <xi,a^vee> away from 0 and -1, as
    ``diffeq.sample_spectral_point`` draws it: per fundamental weight a
    coefficient, numerator then denominator, summed as a vector."""
    for _ in range(max_tries):
        xi = (Q(0),) * datum.dim
        for w in datum.fundamental_weights:
            c = Q(rng.randint(-24, 24), rng.randint(2, 9))
            xi = vadd(xi, tuple(c * x for x in w))
        if all(z not in (0, -1) for z in datum.pairings(xi)):
            return xi
    raise RuntimeError("could not sample a pole-free spectral point")


def constant_multiplicities(datum, g):
    """Multiplicities with the value g on every root orbit of datum."""
    return Multiplicities(datum, [g] * len(datum.root_orbits))


def de_residual(g1, g2, xi, x) -> float:
    """Relative residual of the rank-one difference equation at one point."""
    up, dn = shift_coefficients(g1, g2, xi)
    f0 = gauss_2f1_jacobi(HypergeometricParams(g1, g2, xi, x))
    fp = gauss_2f1_jacobi(HypergeometricParams(g1, g2, xi + 1, x))
    fm = gauss_2f1_jacobi(HypergeometricParams(g1, g2, xi - 1, x))
    lhs = up * (fp - f0) + dn * (fm - f0)
    rhs = 4 * math.sinh(x / 2) ** 2 * f0
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def hyp0f1_log_phi(zeta, points) -> dict:
    """u -> log phi(u) of ``whittaker.WhittakerA1(zeta, points)``, with
    I_{+-a} from ``mpmath.hyp0f1`` under the same precision budget."""
    a = abs(float(zeta))
    u_eval = {float(u) for u in points}
    sin_a = abs(float(mpmath.sinpi(a)))
    shift = 0 if sin_a else whittaker.ORACLE_DPS + 10
    x_max = 2.0 * math.exp(-min(u_eval) / 2.0)
    lost = 2.0 * x_max * math.log10(math.e) + (shift or -math.log10(sin_a))
    out = {}
    with mpmath.workdps(whittaker.ORACLE_DPS + math.ceil(lost) + 6):
        a_mp = mpmath.mpf(a) + (mpmath.mpf(10) ** -shift if shift else 0)
        scale = mpmath.pi / mpmath.sinpi(a_mp)
        r_minus, r_plus = mpmath.rgamma(1 - a_mp), mpmath.rgamma(1 + a_mp)
        for u in u_eval:
            z, e = mpmath.exp(-u), mpmath.exp(a_mp * u / 2)
            phi = scale * (e * r_minus * mpmath.hyp0f1(1 - a_mp, z)
                           - r_plus * mpmath.hyp0f1(1 + a_mp, z) / e)
            out[u] = float(mpmath.log(phi))
    return out
