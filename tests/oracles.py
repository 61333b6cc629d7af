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
  from it with every signed subset and shift made afresh per call, a shift
  kept when ``is_partition`` (the partition test ``nonreduced`` made before
  ``verify_pieri_bc`` took a dominant lambda) holds;
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
  ``factor_product`` per factor list and t, on the float table of xi and the
  couplings ``whittaker.couplings_at`` of t, one ``limit_product`` per
  factor list, and the E_omega inner products with ``rho_vee`` per t;
- ``searched_quasi_minuscule_weight`` and ``pairing_quasi_minuscule``: the
  quasi-minuscule weight found by searching the positive roots for the
  dominant one whose every other positive-coroot pairing is at most 1 (the
  package takes the dominant root of the shortest root orbit).

Then the exact Pieri path before its per-sample and per-orbit memos:

- ``fraction_point_table``: the ``scaled_table`` of rho_g + lambda from the
  Fraction labels of rho_g plus lambda, its d found afresh per point;
- ``every_u_pieri_terms``: ``pieri_terms`` on that table, evaluating the U
  lists of every term, excluded ones too;
- ``orbitwise_expansion_labels``: E_omega on labels with ``parabolic_orbit``
  walked once per orbit element and each W-orbit walked afresh;
- ``greedy_dominant``: the greedy descent to a dominant label as a loop,
  with no memo of the chains it shares (``scan_pieri_index`` reads it).

Then come vector-side forms of what the package computes on labels, each
taking the root datum first:

- ``orbit_under_reflections``: the orbit under the reflections in any set
  of roots, by the generic search (the package enumerates stabilizer
  orbits as parabolic orbits);
- ``dominant_representative``: v+ and the word of the shortest w with
  w v = v+, as vectors (read from ``RootDatum._greedy``, so that a brute
  force over words checks the package);
- ``inner`` and ``eigenvalue_E``: the Gram form on realization
  coordinates, and E(xi) = <xi,xi> - <rho_g,rho_g> by it (the package pairs
  on labels, and reads E(rho_g + lambda) through the fundamental-weight Gram
  form, ``jacobi._shifted_eigenvalue``);
- ``simple_coefficients``, ``height``, ``dominance_leq`` and ``rho_vee``:
  simple-root coordinates and their sum, the dominance order, and rho^vee
  as a vector;
- ``eval_at``, ``exp_from_json`` and ``vector_exp_to_json``: an ExpPoly
  evaluated at a point, read back from ``exp_to_json`` records, and written
  as them from its vectors (as ``exp_to_json`` did before it took labels);
- ``vector_sample_spectral_point``: a sampled spectral point summed as a
  Fraction vector over the fundamental weights, its pole test reading the
  labels back through the Gram form (the package draws the labels).

Then the rank-one Toda oracle as it was before its fixed-point sums:

- ``hyp0f1_log_phi``: log phi of ``whittaker.WhittakerA1`` with two
  ``mpmath.hyp0f1`` calls per point, at the same precision and integer
  order shift.

Last, constructors, views and a per-point residual only the tests use:

- ``constant_multiplicities``: the same multiplicity g on every root orbit;
- ``pole_free_rationals``: rationals drawn by a hypothesis ``draw`` at which
  no factor list has a pole, by construction;
- ``corrupted_copy``: a Jacobi polynomial with one coefficient moved;
- ``term_vectors``: nu, nu+ and the etas of a ``PieriTermIndex`` entry as
  vectors (the entry holds their labels only);
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
from hypothesis import strategies as st

from hodiff import whittaker
from hodiff.diffeq import (PoleAtSpectralPoint, factor_product, float_table, integer_product,
                           perturbed, pieri_index, scaled_table, term_factors)
from hodiff.jacobi import JacobiPolynomial, jacobi_polynomial
from hodiff.nonreduced import bc_multiplicities
from hodiff.rankone import (HypergeometricParams, gauss_2f1_jacobi,
                            shift_coefficients)
from hodiff.rootsys import Multiplicities, _q_str, vadd, weight_str
from hodiff.weylalg import (ExpPoly, InternalConsistencyError, LabelForm, _is_invariant,
                            expansion_E_omega)
from hodiff.whittaker import SqrtRational, couplings_at, limit_product, limit_table


def tuple_walk_jacobi(datum, mults, lam):
    """The ``label_coeffs`` of ``jacobi.jacobi_polynomial(datum, mults, lam)``
    from the recursion walked label by label: for each dominant mu < lam by
    falling height, c_mu = 2 sum_{alpha>0} g_alpha sum_{j>=1}
    <mu + j alpha, alpha> c~_{mu+j alpha} / (E(rho+lam) - E(rho+mu)),
    then everything divided by P(0)."""
    top = datum.dominant_labels(lam)
    sat = datum.saturated_labels(top)
    height_row = datum.height_row
    doms = sorted(datum.below_labels(top),
                  key=lambda m: -sum(map(mul, height_row, m)))
    gram = datum.weight_gram
    rho_labels = datum.rho(mults).labels
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
    """(n, image) with image[l] = n (L p)[l], the numerators of
    ``weylalg.apply_L`` of the W-invariant p with label-keyed terms, from a
    per-call walk over the strings of the support."""
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
    weights = [mults.values[o] * inner(datum, orbit[0], orbit[0]) / 2
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
        half = vscale(Q(1, 2), datum.roots[i])
        g_half = mults.root_values[datum.roots.index(half)] if half in datum.roots else Q(0)
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


def signed_rows(n, J):
    """The rows e_{eps J} of the signed subsets of the slots J: +-1 on J, 0
    elsewhere, each sign assignment once."""
    return list(itertools.product(*((1, -1) if k in J else (0,) for k in range(n))))


def fraction_signed_product(gs, row, others, xi, pair_g):
    """The BC signed-subset product in the slot coordinates of the displayed
    formula, factor by factor: V of the signed subset with row e_{eps J}
    (pair_g = g) or one term of U (pair_g = -g), singleton factors on its
    slots, cross factors against others and pair factors inside it; a pole
    is named by its slot form."""
    g, g1, g2 = gs
    total = Q(1)
    slots = [(j, s) for j, s in enumerate(row) if s]
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


def is_partition(v) -> bool:
    """v has integer parts that weakly decrease to a last part >= 0."""
    return all(x.denominator == 1 for x in v) and \
        all(v[i] >= v[i + 1] for i in range(len(v) - 1)) and v[-1] >= 0


def per_call_pieri_terms_bc(n, gs, ell, lam, xi):
    """The (shift row, shifted partition, U*V) triples of the BC Pieri
    identity at ell, one per surviving shift (the package's terms summed
    over the etas of each nu), the signed subsets, complements, shift
    rows and every product made afresh on each call, in Fractions, at xi
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
                for row in signed_rows(n, I):
                    u += fraction_signed_product(gs, row, rest, xi, -gs[0])
            u *= (-1) ** p
            for row in signed_rows(n, J):
                v = fraction_signed_product(gs, row, K, xi, gs[0])
                shifted = tuple(a + Q(b) for a, b in zip(lam, row))
                if is_partition(shifted):
                    terms.append((row, shifted, u * v))
                elif v != 0:
                    raise InternalConsistencyError(
                        f"V did not vanish at excluded shift {row} for lam={lam}")
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
    return tuple(bc_factors(datum, nu, row)
                 for I in itertools.combinations(K, p) for row in signed_rows(n, I))


def pieri_bc_index(datum, ell):
    """Per J of at most ell slots: (K, p, U's ``bc_u_factors``, per signed
    subset of J its integer shift row and V's ``bc_factors``), K the
    complement of J and p = ell - |J|."""
    n, found = datum.rank, []
    for size in range(ell + 1):
        for J in itertools.combinations(range(n), size):
            K = tuple(k for k in range(n) if k not in J)
            found.append((K, ell - size, bc_u_factors(datum, K, ell - size),
                          tuple((row, bc_factors(datum, row)) for row in signed_rows(n, J))))
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
    """``whittaker.limit_product`` on the ``limit_table`` of rational xi,
    one SqrtRational operation per factor."""
    z = datum.pairings(xi)
    total = SqrtRational(1, 1)
    for i, s, e in factors:
        eta = SqrtRational(1, 2 / inner(datum, datum.roots[i], datum.roots[i]))
        total = total * (eta if e > 0 else -eta) / (z[i] + 1 if s else z[i])
    return total


def per_t_confluence_rows(datum, omega, xi, x, t_list, tol=1e-6):
    """The rows of ``whittaker.verify_confluence``, every coefficient
    evaluated afresh at ``whittaker.couplings_at(datum, t)``."""
    rv = rho_vee(datum)
    t_list = tuple(map(float, t_list))

    def row(family, label, devs, limit):
        return whittaker._deviation_row(family, label, devs, t_list, tol, limit)

    rate_omega = inner(datum, omega, rv)
    e_poly = expansion_E_omega(datum, omega)
    limit = whittaker.ebar(datum, omega, x)
    devs = []
    for t in t_list:
        val = 0.0
        for nu, c in e_poly.terms.items():
            expo = whittaker._inner_float(datum, nu, x) + t * float(
                inner(datum, nu, rv) - rate_omega)
            val += float(c) * math.exp(expo)
        devs.append(abs(val - limit) / abs(limit))
    rows = [row("E", "E_omega", devs, limit)]
    z = datum.pairings(tuple(map(Q, xi)))

    def deviations(factors, rate):
        bar = float(limit_product(datum, factors, limit_table(datum, z)))
        return [abs(math.exp(-t * rate) * factor_product(
                    datum, factors, float_table(z), couplings_at(datum, t)) - bar) / abs(bar)
                for t in t_list], bar

    for entry in pieri_index(datum, omega):
        nu, nu_plus, etas = term_vectors(datum, entry)
        rate_v = float(inner(datum, nu_plus, rv))
        rows.append(row("V", f"nu={nu}", *deviations(term_factors(datum, nu), rate_v)))
        rate_u = float(inner(datum, omega, rv) - inner(datum, nu_plus, rv))
        for eta_wt in etas:
            rows.append(row("U", f"nu={nu}, eta={eta_wt}",
                            *deviations(term_factors(datum, nu, eta_wt), rate_u)))
    return rows


def vscale(c, u):
    """The vector c u."""
    c = Q(c)
    return tuple(c * a for a in u)


def half_weighted_sum(datum, weight_of_root):
    """(1/2) sum over positive roots of weight(alpha) * alpha, as a vector:
    the package forms rho_g on labels (``RootDatum.rho``)."""
    acc = (Q(0),) * datum.dim
    for a in datum.positive_roots:
        acc = tuple(x + y for x, y in zip(acc, vscale(weight_of_root(a), a)))
    return vscale(Q(1, 2), acc)


def multiplicity_of(mults, alpha):
    """g_alpha for a root vector alpha."""
    return mults.root_values[mults.datum.roots.index(alpha)]


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
        plus, steps = greedy_dominant(datum, l)
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
    return scaled_table(datum.label_pairings(tuple(map(add, datum.rho(mults).labels, lam))),
                        mults.root_values)


def every_u_pieri_terms(datum, mults, omega, lam, perturb=None):
    """``pieri_terms`` with the U lists of every term evaluated before the
    term is kept or its V's vanishing asserted."""
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
                f"V did not vanish at the excluded shift "
                f"nu={weight_str(datum.from_labels(entry.nu_labels))}, "
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


def pairing_quasi_minuscule(datum, omega) -> bool:
    """omega is a dominant root pairing at most 1 with every other positive coroot."""
    omega = datum.check_dominant(omega)
    j = datum._root_at(omega)
    if j is None:
        return False
    p = datum.pairings(omega)
    return all(p[i] <= 1 for i in datum.positive_indices if i != j)


def searched_quasi_minuscule_weight(datum):
    """The first positive root that is ``pairing_quasi_minuscule``."""
    for a in datum.positive_roots:
        if min(a.labels) >= 0 and pairing_quasi_minuscule(datum, a):
            return a
    raise ValueError("no quasi-minuscule weight found")


def orbit_under_reflections(datum, gen_roots, v):
    """Orbit of v (in the root span) under the reflections in gen_roots,
    sorted: the generic label search over every generator."""
    tables = [(datum.coroot_coefficients[i], datum.root_labels[i])
              for i in map(datum.roots.index, gen_roots)]
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


def greedy_dominant(datum, l, J=None):
    """Greedy reflection of labels l at the least s_j, j in J (J None:
    every simple root), with a negative label, as a loop with no memo:
    (result, the j in the order applied)."""
    J = range(datum.rank) if J is None else J
    steps = []
    while True:
        i = next((j for j in J if l[j] < 0), None)
        if i is None:
            return l, steps
        l = tuple(a - l[i] * b for a, b in zip(l, datum.cartan[i]))
        steps.append(i)


def dominant_representative(datum, v):
    """(v+, word for the shortest w with w(v) = v+ dominant), v in the span,
    as the package's greedy descent (``RootDatum._greedy``) finds them."""
    l, word = datum._greedy(datum.labels(v), {})
    return datum.from_labels(l), word


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


def inner(datum, u, v):
    """<u, v> on realization coordinates, by the Gram matrix where the datum
    has one (G2), else the standard form."""
    if datum.gram is None:
        return sum(a * b for a, b in zip(u, v, strict=True))
    return sum(u[i] * datum.gram[i][j] * v[j] for i in range(datum.dim) for j in range(datum.dim))


def eigenvalue_E(datum, mults, xi):
    """E(xi) = <xi,xi> - <rho_g,rho_g> by the Gram form."""
    rho = datum.rho(mults)
    return inner(datum, xi, xi) - inner(datum, rho, rho)


def rho_vee(datum):
    """rho^vee = (1/2) sum_{alpha > 0} alpha^vee, alpha^vee = 2 alpha / |alpha|^2."""
    return half_weighted_sum(datum, lambda a: 2 / inner(datum, a, a))


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


def vector_exp_to_json(p):
    """The ``weylalg.exp_to_json`` records of an ExpPoly, sorted by vector."""
    return [{"weight": [_q_str(x) for x in nu], "coeff": _q_str(c)}
            for nu, c in sorted(p.terms.items())]


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


def pole_free_rationals(draw, count: int) -> tuple:
    """count rationals k_i + a_i / p^(i+1), 0 < a_i < p, p a prime in 5..13,
    drawn by a hypothesis ``draw``.  No integer combination of them with
    coefficients c, |c_i| < p, not all 0, is an integer: times p^(j+1), j the
    last i with c_i != 0, it is c_j a_j mod p.  So as labels (coroot
    coefficients at most 3 through G2) or as BC coordinates (pairings xi_j,
    2 xi_j, xi_j +- xi_k) they make no z or 1 + z of a factor list 0."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    return tuple(draw(st.integers(-4, 4)) + Q(draw(st.integers(1, p - 1)), p ** (i + 1))
                 for i in range(count))


def corrupted_copy(poly, delta=Q(1, 7)):
    """poly with its lowest coefficient moved by delta: still W-invariant, and
    off the eigenspace unless poly has that one coefficient alone (P_0, and
    P_omega for omega minuscule, are one orbit sum, which the move only scales)."""
    datum = poly.datum
    coeffs = dict(poly.label_coeffs)
    mu = min(coeffs, key=lambda m: height(datum, datum.from_labels(m)))
    coeffs[mu] += delta
    return JacobiPolynomial(datum, poly.mults, poly.top, coeffs)


def term_vectors(datum, entry) -> tuple:
    """(nu, nu+, etas) of a ``PieriTermIndex`` entry, as vectors of datum."""
    return (datum.from_labels(entry.nu_labels), datum.from_labels(entry.plus_labels),
            tuple(map(datum.from_labels, entry.eta_labels)))


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
