"""Spectral difference-equation coefficients and their exact Pieri check.

The coefficients A_nu = V_nu * sum_eta U_{nu,eta} are evaluated in one place,
``coefficients``, on the integer table of any exact xi.  At rho_g + lambda
(on the sample's ``Multiplicities.record``) the equation for a small omega is
a Pieri identity between products and shifted Jacobi polynomials, checked
exactly for the reduced systems and for BC_n at omega = e_1 + ... + e_l
(``nonreduced``) alike: one index and one factor-list rule, with BC's alpha/2
rule applied where support codes become factor entries (``_entries``).  A pole
raises ``PoleAtSpectralPoint`` (its root and shift), so callers can resample.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from operator import add, sub

from .jacobi import JacobiPolynomial, jacobi_polynomial
from .rootsys import Multiplicities, RootDatum, Vector, _exact, _step, weight_str
from .weylalg import (ExpPoly, InternalConsistencyError, LabelForm, _q_str, exp_to_json,
                      expansion_E_omega, expansion_labels, orbit_sum)

# test hooks for the negative controls; never set in normal operation
PERTURB_U_SIGN = "u-sign"
PERTURB_V_DROP = "v-drop-pairing2"
PERTURBATIONS = (PERTURB_U_SIGN, PERTURB_V_DROP)
MAX_SPECTRAL_DRAWS = 200   # ``sample_spectral_point`` gives up after this many


class PoleAtSpectralPoint(ArithmeticError):
    """A coefficient denominator s+<xi,a^vee> vanished at the requested spectral
    point, at the root alpha and the shift s (0 or 1), which ``which`` names."""

    def __init__(self, alpha, shift):
        self.alpha = alpha
        self.which = "1+<xi,a^vee>" if shift else "<xi,a^vee>"
        root = ",".join(map(str, alpha))
        super().__init__(f"denominator {self.which} vanishes at root ({root})")


def support_codes(row, within=None) -> list:
    """Code 2i per root index i (ascending) with row[i] > 0, then 2i + 1 if
    row[i] is 2, over every root or the roots orthogonal to a weight with
    pairing row within: a factor list as ``_entries`` decodes it."""
    out = []
    for i, k in enumerate(row):
        if k > 0 and (within is None or within[i] == 0):
            out.extend((2 * i, 2 * i + 1) if k == 2 else (2 * i,))
    return out


@cache
def _entries(halves: tuple) -> tuple:
    """V's and U's factor-list entries by ``support_codes`` code 2i + s, for
    the roots of a datum with ``half_root_index`` halves: (i, 0, 1), then
    (i, 1, 1) for V or (i, 1, -1) for U.  The alpha/2 rule: a root alpha with
    2alpha a root (BC's e_j) has no shift-0 entry (None), as the m of 2alpha
    carries that factor, and its U shift-1 entry (i, 1, -2) reads
    -(1+z+g)/(1+z).  Shared by every factor list of the datum."""
    doubled, v, u = set(halves), [], []
    for i in range(len(halves)):
        head = None if i in doubled else (i, 0, 1)
        v += head, (i, 1, 1)
        u += head, (i, 1, -2 if i in doubled else -1)
    return tuple(v), tuple(u)


def _factors(table: tuple, codes) -> tuple:
    return tuple(filter(None, map(table.__getitem__, codes)))


def term_factors(datum: RootDatum, nu: Vector, eta: Vector | None = None) -> tuple:
    """The factor list of one coefficient, as (root index, shift, g sign).

    Each entry stands for the affine factor (s+z+e*g)/(s+z) with
    z = <xi,a^vee>, or -(s+z+g)/(s+z) for e=-2.  V_nu (eta None) takes s=0
    over the roots pairing positively with nu and s=1 where the pairing is 2;
    U_{nu,eta} takes the same over the roots orthogonal to nu, by their
    pairing with eta, with e=-1 in the s=1 factor; both by the alpha/2 rule
    of ``_entries``.  Root order, shift 0 before shift 1.
    """
    v_table, u_table = _entries(datum.half_root_index)
    nu_pairs = datum.pairings(nu)
    if eta is None:
        return _factors(v_table, support_codes(nu_pairs))
    return _factors(u_table, support_codes(datum.pairings(eta), nu_pairs))


def perturbed(factors: tuple, perturb: str | None) -> tuple:
    """A factor list under a negative-control edit: v-drop-pairing2 drops
    V's shift-1 entries, u-sign flips the g sign of U's shift-1 entries."""
    if perturb == PERTURB_V_DROP:
        return tuple(f for f in factors if f[1:] != (1, 1))
    if perturb == PERTURB_U_SIGN:
        return tuple((f[0], 1, 1) if f[1:] == (1, -1) else f for f in factors)
    return factors


def scaled_table(z: tuple, g: tuple) -> list:
    """Per root the integers (d*z, d*(z+1), d*g), d the lcm of every
    denominator of the exact z and g, so that each affine factor
    (s+z+e*g)/(s+z) reads (w+e*G)/w on integers."""
    d = math.lcm(*(x.denominator for x in z), *(x.denominator for x in g))
    table = []
    for x, y in zip(z, g):
        w = x.numerator * (d // x.denominator)
        table.append((w, w + d, y.numerator * (d // y.denominator)))
    return table


def point_table(datum: RootDatum, mults: Multiplicities, lam: tuple) -> list:
    """The ``scaled_table`` of rho_g + lambda on the sample's d (lambda pairs integrally)."""
    record = mults.record()
    return [(z + record.d * k, z + record.d * (k + 1), m)
            for (z, m, _g), k in zip(record.rows, datum.label_pairings(lam))]


def integer_product(datum: RootDatum, factors: tuple, table: list):
    """(numerator, denominator) of a factor-list product over a
    ``scaled_table``: the products of w+e*G (-w-G for e=-2) and of w, with
    w = d*(s+z)."""
    num = den = 1
    for i, s, e in factors:
        row = table[i]
        w = row[s]
        if not w:
            raise PoleAtSpectralPoint(datum.roots[i], s)
        num *= w + row[2] if e > 0 else w - row[2] if e == -1 else -w - row[2]
        den *= w
    return num, den


def float_table(z: tuple) -> list:
    """Per root the floats of z and z+1, z = <xi,a^vee> exact, each formed
    exactly and rounded once, or None where it is exactly 0 (a pole)."""
    return [tuple(float(w) if w else None for w in (x, x + 1)) for x in z]


def factor_product(datum: RootDatum, factors: tuple, table: list, g: tuple) -> float:
    """Product of the factors of a list (``term_factors``), on a ``float_table``
    and float g: the bits of the same product with s+z exact, since a
    Fraction meets a float only as its rounded value."""
    total = 1.0
    for i, s, e in factors:
        w = table[i][s]
        if w is None:
            raise PoleAtSpectralPoint(datum.roots[i], s)
        total *= (w + g[i] if e > 0 else w - g[i] if e == -1 else -w - g[i]) / w
    return total


def coeff_V(datum: RootDatum, mults: Multiplicities, nu: Vector, xi):
    """Product of (z+g)/z over roots with positive pairing against nu, times
    (1+z+g)/(1+z) over roots pairing exactly 2, z = <xi,a^vee> (float xi read exactly)."""
    table = scaled_table(datum.pairings(tuple(map(Q, xi))), mults.factor_values)
    return Q(*integer_product(datum, term_factors(datum, nu), table))


def coeff_U(datum: RootDatum, mults: Multiplicities, nu: Vector, eta: Vector, xi):
    """Like coeff_V but over the stabilizer subsystem of nu, with the sign of
    g flipped in the pairing-2 factor."""
    table = scaled_table(datum.pairings(tuple(map(Q, xi))), mults.factor_values)
    return Q(*integer_product(datum, term_factors(datum, nu, eta), table))


@dataclass(frozen=True)
class PieriTermIndex:
    """One nu of P(omega) on labels, its shortest word w with w nu = nu+, nu+,
    the etas of W_nu(w^{-1} omega) sorted, and the lists of V_nu and each U_{nu,eta}."""
    nu_labels: tuple
    word: tuple
    plus_labels: tuple
    eta_labels: tuple
    v_factors: tuple
    u_factors: tuple


IndexCacheInfo = namedtuple("IndexCacheInfo", "hits misses")
_index_counts = {"hits": 0, "misses": 0}


def pieri_index(datum: RootDatum, omega: Vector) -> tuple[PieriTermIndex, ...]:
    """Index set of the difference equation: nu in P(omega) with the orbit
    W_nu(w_nu^{-1} omega) attached to each and the factor lists of nu and
    eta, in one walk down each W-orbit of P(omega), parents first
    (``orbit_labels``).  W_nu(w^{-1} omega) = w^{-1} W_J omega for W_J the
    stabilizer of nu+ (omega is dominant), so W_J omega is walked at nu+
    (``parabolic_orbit``) and the etas of s_j u are s_j of those of u.
    Memoized on the datum under omega's labels (``index_memo``);
    ``pieri_index.cache_info()`` counts that memo's hits and misses over
    every datum.  On BC_n at omega = e_1 + ... + e_l the nu are the signed
    subsets e_{eps J}, |J| <= l, and the etas of nu the e_{eps J} + e_{eps' I}
    over the signed (l - |J|)-subsets I of the complement K of J: V_nu and
    the U lists of the BC equation, whose U_{K,l-|J|} is the sum over the
    etas, the sign (-1)^{l-|J|} in the e=-2 entries of the alpha/2 rule."""
    top = datum.small_labels(omega)
    found = datum.index_memo.get(top)
    if found is not None:
        _index_counts["hits"] += 1
        return found
    _index_counts["misses"] += 1
    # ``support_codes`` from the pairing rows of omega and each nu+ only: s_j
    # permutes the roots (``root_perms``), so s_j u has u's codes moved by perm_j
    perms = [tuple(2 * p + s for p in perm for s in (0, 1)) for perm in datum.root_perms]
    omega_row, cartan, words, sets = datum.label_pairings(top), datum.cartan, {}, {}
    for plus in datum.below_labels(top):
        for l, step in datum.orbit_labels(plus).items():
            if step is None:   # own: eta -> its U codes, parents first
                row, own = datum.label_pairings(l), {}
                v = support_codes(row)
                for x, up in datum.parabolic_orbit(plus, top).items():
                    own[x] = (support_codes(omega_row, row) if up is None
                              else sorted(map(perms[up[1]].__getitem__, own[up[0]])))
            else:
                u, j = step
                move = perms[j].__getitem__
                v = sorted(map(move, sets[u][2]))
                own = {_step(x, x[j], cartan[j]): sorted(map(move, c))
                       for x, c in sets[u][3].items()}
            sets[l] = (*datum._greedy(l, words), v, own)
    (v_table, u_table), key, entries = _entries(datum.half_root_index), cache(datum._vector_key), []
    for l in sorted(sets, key=key):
        plus, word, v, own = sets[l]
        order = tuple(sorted(own, key=key))
        entries.append(PieriTermIndex(l, word, plus, order, _factors(v_table, v),
                                      tuple(_factors(u_table, own[x]) for x in order)))
    found = datum.index_memo[top] = tuple(entries)
    return found


pieri_index.cache_info = lambda: IndexCacheInfo(**_index_counts)


def coefficients(datum: RootDatum, entries, table: list, perturb: str | None):
    """A_nu = V_nu * sum_eta U_{nu,eta} on an integer table (``point_table``
    or ``scaled_table``): per ``PieriTermIndex`` entry, (entry, V_nu's
    ``integer_product``, a lazy map of the U_{nu,eta} products in eta order),
    every list ``perturbed``.  A U list is multiplied, and its pole raised,
    only when read."""
    def product(factors):
        return integer_product(datum, perturbed(factors, perturb), table)

    for entry in entries:
        yield entry, product(entry.v_factors), map(product, entry.u_factors)


def pieri_terms(datum: RootDatum, mults: Multiplicities, omega: Vector,
                lam: tuple, perturb: str | None):
    """Surviving (entry, eta labels, U*V) triples at the spectral point
    rho_g + lambda, for lam the labels of a dominant lambda and entry the
    ``PieriTermIndex`` of nu.

    The ``coefficients`` of omega's index on the ``point_table`` of the
    point, each surviving term one Fraction.  Terms whose shift leaves the
    dominant cone must carry an exactly vanishing V factor; that vanishing is
    asserted, and a pole anywhere in the term list raises for a multiplicity
    resample; with no zero in the table (no pole), an excluded term's U lists
    are not read.  Exact multiplicities are required.
    """
    table = point_table(datum, mults, lam)
    poles = not all(w and w1 for w, w1, _g in table)
    out = []
    for entry, (v_num, v_den), us in coefficients(datum, pieri_index(datum, omega), table, perturb):
        kept = all(a + b >= 0 for a, b in zip(lam, entry.nu_labels))
        if poles:
            us = list(us)
        if kept:
            out.extend((entry, eta, Q(u_num * v_num, u_den * v_den))
                       for eta, (u_num, u_den) in zip(entry.eta_labels, us))
        elif v_num and perturb is None:
            nu = weight_str(datum.from_labels(entry.nu_labels))
            raise InternalConsistencyError(f"V did not vanish at the excluded shift nu={nu}, "
                                           f"lambda labels {lam}: V={Q(v_num, v_den)}")
    return out


@dataclass
class PieriReport:
    system: str
    omega: Vector
    lam: Vector
    g: tuple
    ok: bool
    n_terms: int
    residual: list

    def to_dict(self):
        return {
            "system": self.system,
            "omega": [_q_str(x) for x in self.omega],
            "lambda": [_q_str(x) for x in self.lam],
            "g": [str(v) for v in self.g],
            "status": "pass" if self.ok else "fail",
            "n_terms": self.n_terms,
            "residual": self.residual,
        }


def poly_cache_get(cache, datum, mults, lam) -> JacobiPolynomial:
    key = (mults.values, lam)
    poly = cache.get(key)
    if poly is None:
        poly = cache[key] = jacobi_polynomial(datum, mults, lam)
    return poly


def pieri_residual(datum: RootDatum, e_form: LabelForm, poly: JacobiPolynomial,
                   shifted, top: tuple) -> dict:
    """e_poly * P_lambda - sum c P_lambda' over the (P_lambda', c) in shifted,
    keyed by labels (empty exactly when the identity holds), for e_form the
    ``LabelForm`` of e_poly (TypeError for anything else) and top the labels
    of a dominant weight.

    Both sides are W-invariant, so the difference is compared only at the
    dominant mu <= top, in integers on the cleared terms (d, N) of each
    polynomial: L times it is sum_a e_a N_lambda(mu - a) L/d_lambda -
    sum c_num L/(c_den d') N'(mu), L the lcm of d_lambda and every c_den d'.
    A nonzero value is divided by L and set on each label of the orbit of mu
    (``orbit_labels``).  The candidate set covers both supports: every
    lambda', and lambda + a for every dominant exponent a of e_poly, must be
    <= top, and P(lambda) + P(a) lies in P(lambda + a).
    """
    if not isinstance(e_form, LabelForm):
        raise TypeError("E must be a LabelForm, whose invariance is checked")
    below = datum.below_labels(top)
    lam = poly.top
    for a in e_form.terms:
        if min(a) >= 0 and tuple(map(add, lam, a)) not in below:
            raise InternalConsistencyError(
                f"lambda labels {poly.top} plus exponent labels {a} are not below {top}")
    for p, _c in shifted:
        if p.top not in below:
            raise InternalConsistencyError(f"shifted labels {p.top} are not below {top}")
    d_lam, p_terms = poly.cleared_terms()
    rhs = [(p.cleared_terms(), c) for p, c in shifted]
    L = math.lcm(d_lam, *(c.denominator * d for (d, _t), c in rhs))
    left = L // d_lam
    rhs = [(terms, c.numerator * (L // (c.denominator * d))) for (d, terms), c in rhs]
    residual = {}
    for m in below:
        if (pairs := e_form.shifts.get(m)) is None:
            pairs = e_form.shifts[m] = [(tuple(map(sub, m, a)), e) for a, e in e_form.terms.items()]
        r = 0
        for l, e in pairs:
            c = p_terms.get(l)
            if c:
                r += e * c
        r *= left
        for terms, f in rhs:
            v = terms.get(m)
            if v:
                r -= f * v
        if r:
            residual.update(dict.fromkeys(datum.orbit_labels(m), Q(r, L)))
    return residual


def pieri_check(datum: RootDatum, mults: Multiplicities, omega: Vector, lam: Vector,
                e_form: LabelForm, perturb: str | None, cache: dict) -> tuple:
    """(terms, residual): the ``pieri_terms`` of omega at the dominant lambda
    and the label-keyed ``pieri_residual`` of e_form times P_lambda against
    them, below lambda + omega.  lambda's labels are read once, and each
    shift is their sum with the labels of nu.  Each distinct shift is built
    once, in cache, and asked of it once, through a map local to the call
    keyed by the labels of nu; cache keys stay (the multiplicities' values,
    lambda's ``Weight``)."""
    top = datum.dominant_labels(lam)
    terms = pieri_terms(datum, mults, omega, top, perturb)
    poly = poly_cache_get(cache, datum, mults, datum.from_labels(top))
    polys = {l: poly_cache_get(cache, datum, mults, datum.from_labels(tuple(map(add, top, l))))
             for l in {e.nu_labels: None for e, _eta, _c in terms}}
    shifted = [(polys[e.nu_labels], c) for e, _eta, c in terms]
    return terms, pieri_residual(datum, e_form, poly, shifted,
                                 tuple(map(add, top, datum.dominant_labels(omega))))


def verify_pieri(datum: RootDatum, mults: Multiplicities, omega: Vector,
                 lam: Vector, perturb: str | None = None,
                 cache: dict | None = None) -> PieriReport:
    """Exact comparison of E_omega * P_lambda with the coefficient sum of
    shifted polynomials (``pieri_check``); the residual is empty exactly on
    success.  cache defaults to a dict local to the call."""
    terms, residual = pieri_check(datum, mults, omega, lam, expansion_labels(datum, omega),
                                  perturb, {} if cache is None else cache)
    return PieriReport(
        system=datum.name,
        omega=omega, lam=lam, g=mults.values,
        ok=not residual,
        n_terms=len(terms),
        residual=exp_to_json(datum, residual),
    )


def quasi_identity_value(datum: RootDatum, mults: Multiplicities,
                         omega: Vector, xi):
    """(1/2) sum_nu A_nu at a pole-free point xi, the order-0 sum of the
    ``coefficients`` of omega on one ``scaled_table``: for a quasi-minuscule
    omega the sum over the orbit of (V_nu + U_{0,nu}), as V_0 = 1 and each
    orbit term's U is 1, which equals the orbit size."""
    if not datum.is_quasi_minuscule(omega):
        raise ValueError(f"{weight_str(omega)} is not quasi-minuscule")
    table = scaled_table(datum.pairings(xi), mults.factor_values)
    return sum(Q(*v) * sum(Q(*u) for u in us) for _e, v, us
               in coefficients(datum, pieri_index(datum, omega), table, None)) / 2


@dataclass
class ConsistencyReport:
    system: str
    omega: Vector
    kind: str
    ok: bool
    checks: list

    def to_dict(self):
        return {"system": self.system, "omega": [_q_str(x) for x in self.omega],
                "kind": self.kind, "status": "pass" if self.ok else "fail",
                "checks": self.checks}


def specialization_consistency(datum: RootDatum, mults: Multiplicities,
                               omega: Vector, xi) -> ConsistencyReport:
    """Check that the general term list collapses to the minuscule or
    quasi-minuscule special forms at a rational spectral point."""
    checks = []

    def record(name, ok):
        checks.append({"check": name, "ok": bool(ok)})

    entries = pieri_index(datum, omega)
    orbit = datum.orbit_labels(datum.dominant_labels(omega)).keys()
    table = scaled_table(datum.pairings(xi), mults.factor_values)
    unit = {e.nu_labels: all(n == d for n, d in us)   # per nu: every U is 1
            for e, _v, us in coefficients(datum, entries, table, None)}

    if datum.is_minuscule(omega):
        kind = "minuscule"
        record("index set is the full orbit", unit.keys() == orbit)
        record("single eta per term", all(e.eta_labels == (e.nu_labels,) for e in entries))
        record("all U factors equal 1", all(unit.values()))
        record("E_omega equals the plain orbit sum",
               expansion_E_omega(datum, omega) == orbit_sum(datum, omega))
    elif datum.is_quasi_minuscule(omega):
        kind = "quasi-minuscule"
        record("index set is orbit plus origin", unit.keys() == orbit | {(0,) * datum.rank})
        record("orbit terms have trivial eta and unit U",
               all(e.eta_labels == (e.nu_labels,) and unit[e.nu_labels]
                   for e in entries if any(e.nu_labels)))
        m0 = Q(len(orbit))
        record("E_omega equals orbit sum plus its value at zero",
               expansion_E_omega(datum, omega)
               == orbit_sum(datum, omega) + ExpPoly.constant(m0, datum.dim))
        record("half-sum identity equals the orbit size",
               quasi_identity_value(datum, mults, omega, xi) == m0)
    else:
        raise ValueError(f"{weight_str(omega)} is neither minuscule nor quasi-minuscule")
    return ConsistencyReport(system=datum.name, omega=omega, kind=kind,
                             ok=all(c["ok"] for c in checks), checks=checks)


def sample_multiplicities(datum: RootDatum, rng) -> Multiplicities:
    """One deterministic positive rational value per root orbit."""
    return Multiplicities(datum, [Q(rng.randint(1, 12), rng.randint(2, 13))
                                  for _ in datum.root_orbits])


def sample_spectral_point(datum: RootDatum, rng):
    """Rational xi = sum_i c_i omega_i with every <xi,a^vee> away from 0 and
    -1 (pole-free): the labels c_i drawn (numerator, then denominator), their
    ``label_pairings`` tested, xi built once by ``vector_of`` and carrying
    that row, so neither memo of the datum keeps a sampled point."""
    for _ in range(MAX_SPECTRAL_DRAWS):
        c = tuple(Q(rng.randint(-24, 24), rng.randint(2, 9)) for _ in range(datum.rank))
        row = datum.label_pairings(c)
        if all(z not in (0, -1) for z in row):
            xi = datum.vector_of(tuple(map(_exact, c)))
            xi.row = row
            return xi
    raise RuntimeError("could not sample a pole-free spectral point")
