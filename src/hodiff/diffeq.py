"""Spectral difference-equation coefficients and their exact Pieri check.

At the discrete spectral points rho_g + lambda the difference equation for
a small weight omega collapses to a Pieri identity between products and
shifted Jacobi polynomials; that identity is verified here in exact rational
arithmetic.  Poles of the coefficient products are surfaced as explicit
errors so that callers can resample multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from operator import add, sub

from .jacobi import JacobiPolynomial, jacobi_polynomial
from .rootsys import Multiplicities, RootDatum, Vector, vadd
from .weylalg import (ExpPoly, InternalConsistencyError, _is_invariant,
                      exp_to_json, expansion_E_omega, is_exact, orbit_sum,
                      require_exact)

# test hooks for the negative controls; never set in normal operation
PERTURB_U_SIGN = "u-sign"
PERTURB_V_DROP = "v-drop-pairing2"
PERTURBATIONS = (PERTURB_U_SIGN, PERTURB_V_DROP)


class PoleAtSpectralPoint(ArithmeticError):
    """A coefficient denominator vanished at the requested spectral point."""

    def __init__(self, alpha, which):
        self.alpha = alpha
        self.which = which
        root = ",".join(map(str, alpha))
        super().__init__(f"denominator {which} vanishes at root ({root})")


def term_factors(datum: RootDatum, nu: Vector, eta: Vector | None = None) -> tuple:
    """The factor list of one coefficient, as (root index, shift, g sign).

    Each entry stands for the affine factor (s+z+e*g)/(s+z) with
    z = <xi,a^vee>.  V_nu (eta None) takes s=0 over the roots pairing
    positively with nu and s=1 where the pairing is 2; U_{nu,eta} takes the
    same over the roots orthogonal to nu, by their pairing with eta, with
    e=-1 in the s=1 factor.  Root order, shift 0 before shift 1.
    """
    nu_pairs = datum.pairings(nu)
    pairs, sign = (nu_pairs, 1) if eta is None else (datum.pairings(eta), -1)
    out = []
    for i, k in enumerate(pairs):
        if k > 0 and (eta is None or nu_pairs[i] == 0):
            out.append((i, 0, 1))
            if k == 2:
                out.append((i, 1, sign))
    return tuple(out)


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


def integer_product(datum: RootDatum, factors: tuple, table: list):
    """(numerator, denominator) of a factor-list product over a
    ``scaled_table``: the products of w+e*G and of w, with w = d*(s+z)."""
    num = den = 1
    for i, s, e in factors:
        row = table[i]
        w = row[s]
        if not w:
            raise PoleAtSpectralPoint(datum.roots[i],
                                      "1+<xi,a^vee>" if s else "<xi,a^vee>")
        num *= w + row[2] if e > 0 else w - row[2]
        den *= w
    return num, den


def factor_product(datum: RootDatum, factors: tuple, z: tuple, g: tuple):
    """Product of (s+z+e*g)/(s+z) over a factor list, z exact and g float.

    s+z is formed exactly before it meets g, so the result has the same
    bits whatever the factor order around it.
    """
    total = Q(1)
    for i, s, e in factors:
        w = z[i] + 1 if s else z[i]
        if w == 0:
            raise PoleAtSpectralPoint(datum.roots[i],
                                      "1+<xi,a^vee>" if s else "<xi,a^vee>")
        total *= (w + g[i] if e > 0 else w - g[i]) / w
    return total


def _coefficient(datum: RootDatum, mults: Multiplicities, factors: tuple, xi):
    """One factor-list product at xi: on integers for exact multiplicities,
    by ``factor_product`` for float ones."""
    z, g = datum.pairings(xi), mults.root_values
    if is_exact(mults):
        return Q(*integer_product(datum, factors, scaled_table(z, g)))
    return factor_product(datum, factors, z, g)


def coeff_V(datum: RootDatum, mults: Multiplicities, nu: Vector, xi,
            perturb: str | None = None):
    """Product of (z+g)/z over roots with positive pairing against nu,
    times (1+z+g)/(1+z) over roots pairing exactly 2, with z = <xi,a^vee>."""
    return _coefficient(datum, mults,
                        perturbed(term_factors(datum, nu), perturb), xi)


def coeff_U(datum: RootDatum, mults: Multiplicities, nu: Vector, eta: Vector, xi,
            perturb: str | None = None):
    """Like coeff_V but over the stabilizer subsystem of nu, with the sign of
    g flipped in the pairing-2 factor."""
    return _coefficient(datum, mults,
                        perturbed(term_factors(datum, nu, eta), perturb), xi)


@dataclass(frozen=True)
class PieriTermIndex:
    """One nu with its shortest dominating word and stabilizer orbit of eta,
    and the factor lists of V_nu and of each U_{nu,eta}."""
    nu: Vector
    word: tuple
    nu_plus: Vector
    etas: tuple
    v_factors: tuple
    u_factors: tuple


@lru_cache(maxsize=None)
def pieri_index(datum: RootDatum, omega: Vector) -> tuple[PieriTermIndex, ...]:
    """Index set of the difference equation: nu in P(omega) with the orbit
    W_nu(w_nu^{-1} omega) attached to each."""
    omega = datum.check_dominant(omega)
    if not datum.is_small(omega):
        raise ValueError(f"{omega} is not small")
    entries = []
    for nu in datum.saturated_set(omega):
        nu_plus, word = datum.dominant_representative(nu)
        pulled = datum.apply_word(datum.inverse_word(word), omega)
        etas = datum.stabilizer_orbit(nu, pulled)
        entries.append(PieriTermIndex(
            nu=nu, word=word, nu_plus=nu_plus, etas=etas,
            v_factors=term_factors(datum, nu),
            u_factors=tuple(term_factors(datum, nu, eta) for eta in etas)))
    return tuple(entries)


def pieri_terms(datum: RootDatum, mults: Multiplicities, omega: Vector,
                lam: Vector, perturb: str | None = None):
    """Surviving (nu, eta, U*V) triples at the spectral point rho_g + lambda.

    Every factor list is evaluated on integers over one ``scaled_table`` of
    the point, and each surviving term becomes one Fraction.  Terms whose
    shift leaves the dominant cone must carry an exactly vanishing V factor;
    that vanishing is asserted, and a pole anywhere in the term list raises
    for a multiplicity resample.  Exact multiplicities are required.
    """
    require_exact(mults)
    lam = datum.check_dominant(lam)
    lam_labels = datum.labels(lam)
    table = scaled_table(datum.pairings(vadd(datum.rho(mults), lam)),
                         mults.root_values)
    out = []
    for entry in pieri_index(datum, omega):
        v_num, v_den = integer_product(
            datum, perturbed(entry.v_factors, perturb), table)
        us = [integer_product(datum, perturbed(f, perturb), table)
              for f in entry.u_factors]
        if all(a + b >= 0 for a, b in zip(lam_labels, datum.labels(entry.nu))):
            out.extend((entry.nu, eta, Q(u_num * v_num, u_den * v_den))
                       for eta, (u_num, u_den) in zip(entry.etas, us))
        elif v_num and perturb is None:
            raise InternalConsistencyError(
                f"V did not vanish at the excluded shift nu={entry.nu}, "
                f"lambda={lam}: V={Q(v_num, v_den)}")
    return out


@dataclass
class PieriReport:
    system: str
    omega: Vector
    lam: Vector
    g: tuple
    ok: bool
    n_terms: int
    residual: list = field(default_factory=list)

    def to_dict(self):
        from .weylalg import _q_str
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
    if cache is None:
        return jacobi_polynomial(datum, mults, lam)
    key = (mults.key(), lam)
    poly = cache.get(key)
    if poly is None:
        poly = cache[key] = jacobi_polynomial(datum, mults, lam)
    return poly


def pieri_residual(datum: RootDatum, e_poly: ExpPoly, poly: JacobiPolynomial,
                   shifted, top: Vector) -> ExpPoly:
    """e_poly * P_lambda - sum c P_lambda' over the (P_lambda', c) in shifted.

    Both sides are W-invariant, so the difference is compared only at the
    dominant mu <= top, in labels: the left side at mu is
    sum_a e_a c_lambda(mu - a), read from the saturated expansion of
    P_lambda; a nonzero difference at mu is expanded over the orbit of mu.
    The candidate set covers both supports: every lambda', and lambda + a for
    every dominant exponent a of the (checked) W-invariant e_poly, must be
    <= top, and P(lambda) + P(a) lies in P(lambda + a).
    """
    below = {datum.labels(mu): mu for mu in datum.dominant_below(top)}
    lam = datum.labels(poly.lam)
    e_terms = {datum.weight_labels(a): c for a, c in e_poly.terms.items()}
    if not _is_invariant(datum, e_terms):
        raise InternalConsistencyError("the spectral-side expansion is not W-invariant")
    for a in e_terms:
        if min(a) >= 0 and tuple(map(add, lam, a)) not in below:
            raise InternalConsistencyError(
                f"lambda={poly.lam} plus exponent labels {a} is not below {top}")
    for p, _c in shifted:
        if datum.labels(p.lam) not in below:
            raise InternalConsistencyError(f"shifted weight {p.lam} is not below {top}")
    p_terms = poly.label_terms()
    rhs_terms = [(p.label_terms(), c) for p, c in shifted]
    residual = {}
    for m, mu in below.items():
        r = 0
        for a, e in e_terms.items():
            c = p_terms.get(tuple(map(sub, m, a)))
            if c:
                r += e * c
        for terms, c in rhs_terms:
            v = terms.get(m)
            if v:
                r -= c * v
        if r:
            residual.update((nu, r) for nu in datum.weyl_orbit(mu))
    return ExpPoly(residual)


def verify_pieri(datum: RootDatum, mults: Multiplicities, omega: Vector,
                 lam: Vector, perturb: str | None = None,
                 cache: dict | None = None) -> PieriReport:
    """Exact comparison of E_omega * P_lambda with the coefficient sum of
    shifted polynomials; the residual is empty exactly on success."""
    terms = pieri_terms(datum, mults, omega, lam, perturb=perturb)
    poly = poly_cache_get(cache, datum, mults, lam)
    shifted = [(poly_cache_get(cache, datum, mults, vadd(lam, nu)), c)
               for nu, _eta, c in terms]
    residual = pieri_residual(datum, expansion_E_omega(datum, omega), poly,
                              shifted, vadd(lam, omega))
    return PieriReport(
        system=f"{datum.family}{datum.rank}",
        omega=omega, lam=lam, g=mults.key(),
        ok=residual.is_zero(),
        n_terms=len(terms),
        residual=exp_to_json(residual),
    )


def quasi_identity_value(datum: RootDatum, mults: Multiplicities,
                         omega: Vector, xi):
    """(1/2) sum over the orbit of (V_nu + U_{0,nu}) at a pole-free point;
    equals the orbit size for a quasi-minuscule omega."""
    if not datum.is_quasi_minuscule(omega):
        raise ValueError(f"{omega} is not quasi-minuscule")
    zero = (Q(0),) * datum.dim
    total = Q(0)
    for nu in datum.weyl_orbit(omega):
        total += coeff_V(datum, mults, nu, xi)
        total += coeff_U(datum, mults, zero, nu, xi)
    return total / 2


@dataclass
class ConsistencyReport:
    system: str
    omega: Vector
    kind: str
    ok: bool
    checks: list = field(default_factory=list)

    def to_dict(self):
        from .weylalg import _q_str
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
    zero = (Q(0),) * datum.dim
    if datum.is_minuscule(omega):
        kind = "minuscule"
        orbit = set(datum.weyl_orbit(omega))
        record("index set is the full orbit", {e.nu for e in entries} == orbit)
        record("single eta per term", all(e.etas == (e.nu,) for e in entries))
        record("all U factors equal 1",
               all(coeff_U(datum, mults, e.nu, e.nu, xi) == 1 for e in entries))
        record("E_omega equals the plain orbit sum",
               expansion_E_omega(datum, omega) == orbit_sum(datum, omega))
    elif datum.is_quasi_minuscule(omega):
        kind = "quasi-minuscule"
        orbit = set(datum.weyl_orbit(omega))
        record("index set is orbit plus origin",
               {e.nu for e in entries} == orbit | {zero})
        record("orbit terms have trivial eta and unit U",
               all(e.etas == (e.nu,) and coeff_U(datum, mults, e.nu, e.nu, xi) == 1
                   for e in entries if e.nu != zero))
        m0 = Q(len(orbit))
        record("E_omega equals orbit sum plus its value at zero",
               expansion_E_omega(datum, omega)
               == orbit_sum(datum, omega) + ExpPoly.constant(m0, datum.dim))
        record("half-sum identity equals the orbit size",
               quasi_identity_value(datum, mults, omega, xi) == m0)
    else:
        raise ValueError(f"{omega} is neither minuscule nor quasi-minuscule")
    return ConsistencyReport(
        system=f"{datum.family}{datum.rank}", omega=omega, kind=kind,
        ok=all(c["ok"] for c in checks), checks=checks)


def sample_multiplicities(datum: RootDatum, rng) -> Multiplicities:
    """One deterministic positive rational value per root orbit."""
    values = []
    for _ in datum.root_orbits:
        values.append(Q(rng.randint(1, 12), rng.randint(2, 13)))
    return Multiplicities(datum, values)


def sample_spectral_point(datum: RootDatum, rng, max_tries: int = 200):
    """Rational xi with every <xi,a^vee> away from 0 and -1 (pole-free)."""
    for _ in range(max_tries):
        xi = (Q(0),) * datum.dim
        for w in datum.fundamental_weights:
            c = Q(rng.randint(-24, 24), rng.randint(2, 9))
            xi = vadd(xi, tuple(c * x for x in w))
        if all(z not in (0, -1) for z in datum.pairings(xi)):
            return xi
    raise RuntimeError("could not sample a pole-free spectral point")


def symbolic_factors(datum: RootDatum, entry: PieriTermIndex):
    """The factor lists of one term as JSON rows (root, shift, g sign), for
    report emission: V's list and one U list per eta."""
    from .weylalg import _q_str

    def rows(factors):
        return [{"alpha": [_q_str(x) for x in datum.roots[i]], "shift": s,
                 "g_sign": e} for i, s, e in factors]

    return rows(entry.v_factors), [rows(f) for f in entry.u_factors]
