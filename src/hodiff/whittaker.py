"""Confluent strong-coupling limit: coefficients, limits, rank-one oracle.

The limiting coefficients read the factor lists of ``diffeq.term_factors``
or ``pieri_index`` and replace each (s+z+-g)/(s+z) by +-eta/(s+z) with
eta = sqrt(2/|alpha|^2): each limit is one exact square root of a rational,
a float xi read as its binary value, rounded once where a float check
reads it.  The couplings g(t) of the strong-coupling branch come from
``couplings_at``, one float per root.
The rank-one eigenfunction of the open Toda chain is evaluated from its
closed form, the Macdonald function 2 K_zeta(2 e^{-u/2}), at extended
precision; the difference equations are checked against it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, field
from fractions import Fraction as Q

import mpmath
from mpmath.libmp import to_fixed

from .diffeq import coeff_U, coeff_V  # noqa: F401 -- kept beside their limits
from .diffeq import PoleAtSpectralPoint, factor_product, float_table, pieri_index, term_factors
from .rootsys import Multiplicities, RootDatum, Vector, build_root_system, vneg, weight_str
from .weylalg import _q_str, expansion_labels


def _square_part(n: int) -> tuple[int, int]:
    """n = a^2 * s with s squarefree; returns (a, s) by trial division."""
    a, s, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            a *= d
        if n % d == 0:
            n //= d
            s *= d
        d += 1
    return a, s * n


class SqrtRational:
    """Exact value coeff * sqrt(rad) with rational coeff and squarefree rad."""

    __slots__ = ("coeff", "rad")

    def __init__(self, coeff, rad):
        coeff, rad = Q(coeff), Q(rad)
        if rad <= 0:
            raise ValueError("radicand must be positive")
        m = rad.numerator * rad.denominator
        a, s = _square_part(m)
        object.__setattr__(self, "coeff", coeff * Q(a, rad.denominator))
        object.__setattr__(self, "rad", s)

    def __setattr__(self, *args):
        raise AttributeError("SqrtRational is immutable")

    def is_rational(self) -> bool:
        return self.rad == 1 or self.coeff == 0

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            return SqrtRational(self.coeff * other.coeff, Q(self.rad * other.rad))
        return SqrtRational(self.coeff * Q(other), Q(self.rad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SqrtRational):
            inv = SqrtRational(Q(1, other.coeff * other.rad), Q(other.rad))
            return self * inv
        return SqrtRational(self.coeff / Q(other), Q(self.rad))

    def __neg__(self):
        return SqrtRational(-self.coeff, Q(self.rad))

    def __eq__(self, other):
        if isinstance(other, SqrtRational):
            return self.coeff == other.coeff and (self.rad == other.rad
                                                  or self.coeff == 0)
        return self.is_rational() and self.coeff == other

    def __hash__(self):
        return hash((self.coeff, self.rad if self.coeff else 1))

    def __float__(self):
        return float(self.coeff) * math.sqrt(self.rad)

    def __repr__(self):
        return f"{self.coeff}*sqrt({self.rad})"


def _inner_float(datum: RootDatum, u, x) -> float:
    xf = [float(v) for v in x]
    if datum.gram is None:
        return sum(float(a) * b for a, b in zip(u, xf))
    return sum(float(u[i]) * float(datum.gram[i][j]) * xf[j]
               for i in range(datum.dim) for j in range(datum.dim))


def ebar(datum: RootDatum, omega: Vector, x) -> float:
    return math.exp(_inner_float(datum, omega, x))


def g_of_t(eta, t: float) -> float:
    """Positive branch g > 1 of g(g-1) = eta^2 e^t."""
    eta2 = float(eta) ** 2
    return (1.0 + math.sqrt(1.0 + 4.0 * eta2 * math.exp(t))) / 2.0


def couplings_at(datum: RootDatum, t: float) -> tuple:
    """g(t) per root, in the order of ``roots``: the strong-coupling branch
    ``g_of_t`` at the eta of the root's orbit."""
    g = [g_of_t(eta, t) for eta in orbit_etas(datum)]
    return tuple(g[k] for k in datum.root_orbit_ids)


def orbit_etas(datum: RootDatum) -> tuple:
    """eta = sqrt(2 / |alpha|^2) per root orbit, in the order of
    ``root_orbits``; 1 where |alpha|^2 = 2."""
    return tuple(SqrtRational(1, 2 / norm) for norm in datum.orbit_norms)


def limit_table(datum: RootDatum, z: tuple) -> list:
    """Per root, for s = 0 and 1, the integers (numerator, denominator,
    radicand) of eta/(s+z) at the exact pairings z, or None where s+z = 0."""
    etas = orbit_etas(datum)
    return [tuple((eta.coeff.numerator * w.denominator,
                   eta.coeff.denominator * w.numerator, eta.rad) if w else None
                  for w in (x, x + 1))
            for x, eta in zip(z, (etas[k] for k in datum.root_orbit_ids))]


def limit_product(datum: RootDatum, factors: tuple, table: list) -> SqrtRational:
    """Product of +-eta/(s+z), by the sign of e, over a factor list of
    ``diffeq.term_factors``: the g -> oo limit of each factor over g.  One
    SqrtRational of the integer products of a ``limit_table`` of xi."""
    num = den = rad = 1
    for i, s, e in factors:
        w = table[i][s]
        if not w:
            raise PoleAtSpectralPoint(datum.roots[i], s)
        num, den, rad = (num if e > 0 else -num) * w[0], den * w[1], rad * w[2]
    return SqrtRational(Q(num, den), rad)


def coeff_Vbar(datum: RootDatum, nu: Vector, xi):
    """Limit shift coefficient: product of eta/z over positive pairings and
    eta/(1+z) over pairings equal to 2, exact (a float entry of xi read as
    its exact binary value)."""
    return limit_product(datum, term_factors(datum, nu),
                         limit_table(datum, datum.pairings(tuple(map(Q, xi)))))


# -- the three coefficient limits ---------------------------------------------

CONFLUENCE_T = (10.0, 20.0, 30.0)   # the couplings t verify_confluence steps through
CONFLUENCE_TOL = 1e-6               # the bound on its deviations at the last t


@dataclass
class ConfluenceReport:
    """Outcome of ``verify_confluence``.  A row holds its deviations as packed
    doubles (an ``array('d')``) in ``t_list`` order; ``to_dict`` makes the
    {"t", "deviation"} pairs."""
    system: str
    omega: Vector
    t_list: tuple
    tol: float
    rows: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r["ok"] for r in self.rows)

    def to_dict(self):
        return {"system": self.system, "omega": [_q_str(x) for x in self.omega],
                "t": list(self.t_list), "tol": self.tol,
                "status": "pass" if self.ok else "fail",
                "rows": [dict(row, deviations=[{"t": t, "deviation": d} for t, d in zip(
                    self.t_list, row["deviations"], strict=True)]) for row in self.rows]}


def _rel(diff, scale):
    """diff / scale, or NaN (a failed row) at scale 0; an inf scale has a NaN ratio."""
    return diff / scale if scale else math.nan


def _deviation_row(family, label, devs, tol, limit):
    ok = devs[-1] <= tol and all(
        later < earlier or later < 1e-12
        for earlier, later in zip(devs, devs[1:]))
    return {"family": family, "term": label, "ok": ok, "limit": limit,
            "deviations": array("d", devs)}


def verify_confluence(datum: RootDatum, omega: Vector, xi, x,
                      t_list=CONFLUENCE_T, tol=CONFLUENCE_TOL) -> ConfluenceReport:
    """Deviation of the scaled finite-coupling data from its limit.

    Three families are checked for each term of the index set: the shift
    polynomial against the single exponential, the V products against the
    eta/z products, and the U products against their signed limits; each
    with the exponential rescaling by the dominant growth rate.  Deviations
    must decrease along t_list, which must be nonempty, finite and strictly
    increasing (else ValueError), and end below tol; the base point x has
    ``datum.dim`` coordinates.  The factor lists of ``pieri_index`` are
    evaluated on one ``float_table`` of xi's exact pairings (a float entry
    read as its binary value, as ``coeff_Vbar`` reads it), at g(t) formed
    once per t.  The growth rate <nu, rho^vee> is half the sum of nu's
    positive-root pairings (rho^vee is half the sum of the positive
    coroots), read from the memoized pairing row of nu's labels.
    """
    if datum.family == "BC":
        raise ValueError("the confluent limit is defined for reduced systems")
    small = datum.from_labels(datum.small_labels(omega))
    if len(x) != datum.dim:
        raise ValueError(f"x: need {datum.dim} base-point coordinates, got {len(x)}")

    def rate_of(l) -> Q:
        pairs = datum.label_pairings(l)
        return Q(sum(pairs[i] for i in datum.positive_indices), 2)

    t_list = tuple(float(t) for t in t_list)
    if not t_list or not all(map(math.isfinite, t_list)):
        raise ValueError(f"t_list {list(t_list)} is empty or not finite")
    if any(later <= earlier for earlier, later in zip(t_list, t_list[1:])):
        raise ValueError(f"t_list {list(t_list)} is not strictly increasing")
    report = ConfluenceReport(system=datum.name,
                              omega=small, t_list=t_list, tol=tol)

    rate_omega = rate_of(datum.labels(small))
    terms = [(_inner_float(datum, datum.from_labels(l), x),
              float(rate_of(l) - rate_omega), float(c))
             for l, c in expansion_labels(datum, omega).terms.items()]
    limit = ebar(datum, omega, x)
    devs = []
    for t in t_list:
        val = 0.0
        for a, b, c in terms:
            val += c * math.exp(a + t * b)
        devs.append(_rel(abs(val - limit), abs(limit)))
    report.rows.append(_deviation_row("E", "E_omega", devs, tol, limit))

    z = datum.pairings(tuple(map(Q, xi)))
    table, limits = float_table(z), limit_table(datum, z)
    g_list = [couplings_at(datum, t) for t in t_list]
    for entry in pieri_index(datum, omega):
        rate_plus = rate_of(entry.plus_labels)
        rate_u = float(rate_omega - rate_plus)
        nu = weight_str(datum.from_labels(entry.nu_labels))
        rows = [("V", f"nu={nu}", entry.v_factors, float(rate_plus))]
        rows += [("U", f"nu={nu}, eta={weight_str(datum.from_labels(eta))}", factors, rate_u)
                 for eta, factors in zip(entry.eta_labels, entry.u_factors)]
        for family, label, factors, rate in rows:
            bar = float(limit_product(datum, factors, limits))
            devs = [_rel(abs(math.exp(-t * rate) * factor_product(datum, factors, table, g)
                             - bar), abs(bar)) for t, g in zip(t_list, g_list)]
            report.rows.append(_deviation_row(family, label, devs, tol, bar))
    return report


def log_normalization_constant(datum: RootDatum, t: float) -> float:
    """log of the gamma-ratio prefactor of the dressed limit, at coupling t.

    Inspection helper only: the constant itself overflows once t is large
    (the multiplicities grow like e^{t/2}), so it is reported in log form.
    """
    mults = Multiplicities(datum, [Q(g_of_t(eta, t)) for eta in orbit_etas(datum)])
    rho_pairs = datum.pairings(datum.rho(mults))
    total = 0.0
    for i in datum.positive_indices:
        z = float(rho_pairs[i])
        g = mults.root_values[i]
        total += math.lgamma(z) + math.lgamma(g) - math.lgamma(z + g)
    return total


# -- growth-rate identity -------------------------------------------------------

def _homogeneity_sums(datum: RootDatum, omega: Vector, mu: Vector) -> tuple:
    """Per root orbit, the sums of <mu,a^vee> and <omega,a^vee> over a > 0 with <mu,a^vee> > 0."""
    lhs, rhs = [0] * len(datum.root_orbits), [0] * len(datum.root_orbits)
    mu_pairs, omega_pairs = datum.pairings(mu), datum.pairings(omega)
    for i in datum.positive_indices:
        if mu_pairs[i] > 0:
            lhs[datum.root_orbit_ids[i]] += mu_pairs[i]
            rhs[datum.root_orbit_ids[i]] += omega_pairs[i]
    return lhs, rhs


def homogeneity_identity(datum: RootDatum, omega: Vector, mu: Vector) -> bool:
    """Exact orbit-wise equality of the two growth-rate sums: for dominant
    mu < omega with omega small, they agree orbit by orbit, hence for every
    orbit-constant multiplicity assignment (``_homogeneity_sums``)."""
    omega = datum.from_labels(datum.small_labels(omega))
    lhs, rhs = _homogeneity_sums(datum, omega, datum.check_dominant(mu))
    return lhs == rhs


def homogeneity_gap(datum: RootDatum, mults: Multiplicities,
                    omega: Vector, mu: Vector) -> Q:
    """The weighted difference sum_o g_o (lhs_o - rhs_o) of ``_homogeneity_sums``."""
    lhs, rhs = _homogeneity_sums(datum, omega, mu)
    return sum((g * (a - b) for g, a, b in zip(mults.values, lhs, rhs)), Q(0))


# -- rank-one oracle -------------------------------------------------------------

U_RANGE = (-8.0, 50.0)   # the u-interval the rank-one oracle accepts
ORACLE_DPS = 20          # mpmath digits of the closed form after cancellation
U_GRID = tuple(-2.0 + 0.2 * i for i in range(21))   # the rank-one check's grid
U_ASYM = 14.0            # where it compares phi with the two-term asymptotics
GUARD_BITS = 40          # bits the fixed-point 0F1 sums carry past the working precision


def _bessel_sums(z: int, a: int, wp: int) -> tuple:
    """0F1(1-a; z) and 0F1(1+a; z) in one pass, all as integers over 2^wp
    (z, a > 0): term k is term k-1 times z/(k(k-+a)), until both are 0."""
    one = 1 << wp
    s_minus = s_plus = t_minus = t_plus = one
    sign, k = 1, 0
    while t_minus or t_plus:
        k += 1
        d = k * one - a
        # (1-a)_k's sign apart: // on a negative t_minus would stick at -1
        sign = -sign if d < 0 else sign
        t_minus = t_minus * z // (k * abs(d))
        t_plus = t_plus * z // (k * (k * one + a))
        s_minus, s_plus = s_minus + sign * t_minus, s_plus + t_plus
    return s_minus, s_plus


class WhittakerA1:
    """Decaying rank-one Toda eigenfunction, spectral parameter zeta.

    The class-one Whittaker function of the open Toda chain on A1 is the
    Macdonald function  phi(u) = 2 K_a(2 e^{-u/2}),  a = |zeta|.  It solves
    phi'' = (e^{-u} + zeta^2/4) phi, decays into the barrier u -> -inf, and
    its small-argument expansion starts with the symmetric two-chamber
    asymptotic Gamma(a) e^{au/2} + Gamma(-a) e^{-au/2} (the simply laced
    rank-one system has eta = 1).  zeta enters only through |zeta|, so the
    functions for zeta and -zeta are the same.

    log phi is evaluated only at the given points, which must lie in
    U_RANGE, by the reflection formula K_a = pi/(2 sin pi a) (I_-a - I_a)
    with I_{+-a} from 0F1(1-+a; e^-u) (DLMF 10.27.4, 10.25.2), at ORACLE_DPS
    + 6 digits plus the 2x log10(e) + log10(1/|sin pi a|) the difference
    loses at the largest x = 2 e^{-u/2}: both sums in one fixed-point pass
    of ``_bessel_sums``, GUARD_BITS finer, each rounded to nearest back.  An
    integer order, 0/0 there, is moved by 10^-(ORACLE_DPS+10).
    """

    def __init__(self, zeta: float, points):
        a = abs(float(zeta))
        lo, hi = U_RANGE
        u_eval = {float(u) for u in points}
        if not all(lo <= u <= hi for u in u_eval):
            raise ValueError(f"points must lie in [{lo}, {hi}]")
        sin_a = abs(float(mpmath.sinpi(a)))
        shift = 0 if sin_a else ORACLE_DPS + 10
        x_max = 2.0 * math.exp(-min(u_eval, default=hi) / 2.0)
        lost = 2.0 * x_max * math.log10(math.e) + (shift or -math.log10(sin_a))
        with mpmath.workdps(ORACLE_DPS + math.ceil(lost) + 6):
            a_mp = mpmath.mpf(a) + (mpmath.mpf(10) ** -shift if shift else 0)
            scale = mpmath.pi / mpmath.sinpi(a_mp)
            r_minus, r_plus = mpmath.rgamma(1 - a_mp), mpmath.rgamma(1 + a_mp)
            wp = mpmath.mp.prec + GUARD_BITS
            self._log_phi = {}
            for u in u_eval:
                z, e = mpmath.exp(-u), mpmath.exp(a_mp * u / 2)
                i_minus, i_plus = (mpmath.ldexp(s, -wp) for s in _bessel_sums(
                    to_fixed(z._mpf_, wp), to_fixed(a_mp._mpf_, wp), wp))
                phi = scale * (e * r_minus * i_minus - r_plus * i_plus / e)
                self._log_phi[u] = float(mpmath.log(phi)) if phi > 0 else math.nan

    def log_value(self, u: float) -> float:
        if u not in self._log_phi:
            raise ValueError(f"u={u} is not a requested point")
        return self._log_phi[u]

    def value(self, u: float) -> float:
        return math.exp(self.log_value(u))


@dataclass
class RankOneWhittakerReport:
    """Outcome of ``rank_one_whittaker_check``.

    winv_deviation is 0.0 by construction: the oracle is even in zeta, so
    the -zeta construction is the zeta one.  The field is kept so the report
    schema stays fixed, as is matching_radius, the upper end of U_RANGE.
    asymptotic_deviation compares phi(U_ASYM) with the two-term form
    Gamma(a) e^{au/2} + Gamma(-a) e^{-au/2}.
    """
    zeta: float
    matching_radius: float
    max_residual_min: float
    max_residual_qmin: float
    winv_deviation: float
    asymptotic_deviation: float
    rows: list = field(default_factory=list)

    def ok(self, tol_de, tol_winv, tol_asym):
        return (self.max_residual_min <= tol_de
                and self.max_residual_qmin <= tol_de
                and self.winv_deviation <= tol_winv
                and self.asymptotic_deviation <= tol_asym)

    def to_dict(self):
        return asdict(self)


def rank_one_whittaker_check(zeta: float, datum: RootDatum | None = None
                             ) -> RankOneWhittakerReport:
    """Drive the rank-one difference equations against the closed-form oracle.

    Checks, on the grid U_GRID of u = <x, alpha^vee>: the single-shift
    identity with coefficients +-1/zeta, the double-shift rewrite for the
    quasi-minuscule weight, agreement of the constructions from zeta and
    -zeta, and the two-chamber asymptotics at U_ASYM.

    |zeta| must lie at least 0.05 from every integer: Gamma(-a) and the
    1/zeta coefficients degenerate there, while the oracle itself is finite
    at integer order.  One oracle is built per shift s = -2, ..., 2.  The
    oracle is even in zeta, so the -zeta construction is the zeta one and
    winv_deviation is 0.0 by construction.  datum is an A1 datum (built
    for the call when not given).
    """
    a = abs(float(zeta))
    if a < 0.05:
        raise ValueError("spectral value too close to the coefficient pole 0")
    # the 1e-12 absorbs binary rounding of decimal input: 2.95 - 3 is
    # -0.04999999999999982 in floats
    if abs(a - round(a)) < 0.05 - 1e-12:
        raise ValueError("spectral value too close to an integer; "
                         "the two-chamber normalization degenerates")
    datum = datum or build_root_system("A", 1)
    omega = datum.fundamental_weights[0]
    alpha = datum.positive_roots[0]
    xi = tuple(Q(zeta) * c for c in omega)

    orac = {s: WhittakerA1(zeta + s, U_GRID) for s in (-2, -1, 1, 2)}
    orac[0] = WhittakerA1(zeta, U_GRID + (U_ASYM,))   # the one read at U_ASYM

    v_up, v_dn, v_up2, v_dn2 = (float(coeff_Vbar(datum, nu, xi))
                                for nu in (omega, vneg(omega), alpha, vneg(alpha)))

    rows = []
    res_min = res_qmin = 0.0
    for u in U_GRID:
        f0 = orac[0].value(u)
        lhs = v_up * orac[1].value(u) + v_dn * orac[-1].value(u)
        rhs = math.exp(u / 2.0) * f0
        r1 = _rel(abs(lhs - rhs), max(abs(lhs), abs(rhs)))
        lhs2 = v_up2 * (orac[2].value(u) - f0) + v_dn2 * (orac[-2].value(u) - f0)
        rhs2 = math.exp(u) * f0
        r2 = _rel(abs(lhs2 - rhs2), max(abs(lhs2), abs(rhs2)))
        res_min, res_qmin = (x if math.isnan(x) else max(m, x) for m, x in
                             ((res_min, r1), (res_qmin, r2)))
        rows.append({"u": u, "residual_min": r1, "residual_qmin": r2})

    two_term = (math.gamma(a) * math.exp(0.5 * a * U_ASYM)
                + math.gamma(-a) * math.exp(-0.5 * a * U_ASYM))
    asym = abs(_rel(orac[0].value(U_ASYM), two_term) - 1.0)
    return RankOneWhittakerReport(zeta, U_RANGE[1], res_min, res_qmin, 0.0, asym, rows)

