"""Rank-one numerics: Gauss series evaluation and the scalar recurrences.

The spectral-shift identity in rank one involves the Gauss hypergeometric
function at argument -sinh^2(x/2) <= 0, which leaves the unit disk for
moderate x.  Evaluation therefore goes through the Pfaff transformation,
whose argument z/(z-1) always lies in [0,1); the plain series is kept as a
cross-check on its own domain, and mpmath's hyp2f1 at extended precision
pins spot values independently of both.  Point values and the residual
sweep ``verify_de`` share one checked kernel, ``_checked_2f1``.  The sweep
forms sinh^2(x/2), z and z/(z-1) once per x and the shift coefficients once
per xi, in the float order of a per-point evaluation, so its residuals are
bit-identical to those of three ``gauss_2f1_jacobi`` calls per point; a report
keeps them as packed doubles, 8 B each, behind its row view.  The
coefficients are the BC_1 case of the displayed BC_n one,
``nonreduced.rank_one_shift_coefficient``, at xi (up) and -xi (down).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product

import mpmath

from .jacobi import jacobi_polynomial
from .nonreduced import bc_multiplicities, rank_one_shift_coefficient

SERIES_TOL = 1e-15
SERIES_MAX_TERMS = 100_000
AGREEMENT_TOL = 1e-11
X_MAX = 8.0   # keeps the transformed-series argument far enough from 1
DE_TOL = 1e-9   # the bound on verify_de's relative residuals
HIGHPREC_DPS = 50   # the working digits of series_2f1_highprec
BC1_S_VALUES = (Q(1, 4), Q(5, 3), Q(7, 2))   # where bc1_crosscheck compares the two sides


class HypergeometricError(ArithmeticError):
    pass


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameter bundle for the rank-one spectral family."""
    g1: float
    g2: float
    xi: float
    x: float

    def __post_init__(self):
        for name in ("g1", "g2", "xi", "x"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
        c = 0.5 + self.g1 + self.g2
        if c <= 0 and abs(c - round(c)) < 1e-12:
            raise ValueError("series denominator parameter is a nonpositive integer")
        if abs(self.x) > X_MAX:
            raise ValueError(f"|x| > {X_MAX} exceeds the configured domain")

    @property
    def abc(self):
        a = -self.xi + self.g1 / 2 + self.g2
        b = self.xi + self.g1 / 2 + self.g2
        c = 0.5 + self.g1 + self.g2
        return a, b, c


def series_2f1(a, b, c, z) -> float:
    """Plain power series; only trustworthy for |z| < 1."""
    term = 1.0
    total = 1.0
    k = 0.0   # a float counter: a + k is the same float as with an int k
    for _ in range(SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        t = abs(term)
        # t <= SERIES_TOL * max(1, |total|); an overflowed total stays non-finite
        if t <= SERIES_TOL or t <= SERIES_TOL * abs(total):
            if not math.isfinite(total):
                break
            # one extra term to make the stop robust near sign alternation
            term *= (a + k + 1) * (b + k + 1) / ((c + k + 1) * (k + 2.0)) * z
            total += term
            return total
        k += 1.0
    if not math.isfinite(total):
        raise HypergeometricError(f"series overflow at argument {z}")
    raise HypergeometricError("series did not converge within the term cap")


def _to_mpf(v):
    """Lossless conversion for Fraction and mpf inputs; floats pass as-is."""
    if isinstance(v, Q):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


def series_2f1_highprec(a, b, c, z):
    """Independent oracle: mpmath's hyp2f1 at HIGHPREC_DPS decimal digits."""
    with mpmath.workdps(HIGHPREC_DPS):
        return mpmath.hyp2f1(*map(_to_mpf, (a, b, c, z)))


def _checked_2f1(a, b, c, z, w) -> float:
    """2F1(a, b; c; z) for z <= 0 and w = z/(z-1), by the Pfaff route
    (1-z)^{-a} 2F1(a, c-b; c; w), always convergent.  For |z| < 0.8 the
    plain series is also summed and the two must agree to 1e-11."""
    pfaff = (1.0 - z) ** (-a) * series_2f1(a, c - b, c, w)
    if not math.isfinite(pfaff):   # as (1-z)^{-a} raises when it alone overflows
        raise OverflowError(f"2F1({a}, {b}; {c}; {z}) is beyond the float range")
    if abs(z) < 0.8:
        plain = series_2f1(a, b, c, z)
        if abs(plain - pfaff) > AGREEMENT_TOL * max(1.0, abs(pfaff)):
            raise HypergeometricError(
                f"series/Pfaff disagreement {plain} vs {pfaff} at z={z}")
        return plain
    return pfaff


def gauss_2f1_jacobi(params: HypergeometricParams) -> float:
    """Value of the rank-one spectral kernel at (xi, x): ``_checked_2f1`` at
    z = -sinh^2(x/2)."""
    a, b, c = params.abc
    z = -math.sinh(params.x / 2) ** 2
    return _checked_2f1(a, b, c, z, z / (z - 1.0))


class SweepRows(Sequence):
    """The (xi, x, residual) rows of a sweep, read from its non-pole xis, its x
    grid and its residuals as packed doubles (an ``array('d')``), xi by xi; a
    slice is a list of rows."""
    __slots__ = ("xis", "xs", "residuals")

    def __init__(self, xis, xs, residuals):
        self.xis, self.xs, self.residuals = xis, xs, residuals

    def __len__(self):
        return len(self.residuals)

    def __iter__(self):
        return ((xi, x, r) for (xi, x), r in zip(product(self.xis, self.xs), self.residuals))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        k, j = divmod(range(len(self.residuals))[i], len(self.xs))
        return self.xis[k], self.xs[j], self.residuals[i]


@dataclass
class SweepReport:
    """Outcome of ``verify_de``, whose ``rows`` read the residuals as packed
    doubles through ``SweepRows``; any sequence of (xi, x, residual) serves."""
    g1: float
    g2: float
    tol: float
    rows: Sequence
    skipped: list

    @property
    def ok(self):
        return all(r[2] <= self.tol for r in self.rows)

    def max_residual(self):   # NaN if any residual is NaN
        return max((r[2] for r in self.rows), key=lambda r: (math.isnan(r), r), default=0.0)

    def to_dict(self):
        return {"g1": self.g1, "g2": self.g2, "tol": self.tol,
                "status": "pass" if self.ok else "fail",
                "max_residual": self.max_residual(),
                "rows": [{"xi": xi, "x": x, "residual": r} for xi, x, r in self.rows],
                "skipped": self.skipped}


def verify_de(g1, g2, xi_grid, x_grid, tol) -> SweepReport:
    """Relative residuals of the rank-one difference equation over a (xi, x)
    grid, one packed double per point behind ``SweepRows``; coefficient poles are
    skipped (ValueError if every xi is one), and a shifted value or a side beyond the
    float range raises HypergeometricError.  Each ``HypergeometricParams`` condition
    reads (g1, g2), xi or x alone, so each x and each shift xi, xi+-1 is checked once."""
    report = SweepReport(g1, g2, tol, SweepRows([], tuple(x_grid), array("d")), skipped=[])
    points = None   # (x, s, z, w) per x
    for xi in xi_grid:
        if min(abs(xi), abs(xi - 0.5), abs(xi + 0.5)) < 1e-9:
            report.skipped.append({"xi": xi, "reason": "coefficient pole"})
            continue
        if points is None:
            points = []
            for x in x_grid:
                HypergeometricParams(g1, g2, xi, x)
                z = -math.sinh(x / 2) ** 2
                points.append((x, -z, z, z / (z - 1.0)))
        report.rows.xis.append(xi)
        up, dn = (rank_one_shift_coefficient(1, (None, g1, g2), 0, (v,)) for v in (xi, -xi))
        shifts = [HypergeometricParams(g1, g2, v, 0.0).abc for v in (xi, xi + 1, xi - 1)]
        for x, s, z, w in points:
            try:
                f0, fp, fm = [_checked_2f1(a, b, c, z, w) for a, b, c in shifts]
                lhs = up * (fp - f0) + dn * (fm - f0)
                rhs = 4 * s * f0
                if not math.isfinite(lhs - rhs) and all(map(math.isfinite, (f0, fp, fm))):
                    raise OverflowError("a side is beyond the float range")
            except OverflowError as exc:
                raise HypergeometricError(f"the equation overflows at xi = {xi}, x = {x}") from exc
            report.rows.residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    if points is None:
        raise ValueError("every xi of the grid is a coefficient pole")
    return report


# -- exact terminating case ---------------------------------------------------

def jacobi_poly_1d(g1: Q, g2: Q, l: int, s: Q) -> Q:
    """Terminating series sum_k (a)_k (b)_k / ((c)_k k!) (-s)^k in
    s = sinh^2(x/2), a = -l, b = l + g1 + 2 g2, c = 1/2 + g1 + g2, exact for
    rational data (0 for l < 0): Horner's rule on the term ratio
    (a+k)(b+k)/((c+k)(k+1)) (-s), with b, c and s cleared to integers over
    one denominator d, so O(l) integer operations and one reduction."""
    b, c, s = l + Q(g1) + 2 * Q(g2), Q(1, 2) + Q(g1) + Q(g2), Q(s)
    d = math.lcm(b.denominator, c.denominator, s.denominator)
    b, c, s = (v.numerator * (d // v.denominator) for v in (b, c, s))
    num = den = 1      # the tail 1 + r_k (1 + r_{k+1} (...)) over den
    for k in reversed(range(l)):
        r_den = d * (c + d * k) * (k + 1)
        num, den = r_den * den - (k - l) * (b + d * k) * s * num, r_den * den
    return Q(num, den) if l >= 0 else Q(0)


def _rr_coefficients(g1: Q, g2: Q, l: int):
    """(c_up, c_dn) of the three-term recurrence at degree l (c_dn = 0 at
    l = 0, where P_{l-1} does not occur)."""
    den = 2 * l + g1 + 2 * g2
    c_up = (l + g1 + 2 * g2) * (Q(1, 2) + l + g1 + g2) / (den * (1 + den))
    c_dn = l * (Q(-1, 2) + l + g2) / (den * (den - 1)) if l else Q(0)
    return c_up, c_dn


def recurrence_rr(g1: Q, g2: Q, l: int, s: Q):
    """Both sides of the three-term recurrence at rational s, exactly.

    lhs = s * P_l;  rhs = c_up (P_{l+1} - P_l) + c_dn (P_{l-1} - P_l).
    """
    g1, g2, s = Q(g1), Q(g2), Q(s)
    if l < 0:
        raise ValueError("l must be a nonnegative integer")
    pl = jacobi_poly_1d(g1, g2, l, s)
    pu = jacobi_poly_1d(g1, g2, l + 1, s)
    pd = jacobi_poly_1d(g1, g2, l - 1, s) if l >= 1 else Q(0)
    c_up, c_dn = _rr_coefficients(g1, g2, l)
    lhs = s * pl
    rhs = c_up * (pu - pl) + c_dn * (pd - pl)
    return lhs, rhs


def de_coefficients_match_rr(g1: Q, g2: Q, l: int) -> bool:
    """At the terminating spectral value the two shift coefficients equal
    four times the recurrence coefficients (the quadratic-argument factor;
    at l = 0 both down coefficients are 0)."""
    g1, g2 = Q(g1), Q(g2)
    xi = g1 / 2 + g2 + l
    up, dn = (rank_one_shift_coefficient(1, (None, g1, g2), 0, (v,)) for v in (xi, -xi))
    c_up, c_dn = _rr_coefficients(g1, g2, l)
    return up == 4 * c_up and dn == 4 * c_dn


def bc1_crosscheck(g1: Q, g2: Q, l: int, datum) -> bool:
    """The BC_1 polynomial from the general recursion agrees exactly with the
    terminating series at each s of ``BC1_S_VALUES`` (the change of variable
    to s) on the BC1 datum."""
    mults = bc_multiplicities(datum, Q(1), Q(g1), Q(g2))
    poly = jacobi_polynomial(datum, mults, (Q(l),))
    for s in BC1_S_VALUES:
        # m_k = e^{kx} + e^{-kx} = 2 T_k(1 + 2s) by T_{k+1} = 2y T_k - T_{k-1}; m_0 = 1
        y = 1 + 2 * Q(s)
        t = [Q(1), y]
        while len(t) <= l:
            t.append(2 * y * t[-1] - t[-2])
        value = sum(c * (2 * t[int(mu[0])] if mu[0] else 1) for mu, c in poly.coeffs.items())
        if value != jacobi_poly_1d(g1, g2, l, s):
            return False
    return True
