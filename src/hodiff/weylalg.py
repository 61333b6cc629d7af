"""Exact group algebra of the weight lattice: orbit sums and the operator L.

An ExpPoly is a finite formal sum  sum_nu c_nu e^nu  with rational
coefficients, exponents being weights in a fixed realization.  The
hypergeometric operator acts on W-invariant elements through exact
polynomial division, so the result carries no truncation error at all.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from operator import mul

from .rootsys import Multiplicities, RootDatum, Vector, vadd


class InternalConsistencyError(RuntimeError):
    """An exact internal identity failed; indicates a bug, never bad input."""


class ExpPoly:
    """Immutable finite sum of exponentials with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for nu, c in terms.items():
                if c != 0:
                    clean[nu] = c if isinstance(c, (Q, float)) else Q(c)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("ExpPoly is immutable")

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls({})

    @classmethod
    def constant(cls, c, dim: int) -> "ExpPoly":
        return cls({(Q(0),) * dim: Q(c)})

    @classmethod
    def monomial(cls, nu: Vector, c=Q(1)) -> "ExpPoly":
        return cls({nu: Q(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, nu: Vector) -> Q:
        return self.terms.get(nu, Q(0))

    def support(self):
        return sorted(self.terms)

    def value_at_zero(self) -> Q:
        """Evaluation at x = 0, i.e. the sum of all coefficients."""
        return sum(self.terms.values(), Q(0))

    def shift(self, nu: Vector) -> "ExpPoly":
        """Multiplication by e^nu."""
        return ExpPoly({vadd(mu, nu): c for mu, c in self.terms.items()})

    def map_exponents(self, f) -> "ExpPoly":
        out = {}
        for nu, c in self.terms.items():
            key = f(nu)
            out[key] = out.get(key, Q(0)) + c
        return ExpPoly(out)

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self.terms)
        for nu, c in other.terms.items():
            out[nu] = out.get(nu, Q(0)) + c
        return ExpPoly(out)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self.terms)
        for nu, c in other.terms.items():
            out[nu] = out.get(nu, Q(0)) - c
        return ExpPoly(out)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({nu: -c for nu, c in self.terms.items()})

    def scale(self, c) -> "ExpPoly":
        if c == 0:
            return ExpPoly.zero()
        return ExpPoly({nu: c * v for nu, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            return self.scale(other)
        out = {}
        for nu, c in self.terms.items():
            for mu, d in other.terms.items():
                key = vadd(nu, mu)
                out[key] = out.get(key, Q(0)) + c * d
        return ExpPoly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return isinstance(other, ExpPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = [f"{c}*e^{nu}" for nu, c in sorted(self.terms.items())[:4]]
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return "ExpPoly(" + " + ".join(bits) + more + ")"


def orbit_sum(datum: RootDatum, mu: Vector) -> ExpPoly:
    """m_mu: coefficient 1 on each element of the orbit W mu."""
    mu = datum.check_dominant(mu)
    return ExpPoly({nu: Q(1) for nu in datum.weyl_orbit(mu)})


def _is_invariant(datum: RootDatum, terms: dict) -> bool:
    """Label-keyed terms are fixed by every simple reflection."""
    for l, c in terms.items():
        for k, row in zip(l, datum.cartan):
            if k and terms.get(tuple(a - k * b for a, b in zip(l, row))) != c:
                return False
    return True


def is_w_invariant(datum: RootDatum, p: ExpPoly) -> bool:
    """p is fixed by W; its exponents must be weights (ValueError if not)."""
    return _is_invariant(datum, {datum.weight_labels(nu): c for nu, c in p.terms.items()})


def eigenvalue_E(datum: RootDatum, mults: Multiplicities, xi: Vector):
    """E(xi) = <xi,xi> - <rho_g,rho_g>."""
    rho = datum.rho(mults)
    return datum.inner(xi, xi) - datum.inner(rho, rho)


def is_exact(mults: Multiplicities) -> bool:
    """Every multiplicity is an int or a Fraction."""
    return all(isinstance(v, (int, Q)) for v in mults.values)


def require_exact(mults: Multiplicities) -> None:
    """ValueError unless every multiplicity is an int or a Fraction."""
    if not is_exact(mults):
        raise ValueError("exact multiplicities required")


def apply_L_labels(datum: RootDatum, mults: Multiplicities, terms: dict):
    """(n, image) with image[l] = n (L p)[l], for the W-invariant element p
    given by its label-keyed terms.

    L = Laplacian + sum_{alpha>0} g_alpha (1+e^{-alpha})/(1-e^{-alpha}) d_alpha.
    The rational factor acts by exact division: (1+e^{-alpha}) d_alpha p is
    divisible by (1-e^{-alpha}) because d_alpha p is antisymmetric under the
    reflection in alpha.

    With k = <nu, alpha^vee>, the terms of d_alpha p fall into alpha-strings,
    each keyed by its base label l - floor(k/2) labels(alpha).  Along a
    string, with d_k the coefficient at pairing k and S_k = sum_{j >= k} d_j,
    the quotient has coefficient S_k + S_{k+2} at pairing k.  Each string must
    sum to zero, which is the telescoping divisibility criterion; a remainder
    is fatal.  The string quotients are summed per root orbit and weighted
    once per key by g_alpha |alpha|^2 / 2 (as <nu, alpha> = k |alpha|^2 / 2);
    the Laplacian term is <nu, nu> from the fundamental-weight Gram form.
    n clears the denominators of those weights and of the Gram form, so
    integer terms give an integer image.
    """
    require_exact(mults)
    if not _is_invariant(datum, terms):
        raise ValueError("apply_L requires a W-invariant argument")
    sums = [{} for _ in datum.root_orbits]
    for i in datum.positive_indices:
        lab = datum.root_labels[i]
        cc = datum.coroot_coefficients[i]
        strings: dict[tuple, dict] = {}
        for l, c in terms.items():
            k = int(sum(map(mul, cc, l)))   # integral: l labels a weight
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


def apply_L(datum: RootDatum, mults: Multiplicities, p: ExpPoly) -> ExpPoly:
    """Exact action of the hypergeometric operator on a W-invariant element
    (see ``apply_L_labels``); exact multiplicities are required."""
    n, image = apply_L_labels(
        datum, mults, {datum.weight_labels(nu): c for nu, c in p.terms.items()})
    return ExpPoly({datum.from_labels(l): Q(v) / n for l, v in image.items()})


def expansion_E_omega(datum: RootDatum, omega: Vector) -> ExpPoly:
    """The symmetric spectral-side expansion attached to a small weight.

    E_omega = sum over dominant mu <= omega of |W_mu(omega)| m_mu, the
    coefficient being the orbit size of omega under the stabilizer of mu.
    """
    omega = datum.check_dominant(omega)
    if not datum.is_small(omega):
        raise ValueError(f"{omega} is not small (some pairing exceeds 2)")
    terms = {}
    for mu in datum.dominant_below(omega):
        orbit_size = Q(len(datum.stabilizer_orbit(mu, omega)))
        terms.update((nu, orbit_size) for nu in datum.weyl_orbit(mu))
    return ExpPoly(terms)


def eval_at(datum: RootDatum, p: ExpPoly, x) -> float:
    """Floating-point evaluation at the point x of the realization space."""
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


def _q_str(c: Q) -> str:
    return f"{c.numerator}/{c.denominator}"


def exp_to_json(p: ExpPoly):
    """Canonical serialization: sorted list of weight/coefficient records."""
    return [{"weight": [_q_str(x) for x in nu], "coeff": _q_str(c)}
            for nu, c in sorted(p.terms.items())]


def exp_from_json(items) -> ExpPoly:
    return ExpPoly({tuple(Q(w) for w in item["weight"]): Q(item["coeff"])
                    for item in items})
