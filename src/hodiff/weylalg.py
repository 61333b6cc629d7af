"""Exact group algebra of the weight lattice: orbit sums and the operator L.

An ExpPoly is a finite formal sum  sum_nu c_nu e^nu  with rational
coefficients, exponents being weights in a fixed realization: the vector
form, for the public API.  The exact engines, their residuals included,
work on the label form instead, terms keyed by the Dynkin labels of their
exponents (``_apply_L_table``, ``LabelForm``, and ``expansion_labels``, the
one E_omega builder, BC's twisted one too), and reach vectors only in a
report (``exp_to_json``).  The hypergeometric operator acts on W-invariant
elements through exact polynomial division, so the result carries no
truncation error at all.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from operator import add, itemgetter, mul

from .rootsys import (Multiplicities, RootDatum, SampleRecord, Vector, _q_str, _step, vadd,
                      weight_str)


class InternalConsistencyError(RuntimeError):
    """An exact internal identity failed; indicates a bug, never bad input."""


class ExpPoly:
    """Immutable finite sum of exponentials with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {nu: c if isinstance(c, (Q, float)) else Q(c) for nu, c in terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("ExpPoly is immutable")

    @classmethod
    def constant(cls, c, dim: int) -> "ExpPoly":
        return cls({(Q(0),) * dim: Q(c)})

    def value_at_zero(self) -> Q:
        """Evaluation at x = 0, i.e. the sum of all coefficients."""
        return sum(self.terms.values(), Q(0))

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self.terms)
        for nu, c in other.terms.items():
            out[nu] = out.get(nu, Q(0)) + c
        return ExpPoly(out)

    def scale(self, c) -> "ExpPoly":
        return ExpPoly({nu: c * v for nu, v in self.terms.items()})

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out = {}
        for nu, c in self.terms.items():
            for mu, d in other.terms.items():
                key = vadd(nu, mu)
                out[key] = out.get(key, Q(0)) + c * d
        return ExpPoly(out)

    def __eq__(self, other):
        return isinstance(other, ExpPoly) and self.terms == other.terms

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
            if k and terms.get(_step(l, k, row)) != c:
                return False
    return True


def is_w_invariant(datum: RootDatum, p: ExpPoly) -> bool:
    """p is fixed by W; its exponents must be weights (ValueError if not)."""
    return _is_invariant(datum, {datum.weight_labels(nu): c for nu, c in p.terms.items()})


def sample_record(datum: RootDatum, mults: Multiplicities) -> SampleRecord:
    """The integers of an exact sample, built once on mults: d clears each z =
    <rho_g,a^vee>, m_a and g_a, rows holds (d z, d m_a, d g_a) per root (read
    by ``point_table`` and the leading product); n clears the Gram form and each
    g_o |a_o|^2 / 2, weights are those times n, lap = n / ``weight_gram_den``
    (``_apply_L_table``); r clears rho_g's labels, rho2 holds them times 2 r."""
    if mults._record is None:
        rho = datum.rho(mults)
        cols = datum.pairings(rho), mults.factor_values, mults.root_values
        d = math.lcm(*(x.denominator for col in cols for x in col))
        weights = [g * norm / 2 for g, norm in zip(mults.values, datum.orbit_norms)]
        n = math.lcm(datum.weight_gram_den, *(w.denominator for w in weights))
        r = math.lcm(*(x.denominator for x in rho.labels))
        mults._record = SampleRecord(
            d, [tuple(x.numerator * (d // x.denominator) for x in row) for row in zip(*cols)],
            n, [(w * n).numerator for w in weights], n // datum.weight_gram_den,
            r, [2 * (x * r).numerator for x in rho.labels])
    return mults._record


def _apply_L_table(datum: RootDatum, mults: Multiplicities, tops: list, table, terms: dict):
    """(n, coef, image) in ``table.index`` order, the ``string_table`` of tops, for
    p given by its label-keyed terms (coef).  A label outside S, the table's labels,
    or a simple reflection's permutation of S moving coef (zero is no term) is
    refused; ``_is_invariant`` picks ValueError if p is not invariant, else fatal.
    Down a string of top pairing k, with s = 0 above its top, each label
    with coefficient c sets s = s_above + k c, k falling by 2 per label, and
    gains h = s + s_above in the quotient; the last s is the remainder, and a
    nonzero one is fatal (the telescoping divisibility criterion).  For k = 1,
    labels (t, b): h = (c_t, 2 c_t - c_b), remainder c_t - c_b; for k = 2,
    (t, m, b): h = (2 c_t, 4 c_t, 4 c_t - 2 c_b), remainder 2 (c_t - c_b).
    So once the k <= 2 tops and bottoms carry equal coefficients (one tuple
    compare), each end gains k c of its own (the table's ``own``), each
    middle 4 c_t (``mids``), and only the k >= 3 strings are walked.  The
    quotients are weighted by g_alpha |alpha|^2 / 2 (<nu, alpha> = k
    |alpha|^2 / 2), the Laplacian term is <nu, nu> by the Gram form, and n
    clears their denominators, so integer terms give an integer image (n and
    the weights: ``sample_record``)."""
    record = sample_record(datum, mults)
    coef = [terms.get(l, 0) for l in table.index]
    outside = sorted(terms.keys() - table.index.keys())
    if outside or any(list(map(coef.__getitem__, perm)) != coef for perm in table.perms):
        if not _is_invariant(datum, terms):
            raise ValueError("apply_L requires a W-invariant argument")
        raise InternalConsistencyError(
            f"exponent labels {outside[0]} lie outside the alpha-strings of P{tops}"
            if outside else "the string table's reflections disagree with the labels")
    if table.tops and itemgetter(*table.tops)(coef) != itemgetter(*table.bottoms)(coef):
        t, b, (r, k) = next(e for e in zip(table.tops, table.bottoms, table.ends)
                            if coef[e[0]] != coef[e[1]])
        raise InternalConsistencyError(f"division by 1 - e^-{weight_str(datum.roots[r])} "
                                       f"left remainder {k * (coef[t] - coef[b])}")
    factor = [record.lap * q for q in table.quad]
    for w, own in zip(record.weights, table.own):
        factor = list(map(add, factor, map(w.__mul__, own)))
    image = list(map(mul, coef, factor))
    for w, mids in zip(record.weights, table.mids):
        for m, highs in mids.items():
            image[m] += 4 * w * sum(map(coef.__getitem__, highs))
    for r, k, string in table.strings:
        w, s_above, s = record.weights[datum.root_orbit_ids[r]], 0, 0
        for i in string:
            s = s_above + k * coef[i]
            image[i] += w * (s + s_above)
            s_above = s
            k -= 2
        if s != 0:
            raise InternalConsistencyError(
                f"division by 1 - e^-{weight_str(datum.roots[r])} left remainder {s}")
    return record.n, coef, image


def apply_L(datum: RootDatum, mults: Multiplicities, p: ExpPoly) -> ExpPoly:
    """Exact action of the hypergeometric operator on a W-invariant element.

    L = Laplacian + sum_{alpha>0} g_alpha (1+e^{-alpha})/(1-e^{-alpha}) d_alpha.
    The rational factor acts by exact division: (1+e^{-alpha}) d_alpha p is
    divisible by (1-e^{-alpha}) because d_alpha p is antisymmetric under the
    reflection in alpha.

    p is read on labels, and its alpha-strings come from the ``string_table``
    of tops, the maximal dominant labels of its support (for P_lam, lam
    alone); ``_apply_L_table`` refuses a p that is not W-invariant
    (ValueError)."""
    terms = {datum.weight_labels(nu): c for nu, c in p.terms.items()}
    tops = []   # by falling height, l is maximal unless below an earlier top
    for l in sorted((l for l in terms if min(l) >= 0), reverse=True,
                    key=lambda l: sum(map(mul, datum.height_row, l))):
        if not any(l in datum.saturated_labels(t) for t in tops):
            tops.append(l)
    table = datum.string_table(tuple(sorted(tops)))
    n, _coef, image = _apply_L_table(datum, mults, tops, table, terms)
    return ExpPoly({datum.from_labels(l): Q(v) / n for l, v in zip(table.index, image)})


class LabelForm:
    """A W-invariant element with integer coefficients, keyed by the labels of
    its exponents; both are checked on construction (InternalConsistencyError),
    so it may be compared on the dominant chamber alone (``pieri_residual``)."""

    def __init__(self, datum: RootDatum, terms: dict):
        if not (_is_invariant(datum, terms) and all(c.denominator == 1 for c in terms.values())):
            raise InternalConsistencyError(
                "the spectral-side expansion is not W-invariant with integer coefficients")
        self.terms = {l: c.numerator for l, c in terms.items()}
        self.shifts = {}   # mu -> its (mu - a, e) per term e e^a, for ``pieri_residual``


def label_form(datum: RootDatum, p: ExpPoly) -> LabelForm:
    """The ``LabelForm`` of p, its exponents converted to labels."""
    return LabelForm(datum, {datum.weight_labels(nu): c for nu, c in p.terms.items()})


def expansion_labels(datum: RootDatum, omega: Vector) -> LabelForm:
    """The symmetric spectral-side expansion attached to a small weight.

    E_omega = sum over dominant mu <= omega of |W_mu(omega)| m_mu, the
    coefficient being the orbit size of omega under the stabilizer of mu
    (``parabolic_orbit``, once per mu), on a datum with doubled roots (BC)
    times (-1)^(sum omega - sum mu), sums of e-coordinates (from ``_vector_key``):
    the twist x -> x + i pi (1, ..., 1), which makes E_{e_1+...+e_l} BC's E_l.
    Built on labels in the order of the vectors and checked once: memoized
    under omega's labels (``expansion_label_memo``)."""
    top = datum.small_labels(omega)
    found = datum.expansion_label_memo.get(top)
    if found is None:
        twist = any(i is not None for i in datum.half_root_index)
        e_sum = sum(datum._vector_key(top))
        found = datum.expansion_label_memo[top] = LabelForm(datum, {
            l: n for mu in datum.below_labels(top)
            for n in [len(datum.parabolic_orbit(mu, top)) * (-1) ** (
                twist and (e_sum - sum(datum._vector_key(mu))) // datum._fund_den % 2)]
            for l in sorted(datum.orbit_labels(mu), key=datum._vector_key)})
    return found


def expansion_E_omega(datum: RootDatum, omega: Vector) -> ExpPoly:
    """E_omega as an ExpPoly, converted on each call from the memoized
    ``expansion_labels``."""
    return ExpPoly({datum.from_labels(l): c
                    for l, c in expansion_labels(datum, omega).terms.items()})


def exp_to_json(datum: RootDatum, terms: dict):
    """Canonical serialization of label-keyed Fraction terms: weight/coefficient
    records, the one place a residual's labels become vectors, sorted by them."""
    return [{"weight": [_q_str(x) for x in datum.from_labels(l)], "coeff": _q_str(terms[l])}
            for l in sorted(terms, key=datum._vector_key)]
