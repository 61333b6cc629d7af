import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Q

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import hodiff
from hodiff.cli import CONFLUENCE_CASES, CampaignConfig
from hodiff.diffeq import (PoleAtSpectralPoint, factor_product, float_table, pieri_index,
                           sample_multiplicities, term_factors)
from hodiff.rootsys import Multiplicities, vadd, vneg, weight_str
from hodiff.whittaker import (U_ASYM, U_GRID, SqrtRational, WhittakerA1,
                              coeff_Vbar, couplings_at, ebar,
                              g_of_t, homogeneity_gap, limit_product,
                              homogeneity_identity, limit_table,
                              orbit_etas, rank_one_whittaker_check, verify_confluence)
from oracles import half_weighted_sum, rho_vee, term_vectors, vscale

# the campaign's bounds on a rank-one report, in the order RankOneWhittakerReport.ok reads them
RANK_ONE_TOLS = (CampaignConfig.tol_whittaker, CampaignConfig.tol_whittaker,
                 CampaignConfig.tol_asym)


def rational(s: SqrtRational) -> Q:
    """The rational value of s, which must be rational."""
    assert s.is_rational(), s
    return s.coeff


def test_sqrt_rational_canonicalization():
    assert SqrtRational(1, 8) == SqrtRational(2, 2)
    assert rational(SqrtRational(1, 4)) == 2
    assert rational(SqrtRational(3, 1)) == 3
    half = SqrtRational(1, Q(1, 2))
    assert half == SqrtRational(Q(1, 2), 2)
    assert abs(float(half) - 1 / math.sqrt(2)) < 1e-15
    prod = SqrtRational(1, 2) * SqrtRational(1, 3)
    assert prod == SqrtRational(1, 6)
    assert rational(SqrtRational(1, 2) * SqrtRational(1, 2)) == 2
    assert rational(SqrtRational(2, 3) / SqrtRational(1, 3)) == 2
    with pytest.raises(ValueError):
        SqrtRational(1, 0)
    assert not SqrtRational(1, 6).is_rational()


def eta_alpha(datum, alpha) -> SqrtRational:
    """The eta of the orbit of the root alpha, as ``orbit_etas`` holds it."""
    return orbit_etas(datum)[datum.root_orbit_ids[datum.roots.index(alpha)]]


def test_eta_values(a1, b2, c3, g2):
    assert rational(eta_alpha(a1, a1.positive_roots[0])) == 1
    short_b2 = (Q(1), Q(0))
    long_b2 = (Q(1), Q(1))
    assert eta_alpha(b2, short_b2) == SqrtRational(1, 2)
    assert rational(eta_alpha(b2, long_b2)) == 1
    long_c3 = (Q(2), Q(0), Q(0))
    assert eta_alpha(c3, long_c3) == SqrtRational(Q(1, 2), 2)
    short_g2 = g2.quasi_minuscule_weight()
    assert eta_alpha(g2, short_g2) == SqrtRational(1, 3)


def _ubar(datum, nu, eta, xi):
    """The g -> oo limit of U_{nu,eta} over g at xi, a float entry of xi read
    as its binary value."""
    return limit_product(datum, term_factors(datum, nu, eta),
                         limit_table(datum, datum.pairings(tuple(map(Q, xi)))))


def test_vbar_ubar_rank_one(a1):
    w = a1.fundamental_weights[0]
    alpha = a1.positive_roots[0]
    z = Q(5, 3)
    xi = vscale(z, w)
    assert coeff_Vbar(a1, w, xi) == Q(3, 5)
    assert coeff_Vbar(a1, vneg(w), xi) == -Q(3, 5)
    assert coeff_Vbar(a1, alpha, xi) == 1 / (z * (1 + z))
    zero = (Q(0),) * a1.dim
    assert _ubar(a1, zero, alpha, xi) == -1 / (z * (1 + z))
    # regular nu: empty stabilizer product
    assert _ubar(a1, w, w, xi) == 1


def test_vbar_exact_rational_simply_laced(a2):
    rng = random.Random("vbar")
    theta = a2.quasi_minuscule_weight()
    from hodiff.diffeq import sample_spectral_point
    xi = sample_spectral_point(a2, rng)
    for nu in a2.weyl_orbit(theta):
        val = coeff_Vbar(a2, nu, xi)
        assert isinstance(val, SqrtRational) and val.is_rational()


def test_vbar_depends_only_on_pairings(a2):
    # shifting xi orthogonally to the root span changes nothing
    w1 = a2.fundamental_weights[0]
    xi = vscale(Q(5, 7), vadd(w1, a2.fundamental_weights[1]))
    shifted = vadd(xi, (Q(1), Q(1), Q(1)))
    for nu in a2.weyl_orbit(w1):
        assert coeff_Vbar(a2, nu, xi) == coeff_Vbar(a2, nu, shifted)


def test_vbar_float_path(a1):
    # a float xi is read as the rational it is, so each limit is exact and
    # its float the correctly rounded value (0.8403361344537816 at zeta = 0.7)
    w = a1.fundamental_weights[0]
    alpha = a1.positive_roots[0]
    for zeta in (0.65, 0.7, 1.7):
        z = Q(zeta)
        xi = tuple(zeta * float(c) for c in w)
        assert coeff_Vbar(a1, w, xi) == 1 / z
        assert float(coeff_Vbar(a1, alpha, xi)) == float(1 / (z * (1 + z))), zeta


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vbar_refuses_a_non_finite_xi(a1, bad):
    # a NaN or infinite entry has no rational value to read
    w = a1.fundamental_weights[0]
    with pytest.raises((ValueError, ArithmeticError)):
        coeff_Vbar(a1, w, (bad, 0.0))


def test_g_of_t_branch_and_relation():
    assert abs(g_of_t(1.0, 0.0) - (1 + math.sqrt(5)) / 2) < 1e-15
    for t in (-5.0, 0.0, 10.0, 30.0):
        for eta in (1.0, math.sqrt(2)):
            g = g_of_t(eta, t)
            assert g > 1.0
            rel = g * (g - 1.0) - eta * eta * math.exp(t)
            assert abs(rel) <= 1e-9 * max(1.0, eta * eta * math.exp(t))


def test_ebar_values(a2):
    zero_x = (0.0, 0.0, 0.0)
    w1 = a2.fundamental_weights[0]
    assert ebar(a2, (Q(0),) * 3, (0.4, 0.1, -0.2)) == 1.0
    assert ebar(a2, w1, zero_x) == 1.0
    # <omega_1, rho_vee> = 1
    x = [float(v) for v in rho_vee(a2)]
    assert abs(ebar(a2, w1, x) - math.e) < 1e-12


def test_confluence_guards_and_multiplicities_at(a2, bc2, g2):
    with pytest.raises(ValueError, match="^the confluent limit is defined for reduced systems$"):
        verify_confluence(bc2, (Q(1), Q(0)), (Q(1, 3), Q(1, 5)), (0.1, 0.2))
    long_fund = [w for w in g2.fundamental_weights
                 if w not in g2.small_fundamental_weights()][0]
    with pytest.raises(ValueError, match=r" is not small \(a pairing exceeds 2\)$"):
        verify_confluence(g2, long_fund, (Q(1, 3),) * g2.dim, (0.1,) * g2.dim)
    g = couplings_at(a2, 10.0)
    assert len(g) == len(a2.roots) and all(v > 1 for v in g)


def test_confluence_rank_one_explicit(a1):
    # the shift-polynomial limit in closed form: exp(-t/2) E(x + t rho_vee)
    # equals exp(<w,x>) + exp(-<w,x> - t), deviation exp(-t - <2w,x>)-ish
    w = a1.fundamental_weights[0]
    alpha = a1.positive_roots[0]
    xi = vscale(Q(1, 40), alpha)
    rep = verify_confluence(a1, w, xi, (0.3, -0.3))
    assert rep.ok
    e_row = [r for r in rep.rows if r["family"] == "E"][0]
    assert rep.t_list[0] == 10.0
    t10 = e_row["deviations"][0]
    u = 0.6  # <alpha, x> at x = (0.3, -0.3)
    expect = math.exp(-10.0 - u)
    assert abs(t10 - expect) < 0.05 * expect


def test_confluence_all_frozen_cases(a1, a2, b2):
    cases = [
        (a1, (Q(1, 40),), (0.3, -0.3)),
        (a2, (Q(1, 40), Q(-1, 80)), (0.25, -0.1, -0.15)),
        (b2, (Q(1, 31), Q(-1, 71)), (0.2, -0.35)),
    ]
    for datum, coeffs, x in cases:
        xi = datum.weight_from_fundamental(coeffs)
        omegas = list(datum.small_fundamental_weights())
        qm = datum.quasi_minuscule_weight()
        if qm not in omegas:
            omegas.append(qm)
        for omega in omegas:
            rep = verify_confluence(datum, omega, xi, x)
            assert rep.ok, (datum.family, omega)


# the frozen campaign points, plus G2 and C3 at omega_1 (the points of the
# pinned whittaker-limits outputs in test_cli)
CONFLUENCE_REFERENCE_CASES = (
    ("a1", (Q(1, 40),), (0.3, -0.3), None),
    ("a2", (Q(1, 40), Q(-1, 80)), (0.25, -0.1, -0.15), None),
    ("b2", (Q(1, 31), Q(-1, 71)), (0.2, -0.35), None),
    ("g2", (Q(1, 31), Q(-1, 71)), (0.2, -0.35), 0),
    ("c3", (Q(1, 31), Q(-1, 71), Q(1, 53)), (0.2, -0.35, 0.1), 0),
)
FINE_T = (6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0)


def _reference_cases(request):
    """(datum, omega, xi, x): every small fundamental weight and the
    quasi-minuscule weight for a campaign point, else omega_i."""
    for name, coeffs, x, i in CONFLUENCE_REFERENCE_CASES:
        datum = request.getfixturevalue(name)
        xi = datum.weight_from_fundamental(coeffs)
        if i is None:
            omegas = list(datum.small_fundamental_weights())
            if datum.quasi_minuscule_weight() not in omegas:
                omegas.append(datum.quasi_minuscule_weight())
        else:
            omegas = [datum.fundamental_weights[i]]
        for omega in omegas:
            yield datum, omega, xi, x


def test_confluence_rows_equal_the_per_t_path(request):
    # the sweep over the index lists, one float table and g(t) once per t
    # gives the bits of one coeff_V/coeff_U call per term and t; those in
    # turn give the bits of the Fraction-per-factor product, and the limits
    # the value of the SqrtRational-per-factor product
    from oracles import fraction_factor_product, per_t_confluence_rows, stepwise_limit
    checked = 0
    for datum, omega, xi, x in _reference_cases(request):
        for t_list in ((10.0, 20.0, 30.0), FINE_T):
            rep = verify_confluence(datum, omega, xi, x, t_list=t_list)
            assert rep.ok
            assert rep.rows == per_t_confluence_rows(datum, omega, xi, x, t_list)
            # labels print weights as weight_str does (p/q), never as reprs
            assert not any("Fraction" in row["term"] for row in rep.rows)
            checked += len(rep.rows)
        table = limit_table(datum, datum.pairings(xi))
        for entry in pieri_index(datum, omega):
            lists = (entry.v_factors,) + entry.u_factors
            nu, _plus, etas = term_vectors(datum, entry)
            assert lists == ((term_factors(datum, nu),) + tuple(
                term_factors(datum, nu, eta) for eta in etas))
            for factors in lists:
                assert limit_product(datum, factors, table) == stepwise_limit(
                    datum, factors, xi)
                for t in FINE_T:
                    g = couplings_at(datum, t)
                    assert (factor_product(datum, factors, float_table(datum.pairings(xi)), g)
                            == fraction_factor_product(datum, factors, xi, g))
    assert checked > 100


def _factor_lists(datum, omega):
    # one per V or U row of verify_confluence, in its order
    return [factors for entry in pieri_index(datum, omega)
            for factors in (entry.v_factors,) + entry.u_factors]


def test_confluence_limits_equal_the_stepwise_limit(request):
    # each row's limit, from one limit_table per call, is the float of the
    # SqrtRational-per-factor product, and the table-fed product its value
    from oracles import stepwise_limit
    checked = 0
    for datum, omega, xi, x in _reference_cases(request):
        table = limit_table(datum, datum.pairings(xi))
        rows = verify_confluence(datum, omega, xi, x, t_list=FINE_T).rows[1:]
        lists = _factor_lists(datum, omega)
        assert len(rows) == len(lists)
        for row, factors in zip(rows, lists):
            exact = stepwise_limit(datum, factors, xi)
            assert limit_product(datum, factors, table) == exact
            assert row["limit"] == float(exact)
            checked += 1
    assert checked > 50


def test_confluence_limit_poles_name_the_factor(request):
    # at xi with some <xi,a^vee> in {0, -1}, a table-fed limit raises the
    # pole the Fraction-per-factor product raises first, else it has the
    # stepwise value; verify_confluence raises its first row's pole
    from oracles import fraction_factor_product, stepwise_limit

    def outcome(fn, *args):
        try:
            return fn(*args)
        except PoleAtSpectralPoint as exc:
            return str(exc)

    poles = 0
    for datum, omega, _xi, x in _reference_cases(request):
        grid = itertools.product((-2, -1, Q(-1, 2), Q(1, 2), 1), repeat=datum.rank)
        points = [datum.weight_from_fundamental(labels) for labels in grid]
        points = [xi for xi in points if {0, -1} & set(datum.pairings(xi))][:4]
        g = couplings_at(datum, 10.0)
        lists = _factor_lists(datum, omega)
        for xi in points:
            table = limit_table(datum, datum.pairings(xi))
            got = [outcome(limit_product, datum, f, table) for f in lists]
            want = [outcome(fraction_factor_product, datum, f, xi, g) for f in lists]
            want = [w if isinstance(w, str) else stepwise_limit(datum, f, xi)
                    for w, f in zip(want, lists)]
            assert got == want
            first = next((w for w in want if isinstance(w, str)), None)
            if first is not None:
                with pytest.raises(PoleAtSpectralPoint) as exc:
                    verify_confluence(datum, omega, xi, x)
                assert str(exc.value) == first
                poles += 1
    assert poles > 5


def test_confluence_rows_read_the_pieri_index(b2, monkeypatch):
    # negative control: one dropped or sign-flipped entry of one V or U
    # factor list of the index changes that term's row and no other
    import hodiff.whittaker as wh
    from test_diffeq import _single_edits
    xi = b2.weight_from_fundamental((Q(1, 31), Q(-1, 71)))
    x = (0.2, -0.35)
    checked = 0
    for omega in (b2.fundamental_weights[0], b2.quasi_minuscule_weight()):
        index = pieri_index(b2, omega)
        rows = {r["term"]: r for r in verify_confluence(b2, omega, xi, x).rows}
        for n, entry in enumerate(index):
            nu, _plus, etas = term_vectors(b2, entry)
            labels = [f"nu={weight_str(nu)}"] + [f"nu={weight_str(nu)}, eta={weight_str(eta)}"
                                                 for eta in etas]
            lists = (entry.v_factors,) + entry.u_factors
            for k, factors in enumerate(lists):
                for edit in _single_edits(factors):
                    edited = lists[:k] + (edit,) + lists[k + 1:]
                    mutant = replace(entry, v_factors=edited[0], u_factors=edited[1:])
                    with monkeypatch.context() as mp:
                        mp.setattr(wh, "pieri_index",
                                   lambda _d, _o: index[:n] + (mutant,) + index[n + 1:])
                        got = {r["term"]: r for r in verify_confluence(b2, omega, xi, x).rows}
                    assert got[labels[k]] != rows[labels[k]], (omega, nu, k, edit)
                    assert {t: r for t, r in got.items() if t != labels[k]} == {
                        t: r for t, r in rows.items() if t != labels[k]}
                    checked += 1
    assert checked > 20


def test_confluence_report_pairs_every_t_with_a_deviation(a1):
    # to_dict pairs t_list with each row's deviations; a row one deviation
    # short is refused, not written with its last t dropped
    rep = verify_confluence(a1, a1.fundamental_weights[0], (Q(1, 80), Q(-1, 80)), (0.3, -0.3))
    rows = rep.to_dict()["rows"]
    assert [[d["t"] for d in row["deviations"]] for row in rows] == [list(rep.t_list)] * len(rows)
    assert [[d["deviation"] for d in row["deviations"]] for row in rows] == [
        list(row["deviations"]) for row in rep.rows]
    short = replace(rep, rows=[dict(rep.rows[0], deviations=rep.rows[0]["deviations"][:-1])])
    with pytest.raises(ValueError):
        short.to_dict()


def test_confluence_report_retains_its_deviations_as_numbers(a2, b2):
    # traced growth per row while 20 reports are built and kept, after a
    # call that memoizes the index and a full collection, which empties
    # CPython's free lists: no float or tuple a report keeps comes from one,
    # whatever ran before.  Deviations held as a tuple of boxed floats read
    # about 690 B (A2) and 770 B (B2) per row, packed doubles 565 B and 640 B
    t_list = (6, 10, 14, 18, 22, 26, 30)
    for datum, bound in ((a2, 625), (b2, 705)):
        spot = CONFLUENCE_CASES[(datum.family, datum.rank)]
        args = (datum, datum.quasi_minuscule_weight(),
                datum.weight_from_fundamental(spot["xi"]), spot["x"])
        verify_confluence(*args, t_list=t_list)
        kept = [None] * 20
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(len(kept)):
                kept[k] = verify_confluence(*args, t_list=t_list)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        rows = sum(len(rep.rows) for rep in kept)
        assert retained < bound * rows, (datum.name, retained / rows)


def test_confluence_rejects_a_t_list_that_does_not_increase(a2):
    xi = a2.weight_from_fundamental((Q(1, 40), Q(-1, 80)))
    for t_list in ((30.0, 20.0, 10.0), (10.0, 10.0, 20.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            verify_confluence(a2, a2.fundamental_weights[0], xi,
                              (0.25, -0.1, -0.15), t_list=t_list)


def test_confluence_rejects_an_empty_or_non_finite_t_list(a2):
    # no t means no deviation to end below tol; a NaN or infinite t would
    # yield a failed report, not a check
    args = (a2, a2.fundamental_weights[0], a2.weight_from_fundamental((Q(1, 40), Q(-1, 80))),
            (0.25, -0.1, -0.15))
    for t_list in ((), (10.0, math.nan), (math.nan,), (10.0, math.inf), (-math.inf, 10.0)):
        with pytest.raises(ValueError, match="is empty or not finite"):
            hodiff.verify_confluence(*args, t_list=t_list)


def test_confluence_reads_a_float_xi_as_its_binary_value(a2):
    # a float entry of xi is read by Fraction, as limit_product reads it, so
    # the report is the one at the exact binary values (the float pairings
    # had no denominator to read)
    omega, x, xi = a2.fundamental_weights[0], (0.25, -0.1, -0.15), (0.1, 0.2, -0.3)
    rep = verify_confluence(a2, omega, xi, x)
    assert rep.ok
    assert rep.to_dict() == verify_confluence(a2, omega, tuple(map(Q, xi)), x).to_dict()


@pytest.mark.parametrize("name,n", [("a2", 2), ("a2", 4), ("g2", 1)])
def test_confluence_refuses_a_base_point_of_the_wrong_length(request, name, n):
    # an x of another length was zipped against the Gram form: on A2 it
    # passed with a wrong E-row limit, on G2 a short one raised IndexError
    datum = request.getfixturevalue(name)
    xi = datum.weight_from_fundamental((Q(1, 31), Q(-1, 71)))
    with pytest.raises(ValueError,
                       match=rf"^x: need {datum.dim} base-point coordinates, got {n}$"):
        verify_confluence(datum, datum.fundamental_weights[0], xi, (0.2,) * n)


def test_homogeneity_identity(a2, b2, d4):
    w1, w2 = a2.fundamental_weights
    # mu = omega: the two sums coincide trivially
    assert homogeneity_identity(a2, vscale(2, w1), vscale(2, w1))
    # a nontrivial pair worked out by hand: omega = 2 w1, mu = w2
    assert homogeneity_identity(a2, vscale(2, w1), w2)
    # mu = 0 empties both sums
    zero = (Q(0),) * a2.dim
    assert homogeneity_identity(a2, a2.quasi_minuscule_weight(), zero)
    # B2: omega = 2 w2 = e1 + e2, mu = w1 = e1 (mixed orbits)
    assert homogeneity_identity(b2, vscale(2, b2.fundamental_weights[1]),
                                b2.fundamental_weights[0])
    # negative controls, mu not below omega: A2 omega = 2 w1, mu = w1 has sums
    # 2 and 4, so the gap is -2 g; B2 omega = e1, mu = e1 + e2 has long sums
    # 2 and 1 and short sums 4 and 2, so the gap is g_long + 2 g_short
    assert not homogeneity_identity(a2, vscale(2, w1), w1)
    assert homogeneity_gap(a2, Multiplicities(a2, (Q(3, 7),)), vscale(2, w1), w1) == Q(-6, 7)
    e1, e12 = b2.fundamental_weights[0], vscale(2, b2.fundamental_weights[1])
    assert not homogeneity_identity(b2, e1, e12)
    short_long = Multiplicities(b2, (Q(3, 7), Q(5, 11)))
    assert homogeneity_gap(b2, short_long, e1, e12) == Q(5, 11) + 2 * Q(3, 7)
    rng = random.Random("homog-test")
    for datum in (a2, b2, d4):
        samples = [sample_multiplicities(datum, rng) for _ in range(3)]
        for omega in datum.small_dominant_weights():
            for mu in datum.dominant_below(omega):
                if mu == omega:
                    continue
                assert homogeneity_identity(datum, omega, mu), (omega, mu)
                for m in samples:
                    assert homogeneity_gap(datum, m, omega, mu) == 0


def test_whittaker_oracle_against_bessel():
    # independent closed-form oracle: 2 K_zeta(2 exp(-u/2)) solves the same
    # problem with the same normalization
    from scipy.special import kv
    us = (-2.0, -0.7, 0.0, 1.1, 2.0)
    for zeta in (0.45, 1.3, 2.35):
        orac = WhittakerA1(zeta, us)
        for u in us:
            ref = 2.0 * kv(zeta, 2.0 * math.exp(-u / 2))
            assert abs(orac.value(u) - ref) <= 1e-9 * abs(ref), (zeta, u)


def test_whittaker_oracle_guards():
    # the spectral guards belong to the check (Gamma(-a), the 1/zeta
    # coefficients); the oracle is finite at integer order
    with pytest.raises(ValueError):
        rank_one_whittaker_check(0.01)
    with pytest.raises(ValueError):
        rank_one_whittaker_check(2.0)
    assert math.isfinite(WhittakerA1(2.0, [0.0]).log_value(0.0))
    orac = WhittakerA1(1.3, [0.0])
    with pytest.raises(ValueError):
        orac.value(100.0)


def test_whittaker_oracle_correctly_rounded():
    # the reflection-formula sums against mpmath's besselk at 50 digits, over
    # the whole u-range, at integer orders (the perturbed 0/0 quotient) and
    # next to them (the sin(pi a) cancellation): the float must be the
    # rounded reference, or one ulp off where the reference sits on a
    # rounding midpoint to within the oracle's precision
    import mpmath
    from hodiff.whittaker import ORACLE_DPS
    us = (-8.0, -2.0, 0.0, 14.0, 50.0)
    for a in (0.3, 1.3, 2.35, 3.7, 5.9, 0.0, 1.0, 2.0, 1 - 1e-6, 1 + 1e-6,
              2.95):
        orac = WhittakerA1(a, us)
        for u in us:
            with mpmath.workdps(50):
                ref = mpmath.log(2 * mpmath.besselk(
                    a, 2 * mpmath.exp(-mpmath.mpf(u) / 2)))
                got = orac.log_value(u)
                if got != float(ref):
                    mid = (mpmath.mpf(got) + float(ref)) / 2
                    assert abs(got - float(ref)) == math.ulp(got), (a, u)
                    assert abs(ref - mid) <= abs(ref) * 10 ** -ORACLE_DPS, (a, u)


# the check's points, and the ends of U_RANGE with two of them: u = -8 sets
# a higher working precision
POINT_SETS = (U_GRID + (U_ASYM,), (-8.0, -2.0, U_ASYM, 50.0))
# integer orders (the perturbed 0/0 quotient), orders next to them (the
# sin(pi a) cancellation), and zeta = 1/2, where zeta - 1 has zeta's order
EDGE_ZETAS = (0.5, 1.0, 2.0, 1 - 1e-6, 1 + 1e-6, 2.95)


def _seeded_zetas(n, lo=1.06, hi=3.9):
    rng = random.Random(f"whittaker-hyp0f1:{lo}:{hi}")
    return [rng.uniform(lo, hi) for _ in range(n)]


def _assert_log_phi_is_hyp0f1(orders, point_sets=POINT_SETS):
    # the one fixed-point pass gives the float bits of two mpmath.hyp0f1
    # sums at the same precision, at every point
    from oracles import hyp0f1_log_phi
    for a in orders:
        for points in point_sets:
            got = WhittakerA1(a, points)
            ref = hyp0f1_log_phi(a, points)
            for u in points:
                assert got.log_value(u) == ref[u], (a, u)


def _orders(zetas):
    return [zeta + s for zeta in zetas for s in (-2, -1, 0, 1, 2)]


def test_whittaker_oracle_bit_identical_to_hyp0f1():
    _assert_log_phi_is_hyp0f1(_orders(_seeded_zetas(14) + list(EDGE_ZETAS)))


@pytest.mark.slow
def test_whittaker_oracle_bit_identical_to_hyp0f1_sweep():
    # the zetas the numeric benchmark draws on the check's points, and a
    # wider range on both point sets
    _assert_log_phi_is_hyp0f1(_orders(_seeded_zetas(120)), POINT_SETS[:1])
    _assert_log_phi_is_hyp0f1(_orders(_seeded_zetas(20, 0.06, 5.9)))


def _pochhammer_moved(only_order=None):
    """_bessel_sums with the step of (1+a)_k moved by one, so the second sum
    is 0F1(2+a; z): at every order, or at only_order alone."""
    from hodiff.whittaker import _bessel_sums

    def kernel(z, a, wp):
        if only_order is not None and abs(a / (1 << wp) - only_order) > 1e-9:
            return _bessel_sums(z, a, wp)
        one = 1 << wp
        s_minus = s_plus = t_minus = t_plus = one
        sign, k = 1, 0
        while t_minus or t_plus:
            k += 1
            d = k * one - a
            sign = -sign if d < 0 else sign
            t_minus = t_minus * z // (k * abs(d))
            t_plus = t_plus * z // (k * ((k + 1) * one + a))
            s_minus, s_plus = s_minus + sign * t_minus, s_plus + t_plus
        return s_minus, s_plus
    return kernel


def test_whittaker_oracle_tests_catch_a_moved_pochhammer_step(monkeypatch):
    # negative control: the bit-identity and correct-rounding tests fail on
    # the moved kernel; the check at 1.3 cannot pass on it: phi turns
    # negative at order 1.3 (log phi NaN, a failed check), and with order
    # 2.3 alone moved the single-shift identity breaks
    import hodiff.whittaker as wh
    moved = _pochhammer_moved()
    with monkeypatch.context() as mp:
        mp.setattr(wh, "_bessel_sums", moved)
        with pytest.raises(AssertionError):
            _assert_log_phi_is_hyp0f1([0.3, 0.7, 2.3])
        with pytest.raises(AssertionError):
            test_whittaker_oracle_correctly_rounded()
        assert not rank_one_whittaker_check(1.3).ok(*RANK_ONE_TOLS)
    with monkeypatch.context() as mp:
        mp.setattr(wh, "_bessel_sums", _pochhammer_moved(2.3))
        rep = rank_one_whittaker_check(1.3)
    assert rep.max_residual_min > 1e-6
    assert not rep.ok(*RANK_ONE_TOLS)
    assert rank_one_whittaker_check(1.3).ok(*RANK_ONE_TOLS)


@pytest.mark.parametrize("wrong", ["second-tripled", "first-zero"])
def test_non_positive_phi_is_a_failed_case(wrong, monkeypatch, tmp_path):
    # a wrong 0F1 sum that makes phi negative (a complex log) fails the
    # check and the whittaker suite exits 1; NaN does not vanish into the
    # running maxima (max(0.0, nan) is 0.0)
    import hodiff.whittaker as wh
    from hodiff import cli
    right = wh._bessel_sums

    def kernel(z, a, wp):
        s_minus, s_plus = right(z, a, wp)
        return (s_minus, 3 * s_plus) if wrong == "second-tripled" else (0, s_plus)

    monkeypatch.setattr(wh, "_bessel_sums", kernel)
    assert any(math.isnan(WhittakerA1(zeta, U_GRID).log_value(u))
               for zeta in (0.3, 0.7, 2.3, 3.3) for u in U_GRID)
    rep = rank_one_whittaker_check(1.3)
    assert math.isnan(rep.max_residual_min) and not rep.ok(*RANK_ONE_TOLS)
    assert cli.main(["verify", "--suite", "whittaker", "--out", str(tmp_path / "w.json")]) == 1


@pytest.mark.parametrize("log_phi", [-1000.0, math.inf])
def test_vanishing_or_infinite_phi_is_a_failed_case(log_phi, monkeypatch, tmp_path):
    # a finite log phi below about -745 makes phi 0.0 and +inf makes it inf:
    # every relative residual on such a divisor is NaN, a failed row, and
    # the whittaker suite exits 1, not 2 (a ZeroDivisionError before)
    from hodiff import cli
    monkeypatch.setattr(WhittakerA1, "log_value", lambda self, u: log_phi)
    rep = rank_one_whittaker_check(1.3)
    assert all(math.isnan(row["residual_min"]) and math.isnan(row["residual_qmin"])
               for row in rep.rows)
    assert math.isnan(rep.max_residual_min) and math.isnan(rep.max_residual_qmin)
    assert not rep.ok(*RANK_ONE_TOLS)
    assert cli.main(["verify", "--suite", "whittaker", "--out", str(tmp_path / "w.json")]) == 1


FAULTS = {"nan": lambda x: math.nan, "inf": lambda x: math.inf, "-inf": lambda x: -math.inf,
          "zero": lambda x: 0 * x, "negative": lambda x: -1.5, "sign-flip": lambda x: -x}


def _kernels():
    """(owner, name, the suite that reads it, how a fault reaches its output)
    per float kernel, patched where its suite reads it: the 0F1 sums are
    integers, faulted one by one; limit_product's exact result as a float."""
    import hodiff.rankone as rankone
    import hodiff.whittaker as wh
    scalar = lambda fault, x: fault(float(x))   # noqa: E731
    return [(rankone, "_checked_2f1", "rankone", scalar),
            (wh, "_bessel_sums", "whittaker", lambda fault, sums: tuple(map(fault, sums))),
            (wh, "factor_product", "whittaker", scalar),
            (wh, "limit_product", "whittaker", scalar),
            (WhittakerA1, "log_value", "whittaker", scalar),
            (wh, "ebar", "whittaker", scalar)]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kernel", range(6), ids=["2f1", "bessel-sums", "factor-product",
                                                  "limit-product", "log-value", "ebar"])
def test_a_wrong_number_from_a_float_kernel_is_a_failed_case(kernel, fault, monkeypatch,
                                                             tmp_path):
    # each float kernel returning NaN, +-inf, 0, a negative value or its
    # negation fails the suite that reads it: exit 1, never 0 and never 2
    # (bad input) or a traceback; the failing report is strict JSON, with
    # no bare NaN or Infinity token
    from hodiff import cli
    owner, name, suite, inject = _kernels()[kernel]
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: inject(FAULTS[fault], real(*args)))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", suite, "--out", str(out)]) == 1

    def refuse(token):
        raise ValueError(f"bare {token} in the report")

    assert json.loads(out.read_text(), parse_constant=refuse)["n_fail"] > 0


def test_limit_product_reads_the_half_root_sign(bc2):
    # a BC U list's alpha/2 entry -(1+z+g)/(1+z) tends to -eta/(1+z), as a
    # -g entry does: the limits at xi and at xi's floats
    # agree on it, and the limit holds one minus sign per such entry
    xi, nu, eta = (Q(7, 5), Q(2, 9)), (0, 0), (1, 0)
    factors = term_factors(bc2, nu, eta)
    assert [f[2] for f in factors].count(-2) == 1
    exact = limit_product(bc2, factors, limit_table(bc2, bc2.pairings(xi)))
    assert float(exact) < 0 and exact == _ubar(bc2, nu, eta, xi)
    assert math.isclose(float(exact), float(_ubar(bc2, nu, eta, tuple(map(float, xi)))),
                        rel_tol=1e-14)


def test_rank_one_whittaker_check_detects_a_wrong_order(monkeypatch):
    # negative control: each order comes from its own series, so building
    # zeta + 1 at an order 1e-4 off must break the single-shift identity
    import hodiff.whittaker as wh

    class WrongOrder(WhittakerA1):
        def __init__(self, zeta, points):
            if abs(abs(zeta) - 2.3) < 1e-9:
                zeta = abs(zeta) + 1e-4
            super().__init__(zeta, points)

    assert rank_one_whittaker_check(1.3).ok(*RANK_ONE_TOLS)
    monkeypatch.setattr(wh, "WhittakerA1", WrongOrder)
    rep = rank_one_whittaker_check(1.3)
    assert rep.max_residual_min > 1e-6
    assert not rep.ok(*RANK_ONE_TOLS)


def _ode_reference(zeta, points, u_seed=-8.0, u_match=50.0):
    # the log-derivative construction, sharing no code with the closed form:
    # psi = phi'/phi integrated jointly with log phi by DOP853 from a seed
    # deep in the barrier, normalized by the two-chamber asymptotics at
    # u_match
    from scipy.integrate import solve_ivp

    def rhs(u, y):
        return [math.exp(-u) + 0.25 * zeta ** 2 - y[0] ** 2, y[0]]

    q0 = math.exp(-u_seed) + 0.25 * zeta ** 2
    psi0 = math.sqrt(q0) + math.exp(-u_seed) / (4.0 * q0)
    sol = solve_ivp(rhs, (u_seed, u_match), [psi0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    a = abs(zeta)
    log_asym = (math.lgamma(a) + 0.5 * a * u_match + math.log1p(
        math.gamma(-a) / math.gamma(a) * math.exp(-a * u_match)))
    log_norm = log_asym - sol.sol(u_match)[1]
    return {u: log_norm + sol.sol(u)[1] for u in points}


def test_whittaker_oracle_against_ode():
    # away from the seed, where the Riccati seed error has decayed
    points = [-2.0 + 0.2 * i for i in range(21)] + [-5.3, 7.7, 14.0, 50.0]
    for zeta in (0.45, 1.3, 2.35, 3.7):
        orac = WhittakerA1(zeta, points)
        ref = _ode_reference(zeta, points)
        for u in points:
            assert abs(orac.log_value(u) - ref[u]) <= 1e-9, (zeta, u)
        # the oracle is even in zeta, which lets the rank-one check share
        # the -zeta evaluation
        neg = WhittakerA1(-zeta, points)
        assert all(neg.log_value(u) == orac.log_value(u) for u in points), zeta


def test_whittaker_oracle_solved_points_only():
    orac = WhittakerA1(1.3, [-1.0, 2.0])
    assert math.isfinite(orac.log_value(-1.0))
    with pytest.raises(ValueError):
        orac.log_value(0.0)
    with pytest.raises(ValueError):
        WhittakerA1(1.3, [0.0, 50.5])
    with pytest.raises(ValueError):
        WhittakerA1(1.3, [-8.5, 0.0])


def test_import_loads_neither_scipy_nor_numpy():
    src = os.path.dirname(os.path.dirname(hodiff.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import hodiff, sys; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_log_normalization_helpers(a2):
    from hodiff.whittaker import log_normalization_constant
    # small t keeps everything in double range: compare with direct gammas
    t = -2.0
    g_of_root = dict(zip(a2.roots, couplings_at(a2, t)))
    rho = half_weighted_sum(a2, g_of_root.get)
    direct = 1.0
    for alpha in a2.positive_roots:
        z = float(a2.pairing(rho, alpha))
        g = g_of_root[alpha]
        direct *= math.gamma(z) * math.gamma(g) / math.gamma(z + g)
    assert abs(log_normalization_constant(a2, t) - math.log(direct)) < 1e-9
    # large t stays finite in log form
    assert math.isfinite(log_normalization_constant(a2, 30.0))


def test_rank_one_whittaker_report(monkeypatch):
    import hodiff.whittaker as wh
    built = []

    class Counting(WhittakerA1):
        def __init__(self, zeta, points):
            built.append(zeta)
            super().__init__(zeta, points)

    monkeypatch.setattr(wh, "WhittakerA1", Counting)
    rep = rank_one_whittaker_check(1.3)
    # one oracle per shift s; -zeta shares the zeta one
    assert len(built) == 5
    assert rep.max_residual_min <= 1e-6
    assert rep.max_residual_qmin <= 1e-6
    assert rep.winv_deviation <= 1e-6
    assert rep.asymptotic_deviation <= 1e-4
    assert rep.ok(*RANK_ONE_TOLS)
    assert rep.matching_radius == 50.0


@pytest.mark.parametrize("zeta", [0.45, 0.7])
def test_rank_one_whittaker_small_zeta(zeta):
    # below |zeta| = 1 the Gamma(-a) e^{-au/2} term is not negligible at
    # U_ASYM: the asymptotic check must use the two-term form
    rep = rank_one_whittaker_check(zeta)
    assert rep.asymptotic_deviation <= 1e-5
    assert rep.ok(*RANK_ONE_TOLS)


@pytest.mark.parametrize("zeta", [0.95, 1.05, 2.95])
def test_rank_one_whittaker_at_the_guard(zeta):
    # 0.95 + 2 and the float 2.95 both lie 0.04999999999999982 from 3; the
    # oracle is finite there and the guard on zeta allows for the rounding
    rep = rank_one_whittaker_check(zeta)
    assert rep.asymptotic_deviation <= 1e-4
    assert rep.ok(*RANK_ONE_TOLS)


def _clear_of_integers(zeta):
    # the check rejects values within 0.05 of an integer
    return abs(zeta - round(zeta)) >= 0.05


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.floats(0.1, 4.0).filter(_clear_of_integers))
def test_rank_one_whittaker_check_property(zeta):
    assert rank_one_whittaker_check(zeta).ok(*RANK_ONE_TOLS)
