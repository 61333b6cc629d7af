"""Each workload check passes on good outputs and fails on corrupted ones."""

import dataclasses
import json
from fractions import Fraction as Q

import pytest

import workloads
from hodiff import cli, diffeq, jacobi, rankone, rootsys, whittaker
from hodiff.weylalg import ExpPoly

# -- campaign --------------------------------------------------------------------


def _report(statuses=("pass", "pass")):
    cases = [{"case": f"c{i}", "status": s, "detail": {}} for i, s in enumerate(statuses)]
    n_pass = sum(s == "pass" for s in statuses)
    return json.dumps({"schema": "hodiff/1", "n_cases": len(cases), "n_pass": n_pass,
                       "n_fail": len(cases) - n_pass,
                       "failures": [c["case"] for c in cases if c["status"] != "pass"],
                       "cases": cases}, sort_keys=True).encode()


GOOD_CONTROLS = {p: 1 for p in diffeq.PERTURBATIONS}


def test_campaign_good():
    assert workloads.check_campaign([(0, _report()), (0, _report())], GOOD_CONTROLS) == []


@pytest.mark.parametrize("reports,controls", [
    ([(1, _report()), (0, _report())], GOOD_CONTROLS),                      # exit code
    ([(0, _report(("pass", "fail"))), (0, _report(("pass", "fail")))], GOOD_CONTROLS),
    ([(0, _report()), (0, _report(("pass", "pass", "pass")))], GOOD_CONTROLS),  # bytes differ
    ([(0, _report(()))], GOOD_CONTROLS),                                     # no cases
    ([(0, _report())], {"u-sign": 1, "v-drop-pairing2": 0}),                # control passed
    ([(0, _report())], {"u-sign": 2, "v-drop-pairing2": 1}),
])
def test_campaign_corrupted(reports, controls):
    assert workloads.check_campaign(reports, controls)


# -- exceptional -----------------------------------------------------------------

@pytest.fixture(scope="module")
def b2_outputs():
    datum = rootsys.build_root_system("B", 2)
    mults = workloads.draw_pole_free(datum, "test")
    zero = (Q(0),) * datum.dim
    cache = {}
    pieri = [diffeq.verify_pieri(datum, mults, w, zero, cache=cache)
             for w in datum.small_fundamental_weights()]
    eigen = [jacobi.verify_eigen(datum, mults, lam, poly)
             for (_g, lam), poly in sorted(cache.items(), key=lambda kv: kv[0])]
    polys = [(datum, poly) for poly in cache.values()]
    return datum, pieri, eigen, polys


ORDERS = dict(workloads.WEYL_ORDERS)
ORBITS = {label: dict(table) for label, table in workloads.ORBIT_SIZES.items()}


class _Poly:
    def __init__(self, exp, lam):
        self._exp, self.lam = exp, lam

    def exp_poly(self):
        return self._exp


def test_exceptional_good(b2_outputs):
    _datum, pieri, eigen, polys = b2_outputs
    assert all(rep.ok for rep in pieri + eigen)
    assert workloads.check_exceptional(pieri, eigen, polys, ORDERS, ORBITS) == []


def test_exceptional_residual(b2_outputs):
    _datum, pieri, eigen, polys = b2_outputs
    bad = dataclasses.replace(pieri[0], ok=False, residual=[{"weight": [], "coeff": "1/1"}])
    assert workloads.check_exceptional([bad] + pieri[1:], eigen, polys, ORDERS, ORBITS)
    bad = dataclasses.replace(eigen[0], residual=[{"weight": [], "coeff": "1/1"}])
    assert workloads.check_exceptional(pieri, [bad] + eigen[1:], polys, ORDERS, ORBITS)


def test_exceptional_tables(b2_outputs):
    _datum, pieri, eigen, polys = b2_outputs
    assert workloads.check_exceptional(pieri, eigen, polys, dict(ORDERS, E6=51839), ORBITS)
    orbits = {"F4": dict(ORBITS["F4"]), "E6": {**ORBITS["E6"], 2: 73}}
    assert workloads.check_exceptional(pieri, eigen, polys, ORDERS, orbits)


def test_exceptional_polynomials(b2_outputs):
    datum, pieri, eigen, polys = b2_outputs
    p = polys[-1][1]
    doubled = _Poly(p.exp_poly().scale(2), p.lam)
    assert workloads.check_exceptional(pieri, eigen, [(datum, doubled)], ORDERS, ORBITS)
    lopsided = _Poly(ExpPoly({datum.fundamental_weights[0]: Q(1)}), p.lam)
    assert lopsided.exp_poly().value_at_zero() == 1      # only invariance fails
    assert workloads.check_exceptional(pieri, eigen, [(datum, lopsided)], ORDERS, ORBITS)


def test_pole_free_draw_has_no_poles():
    datum = rootsys.build_root_system("B", 2)
    mults = workloads.draw_pole_free(datum, "x")
    rho = datum.rho(mults)
    assert all(7 <= Q(g).denominator <= 13 for g in mults.values)
    assert all(datum.pairing(rho, a) not in (0, -1) for a in datum.roots)


# -- numeric -----------------------------------------------------------------------

CONFIG = cli.CampaignConfig()


@pytest.fixture(scope="module")
def numeric_outputs():
    params = rankone.HypergeometricParams(0.7, 0.4, 1.2, 1.1)
    point = (params, rankone.gauss_2f1_jacobi(params))
    sweep = rankone.verify_de(0.7, 0.4, cli.DE_XI_GRID, cli.DE_X_GRID, tol=CONFIG.tol_de)
    datum = rootsys.build_root_system("A", 1)
    spot = cli.CONFLUENCE_CASES[("A", 1)]
    conf = whittaker.verify_confluence(datum, datum.fundamental_weights[0],
                                       datum.weight_from_fundamental(spot["xi"]),
                                       spot["x"], t_list=workloads.CONFLUENCE_T)
    ode = whittaker.RankOneWhittakerReport(
        zeta=1.3, matching_radius=50.0, max_residual_min=1e-12,
        max_residual_qmin=1e-12, winv_deviation=0.0, asymptotic_deviation=1e-6)
    return point, sweep, conf, ode


def test_numeric_good(numeric_outputs):
    point, sweep, conf, ode = numeric_outputs
    assert workloads.check_numeric([point], [sweep], [conf], [ode], CONFIG) == []


def test_numeric_oracle(numeric_outputs):
    (params, value), sweep, conf, ode = numeric_outputs
    assert abs(value - workloads.hyp2f1_reference(params)) <= 1e-14 * abs(value)
    bad = (params, value * (1 + 1e-10))
    assert workloads.check_numeric([bad], [sweep], [conf], [ode], CONFIG)


def test_numeric_de_residual(numeric_outputs):
    point, sweep, conf, ode = numeric_outputs
    bad = dataclasses.replace(sweep, rows=sweep.rows[:-1] + [(0.3, 0.2, 1e-6)])
    assert workloads.check_numeric([point], [bad], [conf], [ode], CONFIG)
    short = dataclasses.replace(sweep, rows=sweep.rows[:-1])
    assert workloads.check_numeric([point], [short], [conf], [ode], CONFIG)


def test_numeric_confluence_and_ode(numeric_outputs):
    point, sweep, conf, ode = numeric_outputs
    rows = [dict(conf.rows[0], ok=False)] + conf.rows[1:]
    bad_conf = dataclasses.replace(conf, rows=rows)
    assert workloads.check_numeric([point], [sweep], [bad_conf], [ode], CONFIG)
    bad_ode = dataclasses.replace(ode, asymptotic_deviation=2e-4)
    assert workloads.check_numeric([point], [sweep], [conf], [bad_ode], CONFIG)
