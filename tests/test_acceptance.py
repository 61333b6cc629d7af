"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 and 5-10 read the ``hodiff/1`` report that the default
``hodiff verify`` writes, built once for the module: the cases of
``cli.run_campaign(cli.CampaignConfig(), {})`` and their tallies, as
``test_report_is_what_verify_writes`` checks.  A criterion passes on the
status of its cases and reads the numbers it prints from their detail, so a
case's pass/fail rule is written once, in the campaign.  All tolerances are
pinned here; exact checks assert identical rational objects, never
closeness.
"""

import json
import time
from fractions import Fraction as Q

import pytest

from hodiff import cli, diffeq
from hodiff.rootsys import build_root_system

CRITERION_1_BUDGET_SECONDS = 300.0


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The report the default ``hodiff verify`` writes, and the seconds it took."""
    out = tmp_path_factory.mktemp("campaign") / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["verify", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads(out.read_text())
    assert code == (cli.EXIT_FAIL if report["n_fail"] else cli.EXIT_PASS)
    return report, elapsed


def _cases(report, suite):
    """The cases of report whose name starts with suite."""
    return [c for c in report["cases"] if c["case"].startswith(suite + "/")]


def _passed(cases):
    return bool(cases) and all(c["status"] == "pass" for c in cases)


def test_report_is_what_verify_writes(campaign):
    # the cases run_campaign yields, then their tallies
    report, _elapsed = campaign
    cases = list(cli.run_campaign(cli.CampaignConfig(), {}))
    failures = [c["case"] for c in cases if c["status"] != "pass"]
    assert report == {"schema": cli.SCHEMA, "n_cases": len(cases),
                      "n_pass": len(cases) - len(failures), "n_fail": len(failures),
                      "failures": failures, "cases": cases}


def test_criterion_1_exact_pieri_suite(campaign):
    # the budget covers the whole campaign, of which the pieri suite is part
    report, elapsed = campaign
    cases = _cases(report, "pieri")
    systems = {c["detail"]["system"] for c in cases}
    assert systems == {"A1", "A2", "A3", "B2", "C3", "D4", "G2"}
    in_budget = elapsed <= CRITERION_1_BUDGET_SECONDS
    _line(1, _passed(cases) and in_budget,
          f"exact shift identity on {len(cases)} cases across {len(systems)} systems, "
          f"3 multiplicity samples, heights <= 4 ({elapsed:.1f}s)")


def test_criterion_2_eigencheck(campaign):
    eigen = [c["detail"]["eigen"] for c in _cases(campaign[0], "eigen")]
    ok = bool(eigen) and all(e["status"] == "pass" for e in eigen)
    residuals = all(e["residual"] == [] for e in eigen)
    bc_present = any(e["system"].startswith("BC") for e in eigen)
    _line(2, ok and residuals and bc_present,
          f"operator eigencheck with zero residual on {len(eigen)} polynomials "
          f"including nonreduced rank 1 and 2")


def test_criterion_3_leading_coefficient(campaign):
    cases = _cases(campaign[0], "eigen")
    ok = bool(cases) and all(c["detail"]["leading_matches_product"] for c in cases)
    _line(3, ok, f"recursion leading coefficient equals the closed product "
                 f"on {len(cases)} polynomials")


def test_criterion_4_small_weight_census():
    ok = True
    for fam, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                      ("B", 2), ("B", 3), ("B", 4),
                      ("C", 2), ("C", 3), ("C", 4),
                      ("D", 3), ("D", 4)]:
        datum = build_root_system(fam, rank)
        ok &= len(datum.small_fundamental_weights()) == rank
    expected = {("E", 6): 5, ("E", 7): 4, ("E", 8): 2, ("F", 4): 2, ("G", 2): 1}
    counts = {}
    for (fam, rank), want in expected.items():
        datum = build_root_system(fam, rank)
        counts[f"{fam}{rank}"] = len(datum.small_fundamental_weights())
        ok &= counts[f"{fam}{rank}"] == want
    _line(4, ok, f"small fundamental weights: all classical fundamentals and "
                 f"exceptional counts {counts}")


def test_criterion_5_nonreduced_suite(campaign):
    cases = _cases(campaign[0], "bc")
    *shifts, form = cases   # the rank-one coefficient form closes the suite
    assert form["case"] == "bc/rank-one-coefficient-form"
    covered = {(c["detail"]["n"], c["detail"]["ell"]) for c in shifts}
    n_points = len(form["detail"]["rows"])
    _line(5, _passed(cases) and covered == {(1, 1), (2, 1), (2, 2)},
          f"nonreduced exact shift identity on {len(shifts)} cases "
          f"(ranks 1-2, parts <= 3, 3 samples) and rank-one "
          f"coefficient form at {n_points} spectral points")


def test_criterion_6_rank_one_numeric_suite(campaign):
    cases = _cases(campaign[0], "rankone")
    sweeps = [c["detail"] for c in cases if c["case"].startswith("rankone/de-sweep/")]
    grid_ok = len(sweeps) == 2 and all(len(s["rows"]) == 25 and s["tol"] == 1e-9
                                       for s in sweeps)
    worst = max(s["max_residual"] for s in sweeps)
    _line(6, _passed(cases) and grid_ok,
          f"5x5 residual grids <= 1e-9 (worst {worst:.2e}) for 2 parameter "
          f"pairs; exact recurrence and exact nonreduced crosscheck to "
          f"degree 6; high-precision spot value matched")


def test_criterion_7_quasi_minuscule_identity(campaign):
    cases = _cases(campaign[0], "quasi")
    systems = sorted(c["case"].split("/")[1] for c in cases)
    n_points = sum(len(c["detail"]["points"]) for c in cases)
    _line(7, _passed(cases), f"half-sum identity exact at {n_points} pole-free points "
                             f"across {systems}")


def test_criterion_8_confluence_limits(campaign):
    cases = _cases(campaign[0], "confluence")
    reports = [c["detail"] for c in cases]
    ok = _passed(cases) and all(rep["tol"] == 1e-6 for rep in reports)
    worst = max(d["deviation"] for rep in reports for row in rep["rows"]
                for d in row["deviations"][-1:])
    n_terms = sum(len(rep["rows"]) for rep in reports)
    _line(8, ok, f"three scaled-limit families, {n_terms} terms over "
                 f"A1/A2/B2 small weights, monotone in t and within 1e-6 "
                 f"at t=30 (worst {worst:.2e})")


def test_criterion_9_growth_rate_identity(campaign):
    cases = _cases(campaign[0], "homogeneity")
    n_pairs = sum(len(c["detail"]["pairs"]) for c in cases)
    systems = sorted(c["case"].split("/")[1] for c in cases)
    assert systems == ["A2", "A3", "B2", "C3", "D4", "G2"]
    _line(9, _passed(cases), f"growth-rate identity exact (orbit-wise and at 3 samples) "
                             f"for {n_pairs} (omega, mu) pairs across {systems}")


def test_criterion_10_rank_one_whittaker(campaign):
    (case,) = _cases(campaign[0], "whittaker")
    rep = case["detail"]
    config = cli.CampaignConfig()
    bounds = (config.tol_whittaker, config.tol_asym) == (1e-6, 1e-4)
    _line(10, _passed([case]) and bounds,
          f"numeric eigenfunction: shift residual {rep['max_residual_min']:.2e} "
          f"and doubled-shift residual {rep['max_residual_qmin']:.2e} <= 1e-6 "
          f"on the grid, reflection deviation {rep['winv_deviation']:.2e} <= 1e-6, "
          f"asymptotic match {rep['asymptotic_deviation']:.2e} <= 1e-4")


def test_criterion_11_negative_controls(b2):
    from hodiff.rootsys import Multiplicities
    g = Multiplicities(b2, [Q(3, 7), Q(5, 11)])
    omega = b2.quasi_minuscule_weight()
    lam = b2.fundamental_weights[1]
    cache = {}
    clean = diffeq.verify_pieri(b2, g, omega, lam, cache=cache).ok
    broken_u = not diffeq.verify_pieri(b2, g, omega, lam,
                                       perturb=diffeq.PERTURB_U_SIGN,
                                       cache=cache).ok
    broken_v = not diffeq.verify_pieri(b2, g, omega, lam,
                                       perturb=diffeq.PERTURB_V_DROP,
                                       cache=cache).ok
    # and through the command-line path
    cli_u = cli.main(["verify", "--suite", "pieri", "--family", "B",
                      "--rank", "2", "--samples", "1", "--perturb", "u-sign",
                      "--out", "/dev/null"]) == 1
    cli_v = cli.main(["verify", "--suite", "pieri", "--family", "B",
                      "--rank", "2", "--samples", "1",
                      "--perturb", "v-drop-pairing2",
                      "--out", "/dev/null"]) == 1
    _line(11, clean and broken_u and broken_v and cli_u and cli_v,
          "each single-coefficient perturbation breaks the exact identity "
          "(library and CLI exit-code paths)")
