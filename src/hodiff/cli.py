"""Command-line entry point: construction, verification campaigns, reports.

Campaign drivers live here so the acceptance tests and the CLI run exactly
the same code.  Reports are JSON with canonical key order and contain no
timing data, so identical seeds give byte-identical output; exit codes are
0 (all checks pass), 1 (a check failed), 2 (invalid invocation).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction as Q

from . import diffeq, jacobi, nonreduced, rankone, whittaker
from .rootsys import Multiplicities, RootDatum, build_root_system
from .weylalg import _q_str

SCHEMA = "hodiff/1"
EXIT_PASS, EXIT_FAIL, EXIT_INVALID = 0, 1, 2

PIERI_SYSTEMS = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2))
QUASI_SYSTEMS = PIERI_SYSTEMS
HOMOGENEITY_SYSTEMS = (("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2))

# frozen spectral/base points for the confluence suite; pairings are kept
# small because the t=30 deviation floor of a quasi-minuscule shift term is
# about 3*exp(-15), only 8% under the 1e-6 bound
CONFLUENCE_CASES = {
    ("A", 1): {"xi": (Q(1, 40),), "x": (0.3, -0.3)},
    ("A", 2): {"xi": (Q(1, 40), Q(-1, 80)), "x": (0.25, -0.1, -0.15)},
    ("B", 2): {"xi": (Q(1, 31), Q(-1, 71)), "x": (0.2, -0.35)},
}

DE_PARAMETER_PAIRS = ((0.5, 1.0 / 3.0), (1.25, 3.0 / 7.0))
DE_XI_GRID = (0.3, 0.77, 1.2, 2.6, 3.9)
DE_X_GRID = (0.2, 0.6, 1.1, 1.7, 2.5)
RR_PARAMETER_PAIRS = ((Q(1, 2), Q(1, 3)), (Q(3, 7), Q(9, 4)))
BC1_CROSS_PAIRS = ((Q(1, 2), Q(1, 3)), (Q(5, 11), Q(9, 4)))
WHITTAKER_ZETA = 1.3
# `verify` rejects a campaign that would check nothing (no samples, a
# negative height) and one larger than these caps
MAX_HEIGHT = 6
MAX_SAMPLES = 10


@dataclass
class CampaignConfig:
    systems: tuple = PIERI_SYSTEMS
    omegas: tuple | None = None   # None: all small fundamentals per system
    height_bound: Q = Q(4)
    samples: int = 3
    seed: int = 20150801
    suites: tuple = ("pieri", "eigen", "bc", "quasi", "whittaker", "rankone")
    perturb: str | None = None
    tol_de: float = 1e-9
    tol_confluence: float = 1e-6
    tol_whittaker: float = 1e-6
    tol_asym: float = 1e-4


@dataclass
class CampaignResult:
    cases: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail=None):
        self.cases.append({"case": name, "status": "pass" if ok else "fail",
                           "detail": detail if detail is not None else {}})

    @property
    def n_pass(self):
        return sum(1 for c in self.cases if c["status"] == "pass")

    @property
    def n_fail(self):
        return len(self.cases) - self.n_pass

    def summary(self):
        return {
            "schema": SCHEMA,
            "n_cases": len(self.cases),
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "failures": [c["case"] for c in self.cases if c["status"] != "pass"],
            "cases": self.cases,
        }


def _label(datum: RootDatum) -> str:
    return f"{datum.family}{datum.rank}"


def _wt(v) -> str:
    return "(" + ",".join(_q_str(Q(x)) for x in v) + ")"


def _sample_with_retry(datum, seed, sample_idx, run, max_attempts=24):
    """Draw multiplicities deterministically, resampling on any pole."""
    for attempt in range(max_attempts):
        rng = random.Random(f"{seed}:{_label(datum)}:{sample_idx}:{attempt}")
        mults = diffeq.sample_multiplicities(datum, rng)
        try:
            return mults, run(mults)
        except diffeq.PoleAtSpectralPoint:
            continue
    raise RuntimeError(f"no pole-free multiplicity sample found for {_label(datum)}")


# -- suite drivers -------------------------------------------------------------


def pieri_cases(config: CampaignConfig):
    """Criterion-style exact Pieri sweep; returns per-case reports plus the
    polynomial caches so the eigen suite can reuse every polynomial built."""
    out = []
    for family, rank in config.systems:
        datum = build_root_system(family, rank)
        if config.omegas is None:
            omegas = datum.small_fundamental_weights()
        else:
            omegas = tuple(datum.check_dominant(
                datum.weight_from_fundamental(coeffs)) for coeffs in config.omegas)
        lams = datum.dominant_weights_up_to_height(config.height_bound)

        def run(mults, _d=datum, _o=omegas, _l=lams):
            # fresh cache per attempt: a pole retry must not leak
            # polynomials built with the discarded multiplicities
            cache = {}
            reports = []
            for omega in _o:
                for lam in _l:
                    reports.append(diffeq.verify_pieri(
                        _d, mults, omega, lam,
                        perturb=config.perturb, cache=cache))
            return reports, cache

        for s in range(config.samples):
            mults, (reports, cache) = _sample_with_retry(datum, config.seed, s, run)
            out.append({"datum": datum, "sample": s, "mults": mults,
                        "reports": reports, "cache": cache})
    return out


def eigen_cases(config: CampaignConfig, pieri_results=None):
    """Eigencheck plus closed-form leading coefficient for every polynomial
    the Pieri sweep constructed, and for the nonreduced rank 1 and 2 data."""
    pieri_results = pieri_results or pieri_cases(config)
    out = []
    for res in pieri_results:
        datum, mults = res["datum"], res["mults"]
        for (gkey, lam), poly in sorted(res["cache"].items()):
            rep = jacobi.verify_eigen(datum, mults, lam, poly)
            lead_ok = (poly.leading_coefficient()
                       == jacobi.opdam_leading_coefficient(datum, mults, lam))
            out.append({"system": _label(datum), "sample": res["sample"],
                        "lam": lam, "eigen": rep, "lead_ok": lead_ok})
    for rank, lams in ((1, [(0,), (1,), (2,)]), (2, [(1, 0), (1, 1), (2, 1)])):
        datum = build_root_system("BC", rank)
        rng = random.Random(f"{config.seed}:bc-eigen:{rank}")
        mults = diffeq.sample_multiplicities(datum, rng)
        for lam in lams:
            lam = tuple(Q(x) for x in lam)
            poly = jacobi.jacobi_polynomial(datum, mults, lam)
            rep = jacobi.verify_eigen(datum, mults, lam, poly)
            lead_ok = (poly.leading_coefficient()
                       == jacobi.opdam_leading_coefficient(datum, mults, lam))
            out.append({"system": _label(datum), "sample": 0, "lam": lam,
                        "eigen": rep, "lead_ok": lead_ok})
    return out


def bc_cases(config: CampaignConfig):
    """Nonreduced exact Pieri: rank 1 at ell=1 and rank 2 at ell=1,2 over all
    partitions with first part at most 3, for each multiplicity sample."""
    out = []
    jobs = [(1, (1,)), (2, (1, 2))]
    parts = {1: [(a,) for a in range(4)],
             2: [(a, b) for a in range(4) for b in range(a + 1)]}
    for n, ells in jobs:
        datum = build_root_system("BC", n)
        for s in range(config.samples):
            for attempt in range(24):
                rng = random.Random(f"{config.seed}:bc:{n}:{s}:{attempt}")
                gs = tuple(Q(rng.randint(1, 12), rng.randint(2, 13))
                           for _ in range(3))
                cache = {}
                reports = []
                try:
                    for ell in ells:
                        for lam in parts[n]:
                            reports.append(nonreduced.verify_pieri_bc(
                                n, gs, ell, lam, cache=cache, datum=datum))
                except diffeq.PoleAtSpectralPoint:
                    continue
                break
            else:
                raise RuntimeError("no pole-free multiplicity triple found")
            out.append({"n": n, "sample": s, "gs": gs, "reports": reports})
    # rank-one coefficient match with the displayed single-shift form
    coeff_rows = []
    rng = random.Random(f"{config.seed}:bc-j1")
    for _ in range(5):
        xi = (Q(rng.randint(1, 40), 7), Q(rng.randint(41, 80), 9))
        gs = (Q(3, 7), Q(5, 11), Q(9, 4))
        gap = nonreduced.rearrangement_gap(2, gs, xi)
        v_match = (nonreduced.coeff_V_signed(
            2, gs, nonreduced.SignedSubset((0,), (1,)), xi)
            == nonreduced.rank_one_shift_coefficient(2, gs, 0, xi))
        coeff_rows.append({"xi": [str(x) for x in xi],
                           "rearrangement_zero": gap == 0, "v_match": v_match})
    return out, coeff_rows


def quasi_cases(config: CampaignConfig):
    """Half-sum identity at five pole-free rational spectral points, plus the
    collapse consistency of the general term data, per applicable system."""
    out = []
    for family, rank in QUASI_SYSTEMS:
        datum = build_root_system(family, rank)
        omega = datum.quasi_minuscule_weight()
        m0 = Q(len(datum.weyl_orbit(omega)))
        rng = random.Random(f"{config.seed}:quasi:{_label(datum)}")
        mults = diffeq.sample_multiplicities(datum, rng)
        rows = []
        for _ in range(5):
            xi = diffeq.sample_spectral_point(datum, rng)
            value = diffeq.quasi_identity_value(datum, mults, omega, xi)
            rows.append({"xi": [_q_str(v) for v in xi], "ok": value == m0})
        consistency = diffeq.specialization_consistency(
            datum, mults, omega, diffeq.sample_spectral_point(datum, rng))
        minuscule_ok = True
        for w in datum.small_fundamental_weights():
            if datum.is_minuscule(w):
                rep = diffeq.specialization_consistency(
                    datum, mults, w, diffeq.sample_spectral_point(datum, rng))
                minuscule_ok = minuscule_ok and rep.ok
        out.append({"system": _label(datum), "m0": m0, "rows": rows,
                    "consistency": consistency, "minuscule_ok": minuscule_ok})
    return out


def confluence_cases(config: CampaignConfig):
    """Scaled-coefficient limits at the frozen spectral/base points, for the
    small fundamental weights plus the quasi-minuscule weight."""
    out = []
    for (family, rank), spot in CONFLUENCE_CASES.items():
        datum = build_root_system(family, rank)
        omegas = list(datum.small_fundamental_weights())
        qm = datum.quasi_minuscule_weight()
        if qm not in omegas:
            omegas.append(qm)
        xi = datum.weight_from_fundamental(spot["xi"])
        for omega in omegas:
            rep = whittaker.verify_confluence(datum, omega, xi, spot["x"],
                                              tol=config.tol_confluence)
            out.append(rep)
    return out


def homogeneity_cases(config: CampaignConfig):
    """Growth-rate identity for every (small omega, dominant mu < omega)."""
    out = []
    for family, rank in HOMOGENEITY_SYSTEMS:
        datum = build_root_system(family, rank)
        rng = random.Random(f"{config.seed}:homog:{_label(datum)}")
        samples = [diffeq.sample_multiplicities(datum, rng) for _ in range(3)]
        pairs = []
        for omega in datum.small_dominant_weights():
            for mu in datum.dominant_below(omega):
                if mu == omega:
                    continue
                exact = whittaker.homogeneity_identity(datum, omega, mu)
                gaps = [whittaker.homogeneity_gap(datum, m, omega, mu)
                        for m in samples]
                pairs.append({"omega": [_q_str(v) for v in omega],
                              "mu": [_q_str(v) for v in mu],
                              "exact": exact,
                              "sampled_zero": all(g == 0 for g in gaps)})
        out.append({"system": _label(datum), "pairs": pairs,
                    "ok": all(p["exact"] and p["sampled_zero"] for p in pairs)})
    return out


def whittaker_rank_one_case(config: CampaignConfig):
    return whittaker.rank_one_whittaker_check(WHITTAKER_ZETA)


def rankone_cases(config: CampaignConfig):
    """Numeric rank-one suite: residual sweep, exact recurrence, both
    cross-checks tying the terminating case to the generic machinery."""
    sweeps = [rankone.verify_de(g1, g2, DE_XI_GRID, DE_X_GRID, tol=config.tol_de)
              for g1, g2 in DE_PARAMETER_PAIRS]
    rr_ok = all(
        rankone.recurrence_rr(g1, g2, l, Q(1, 4))[0]
        == rankone.recurrence_rr(g1, g2, l, Q(1, 4))[1]
        and rankone.de_coefficients_match_rr(g1, g2, l)
        for g1, g2 in RR_PARAMETER_PAIRS for l in range(7))
    bc1_ok = all(rankone.bc1_crosscheck(g1, g2, l)
                 for g1, g2 in BC1_CROSS_PAIRS for l in range(7))
    spot = rankone.gauss_2f1_jacobi(
        rankone.HypergeometricParams(0.5, 1.0 / 3.0, 0.9, 1.1))
    oracle = float(rankone.series_2f1_highprec(
        Q(-19, 60), Q(89, 60), Q(4, 3), -math.sinh(0.55) ** 2))
    spot_ok = abs(spot - oracle) <= 1e-12 * abs(oracle)
    return sweeps, rr_ok, bc1_ok, spot_ok


# -- campaign assembly -----------------------------------------------------------


def run_campaign(config: CampaignConfig) -> CampaignResult:
    result = CampaignResult()

    if "pieri" in config.suites or "eigen" in config.suites:
        pieri_results = pieri_cases(config)
        if "pieri" in config.suites:
            for res in pieri_results:
                for rep in res["reports"]:
                    name = (f"pieri/{rep.system}/omega={_wt(rep.omega)}"
                            f"/lam={_wt(rep.lam)}/s{res['sample']}")
                    result.add(name, rep.ok, rep.to_dict())
        if "eigen" in config.suites:
            for row in eigen_cases(config, pieri_results):
                name = f"eigen/{row['system']}/lam={_wt(row['lam'])}/s{row['sample']}"
                result.add(name, row["eigen"].ok and row["lead_ok"],
                           {"eigen": row["eigen"].to_dict(),
                            "leading_matches_product": row["lead_ok"]})

    if "bc" in config.suites:
        bc_results, coeff_rows = bc_cases(config)
        for res in bc_results:
            for rep in res["reports"]:
                name = f"bc/n={rep.n}/ell={rep.ell}/lam={_wt(rep.lam)}/s{res['sample']}"
                result.add(name, rep.ok, rep.to_dict())
        result.add("bc/rank-one-coefficient-form",
                   all(r["rearrangement_zero"] and r["v_match"]
                       for r in coeff_rows), {"rows": coeff_rows})

    if "quasi" in config.suites:
        for row in quasi_cases(config):
            ok = (all(r["ok"] for r in row["rows"]) and row["consistency"].ok
                  and row["minuscule_ok"])
            result.add(f"quasi/{row['system']}", ok,
                       {"identity_value": str(row["m0"]),
                        "points": row["rows"],
                        "consistency": row["consistency"].to_dict()})

    if "whittaker" in config.suites:
        for rep in confluence_cases(config):
            result.add(f"confluence/{rep.system}/omega={_wt(rep.omega)}", rep.ok,
                       rep.to_dict())
        for row in homogeneity_cases(config):
            result.add(f"homogeneity/{row['system']}", row["ok"],
                       {"pairs": row["pairs"]})
        rep = whittaker_rank_one_case(config)
        result.add("whittaker/rank-one-ode",
                   rep.ok(config.tol_whittaker, config.tol_whittaker,
                          config.tol_asym),
                   rep.to_dict())

    if "rankone" in config.suites:
        sweeps, rr_ok, bc1_ok, spot_ok = rankone_cases(config)
        for sweep in sweeps:
            result.add(f"rankone/de-sweep/g1={sweep.g1}/g2={sweep.g2}",
                       sweep.ok, sweep.to_dict())
        result.add("rankone/recurrence-exact", rr_ok)
        result.add("rankone/bc1-crosscheck", bc1_ok)
        result.add("rankone/highprec-spot", spot_ok)

    return result


# -- subcommands -------------------------------------------------------------------


def _parse_rational_list(text: str, count: int):
    parts = [p.strip() for p in text.split(",")]
    values = [Q(p) for p in parts]
    if count is not None and len(values) not in (1, count):
        raise ValueError(f"expected 1 or {count} comma-separated values")
    if count is not None and len(values) == 1:
        values = values * count
    return values


def _parse_lambda(datum: RootDatum, text: str):
    coeffs = [Q(p.strip()) for p in text.split(",")]
    if len(coeffs) != datum.rank:
        raise ValueError(f"need {datum.rank} coefficients for {_label(datum)}")
    if datum.family == "BC":
        lam = tuple(coeffs)
    else:
        lam = datum.weight_from_fundamental(coeffs)
    return datum.check_dominant(lam)


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_jacobi(args) -> int:
    try:
        datum = build_root_system(args.family, args.rank)
        lam = _parse_lambda(datum, args.lam)
        gvals = _parse_rational_list(args.g, len(datum.root_orbits))
        mults = Multiplicities(datum, gvals)
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    poly = jacobi.jacobi_polynomial(datum, mults, lam)
    eigen = jacobi.verify_eigen(datum, mults, lam, poly)
    lead_ok = (poly.leading_coefficient()
               == jacobi.opdam_leading_coefficient(datum, mults, lam))
    payload = {"schema": SCHEMA, "jacobi": poly.to_json(),
               "checks": {"eigen": eigen.to_dict(),
                          "leading_matches_product": lead_ok}}
    _emit(payload, args.out)
    return EXIT_PASS if eigen.ok and lead_ok else EXIT_FAIL


def cmd_verify(args) -> int:
    suites = tuple(s.strip() for s in args.suite.split(",")) \
        if args.suite != "all" else CampaignConfig().suites
    systems = PIERI_SYSTEMS
    if args.family or args.rank is not None:
        if not args.family or args.rank is None:
            print("error: --family and --rank go together", file=sys.stderr)
            return EXIT_INVALID
        if not set(suites) <= {"pieri", "eigen"}:
            print("error: --family/--rank select systems only for the pieri "
                  "and eigen suites", file=sys.stderr)
            return EXIT_INVALID
        systems = ((args.family, args.rank),)
    omegas = None
    if args.omega:
        if not args.family:
            print("error: --omega requires --family/--rank", file=sys.stderr)
            return EXIT_INVALID
        omegas = (tuple(Q(p) for p in args.omega.split(",")),)
    unknown = set(suites) - set(CampaignConfig().suites)
    if unknown or not suites:
        print(f"error: unknown or empty suite selection {sorted(unknown)}",
              file=sys.stderr)
        return EXIT_INVALID
    if args.perturb and args.perturb not in diffeq.PERTURBATIONS:
        print(f"error: unknown perturbation {args.perturb}", file=sys.stderr)
        return EXIT_INVALID
    if not 1 <= args.samples <= MAX_SAMPLES:
        print(f"error: --samples must be between 1 and {MAX_SAMPLES}",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        height = Q(args.height)
    except (ValueError, ZeroDivisionError):
        height = None
    if height is None or not 0 <= height <= MAX_HEIGHT:
        print(f"error: --height must be a rational between 0 and {MAX_HEIGHT}",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        result = run_campaign(CampaignConfig(
            systems=systems, omegas=omegas, height_bound=height,
            samples=args.samples, seed=args.seed, suites=suites,
            perturb=args.perturb or None))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(result.summary(), args.out)
    return EXIT_PASS if result.n_fail == 0 else EXIT_FAIL


def _factor_latex(row, denom=False):
    shift = "" if row["shift"] == 0 else "1+"
    g = "" if denom else (" + g" if row["g_sign"] > 0 else " - g")
    alpha = ",".join(row["alpha"])
    return f"({shift}\\langle\\xi,({alpha})^\\vee\\rangle{g})"


def cmd_coeffs(args) -> int:
    try:
        datum = build_root_system(args.family, args.rank)
        omega = _parse_lambda(datum, args.omega)
        entries = diffeq.pieri_index(datum, omega)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    terms = []
    for entry in entries:
        v_factors, per_eta = diffeq.symbolic_factors(datum, entry)
        term = {"nu": [_q_str(v) for v in entry.nu],
                "nu_plus": [_q_str(v) for v in entry.nu_plus],
                "word": list(entry.word),
                "v_factors": v_factors,
                "etas": [{"eta": [_q_str(v) for v in eta], "u_factors": uf}
                         for eta, uf in zip(entry.etas, per_eta)]}
        if args.format == "latex":
            term["v_latex"] = "".join(
                _factor_latex(r) + "/" + _factor_latex(r, denom=True)
                for r in v_factors)
        terms.append(term)
    payload = {"schema": SCHEMA, "system": _label(datum),
               "omega": [_q_str(v) for v in omega],
               "n_terms": sum(len(t["etas"]) for t in terms), "terms": terms}
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_sweep_rank_one(args) -> int:
    try:
        xi_grid = [float(v) for v in args.xi.split(",")]
        x_grid = [float(v) for v in args.x.split(",")]
        report = rankone.verify_de(args.g1, args.g2, xi_grid, x_grid, tol=args.tol)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.csv:
        lines = ["xi,x,residual"] + [f"{xi},{x},{r:.6e}" for xi, x, r in report.rows]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit({"schema": SCHEMA, "sweep": report.to_dict()}, args.out)
    return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_whittaker_limits(args) -> int:
    try:
        datum = build_root_system(args.family, args.rank)
        omega = _parse_lambda(datum, args.omega)
        xi = datum.weight_from_fundamental(
            _parse_rational_list(args.xi, datum.rank))
        x = [float(v) for v in args.x.split(",")]
        if len(x) != datum.dim:
            raise ValueError(f"need {datum.dim} base-point coordinates")
        t_list = [float(v) for v in args.t.split(",")]
        report = whittaker.verify_confluence(datum, omega, xi, x,
                                             t_list=t_list, tol=args.tol)
        # dressed-limit prefactors, logged for inspection only
        norms = [{"t": t, "log_gamma_prefactor":
                  whittaker.log_normalization_constant(datum, t)} for t in t_list]
    except OverflowError:
        print("error: a coupling in --t is too large for float arithmetic",
              file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit({"schema": SCHEMA, "confluence": report.to_dict(),
           "normalization": norms}, args.out)
    return EXIT_PASS if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodiff",
        description="Exact and numeric verification of spectral difference "
                    "equations attached to root systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobi", help="construct one polynomial and check it")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="fundamental-weight coefficients (partition for BC)")
    p.add_argument("--g", required=True,
                   help="multiplicity per root orbit, e.g. 1/2 or 1/2,2/3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--suite", default="all",
                   help="comma list from pieri,eigen,bc,quasi,whittaker,rankone")
    p.add_argument("--family")
    p.add_argument("--rank", type=int)
    p.add_argument("--omega", default=None,
                   help="explicit weight for the pieri suite instead of "
                        "all small fundamentals (fundamental coefficients)")
    p.add_argument("--height", default="4")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seed", type=int, default=20150801)
    p.add_argument("--perturb", default=None,
                   help="negative-control hook: u-sign or v-drop-pairing2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coeffs", help="emit the structural term data")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("sweep-rank-one", help="residual sweep of the scalar identity")
    p.add_argument("--g1", type=float, default=0.5)
    p.add_argument("--g2", type=float, default=1.0 / 3.0)
    p.add_argument("--xi", default=",".join(str(v) for v in DE_XI_GRID))
    p.add_argument("--x", default=",".join(str(v) for v in DE_X_GRID))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep_rank_one)

    p = sub.add_parser("whittaker-limits", help="scaled coefficient limit check")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--xi", required=True,
                   help="rational fundamental-weight coefficients")
    p.add_argument("--x", required=True, help="float coordinates of the base point")
    p.add_argument("--t", default="10,20,30")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_whittaker_limits)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
