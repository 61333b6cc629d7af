"""Command-line entry point: construction, verification campaigns, reports.

Each suite driver returns its cases of the report, and ``run_campaign``
joins them into the ``hodiff/1`` report that ``hodiff verify`` writes; the
acceptance gate reads that same report, so a case's pass/fail rule is
written once, here.  Reports are JSON with canonical key order and contain
no timing data, so identical seeds give byte-identical output; exit codes
are 0 (all checks pass), 1 (a check failed), 2 (invalid invocation).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import eq

from . import diffeq, jacobi, nonreduced, rankone, whittaker
from .rootsys import Multiplicities, RootDatum, build_root_system, weight_str
from .weylalg import _q_str, expansion_labels, label_form

SCHEMA = "hodiff/1"
EXIT_PASS, EXIT_FAIL, EXIT_INVALID = 0, 1, 2

PIERI_SYSTEMS = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2))
HOMOGENEITY_SYSTEMS = (("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2))

# frozen spectral/base points for the confluence suite; pairings are kept
# small because the t=30 deviation floor of a quasi-minuscule shift term is
# about 3*exp(-15), only 8% under the bound whittaker.CONFLUENCE_TOL
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
_encode_str = json.encoder.encode_basestring_ascii   # a str's JSON text, as json.dumps writes it
# `verify` rejects a campaign that would check nothing (no samples, a
# negative height) and one larger than these caps
MAX_HEIGHT = 6
MAX_SAMPLES = 10
# per suite, in report order, the `verify` options its drivers read; an
# option that no selected suite reads is rejected
SUITE_READS = {
    "pieri": ("--height", "--samples", "--seed", "--perturb"),
    "eigen": ("--height", "--samples", "--seed"),
    "bc": ("--samples", "--seed", "--perturb"),
    "quasi": ("--seed",),
    "whittaker": ("--seed",),
    "rankone": (),
}


@dataclass
class CampaignConfig:
    systems: tuple = PIERI_SYSTEMS
    omegas: tuple | None = None   # dominant weights; None: all small fundamentals per system
    height_bound: Q = Q(4)
    samples: int = 3
    seed: int = 20150801
    suites: tuple = tuple(SUITE_READS)
    perturb: str | None = None
    # bounds of the float suites: class constants, not fields, as no caller
    # sets them; the DE and confluence bounds are named where they are checked
    tol_de = rankone.DE_TOL
    tol_confluence = whittaker.CONFLUENCE_TOL
    tol_whittaker = 1e-6
    tol_asym = 1e-4


def _case(name: str, ok: bool, detail=None) -> dict:
    """One case of the report: its name, "pass" or "fail", and its detail."""
    return {"case": name, "status": "pass" if ok else "fail",
            "detail": {} if detail is None else detail}


def _eigen_case(name: str, datum: RootDatum, mults: Multiplicities, lam, poly) -> dict:
    """The eigencheck of poly, and its leading coefficient against the
    closed product, as one case."""
    eigen = jacobi.verify_eigen(datum, mults, lam, poly)
    lead_ok = (poly.leading_coefficient()
               == jacobi.opdam_leading_coefficient(datum, mults, lam))
    return _case(name, eigen.ok and lead_ok,
                 {"eigen": eigen.to_dict(), "leading_matches_product": lead_ok})


def _datum(data: dict, family: str, rank: int) -> RootDatum:
    """The datum of (family, rank) in data, built there on first use.
    ``run_campaign`` hands the dict it is given (``verify`` parses --omega on
    it too) to every suite driver, so the memos on a datum (orbits, saturated
    sets, string tables, Pieri index) serve every suite and die with it."""
    if (family, rank) not in data:
        data[family, rank] = build_root_system(family, rank)
    return data[family, rank]


def _sample_with_retry(tag, draw, run):
    """(sample, run(sample)) for the first of 24 attempts k whose sample,
    drawn by draw from a Random seeded with f"{tag}:{k}", hits no pole."""
    for attempt in range(24):
        sample = draw(random.Random(f"{tag}:{attempt}"))
        try:
            return sample, run(sample)
        except diffeq.PoleAtSpectralPoint:
            continue
    raise RuntimeError(f"no pole-free sample found for {tag}")


# -- suite drivers -------------------------------------------------------------
# Each driver returns its cases of the report; every driver takes the
# campaign's data dict (see ``_datum``).


def pieri_cases(config: CampaignConfig, data: dict):
    """Criterion-style exact Pieri sweep: its cases, and per multiplicity
    sample the datum, multiplicities, sample index and polynomial cache, so
    that the eigen suite checks every polynomial the sweep built."""
    cases, samples = [], []
    for family, rank in config.systems:
        datum = _datum(data, family, rank)
        omegas = config.omegas or datum.small_fundamental_weights()
        lams = datum.dominant_weights_up_to_height(config.height_bound)

        def run(mults):
            # fresh cache per attempt: a pole retry must not leak
            # polynomials built with the discarded multiplicities
            cache = {}
            reports = []
            for omega in omegas:
                for lam in lams:
                    reports.append(diffeq.verify_pieri(
                        datum, mults, omega, lam,
                        perturb=config.perturb, cache=cache))
            return reports, cache

        for s in range(config.samples):
            mults, (reports, cache) = _sample_with_retry(
                f"{config.seed}:{datum.name}:{s}",
                lambda rng: diffeq.sample_multiplicities(datum, rng), run)
            cases += [_case(f"pieri/{rep.system}/omega={weight_str(rep.omega)}"
                            f"/lam={weight_str(rep.lam)}/s{s}", rep.ok, rep.to_dict())
                      for rep in reports]
            samples.append({"datum": datum, "sample": s, "mults": mults, "cache": cache})
    return cases, samples


def eigen_cases(config: CampaignConfig, samples: list, data: dict):
    """Eigencheck plus closed-form leading coefficient for every polynomial
    in the caches of the Pieri sweep's samples, and for the nonreduced rank
    1 and 2 data."""
    jobs = [(res["datum"], res["mults"], res["sample"], lam, poly) for res in samples
            for (_g, lam), poly in sorted(res["cache"].items(),
                                          key=lambda kv: res["datum"]._vector_key(kv[1].top))]
    for rank, lams in ((1, [(0,), (1,), (2,)]), (2, [(1, 0), (1, 1), (2, 1)])):
        datum = _datum(data, "BC", rank)
        rng = random.Random(f"{config.seed}:bc-eigen:{rank}")
        mults = diffeq.sample_multiplicities(datum, rng)
        for lam in (tuple(map(Q, lam)) for lam in lams):
            jobs.append((datum, mults, 0, lam, jacobi.jacobi_polynomial(datum, mults, lam)))
    return [_eigen_case(f"eigen/{datum.name}/lam={weight_str(lam)}/s{sample}",
                        datum, mults, lam, poly)
            for datum, mults, sample, lam, poly in jobs]


def bc_cases(config: CampaignConfig, data: dict):
    """Nonreduced exact Pieri: rank 1 at ell=1 and rank 2 at ell=1,2 over all
    partitions with first part at most 3, for each multiplicity sample
    (g, g1, g2), which each case's detail records (BC1 has no g orbit).
    --perturb edits the factor lists as in the pieri suite; u-sign is blind
    at ell = 1, whose U lists hold only the alpha/2 entries it leaves alone,
    so under it only the ell = 2 cases fail."""
    cases, e_match = [], True
    parts = {1: [(Q(a),) for a in range(4)],
             2: [(Q(a), Q(b)) for a in range(4) for b in range(a + 1)]}
    for n, ells in ((1, (1,)), (2, (1, 2))):
        datum = _datum(data, "BC", n)
        # the displayed product E_ell is the twisted E_omega the cases read
        e_match = e_match and all(
            label_form(datum, nonreduced.expansion_E_ell(n, ell)).terms
            == expansion_labels(datum, tuple(Q(int(k < ell)) for k in range(n))).terms
            for ell in ells)

        def run(gs):
            # fresh cache per attempt, as in pieri_cases
            mults, cache = nonreduced.bc_multiplicities(datum, *gs), {}
            return [nonreduced.verify_pieri_bc(datum, mults, ell, lam,
                                               perturb=config.perturb, cache=cache)
                    for ell in ells for lam in parts[n]]

        for s in range(config.samples):
            gs, reports = _sample_with_retry(
                f"{config.seed}:bc:{n}:{s}",
                lambda rng: tuple(Q(rng.randint(1, 12), rng.randint(2, 13))
                                  for _ in range(3)), run)
            drawn = dict(zip(("g", "g1", "g2"), map(str, gs)))
            cases += [_case(f"bc/n={rep.n}/ell={rep.ell}/lam={weight_str(rep.lam)}/s{s}",
                            rep.ok, {**rep.to_dict(), **drawn}) for rep in reports]
    # rank-one coefficient match with the displayed form, at pole-free points
    rows = []
    rng = random.Random(f"{config.seed}:bc-j1")
    bc2, gs = _datum(data, "BC", 2), (Q(3, 7), Q(5, 11), Q(9, 4))
    mults = nonreduced.bc_multiplicities(bc2, *gs)
    for _ in range(5):
        while 0 in bc2.pairings(xi := (Q(rng.randint(1, 40), 7), Q(rng.randint(41, 80), 9))):
            pass
        gap = nonreduced.rearrangement_gap(bc2, gs, xi)
        v_match = (nonreduced.coeff_V_signed(bc2, mults, (1, 0), xi)
                   == nonreduced.rank_one_shift_coefficient(2, gs, 0, xi))
        rows.append({"xi": [str(x) for x in xi],
                     "rearrangement_zero": gap == 0, "v_match": v_match})
    ok = e_match and all(r["rearrangement_zero"] and r["v_match"] for r in rows)
    return cases + [_case("bc/rank-one-coefficient-form", ok, {"rows": rows})]


def quasi_cases(config: CampaignConfig, data: dict):
    """Half-sum identity at five pole-free rational spectral points, plus the
    collapse consistency of the general term data, per applicable system."""
    cases = []
    for family, rank in PIERI_SYSTEMS:
        datum = _datum(data, family, rank)
        omega = datum.quasi_minuscule_weight()
        m0 = Q(len(datum.orbit_labels(datum.labels(omega))))
        rng = random.Random(f"{config.seed}:quasi:{datum.name}")
        mults = diffeq.sample_multiplicities(datum, rng)
        rows = []
        for _ in range(5):
            xi = diffeq.sample_spectral_point(datum, rng)
            value = diffeq.quasi_identity_value(datum, mults, omega, xi)
            rows.append({"xi": [_q_str(v) for v in xi], "ok": value == m0})
        consistency = diffeq.specialization_consistency(
            datum, mults, omega, diffeq.sample_spectral_point(datum, rng))
        ok = all(r["ok"] for r in rows) and consistency.ok
        for w in datum.small_fundamental_weights():
            if datum.is_minuscule(w):
                rep = diffeq.specialization_consistency(
                    datum, mults, w, diffeq.sample_spectral_point(datum, rng))
                ok = ok and rep.ok
        cases.append(_case(f"quasi/{datum.name}", ok,
                           {"identity_value": str(m0), "points": rows,
                            "consistency": consistency.to_dict()}))
    return cases


def confluence_cases(config: CampaignConfig, data: dict):
    """Scaled-coefficient limits at the frozen spectral/base points, for the
    small fundamental weights plus the quasi-minuscule weight."""
    cases = []
    for (family, rank), spot in CONFLUENCE_CASES.items():
        datum = _datum(data, family, rank)
        omegas = list(datum.small_fundamental_weights())
        qm = datum.quasi_minuscule_weight()
        if qm not in omegas:
            omegas.append(qm)
        xi = datum.weight_from_fundamental(spot["xi"])
        for omega in omegas:
            rep = whittaker.verify_confluence(datum, omega, xi, spot["x"],
                                              tol=config.tol_confluence)
            cases.append(_case(f"confluence/{rep.system}/omega={weight_str(rep.omega)}",
                               rep.ok, rep.to_dict()))
    return cases


def homogeneity_cases(config: CampaignConfig, data: dict):
    """Growth-rate identity for every (small omega, dominant mu < omega)."""
    cases = []
    for family, rank in HOMOGENEITY_SYSTEMS:
        datum = _datum(data, family, rank)
        rng = random.Random(f"{config.seed}:homog:{datum.name}")
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
        cases.append(_case(f"homogeneity/{datum.name}",
                           all(p["exact"] and p["sampled_zero"] for p in pairs),
                           {"pairs": pairs}))
    return cases


def whittaker_rank_one_case(config: CampaignConfig, data: dict):
    rep = whittaker.rank_one_whittaker_check(WHITTAKER_ZETA, _datum(data, "A", 1))
    return [_case("whittaker/rank-one-ode",
                  rep.ok(config.tol_whittaker, config.tol_whittaker, config.tol_asym),
                  rep.to_dict())]


def rankone_cases(config: CampaignConfig, data: dict):
    """Numeric rank-one suite: residual sweep, exact recurrence, both
    cross-checks tying the terminating case to the generic machinery."""
    sweeps = [rankone.verify_de(g1, g2, DE_XI_GRID, DE_X_GRID, tol=config.tol_de)
              for g1, g2 in DE_PARAMETER_PAIRS]
    rr_ok = all(
        eq(*rankone.recurrence_rr(g1, g2, l, Q(1, 4)))
        and rankone.de_coefficients_match_rr(g1, g2, l)
        for g1, g2 in RR_PARAMETER_PAIRS for l in range(7))
    bc1 = _datum(data, "BC", 1)
    bc1_ok = all(rankone.bc1_crosscheck(g1, g2, l, datum=bc1)
                 for g1, g2 in BC1_CROSS_PAIRS for l in range(7))
    spot = rankone.gauss_2f1_jacobi(
        rankone.HypergeometricParams(0.5, 1.0 / 3.0, 0.9, 1.1))
    oracle = float(rankone.series_2f1_highprec(
        Q(-19, 60), Q(89, 60), Q(4, 3), -math.sinh(0.55) ** 2))
    spot_ok = abs(spot - oracle) <= 1e-12 * abs(oracle)
    return [_case(f"rankone/de-sweep/g1={sweep.g1}/g2={sweep.g2}", sweep.ok, sweep.to_dict())
            for sweep in sweeps] + [_case("rankone/recurrence-exact", rr_ok),
                                    _case("rankone/bc1-crosscheck", bc1_ok),
                                    _case("rankone/highprec-spot", spot_ok)]


# -- campaign assembly -----------------------------------------------------------


def run_campaign(config: CampaignConfig, data: dict) -> dict:
    """The ``hodiff/1`` report of the selected suites, in report order, on data (``_datum``)."""
    cases = []
    if "pieri" in config.suites or "eigen" in config.suites:
        pieri, samples = pieri_cases(config, data)
        if "pieri" in config.suites:
            cases += pieri
        if "eigen" in config.suites:
            cases += eigen_cases(config, samples, data)
    if "bc" in config.suites:
        cases += bc_cases(config, data)
    if "quasi" in config.suites:
        cases += quasi_cases(config, data)
    if "whittaker" in config.suites:
        cases += confluence_cases(config, data) + homogeneity_cases(config, data)
        cases += whittaker_rank_one_case(config, data)
    if "rankone" in config.suites:
        cases += rankone_cases(config, data)
    failures = [c["case"] for c in cases if c["status"] != "pass"]
    return {"schema": SCHEMA, "n_cases": len(cases), "n_pass": len(cases) - len(failures),
            "n_fail": len(failures), "failures": failures, "cases": cases}


# -- subcommands -------------------------------------------------------------------


def _parse_rational_list(option: str, text: str, count: int):
    """Comma-separated rationals, 1 or count of them (count None: any
    number); else a ValueError naming option."""
    values = []
    for part in (p.strip() for p in text.split(",")):
        try:
            values.append(Q(part))
        except ZeroDivisionError:
            raise ValueError(f"{option}: zero denominator in {part!r}") from None
        except ValueError:
            raise ValueError(f"{option}: {part!r} is not a rational number") from None
    if count is not None and len(values) not in (1, count):
        raise ValueError(f"{option}: expected 1 or {count} comma-separated values")
    if count is not None and len(values) == 1:
        values = values * count
    return values


def _parse_lambda(datum: RootDatum, option: str, text: str):
    coeffs = _parse_rational_list(option, text, None)
    if len(coeffs) != datum.rank:
        raise ValueError(f"{option}: need {datum.rank} coefficients for {datum.name}")
    if datum.family == "BC":
        lam = tuple(coeffs)
    else:
        lam = datum.weight_from_fundamental(coeffs)
    return datum.check_dominant(lam)


def _parse_omega(datum: RootDatum, text: str):
    """The dominant weight of --omega, which must be small (``small_labels``)."""
    omega = _parse_lambda(datum, "--omega", text)
    try:
        datum.small_labels(omega)
    except ValueError as exc:
        raise ValueError(f"--omega: {exc}") from None
    return omega


class OutputError(Exception):
    """The file named by --out cannot be written."""


def _json_chunks(x, pre, nl, out) -> list:
    """out with x appended as json.dumps(x, indent=2, sort_keys=True) writes it
    at line break and indent nl, pre (separator and key) joined to its first
    chunk, save that a NaN or infinite float is the JSON string "NaN",
    "Infinity" or "-Infinity", so that a failing report is strict JSON too;
    json.dumps writes only {}, [] and subclasses, and raises TypeError for a
    value that JSON cannot hold."""
    t = type(x)
    if t is str:
        out.append(pre + _encode_str(x))
    elif t is int or t is float and math.isfinite(x):
        out.append(pre + t.__repr__(x))
    elif t is bool or x is None:
        out.append(pre + ("null" if x is None else "true" if x else "false"))
    elif isinstance(x, float) and not math.isfinite(x):
        out.append(f'{pre}"{json.dumps(x)}"')
    elif isinstance(x, (dict, list, tuple)) and x:
        keyed, inner = isinstance(x, dict), nl + "  "
        pre += ("{" if keyed else "[") + inner
        for k, v in sorted(x.items()) if keyed else enumerate(x):
            if keyed:   # json quotes the text of a key that is no str
                pre += (_encode_str(k) if type(k) is str else json.dumps({k: 0})[1:-4]) + ": "
            _json_chunks(v, pre, inner, out)
            pre = "," + inner
        out.append(nl + ("}" if keyed else "]"))
    else:
        out.append(pre + json.dumps(x))
    return out


def _emit(payload, out_path):
    """payload as canonical JSON, json.dumps(payload, indent=2, sort_keys=True)
    and a newline written in one pass (a str as it is), to out_path or stdout."""
    text = (payload if isinstance(payload, str)
            else "".join(_json_chunks(payload, "", "\n", [])) + "\n")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"--out: cannot write {out_path}: "
                              f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def cmd_jacobi(args) -> int:
    datum = build_root_system(args.family, args.rank)
    lam = _parse_lambda(datum, "--lambda", args.lam)
    gvals = _parse_rational_list("--g", args.g, len(datum.root_orbits))
    mults = Multiplicities(datum, gvals)
    poly = jacobi.jacobi_polynomial(datum, mults, lam)
    case = _eigen_case("jacobi", datum, mults, lam, poly)
    _emit({"schema": SCHEMA, "jacobi": poly.to_json(), "checks": case["detail"]}, args.out)
    return EXIT_PASS if case["status"] == "pass" else EXIT_FAIL


def cmd_verify(args) -> int:
    suites = tuple(s.strip() for s in args.suite.split(",")) \
        if args.suite != "all" else tuple(SUITE_READS)
    systems, omegas = PIERI_SYSTEMS, None
    if args.family or args.rank is not None:
        if not args.family or args.rank is None:
            raise ValueError("--family and --rank go together")
        if not set(suites) <= {"pieri", "eigen"} or args.family == "BC":
            raise ValueError("--family/--rank select reduced systems for the pieri and "
                             "eigen suites only; BC is checked by the bc suite")
        systems = ((args.family, args.rank),)
    if args.omega and not args.family:
        raise ValueError("--omega requires --family/--rank")
    unknown = set(suites) - set(SUITE_READS)
    if unknown or not suites:
        raise ValueError(f"unknown or empty suite selection {sorted(unknown)}")
    if args.perturb and args.perturb not in diffeq.PERTURBATIONS:
        raise ValueError(f"unknown perturbation {args.perturb}")
    for option, value in (("--height", args.height), ("--samples", args.samples),
                          ("--seed", args.seed), ("--perturb", args.perturb or None)):
        readers = [suite for suite, reads in SUITE_READS.items() if option in reads]
        if value is not None and not set(readers) & set(suites):
            raise ValueError(f"{option}: read only by the suites {', '.join(readers)}")
    samples = CampaignConfig.samples if args.samples is None else args.samples
    seed = CampaignConfig.seed if args.seed is None else args.seed
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be between 1 and {MAX_SAMPLES}")
    try:
        height = CampaignConfig.height_bound if args.height is None else Q(args.height)
    except (ValueError, ZeroDivisionError):
        height = None
    if height is None or not 0 <= height <= MAX_HEIGHT:
        raise ValueError(f"--height must be a rational between 0 and {MAX_HEIGHT}")
    data = {}
    if args.omega:
        datum = _datum(data, args.family, args.rank)
        omegas = (_parse_omega(datum, args.omega),)
    report = run_campaign(CampaignConfig(
        systems=systems, omegas=omegas, height_bound=height,
        samples=samples, seed=seed, suites=suites,
        perturb=args.perturb or None), data)
    _emit(report, args.out)
    return EXIT_PASS if report["n_fail"] == 0 else EXIT_FAIL


def _factor_latex(row, denom=False):
    shift = "" if row["shift"] == 0 else "1+"
    g = "" if denom else (" + g" if row["g_sign"] > 0 else " - g")
    alpha = ",".join(row["alpha"])
    return f"({shift}\\langle\\xi,({alpha})^\\vee\\rangle{g})"


def cmd_coeffs(args) -> int:
    datum = build_root_system(args.family, args.rank)
    if datum.family == "BC":
        raise ValueError("coeffs lists the reduced-system factor lists; "
                         "the BC equation is checked by the bc suite")
    omega = _parse_omega(datum, args.omega)
    terms = []
    for entry in diffeq.pieri_index(datum, omega):
        v_factors, per_eta = diffeq.symbolic_factors(datum, entry)
        term = {"nu": [_q_str(v) for v in datum.from_labels(entry.nu_labels)],
                "nu_plus": [_q_str(v) for v in datum.from_labels(entry.plus_labels)],
                "word": list(entry.word),
                "v_factors": v_factors,
                "etas": [{"eta": [_q_str(v) for v in datum.from_labels(eta)], "u_factors": uf}
                         for eta, uf in zip(entry.eta_labels, per_eta)]}
        if args.format == "latex":
            term["v_latex"] = "".join(
                _factor_latex(r) + "/" + _factor_latex(r, denom=True)
                for r in v_factors)
        terms.append(term)
    payload = {"schema": SCHEMA, "system": datum.name,
               "omega": [_q_str(v) for v in omega],
               "n_terms": sum(len(t["etas"]) for t in terms), "terms": terms}
    _emit(payload, args.out)
    return EXIT_PASS


def _parse_float_list(option: str, text: str, increasing: bool = False) -> list:
    """Comma-separated finite floats, strictly increasing if asked; else a
    ValueError naming option, as for an empty or unparsable entry."""
    values = []
    for part in (p.strip() for p in text.split(",")):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{option}: {part!r} is not a number") from None
        if not math.isfinite(values[-1]):
            raise ValueError(f"{option}: {part} is not finite")
    if increasing and any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{option}: values must increase strictly")
    return values


def cmd_sweep_rank_one(args) -> int:
    for option, g in (("--g1", args.g1), ("--g2", args.g2)):
        if not math.isfinite(g):
            raise ValueError(f"{option}: {g} is not finite")
    xi_grid = _parse_float_list("--xi", args.xi)
    x_grid = _parse_float_list("--x", args.x)
    report = rankone.verify_de(args.g1, args.g2, xi_grid, x_grid, tol=rankone.DE_TOL)
    if args.csv:
        lines = ["xi,x,residual"] + [f"{xi},{x},{r:.6e}" for xi, x, r in report.rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit({"schema": SCHEMA, "sweep": report.to_dict()}, args.out)
    return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_whittaker_limits(args) -> int:
    datum = build_root_system(args.family, args.rank)
    omega = _parse_omega(datum, args.omega)
    xi = datum.weight_from_fundamental(
        _parse_rational_list("--xi", args.xi, datum.rank))
    try:
        diffeq.float_table(datum.pairings(xi))
    except OverflowError:
        raise ValueError("--xi: a pairing with a coroot is too large for "
                         "float arithmetic") from None
    x = _parse_float_list("--x", args.x)
    if len(x) != datum.dim:
        raise ValueError(f"--x: need {datum.dim} base-point coordinates")
    far = "--x: the base point is too far out for float arithmetic"
    try:   # e^<nu,x> on P(omega) peaks on W omega; e^<omega,x> is the limit
        max(whittaker.ebar(datum, v, x) for v in datum.weyl_orbit(omega))
    except OverflowError:
        raise ValueError(far) from None
    if not whittaker.ebar(datum, omega, x):
        raise ValueError(far)
    t_list = _parse_float_list("--t", args.t, increasing=True)
    try:
        report = whittaker.verify_confluence(datum, omega, xi, x, t_list=t_list)
        # dressed-limit prefactors, logged for inspection only
        norms = [{"t": t, "log_gamma_prefactor":
                  whittaker.log_normalization_constant(datum, t)} for t in t_list]
    except OverflowError:
        raise ValueError("a coupling in --t is too large for float arithmetic") from None
    _emit({"schema": SCHEMA, "confluence": report.to_dict(),
           "normalization": norms}, args.out)
    return EXIT_PASS if report.ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input, so it leaves through ``main``'s one exit."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--suite", default="all", help="comma list from " + ",".join(SUITE_READS))
    p.add_argument("--family")
    p.add_argument("--rank", type=int)
    p.add_argument("--omega", help="explicit weight for the pieri suite instead of "
                   "all small fundamentals (fundamental coefficients)")
    p.add_argument("--height", help="height bound on lambda for the pieri and eigen "
                   f"suites (default {CampaignConfig.height_bound})")
    p.add_argument("--samples", type=int,
                   help=f"samples per system (default {CampaignConfig.samples})")
    p.add_argument("--seed", type=int, help=f"default {CampaignConfig.seed}")
    p.add_argument("--perturb", help="negative-control hook: "
                   + " or ".join(diffeq.PERTURBATIONS))
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
    p.add_argument("--g1", type=float, default=DE_PARAMETER_PAIRS[0][0])
    p.add_argument("--g2", type=float, default=DE_PARAMETER_PAIRS[0][1])
    p.add_argument("--xi", default=",".join(str(v) for v in DE_XI_GRID))
    p.add_argument("--x", default=",".join(str(v) for v in DE_X_GRID))
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
    p.add_argument("--t", default=",".join(map(str, whittaker.CONFLUENCE_T)))
    p.add_argument("--out")
    p.set_defaults(func=cmd_whittaker_limits)
    return parser


def main(argv=None) -> int:
    """The one error exit: bad input (a usage error, a ValueError, an ArithmeticError)
    and an unwritable --out print one line and return 2; other errors propagate."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ArithmeticError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
