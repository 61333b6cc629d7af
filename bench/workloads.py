"""The benchmark's workloads: seeded inputs, rounds of timed operations, and
the checks on their outputs.

A workload's ``round(r)`` is a generator.  It yields ``(kind, call)`` for
each operation; the runner times ``call()`` alone and sends its result back,
so work between operations (building a root datum, drawing a sample) counts
in the phase's wall time but in no operation's time.  Every round of one
workload runs the same operations, so any failure is the same share of the
attempted operations whatever the seed and however many rounds run.

The ``check_*`` functions take plain outputs and return a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction as Q

import mpmath

from hodiff import cli, diffeq, jacobi, rankone, rootsys, weylalg, whittaker

# -- campaign --------------------------------------------------------------------


def check_campaign(reports, controls) -> list:
    """reports: (exit code, report bytes) per verify call; controls:
    perturbation -> exit code of the negative-control run."""
    problems = []
    for i, (code, data) in enumerate(reports):
        if code is None:
            continue   # a failed operation, counted as failed
        if code != 0:
            problems.append(f"campaign {i}: exit code {code}")
        summary = json.loads(data)
        cases = summary.get("cases", [])
        if (not cases or summary.get("failures")
                or summary.get("n_pass") != len(cases)
                or any(c.get("status") != "pass" for c in cases)):
            problems.append(f"campaign {i}: not every case passed")
    digests = {hashlib.sha256(data).hexdigest()
               for code, data in reports if code is not None}
    if len(digests) > 1:
        problems.append(f"campaign: {len(digests)} different report digests")
    for perturb in diffeq.PERTURBATIONS:
        if controls.get(perturb) != 1:
            problems.append(f"negative control {perturb}: exit code "
                            f"{controls.get(perturb)}, expected 1")
    return problems


class Campaign:
    """The default ``hodiff verify`` (all suites, default seed) through
    ``cli.main``; one operation is one whole campaign."""

    name = "campaign"
    nominal_round_s = 23.0
    min_rounds = 2          # the byte-identity check needs two reports

    def __init__(self, seed: int, out_dir: str):
        # the campaign keeps its own default seed: it is the headline figure
        self.out_dir = out_dir
        self.reports = []

    def _path(self, tag):
        return os.path.join(self.out_dir, f"campaign-{os.getpid()}-{tag}.json")

    def round(self, r):
        path = self._path(len(self.reports))
        code = yield "verify", lambda: cli.main(["verify", "--out", path])
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
        self.reports.append((code, data))

    def check(self) -> list:
        controls = {}
        for perturb in diffeq.PERTURBATIONS:
            path = self._path(perturb)
            controls[perturb] = cli.main(
                ["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
                 "--perturb", perturb, "--out", path])
            if os.path.exists(path):
                os.remove(path)
        return check_campaign(self.reports, controls)


# -- exceptional -----------------------------------------------------------------

# (family, rank, indices of the small fundamental weights checked)
EXCEPTIONAL_SYSTEMS = (("F", 4, (1, 4)), ("E", 6, (1, 6, 2)))
WEYL_ORDERS = {"F4": 1152, "E6": 51840}
ORBIT_SIZES = {"F4": {1: 24, 4: 24}, "E6": {1: 27, 6: 27, 2: 72}}
SAMPLES_PER_ROUND = 3
MAX_DRAWS = 100


def draw_pole_free(datum, tag: str):
    """Seeded multiplicities with <rho_g, a^vee> outside {0, -1} for every
    root a, so that no coefficient at the spectral point rho_g has a pole.

    Each value is p/q in lowest terms with 7 <= q <= 13 and 1 <= p <= 12.
    Keeping the denominators the same size keeps the cost of one sample
    within about 4 % of another, where the campaign's sampler (2 <= q <= 13)
    lets it vary by about 15 %.
    """
    for attempt in range(MAX_DRAWS):
        rng = random.Random(f"{tag}:{attempt}")
        values = []
        for _ in datum.root_orbits:
            q = rng.randint(7, 13)
            p = rng.choice([p for p in range(1, 13) if math.gcd(p, q) == 1])
            values.append(Q(p, q))
        mults = rootsys.Multiplicities(datum, values)
        rho = datum.rho(mults)
        if all(datum.pairing(rho, a) not in (0, -1) for a in datum.roots):
            return mults
    raise RuntimeError(f"no pole-free multiplicity sample for {tag}")


def check_exceptional(pieri, eigen, polys, orders, orbit_sizes) -> list:
    """pieri, eigen: reports (None for a failed operation); polys: (datum,
    JacobiPolynomial); orders: label -> |W|; orbit_sizes: label -> {i: size}."""
    problems = []
    for rep in pieri + eigen:
        if rep is not None and (not rep.ok or rep.residual):
            problems.append(f"{rep.system} lambda={rep.lam}: nonzero residual")
    for label, want in WEYL_ORDERS.items():
        if orders.get(label) != want:
            problems.append(f"{label}: Weyl group order {orders.get(label)}, "
                            f"expected {want}")
    for label, table in ORBIT_SIZES.items():
        for i, want in table.items():
            got = orbit_sizes.get(label, {}).get(i)
            if got != want:
                problems.append(f"{label}: orbit of omega{i} has {got} elements, "
                                f"expected {want}")
    for datum, poly in polys:
        p = poly.exp_poly()
        if p.value_at_zero() != 1:
            problems.append(f"{datum!r} P_{poly.lam}: value {p.value_at_zero()} at 0")
        if not weylalg.is_w_invariant(datum, p):
            problems.append(f"{datum!r} P_{poly.lam}: not W-invariant")
    if not pieri or not polys:
        problems.append("exceptional: no outputs")
    return problems


class Exceptional:
    """Exact Pieri checks at lambda = 0 on F4 and E6, each polynomial built
    then eigenchecked.  One operation is one ``verify_pieri`` or one
    ``verify_eigen`` call.  Each round builds its root data afresh, so its
    first sample fills the per-datum caches and the later ones reuse them."""

    name = "exceptional"
    nominal_round_s = 26.0
    min_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.pieri, self.eigen, self.polys = [], [], []

    def round(self, r):
        for family, rank, indices in EXCEPTIONAL_SYSTEMS:
            datum = rootsys.build_root_system(family, rank)
            zero = (Q(0),) * datum.dim
            for s in range(SAMPLES_PER_ROUND):
                mults = draw_pole_free(datum, f"{self.seed}:{family}{rank}:{r}:{s}")
                for i in indices:
                    omega = datum.fundamental_weights[i - 1]
                    cache = {}
                    self.pieri.append((yield "verify_pieri", lambda: diffeq.verify_pieri(
                        datum, mults, omega, zero, cache=cache)))
                    for (_g, lam), poly in sorted(cache.items(), key=lambda kv: kv[0]):
                        self.eigen.append((yield "verify_eigen", lambda: jacobi.verify_eigen(
                            datum, mults, lam, poly)))
                        self.polys.append((datum, poly))

    def check(self) -> list:
        orders, orbit_sizes = {}, {}
        for family, rank, indices in EXCEPTIONAL_SYSTEMS:
            datum = rootsys.build_root_system(family, rank)
            label = f"{family}{rank}"
            orders[label] = datum.weyl_order()
            orbit_sizes[label] = {i: len(datum.weyl_orbit(datum.fundamental_weights[i - 1]))
                                  for i in indices}
        return check_exceptional(self.pieri, self.eigen, self.polys, orders, orbit_sizes)


# -- numeric -----------------------------------------------------------------------

POINTS_PER_ROUND = 8
SWEEPS_PER_ROUND = 40
CONFLUENCE_T = (6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0)
ORACLE_POINTS = 128
ORACLE_TOL = 1e-12
ORACLE_DPS = 30


def hyp2f1_reference(params) -> float:
    """The rank-one kernel from mpmath's hyp2f1, independent of the series."""
    a, b, c = params.abc
    with mpmath.workdps(ORACLE_DPS):
        z = -mpmath.sinh(mpmath.mpf(params.x) / 2) ** 2
        return float(mpmath.hyp2f1(a, b, c, z))


def check_numeric(points, sweeps, confluences, odes, config) -> list:
    """points: (HypergeometricParams, value from gauss_2f1_jacobi) to hold
    against mpmath; sweeps, confluences, odes: reports (None for a failed
    operation)."""
    problems = []
    for params, value in points:
        ref = hyp2f1_reference(params)
        if not abs(value - ref) <= ORACLE_TOL * abs(ref):
            problems.append(f"2F1 at {params}: {value!r} vs hyp2f1 {ref!r}")
    n_grid = len(cli.DE_XI_GRID) * len(cli.DE_X_GRID)
    for rep in sweeps:
        if rep is not None and (len(rep.rows) != n_grid or not rep.ok):
            problems.append(f"DE sweep g1={rep.g1} g2={rep.g2}: residual "
                            f"{rep.max_residual():.3e} over {len(rep.rows)} points")
    for rep in confluences:
        if rep is not None and (not rep.rows or not rep.ok):
            problems.append(f"confluence {rep.system} omega={rep.omega}: fail")
    for rep in odes:
        if rep is not None and not rep.ok(config.tol_whittaker,
                                          config.tol_whittaker, config.tol_asym):
            problems.append(f"rank-one Whittaker check zeta={rep.zeta}: fail")
    if not points or not sweeps or not confluences or not odes:
        problems.append("numeric: no outputs")
    return problems


class Numeric:
    """The float side: rank-one 2F1 point values, DE residual sweeps,
    confluence limits over a finer t grid and the rank-one Toda ODE check.
    One operation is one ``gauss_2f1_jacobi``, ``verify_de``,
    ``verify_confluence`` or ``rank_one_whittaker_check`` call."""

    name = "numeric"
    nominal_round_s = 1.05
    min_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.config = cli.CampaignConfig()
        self.points, self.sweeps, self.confluences, self.odes = [], [], [], []
        self.cases = []
        for (family, rank), spot in cli.CONFLUENCE_CASES.items():
            datum = rootsys.build_root_system(family, rank)
            omegas = list(datum.small_fundamental_weights())
            if datum.quasi_minuscule_weight() not in omegas:
                omegas.append(datum.quasi_minuscule_weight())
            xi = datum.weight_from_fundamental(spot["xi"])
            for omega in omegas:
                diffeq.pieri_index(datum, omega)   # fill the per-datum cache
                self.cases.append((datum, omega, xi, spot["x"]))

    def inputs(self, r):
        """Kernel points, (g1, g2) sweep pairs, and one zeta >= 1 at least
        0.1 from an integer, all drawn from the seed and the round."""
        rng = random.Random(f"{self.seed}:numeric:{r}")
        points = [rankone.HypergeometricParams(
            rng.uniform(0.1, 3.0), rng.uniform(0.05, 2.0),
            rng.uniform(0.1, 4.0), rng.uniform(0.1, 3.0))
            for _ in range(POINTS_PER_ROUND)]
        pairs = [(rng.uniform(0.1, 3.0), rng.uniform(0.05, 2.0))
                 for _ in range(SWEEPS_PER_ROUND)]
        while True:
            zeta = rng.uniform(1.1, 3.9)
            if abs(zeta - round(zeta)) >= 0.1:
                return points, pairs, zeta

    def round(self, r):
        points, pairs, zeta = self.inputs(r)
        cfg = self.config
        for params in points:
            value = yield "gauss_2f1_jacobi", lambda: rankone.gauss_2f1_jacobi(params)
            self.points.append((params, value))
        for g1, g2 in pairs:
            self.sweeps.append((yield "verify_de", lambda: rankone.verify_de(
                g1, g2, cli.DE_XI_GRID, cli.DE_X_GRID, tol=cfg.tol_de)))
        for datum, omega, xi, x in self.cases:
            self.confluences.append((yield "verify_confluence", lambda: whittaker.verify_confluence(
                datum, omega, xi, x, t_list=CONFLUENCE_T, tol=cfg.tol_confluence)))
        self.odes.append((yield "rank_one_whittaker_check",
                          lambda: whittaker.rank_one_whittaker_check(zeta)))

    def check(self) -> list:
        done = [point for point in self.points if point[1] is not None]
        oracle = random.Random(f"{self.seed}:numeric:oracle").sample(
            done, min(ORACLE_POINTS, len(done)))
        return check_numeric(oracle, self.sweeps, self.confluences, self.odes,
                             self.config)


WORKLOADS = {w.name: w for w in (Campaign, Exceptional, Numeric)}
