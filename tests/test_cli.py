import errno
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hodiff import cli, diffeq, jacobi, nonreduced, weylalg
from hodiff.diffeq import PoleAtSpectralPoint, verify_pieri
from hodiff.rootsys import Multiplicities, RootDatum, build_root_system, weight_str
from hodiff.weylalg import InternalConsistencyError
from oracles import corrupted_copy, greedy_dominant


def run(args):
    return cli.main(args)


def test_module_entry_point_matches_main(capsys):
    # python -m hodiff.cli exits with main's code and writes main's bytes
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    args = ["verify", "--suite", "rankone"]
    proc = subprocess.run([sys.executable, "-m", "hodiff.cli", *args],
                          capture_output=True, env=env, timeout=300)
    code = cli.main(args)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())
    assert code == 0 and b'"rankone/de-sweep/' in proc.stdout


def test_jacobi_command(tmp_path, capsys):
    out = tmp_path / "jac.json"
    code = run(["jacobi", "--family", "A", "--rank", "1",
                "--lambda", "1", "--g", "1/2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "hodiff/1"
    assert payload["jacobi"]["coeffs"][0]["c"] == "1/2"
    assert payload["checks"]["eigen"]["status"] == "pass"
    assert payload["checks"]["leading_matches_product"] is True


def test_jacobi_constant_case(capsys):
    code = run(["jacobi", "--family", "A", "--rank", "2",
                "--lambda", "0,0", "--g", "2/3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jacobi"]["coeffs"] == [
        {"c": "1/1", "mu": ["0/1", "0/1", "0/1"]}]


def test_jacobi_rejects_malformed_rational(capsys):
    assert run(["jacobi", "--family", "A", "--rank", "1",
                "--lambda", "1", "--g", "1/0"]) == 2
    assert run(["jacobi", "--family", "Z", "--rank", "1",
                "--lambda", "1", "--g", "1/2"]) == 2
    assert run(["jacobi", "--family", "A", "--rank", "1",
                "--lambda", "-1", "--g", "1/2"]) == 2


def test_coeffs_term_counts(tmp_path, capsys):
    code = run(["coeffs", "--family", "A", "--rank", "1", "--omega", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_terms"] == 2
    code = run(["coeffs", "--family", "A", "--rank", "2", "--omega", "1,1",
                "--format", "latex"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_terms"] == 12  # 6 shift terms plus 6 stabilizer terms
    assert all("v_latex" in t for t in payload["terms"])


def test_coeffs_byte_stable(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        assert run(["coeffs", "--family", "G", "--rank", "2",
                    "--omega", "1,0", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rank_one(tmp_path, capsys):
    code = run(["sweep-rank-one", "--g1", "0.5", "--g2", "0.3333333333333333",
                "--xi", "0.3,0.77", "--x", "0.2,1.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sweep"]["status"] == "pass"
    assert len(payload["sweep"]["rows"]) == 4
    csv_path = tmp_path / "sweep.csv"
    code = run(["sweep-rank-one", "--xi", "0.3", "--x", "0.2,0.6",
                "--csv", "--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "xi,x,residual" and len(lines) == 3


def test_cli_defaults_are_the_campaigns(capsys):
    # a bare sweep-rank-one is the campaign's first rankone/de-sweep case,
    # and verify --help names the defaults the campaign runs with
    assert run(["sweep-rank-one"]) == 0
    sweep = json.loads(capsys.readouterr().out)["sweep"]
    config = cli.CampaignConfig(suites=("rankone",))
    first = next(case for case in cli.run_campaign(config, {})
                 if case["case"].startswith("rankone/de-sweep/"))
    assert sweep == json.loads(json.dumps(first["detail"]))
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {cli.CampaignConfig.height_bound})" in text
    assert f"(default {cli.CampaignConfig.samples})" in text
    assert f"default {cli.CampaignConfig.seed}" in text
    assert all(name in text for name in diffeq.PERTURBATIONS)


@pytest.mark.parametrize("option,value", [
    ("--x", "nan,0.5"), ("--x", "inf"), ("--xi", "nan"), ("--xi", "0.3,-inf"),
    ("--g1", "nan"), ("--g1", "inf"), ("--g2", "nan"),
])
def test_sweep_rank_one_rejects_non_finite_input(option, value, capsys):
    # a NaN or an infinity is bad input: exit 2 with a one-line message that
    # names the option, before any series is summed
    args = {"--g1": "0.5", "--g2": "0.25", "--xi": "0.3", "--x": "0.2"}
    args[option] = value
    assert run(["sweep-rank-one"] + [x for kv in args.items() for x in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("xi_grid,xi", [("89.976", "89.976"), ("0.3,107.3", "107.3"),
                                        ("109.3", "109.3")])
def test_sweep_rank_one_refuses_an_overflow(xi_grid, xi, capsys):
    # a point whose shifted values overflow is a domain error named by its
    # xi and x: exit 2 with one line, not a failing report with a NaN row
    assert run(["sweep-rank-one", "--xi", xi_grid, "--x", "1,7.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the equation overflows at xi = {xi}, x = 7.9\n"


@pytest.mark.parametrize("option,value", [("--x", "nan,-0.1,-0.15"),
                                          ("--t", "10,inf")])
def test_whittaker_limits_rejects_non_finite_input(option, value, capsys):
    args = {"--family": "A", "--rank": "2", "--omega": "1,0",
            "--xi": "1/40,-1/80", "--x": "0.25,-0.1,-0.15"}
    args[option] = value
    assert run(["whittaker-limits"] + [x for kv in args.items() for x in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}: ") and captured.err.count("\n") == 1


WHITTAKER_A2 = ["whittaker-limits", "--family", "A", "--rank", "2", "--omega", "1,0",
                "--xi", "1/40,-1/80", "--x", "0.25,-0.1,-0.15"]


@pytest.mark.parametrize("args,option", [
    (["sweep-rank-one", "--xi", "abc"], "--xi"),
    (["sweep-rank-one", "--xi", "0.3,,0.5"], "--xi"),
    (["sweep-rank-one", "--x", "0.2,"], "--x"),
    (["sweep-rank-one", "--x", ""], "--x"),
    (WHITTAKER_A2[:-1] + ["0.25,abc,-0.15"], "--x"),
    (WHITTAKER_A2[:-1] + ["0.25,-0.1"], "--x"),
    (WHITTAKER_A2 + ["--t", "10,,30"], "--t"),
    (WHITTAKER_A2 + ["--t", "30,20,10"], "--t"),
    (WHITTAKER_A2 + ["--t", "10,10,20"], "--t"),
], ids=["xi-literal", "xi-empty-entry", "x-trailing-comma", "x-empty",
        "limits-x-literal", "limits-x-count", "t-empty-entry", "t-decreasing",
        "t-repeated"])
def test_float_lists_rejected_naming_the_option(args, option, capsys):
    # an unparsable or empty entry, a wrong count or a --t that does not
    # increase strictly is bad input: exit 2, one line naming the option
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}: ") and captured.err.count("\n") == 1


def test_a_value_list_may_start_with_a_minus_sign(capsys):
    # a list whose first entry is negative is the option's value, as in the
    # --opt=value form, which gives the same bytes; an option followed by
    # another option still has no value
    limits = ["whittaker-limits", "--family", "A", "--rank", "2", "--omega", "1,0"]
    for args, option in (
            (limits + ["--xi", "-1/40,1/80", "--x", "0.25,-0.1,-0.15"], "--xi"),
            (limits + ["--xi", "1/40,-1/80", "--x", "-0.25,0.1,0.15"], "--x"),
            (["sweep-rank-one", "--xi", "-0.3,0.77"], "--xi")):
        k = args.index(option)
        assert run(args) == 0, args
        spaced = capsys.readouterr()
        assert run(args[:k] + [f"{option}={args[k + 1]}"] + args[k + 2:]) == 0, args
        assert capsys.readouterr() == spaced and spaced.err == ""
    rows = json.loads(spaced.out)["sweep"]["rows"]
    assert [r["xi"] for r in rows[::len(cli.DE_X_GRID)]] == [-0.3, 0.77]
    for args in (limits + ["--xi", "--x", "0.25,-0.1,-0.15"],
                 ["sweep-rank-one", "--xi", "--x", "0.2"]):
        assert run(args) == 2
        assert capsys.readouterr() == ("", "error: argument --xi: expected one argument\n")


@pytest.mark.parametrize("args", [
    ["whittaker-limits", "--family", "G", "--rank", "2", "--omega", "0,1",
     "--xi", "1/31,-1/71", "--x", "0.2,-0.35"],
    ["coeffs", "--family", "G", "--rank", "2", "--omega", "0,1"],
    ["verify", "--suite", "pieri", "--family", "G", "--rank", "2", "--omega", "0,1"],
], ids=["whittaker-limits", "coeffs", "verify-pieri"])
def test_non_small_omega_rejected_naming_the_option(args, capsys):
    # G2 omega_2 pairs 3 with a coroot: exit 2, the weight as p/q strings
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --omega: (3/1,2/1) is not small (a pairing exceeds 2)\n"


@pytest.mark.parametrize("args,message", [
    (["jacobi", "--family", "A", "--rank", "2", "--lambda", "1/2,0", "--g", "1/2"],
     "(1/3,-1/6,-1/6) is not in the weight lattice of RootDatum(A2)"),
], ids=["jacobi-off-lattice"])
def test_weights_in_errors_print_as_p_over_q(args, message, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["jacobi", "--family", "A", "--rank", "2", "--lambda=-1,1", "--g", "1/2"],
     "--lambda: (-1,1) is not dominant"),
    (["verify", "--suite", "pieri", "--family", "A", "--rank", "2", "--omega=-1,1"],
     "--omega: (-1,1) is not dominant"),
    (["coeffs", "--family", "G", "--rank", "2", "--omega=-1,0"],
     "--omega: (-1,0) is not dominant"),
    (["jacobi", "--family", "BC", "--rank", "2", "--lambda", "1, 2", "--g", "1/2"],
     "--lambda: (1,2) is not dominant"),
    (["jacobi", "--family", "A", "--rank", "2", "--lambda=-1/2,0", "--g", "1/2"],
     "(-1/3,1/6,1/6) is not in the weight lattice of RootDatum(A2)"),
], ids=["jacobi-lambda", "verify-omega", "coeffs-not-dominant", "jacobi-bc-partition",
        "lattice-first"])
def test_not_dominant_names_the_option_and_the_coefficients_typed(args, message, capsys):
    # a weight off the dominant cone is refused naming its option, with the
    # coefficients as typed (BC's coordinates), not the realization; a weight
    # off the lattice is refused as such, before its dominance is checked
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("option,value,other", [
    ("--xi", "1e400,1/3", "--t"),
    ("--t", "10,20,3000", "--xi"),
    ("--x", "1e300,0,0", "--t"),
    ("--x", "0,1119,1119", "--t"),
    ("--x", "0,800,-800", "--t"),
], ids=["xi", "t", "x", "x-underflow", "x-orbit"])
def test_float_overflow_names_the_option_at_fault(option, value, other, capsys):
    # a huge xi pairing overflows as a float in the confluence sweep, a huge
    # t in g(t), a far base point in e^<nu,x> (for omega itself, for its
    # limit rounding to 0, or for another element of its orbit): exit 2 with
    # one line naming the option that caused it
    args = {"--family": "A", "--rank": "2", "--omega": "1,0",
            "--xi": "1/40,-1/80", "--x": "0.25,-0.1,-0.15"}
    args[option] = value
    assert run(["whittaker-limits"] + [x for kv in args.items() for x in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert option in captured.err and other not in captured.err


def test_whittaker_limits_command(capsys):
    code = run(["whittaker-limits", "--family", "A", "--rank", "1",
                "--omega", "1", "--xi", "1/40", "--x", "0.3,-0.3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confluence"]["status"] == "pass"


@pytest.mark.parametrize("args", [
    ["sweep-rank-one", "--g1", "1", "--g2", "1", "--xi", "1", "--x", "20"],
    ["sweep-rank-one", "--x", "0.2,9"],
    ["sweep-rank-one", "--g1", "-0.5", "--g2", "0", "--xi", "1", "--x", "1"],
    ["whittaker-limits", "--family", "A", "--rank", "2", "--omega", "1,0",
     "--xi", "0,0", "--x", "0.25,-0.1,-0.15"],
    ["whittaker-limits", "--family", "A", "--rank", "2", "--omega", "1,0",
     "--xi", "1/40,-1/80", "--x", "0.25,-0.1,-0.15", "--t", "1e6"],
    ["sweep-rank-one", "--xi", "0.5,-0.5", "--x", "9"],
    ["sweep-rank-one", "--xi", "0.5", "--x", "0.2"],
    ["sweep-rank-one", "--tol", "nan"],
    ["sweep-rank-one", "--tol", "-1"],
    ["sweep-rank-one", "--tol", "0"],
    ["sweep-rank-one", "--tol", "inf"],
    ["whittaker-limits", "--family", "A", "--rank", "1", "--omega", "1",
     "--xi", "1/40", "--x", "0.3,-0.3", "--tol", "nan"],
    ["whittaker-limits", "--family", "A", "--rank", "1", "--omega", "1",
     "--xi", "1/40", "--x", "0.3,-0.3", "--tol", "inf"],
    ["whittaker-limits", "--family", "A", "--rank", "1", "--omega", "1",
     "--xi", "1/40", "--x", "0.3,-0.3", "--tol", "1e-3"],
    ["sweep-rank-one", "--tol", "1e-3"],
    ["whittaker-limits", "--family", "A", "--rank", "1", "--omega", "1",
     "--xi", "1/40", "--x", "1e300,0"],
    ["whittaker-limits", "--rank", "1", "--omega", "1", "--xi", "1/40", "--x", "0.3"],
    ["whittaker-limits", "--family", "A", "--rank", "x", "--omega", "1",
     "--xi", "1/40", "--x", "0.3"],
], ids=["x-out-of-domain", "x-out-of-domain-mid-grid", "series-pole",
        "spectral-pole", "t-overflow", "every-xi-a-pole-x-out-of-domain",
        "every-xi-a-pole", "tol-nan", "tol-negative", "tol-zero", "tol-inf",
        "limits-tol-nan", "limits-tol-inf", "limits-tol-usable", "tol-usable",
        "limits-x-overflow", "limits-no-family", "limits-rank-not-int"])
def test_numeric_commands_reject_bad_input(args, capsys):
    # a domain error, a pole, an overflow, a grid with no pole-free xi (so
    # nothing checked) or a usage error is bad input: exit 2 with a one-line
    # message and no traceback.  A check's bound is a constant
    # (rankone.DE_TOL, whittaker.CONFLUENCE_TOL), as in verify, so --tol is
    # an unknown option at any value (the tol rows)
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if "--tol" in args:
        assert captured.err == f"error: unrecognized arguments: --tol {args[-1]}\n"


def test_verify_small_campaign_and_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    args = ["verify", "--suite", "pieri,eigen", "--family", "A", "--rank", "2",
            "--samples", "2", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["n_fail"] == 0 and payload["n_cases"] > 0


def test_eigen_jobs_keep_the_vector_order_of_each_cache():
    # the eigen jobs of each Pieri cache, sorted by the integer key of the
    # labels, come in the order of the (multiplicities, lambda vector) keys
    config = cli.CampaignConfig(samples=3)
    data = {}
    _cases, samples = cli.pieri_cases(config, data)
    want = [(res["datum"].name, res["sample"], lam)
            for res in samples for (_g, lam), _poly in sorted(res["cache"].items())]
    got = [c["case"] for c in cli.eigen_cases(config, samples, data)
           if not c["case"].startswith("eigen/BC")]
    assert got == [f"eigen/{system}/lam={weight_str(lam)}/s{s}" for system, s, lam in want]
    assert {system for system, _s, _l in want} == {f"{f}{r}" for f, r in cli.PIERI_SYSTEMS}
    assert {s for _system, s, _l in want} == {0, 1, 2}


def test_verify_negative_control_exit_code(tmp_path):
    args = ["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
            "--samples", "1", "--perturb", "u-sign", "--out",
            str(tmp_path / "neg.json")]
    assert run(args) == 1


def _cli_output(args, code):
    def produce(tmp_path):
        out = tmp_path / "out.json"
        assert run(args + ["--out", str(out)]) == code
        return out.read_bytes()
    return produce


def _pieri_report(family, rank, i, g, ok, perturb=None):
    # verify_pieri at lambda = 0 for the fundamental weight omega_i
    def produce(_tmp_path):
        datum = build_root_system(family, rank)
        report = verify_pieri(datum, Multiplicities(datum, g),
                              datum.fundamental_weights[i - 1],
                              (Q(0),) * datum.dim, perturb=perturb)
        assert report.ok is ok
        return json.dumps(report.to_dict(), sort_keys=True).encode()
    return produce


def _bc_reports(n, lam, gs):
    # verify_pieri_bc on BC_n at lam for every ell, each report with the
    # (g, g1, g2) it was run at, as the bc suite writes it
    def produce(_tmp_path):
        datum = build_root_system("BC", n)
        mults, drawn = nonreduced.bc_multiplicities(datum, *gs), dict(
            zip(("g", "g1", "g2"), map(str, gs)))
        reports = [{**nonreduced.verify_pieri_bc(datum, mults, ell, lam, None, {}).to_dict(),
                    **drawn}
                   for ell in range(1, n + 1)]
        assert all(r["status"] == "pass" for r in reports)
        return json.dumps(reports, sort_keys=True).encode()
    return produce


def _corrupted_eigen_case(family, rank, labels, g):
    # the eigen suite's case for P_lambda with its lowest coefficient moved,
    # which leaves a residual, as cli._eigen_case writes it
    def produce(_tmp_path):
        datum = build_root_system(family, rank)
        mults = Multiplicities(datum, g)
        lam = datum.weight_from_fundamental(labels)
        bad = corrupted_copy(jacobi.jacobi_polynomial(datum, mults, lam))
        case = cli._eigen_case("eigen", datum, mults, lam, bad)
        assert case["status"] == "fail"
        return json.dumps(case, sort_keys=True).encode()
    return produce


F4_G = (Q(3, 7), Q(5, 11))

# (producer of the bytes, their sha256).  The first sixteen are free of floats.
# The rest hold float output, so their bytes also pin the platform libm's
# exp, sqrt and sinh: the confluence suites, the rank-one sweep (its residual
# bits) and the full default report.
PINNED_OUTPUTS = (
    (_cli_output(["verify", "--suite", "pieri,eigen,bc,quasi"], 0),
     "eb379006af244da4fb6c4d440f73d6f6236a86458a67aa8098191b9895d5e3f6"),
    (_cli_output(["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
                  "--samples", "1", "--perturb", "u-sign"], 1),
     "d12108665b46fba11a366530f9263efaf3f7339e9d934e0b9d7895d8c0bcdbdd"),
    (_cli_output(["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
                  "--samples", "1", "--perturb", "v-drop-pairing2"], 1),
     "49a8ef20ece1f6c7936c8aaa4091b7fac093a8203160e4644e2f744865d79fba"),
    (_cli_output(["coeffs", "--family", "G", "--rank", "2", "--omega", "1,0",
                  "--format", "latex"], 0),
     "633787aea608a298f7d45e023abaa1725f637e1c578dd32f2ad783b8a81a01bf"),
    (_cli_output(["coeffs", "--family", "E", "--rank", "6", "--omega", "0,1,0,0,0,0"], 0),
     "6ba17bf222c76733db359c978e7e4601062c65f1b89fec33372b40ece180b202"),
    (_cli_output(["coeffs", "--family", "F", "--rank", "4", "--omega", "0,0,0,1"], 0),
     "87eb5f35fd838fed1c3ab32ea071da7eb9c15f370b6c5efac29ce63e980c3b33"),
    (_pieri_report("F", 4, 1, F4_G, True),
     "4859c399b436e24a80c50179fb98c7c428fbb68efe89d2ad7efdaefec4303e4a"),
    (_pieri_report("F", 4, 4, F4_G, True),
     "c3ecafbc9ed397fb77f05419f2a083582a6e8efd9da01644062dd28c6c0bb835"),
    (_pieri_report("E", 6, 1, (Q(4, 9),), True),
     "4ae7fccd74f63f5407ad6322360b6e75fa4b50f2853fdb4f855794f16ee49d5c"),
    # at lambda = 0 most of E6 omega2's index leaves the dominant cone: the
    # excluded terms, whose V must vanish and whose U lists are skipped
    (_pieri_report("E", 6, 2, (Q(4, 9),), True),
     "f501f7d9cddeac5164169b0e84c230be4a918c7458d9e0f78b5c9468771877fb"),
    (_pieri_report("F", 4, 1, F4_G, False, perturb="u-sign"),
     "3810f600611d3254f853ef992d6a4f7a67367274a070b06a1befd00717a5006b"),
    # E8 at its quasi-minuscule weight, the highest root omega_8
    (_pieri_report("E", 8, 8, (Q(4, 9),), True),
     "982a53387a5d1ea4602c9cd0dd15e29ef3e376feeb8edd0fe3836bcc206f6e38"),
    (_pieri_report("E", 8, 8, (Q(4, 9),), False, perturb="u-sign"),
     "a9b6a4a0b66aaa97ad2517744fc9b566b11c95dae87086f9cebf726f2939abe2"),
    # BC3, which the campaign does not reach: the first |J| = 3 terms
    (_bc_reports(3, (2, 1, 0), (Q(3, 7), Q(5, 11), Q(9, 4))),
     "ee9278887015373ea1e96b5559ea58aba831773d2a9c8aac4244afd9b3e4ec75"),
    # the residual writers of a failing BC report and a failing eigencheck
    (_cli_output(["verify", "--suite", "bc", "--samples", "1", "--perturb", "u-sign"], 1),
     "2f8f0c1b674f2d27384b41cf980e59ecfc7c5466e9106e02899ffc6b5a43f06b"),
    (_corrupted_eigen_case("B", 2, (1, 1), (Q(3, 7), Q(5, 11))),
     "6367bbfd592d28684e5ca2da3268046a61c220624b11e826b89c3d3b799d834f"),
    # the confluence rows (this suite, whittaker-limits and the default report)
    # label their terms with weight_str, as nu=(p/q,...), eta=(p/q,...)
    (_cli_output(["verify", "--suite", "whittaker"], 0),
     "6d7d715a52a4745fb1c3cf06974507afa029788c9bf2aacf08c66b44f9484d18"),
    (_cli_output(["whittaker-limits", "--family", "G", "--rank", "2", "--omega", "1,0",
                  "--xi", "1/31,-1/71", "--x", "0.2,-0.35"], 0),
     "9595bb8ac251cb409181ccb0aca0268bf2d2843d472daef816d385cc70b163c0"),
    (_cli_output(["whittaker-limits", "--family", "C", "--rank", "3", "--omega", "1,0,0",
                  "--xi", "1/31,-1/71,1/53", "--x", "0.2,-0.35,0.1"], 0),
     "9c634bbda84de62e542af646bd6835b6945937180935d1496ea4589456186eaa"),
    (_cli_output(["verify", "--suite", "rankone"], 0),
     "bb0fab5dd657579d145819cc8253a7ba226127ab7dd6743177fa8f6fc11b4d5b"),
    # both float suites in one campaign, and B2's minuscule omega_2 off the
    # campaign's confluence points; the g(t) couplings of verify_confluence
    # and log_normalization_constant's rho_g pairings reach these bytes
    (_cli_output(["verify", "--suite", "whittaker,rankone"], 0),
     "3a66e2774e6f640bf2cdf907260f272e816f279d2142f39723e77b5ea48a56fd"),
    (_cli_output(["whittaker-limits", "--family", "B", "--rank", "2", "--omega", "0,1",
                  "--xi", "1/31,-1/71", "--x", "0.2,-0.35"], 0),
     "a36b2f4bc4f239b790dd23d448e02f73baf1509744e31e471949ed1ed2616b01"),
    # A2's quasi-minuscule omega_1 + omega_2 on the benchmark's seven-point t grid
    (_cli_output(["whittaker-limits", "--family", "A", "--rank", "2", "--omega", "1,1",
                  "--xi", "1/40,-1/80", "--x", "0.25,-0.1,-0.15",
                  "--t", "6,10,14,18,22,26,30"], 0),
     "06506a9e5b8ab99583f5fbdffdbf8db1a290f8f5081445263f54a2e4e96626ef"),
    (_cli_output(["sweep-rank-one", "--csv"], 0),
     "9b52b09d0a0af7207fe7aa7aae08e4ba69fccd8764b015ec02c7456e5bb2f3ad"),
    # the JSON report keeps every bit of each residual, which the CSV's .6e drops
    (_cli_output(["sweep-rank-one"], 0),
     "88ef475e89f44136feedbd944fbc4648db4a17be8f26cbb08803020e3d291a82"),
    # the default campaign, all six suites (about 1 s)
    (_cli_output(["verify"], 0),
     "cd455e58e0eb71416a5f893810bb8729395426d8f327cb039670f125bc4f5e86"),
)


PINNED_IDS = ["exact-suites", "u-sign", "v-drop-pairing2", "coeffs-g2", "coeffs-e6-omega2",
              "coeffs-f4-omega4", "pieri-f4-omega1", "pieri-f4-omega4", "pieri-e6-omega1",
              "pieri-e6-omega2", "pieri-f4-omega1-u-sign", "pieri-e8-omega8",
              "pieri-e8-omega8-u-sign", "bc3-lam210", "bc-u-sign", "eigen-b2-corrupted",
              "whittaker-suite", "whittaker-limits-g2", "whittaker-limits-c3",
              "rankone-suite", "whittaker-rankone-suites", "whittaker-limits-b2-omega2",
              "whittaker-limits-a2-t-grid", "sweep-rank-one-csv", "sweep-rank-one-json",
              "default-report"]


@pytest.mark.parametrize("produce,digest", PINNED_OUTPUTS, ids=PINNED_IDS)
def test_exact_outputs_are_byte_stable(tmp_path, produce, digest):
    assert hashlib.sha256(produce(tmp_path)).hexdigest() == digest


def _canonical(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emitted(payload, tmp_path, capsys, streamed=False):
    """The text _emit writes for payload to --out, and to stdout; if
    streamed, payload is a list of chunks, handed to _emit as an iterator."""
    out = tmp_path / "emitted.json"
    cli._emit(iter(payload) if streamed else payload, str(out))
    capsys.readouterr()
    cli._emit(iter(payload) if streamed else payload, None)
    return out.read_text(), capsys.readouterr().out


# every pinned command, the default report among them
PINNED_COMMANDS = {name: p for name, (p, _digest) in zip(PINNED_IDS, PINNED_OUTPUTS)
                   if "_cli_output" in p.__qualname__}


@pytest.mark.parametrize("produce", PINNED_COMMANDS.values(), ids=PINNED_COMMANDS)
def test_writer_matches_json_on_every_pinned_command(produce, tmp_path, capsys, monkeypatch):
    # a JSON value is written as json.dumps writes it; a stream of chunks
    # (the verify report, sweep-rank-one's CSV) is recorded as _emit reads
    # it, and its text, save the CSV's, is json.dumps of the same content
    payloads = []
    emit = cli._emit

    def recording(payload, out_path):
        streamed = isinstance(payload, Iterator)
        payload = list(payload) if streamed else payload
        payloads.append((streamed, payload))
        emit(iter(payload) if streamed else payload, out_path)

    monkeypatch.setattr(cli, "_emit", recording)
    produce(tmp_path)
    assert len(payloads) == 1
    (streamed, payload), = payloads
    want = "".join(payload) if streamed else _canonical(payload)
    if streamed and not want.startswith("xi,x,residual\n"):
        assert want == _canonical(json.loads(want))
    assert _emitted(payload, tmp_path, capsys, streamed) == (want, want)


def _nonfinite_as_strings(x):
    """x with each NaN or infinite float value as the string json.dumps
    writes for it (NaN, Infinity, -Infinity)."""
    if isinstance(x, float) and not math.isfinite(x):
        return json.dumps(x)
    if isinstance(x, dict):
        return {k: _nonfinite_as_strings(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nonfinite_as_strings(v) for v in x]
    return x


def test_writer_matches_json_on_edge_values(tmp_path, capsys):
    # byte parity with json.dumps, save that a non-finite float value is the
    # JSON string "NaN", "Infinity" or "-Infinity" where json.dumps writes a
    # bare token that strict JSON lacks; a non-finite key is a string in both
    payload = {
        "empty": {}, "none": [], "nested": {"a": {}, "b": [[], {}, ()], "c": [{"d": []}]},
        "tuple": (1, "two", (3.5, None)), "ascii": "plain",
        "caf\u00e9 \"key\"\n\t": ["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f", "back\\slash"],
        "floats": [-0.0, 0.0, 1e-300, 1e300, 0.1, 2.5, float("nan"), float("inf"),
                   -float("inf")],
        "ints": [0, -1, 2 ** 80, -(2 ** 80)], "flags": [True, False, None],
        "keys": [{2: "int", -1: "int"}, {2.5: "float", float("inf"): "float"},
                 {True: "bool", False: "bool"}, {None: "none"}],
    }
    for p in (payload, [], {}, 7, -0.0, float("nan"), None, [payload, (payload,)]):
        want = _canonical(_nonfinite_as_strings(p))
        assert _emitted(p, tmp_path, capsys) == (want, want)
    text, _stdout = _emitted(payload, tmp_path, capsys)
    assert json.loads(text)["floats"][-3:] == ["NaN", "Infinity", "-Infinity"]
    assert _emitted(float("-inf"), tmp_path, capsys)[0] == '"-Infinity"\n'
    for bad in (Q(1, 2), {"a": [Q(1, 2)]}, {(1, 2): 0}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            cli._emit(bad, None)


def test_verify_invalid_inputs(capsys):
    assert run(["verify", "--suite", "bogus"]) == 2
    assert run(["verify", "--family", "A"]) == 2  # missing rank
    assert run(["verify", "--suite", "pieri", "--family", "Z", "--rank", "1"]) == 2
    # a negative control that names no edit, or edits a term with no
    # factor (omega = 0), could only pass: both are refused, naming the option
    for bad, option in ((["--suite", "pieri", "--perturb", "nope"], "--perturb"),
                        (["--suite", "pieri", "--perturb", ""], "--perturb"),
                        (["--suite", "rankone", "--perturb", ""], "--perturb"),
                        (["--suite", "pieri", "--family", "B", "--rank", "2", "--omega", "0,0",
                          "--perturb", "u-sign"], "--omega")):
        capsys.readouterr()
        assert run(["verify", *bad]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, bad
    # a campaign that would check nothing, or one past the size limits, is
    # rejected before it starts, with a one-line message
    for bad in (["--samples", "0"], ["--samples", "-2"], ["--samples", "11"],
                ["--height", "-1"], ["--height", "7"], ["--height", "1/0"],
                ["--height", "x"]):
        capsys.readouterr()
        assert run(["verify", "--suite", "pieri", *bad]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, bad
    # a system filter that some selected suite would ignore is rejected
    for bad in (["--suite", "rankone", "--rank", "2"],
                ["--suite", "pieri", "--rank", "2"],
                ["--suite", "quasi", "--family", "A", "--rank", "2"],
                ["--suite", "pieri,whittaker", "--family", "A", "--rank", "2"],
                ["--family", "B", "--rank", "2"]):
        capsys.readouterr()
        assert run(["verify", *bad]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, bad
    # --jobs was removed; it is an unknown argument, refused in one line, as
    # is every other usage error
    capsys.readouterr()
    assert run(["verify", "--jobs", "2"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --jobs 2\n"
    for bad, message in ((["verify", "--samples", "x"], "argument --samples: invalid int"),
                         (["coeffs", "--family", "A", "--rank", "2", "--omega", "1,0",
                           "--format", "xml"], "argument --format: invalid choice"),
                         (["coeffs", "--family", "A"], "the following arguments are required"),
                         ([], "the following arguments are required: command")):
        assert run(bad) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, bad


def test_verify_explicit_omega(tmp_path, capsys):
    # quasi-minuscule weight of A2 selected explicitly for the pieri suite
    out = tmp_path / "omega.json"
    code = run(["verify", "--suite", "pieri", "--family", "A", "--rank", "2",
                "--omega", "1,1", "--samples", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_fail"] == 0
    assert all("omega=(1/1,0/1,-1/1)" in c["case"] for c in payload["cases"])
    # explicit omega without a system selection is rejected
    assert run(["verify", "--suite", "pieri", "--omega", "1,1"]) == 2


def test_default_campaign_exit_zero(tmp_path):
    # the full default desk campaign is the CLI-level acceptance drive
    out = tmp_path / "full.json"
    assert run(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_fail"] == 0 and payload["n_cases"] > 600


def test_float_bounds_have_one_source(capsys):
    # the subcommands and the campaign read the bounds and the t grid that
    # rankone and whittaker name beside their checks
    from hodiff import rankone, whittaker
    sweep = ["sweep-rank-one"]
    limits = ["whittaker-limits", "--family", "A", "--rank", "1", "--omega", "1",
              "--xi", "1/40", "--x", "0.3,-0.3"]
    assert run(sweep) == 0
    assert json.loads(capsys.readouterr().out)["sweep"]["tol"] \
        == rankone.DE_TOL == cli.CampaignConfig.tol_de
    assert run(limits) == 0
    assert json.loads(capsys.readouterr().out)["confluence"]["tol"] \
        == whittaker.CONFLUENCE_TOL == cli.CampaignConfig.tol_confluence
    limits_t = cli.build_parser().parse_args(limits).t
    assert tuple(cli._parse_float_list("--t", limits_t)) == whittaker.CONFLUENCE_T
    assert (rankone.DE_TOL, whittaker.CONFLUENCE_TOL) == (1e-9, 1e-6)


def test_campaign_builds_each_root_datum_once(monkeypatch, tmp_path):
    # run_campaign hands one datum per (family, rank) to every suite driver:
    # the nine systems of the default campaign are each built exactly once,
    # and verify parses --omega on the datum its campaign then runs on
    built = []
    init = RootDatum.__init__

    def counting(self, family, rank):
        built.append((family, rank))
        init(self, family, rank)

    monkeypatch.setattr(RootDatum, "__init__", counting)
    assert all(c["status"] == "pass" for c in cli.run_campaign(cli.CampaignConfig(), {}))
    assert sorted(built) == [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("BC", 1),
                             ("BC", 2), ("C", 3), ("D", 4), ("G", 2)]
    built.clear()
    assert cli.main(["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
                     "--omega", "1,0", "--samples", "1", "--out", str(tmp_path / "r.json")]) == 0
    assert built == [("B", 2)]


def _named_caller(frame) -> str:
    """The function that frame's code runs in, past comprehension frames."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_campaign_walks_each_orbit_once(monkeypatch):
    # per datum, the W-orbit of a dominant label is walked once (the orbit
    # memo: 110 walks in a default campaign, where each caller walking its
    # own made 500), and so is each parabolic orbit, which the Pieri index
    # and E_omega share: one per (mu, omega), 27 on the reduced data, where
    # each walking its own made 54, and 7 for BC's at e_1 + ... + e_l
    walks, parabolic, read = Counter(), Counter(), Counter()
    dominant_orbit, parabolic_orbit = RootDatum._dominant_orbit, RootDatum.parabolic_orbit

    def counting_walk(self, top, J=None):
        if J is None:
            walks[self, top] += 1
        elif _named_caller(sys._getframe(1)) == "parabolic_orbit":
            parabolic[self, top, tuple(J)] += 1
        return dominant_orbit(self, top, J)

    def counting_parabolic(self, top, l):
        read[self, top, l, _named_caller(sys._getframe(1))] += 1
        return parabolic_orbit(self, top, l)

    monkeypatch.setattr(RootDatum, "_dominant_orbit", counting_walk)
    monkeypatch.setattr(RootDatum, "parabolic_orbit", counting_parabolic)
    assert all(c["status"] == "pass" for c in cli.run_campaign(cli.CampaignConfig(), {}))
    assert set(walks.values()) == {1} and len(walks) == 110
    assert set(parabolic.values()) == {1}
    reduced = [d for d, *_ in parabolic if d.family != "BC"]
    assert (len(reduced), len(parabolic) - len(reduced)) == (27, 7)
    # one per dominant mu <= omega, for each E_omega the campaign built (BC's
    # twisted one too, every memo key a label tuple), read by both
    # expansion_labels and pieri_index
    data = {d for d, *_ in parabolic}
    assert len(parabolic) == sum(len(datum.below_labels(top)) for datum in data
                                 for top in datum.expansion_label_memo)
    assert Counter(caller for *_key, caller in read) == {
        "expansion_labels": 34, "pieri_index": 34}


def test_parabolic_greedy_matches_the_loop(monkeypatch):
    # for every (top, l) the campaign hands to parabolic_orbit, the memoized
    # greedy descent in W_J, J the zero labels of top, is the plain loop on
    # every label of l's W-orbit (the campaign's l are dominant, so its own
    # descents are empty): the same labels, and the word its steps reversed
    calls = set()
    parabolic_orbit = RootDatum.parabolic_orbit

    def recording(self, top, l):
        calls.add((self, top, l))
        return parabolic_orbit(self, top, l)

    monkeypatch.setattr(RootDatum, "parabolic_orbit", recording)
    assert all(c["status"] == "pass" for c in cli.run_campaign(cli.CampaignConfig(), {}))
    assert len(calls) == 34
    for datum, top, l in calls:
        assert min(l) >= 0
        J = [j for j, k in enumerate(top) if k == 0]
        memo = {}
        for u in datum.orbit_labels(l):
            plus, steps = greedy_dominant(datum, u, J)
            assert datum._greedy(u, memo, J) == (plus, tuple(reversed(steps)))


def test_campaigns_leave_no_root_data_alive(tmp_path):
    # the per-datum memos (Pieri index, E_omega) die with their datum: three
    # default campaigns in one process leave the same live RootDatum count
    live = []
    for k in range(3):
        assert run(["verify", "--out", str(tmp_path / f"full{k}.json")]) == 0
        gc.collect()
        live.append(sum(isinstance(o, RootDatum) for o in gc.get_objects()))
    assert live == [live[0]] * 3


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "pieri", "--family", "A", "--rank", "2", "--omega", "x"],
    ["verify", "--suite", "pieri", "--family", "A", "--rank", "2", "--omega", "1/0,0"],
    ["coeffs", "--family", "A", "--rank", "2", "--omega", "1/0,0"],
    ["coeffs", "--family", "BC", "--rank", "2", "--omega", "1,0"],
    ["verify", "--suite", "pieri", "--family", "BC", "--rank", "2"],
    ["verify", "--suite", "eigen", "--family", "BC", "--rank", "2"],
], ids=["verify-omega-literal", "verify-omega-zero-division",
        "coeffs-omega-zero-division", "coeffs-bc", "verify-pieri-bc", "verify-eigen-bc"])
def test_bad_weights_and_bc_reduced_equation_rejected(args, capsys):
    # a malformed weight, and the reduced-system equation asked of BC, are
    # bad input: exit 2 with a one-line message and no traceback
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if "BC" in args and args[0] == "verify":
        assert "bc suite" in captured.err


def test_jacobi_accepts_bc(capsys):
    assert run(["jacobi", "--family", "BC", "--rank", "2", "--lambda", "1,0",
                "--g", "1/2,1/3,2/5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["eigen"]["status"] == "pass"


WHITTAKER_A2 = ["whittaker-limits", "--family", "A", "--rank", "2"]
X_A2 = ["--x", "0.25,-0.1,-0.15"]


# a rational list that cannot be read, or has the wrong length, is named by
# its option in the one-line message
@pytest.mark.parametrize("args, option, message", [
    (["verify", "--suite", "pieri", "--family", "A", "--rank", "2",
      "--omega", "1/0,0"], "--omega", "zero denominator in '1/0'"),
    (["coeffs", "--family", "A", "--rank", "2", "--omega", "1/0,0"], "--omega",
     "zero denominator in '1/0'"),
    (["jacobi", "--family", "A", "--rank", "1", "--lambda", "1/0",
      "--g", "1/2"], "--lambda", "zero denominator in '1/0'"),
    (["jacobi", "--family", "A", "--rank", "1", "--lambda", "1",
      "--g", "1/0"], "--g", "zero denominator in '1/0'"),
    (WHITTAKER_A2 + ["--omega", "0,1/0", "--xi", "1/40,-1/80"] + X_A2, "--omega",
     "zero denominator in '1/0'"),
    (WHITTAKER_A2 + ["--omega", "1,0", "--xi", "1/40, 3/0"] + X_A2, "--xi",
     "zero denominator in '3/0'"),
    (["jacobi", "--family", "A", "--rank", "2", "--lambda", "1,0", "--g", "nan"], "--g",
     "'nan' is not a rational number"),
    (["jacobi", "--family", "A", "--rank", "2", "--lambda", "x,0", "--g", "1"], "--lambda",
     "'x' is not a rational number"),
    (["jacobi", "--family", "A", "--rank", "2", "--lambda", "", "--g", "1"], "--lambda",
     "'' is not a rational number"),
    (["coeffs", "--family", "A", "--rank", "2", "--omega", "1,x"], "--omega",
     "'x' is not a rational number"),
    (WHITTAKER_A2 + ["--omega", "1,0", "--xi", "a,b"] + X_A2, "--xi",
     "'a' is not a rational number"),
    (["jacobi", "--family", "G", "--rank", "2", "--lambda", "1,0", "--g", "1,1,1"], "--g",
     "expected 1 or 2 comma-separated values"),
    (WHITTAKER_A2 + ["--omega", "1,0", "--xi", "1,2,3"] + X_A2, "--xi",
     "expected 1 or 2 comma-separated values"),
    (["jacobi", "--family", "A", "--rank", "2", "--lambda", "1,0", "--g", "1/2,2/3"], "--g",
     "expected 1 value"),
    (["verify", "--suite", "pieri", "--family", "A", "--rank", "2",
      "--omega", "1,0,0"], "--omega", "need 2 coefficients for A2"),
], ids=["verify-omega", "coeffs-omega", "jacobi-lambda", "jacobi-g",
        "whittaker-omega", "whittaker-xi", "jacobi-g-nan", "jacobi-lambda-word",
        "jacobi-lambda-empty", "coeffs-omega-word", "whittaker-xi-word",
        "jacobi-g-count", "whittaker-xi-count", "jacobi-g-one-orbit", "verify-omega-count"])
def test_zero_denominator_names_the_option(args, option, message, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {option}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "rankone"],
    ["coeffs", "--family", "A", "--rank", "1", "--omega", "1"],
], ids=["verify", "coeffs"])
def test_unwritable_out_path_names_the_option(args, tmp_path, capsys):
    # a report that cannot be written is bad input, not a failed check:
    # exit 2 with one line naming --out, no traceback
    path = tmp_path / "missing" / "r.json"
    assert run(args + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out: cannot write {path}: ")
    assert captured.err.count("\n") == 1


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "rankone"],
    ["sweep-rank-one"],
    ["sweep-rank-one", "--csv"],
], ids=["verify", "json", "csv"])
def test_closed_stdout_is_an_output_error(args, monkeypatch, capsys):
    # a stdout closed early is an output that cannot be written, like an
    # unwritable --out: exit 2 with one line, no traceback
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run(args) == 2
    assert capsys.readouterr().err == "error: cannot write to stdout: Broken pipe\n"


def test_stdout_closed_by_its_reader_exits_2():
    # `hodiff verify | head -c 10`: the default report (about 360 KB) fills
    # the pipe, the reader leaves after 10 bytes, and the writer stops with
    # one line and exit 2, not a traceback or the interpreter's exit-time
    # flush error
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with subprocess.Popen([sys.executable, "-m", "hodiff.cli", "verify"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b'{\n  "cases'
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (2, b"error: cannot write to stdout: Broken pipe\n")


def test_failed_campaign_leaves_no_report(monkeypatch, tmp_path):
    # the report is written as it is checked; a suite that raises after the
    # first cases were written leaves no partial report at --out
    path = tmp_path / "r.json"
    opened = []

    def broken(config, data):
        opened.append(path.exists())
        raise InternalConsistencyError("a suite failed mid-campaign")

    monkeypatch.setattr(cli, "rankone_cases", broken)
    with pytest.raises(InternalConsistencyError):
        run(["verify", "--suite", "quasi,rankone", "--out", str(path)])
    assert opened == [True] and not path.exists()


def test_writer_holds_no_whole_text(tmp_path):
    # _emit writes each chunk as it is made: writing a JSON value or a
    # report stream whose text is over 1 MB grows the traced peak by less
    # than 10 % of the text (joining the chunks first took more than 100 %)
    cases = [cli._case(f"case/{i}", i % 7 != 0, {"row": [i, i / 3, str(Q(i, 7))] * 4})
             for i in range(4000)]
    path = tmp_path / "big.json"
    for payload in ({"cases": cases}, lambda: cli._report_chunks(iter(cases), [])):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli._emit(payload() if callable(payload) else payload, str(path))
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 1 << 20 and grown < size // 10, (size, grown)


def test_u_sign_control_at_g_one_is_on_minuscule_weights():
    # at g = 1 the u-sign control breaks no exact Pieri check, so a
    # default-campaign pieri sample that draws some g = 1 (at the default
    # seed, A2 s1 alone) must be on a system whose checked omega are all
    # minuscule, where neither control loses a case: a new seed or sampler
    # that puts g = 1 on another system fails here
    config = cli.CampaignConfig()
    _cases, samples = cli.pieri_cases(config, {})
    at_one = [(s["datum"], s["sample"]) for s in samples if 1 in s["mults"].values]
    for datum, _s in at_one:
        omegas = config.omegas or datum.small_fundamental_weights()
        assert all(datum.is_minuscule(w) for w in omegas), datum.name


# which suite's drivers read which verify option, written out here apart
# from cli.SUITE_READS; OPTION_VALUES keeps an accepted campaign small
SUITES = ("pieri", "eigen", "bc", "quasi", "whittaker", "rankone")
OPTION_VALUES = {"--height": "0", "--samples": "1", "--seed": "3", "--perturb": "u-sign"}
READS = {("pieri", "--height"), ("pieri", "--samples"), ("pieri", "--seed"),
         ("pieri", "--perturb"), ("eigen", "--height"), ("eigen", "--samples"),
         ("eigen", "--seed"), ("bc", "--samples"), ("bc", "--seed"), ("bc", "--perturb"),
         ("quasi", "--seed"), ("whittaker", "--seed")}
GRID = [(suite, option) for suite in SUITES for option in OPTION_VALUES]
IGNORED = [(["--suite", suite, option, OPTION_VALUES[option]], option)
           for suite, option in GRID if (suite, option) not in READS]


@pytest.mark.parametrize("args,option", [
    (["--suite", "eigen,quasi", "--perturb", "v-drop-pairing2"], "--perturb"),
    (["--suite", "bc,rankone", "--height", "2"], "--height"),
    (["--suite", "rankone", "--samples", "5", "--seed", "3"], "--samples"),
    (["--suite", "rankone", "--seed", "3"], "--seed"),
    (["--suite", "quasi,whittaker", "--samples", "2"], "--samples"),
    (["--suite", "quasi", "--samples", "1", "--seed", "3"], "--samples"),
] + IGNORED, ids=["perturb-eigen", "height-bc", "samples-rankone",
                  "seed-rankone", "samples-quasi-whittaker", "samples-quasi"]
   + [f"{args[1]}{option}" for args, option in IGNORED])
def test_options_a_selection_ignores_are_rejected(args, option, capsys):
    # a negative control on suites it does not edit, a height bound on
    # suites without lambdas, or a sample count or seed for suites that draw
    # nothing from it, would silently check nothing: exit 2
    assert run(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["--suite", "quasi", "--seed", "3"],
    ["--suite", "bc", "--samples", "1", "--seed", "3"],
    ["--suite", "quasi,rankone", "--seed", "3"],
] + [["--suite", suite, option, OPTION_VALUES[option]]
     for suite, option in GRID if (suite, option) in READS],
    ids=["seed-quasi", "samples-seed-bc", "seed-quasi-rankone"]
    + [f"{suite}{option}" for suite, option in GRID if (suite, option) in READS])
def test_options_a_selected_suite_reads_are_accepted(args, tmp_path):
    # quasi draws its points from --seed; bc reads both options.  Each grid
    # case also passes the smallest --samples and --height its suite reads;
    # a perturbed pieri or bc campaign runs and fails its checks: exit 1
    for option in ("--samples", "--height"):
        if (args[1], option) in READS and option not in args:
            args = args + [option, OPTION_VALUES[option]]
    code = 1 if "--perturb" in args else 0
    assert run(["verify", *args, "--out", str(tmp_path / "r.json")]) == code


@pytest.mark.parametrize("perturb,failing", [
    ("v-drop-pairing2", {"n=1/ell=1", "n=2/ell=1", "n=2/ell=2"}),
    ("u-sign", {"n=2/ell=2"}),
], ids=["v-drop-pairing2", "u-sign"])
def test_bc_suite_negative_controls_fail(perturb, failing, tmp_path):
    # the BC pair factors get a control that must fail: v-drop-pairing2 fails
    # every Pieri case; u-sign only those at ell = 2, as the ell = 1 U lists
    # hold only the alpha/2 entries it leaves alone.  The coefficient rows do
    # not read --perturb and pass
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "bc", "--perturb", perturb, "--out", str(out)]) == 1
    cases = json.loads(out.read_text())["cases"]
    pieri = [c for c in cases if c["case"].startswith("bc/n=")]
    assert len(pieri) == 3 * (4 + 20)
    assert {"/".join(c["case"].split("/")[1:3]) for c in pieri
            if c["status"] == "fail"} == failing
    assert all(c["status"] == "pass" for c in pieri
               if "/".join(c["case"].split("/")[1:3]) not in failing)
    assert [c["status"] for c in cases if c not in pieri] == ["pass"]


def test_bc_suite_checks_the_displayed_expansion(monkeypatch, tmp_path):
    # the Pieri cases read the twisted E_omega of expansion_labels; the
    # displayed product E_ell is compared with it once per (n, ell), in the
    # status of the coefficient-form case, so an E_ell without its signs
    # fails that case alone
    real = nonreduced.expansion_E_ell
    monkeypatch.setattr(nonreduced, "expansion_E_ell", lambda n, ell: weylalg.ExpPoly(
        {nu: abs(c) for nu, c in real(n, ell).terms.items()}))
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "bc", "--out", str(out)]) == 1
    assert [c["case"] for c in json.loads(out.read_text())["cases"]
            if c["status"] == "fail"] == ["bc/rank-one-coefficient-form"]


def test_bc_suite_redraws_a_displayed_form_pole(tmp_path):
    # seed 562 draws xi = (5, 5) among the displayed-form points, a pole of
    # BC2 at the root e_1 - e_2; the suite draws again from the same stream
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "bc", "--seed", "562", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["cases"][-1]["detail"]["rows"]
    assert len(rows) == 5 and all(a != b for a, b in (r["xi"] for r in rows))


@pytest.mark.parametrize("error,code", [
    (InternalConsistencyError, None), (RuntimeError, None), (ValueError, 2)])
def test_main_exits_2_on_bad_input_only(error, code, monkeypatch, capsys):
    # main turns a ValueError or ArithmeticError into exit 2; a broken
    # invariant or any other error is a bug and must not look like bad input
    def broken(*args):
        raise error("planted")

    monkeypatch.setattr(jacobi, "verify_eigen", broken)
    args = ["jacobi", "--family", "A", "--rank", "1", "--lambda", "1", "--g", "1/2"]
    if code is None:
        with pytest.raises(error, match="planted"):
            cli.main(args)
    else:
        assert cli.main(args) == code
        assert capsys.readouterr().err == "error: planted\n"


def _plant_poles(monkeypatch, module, name, every):
    """Make the first call (every call if every) of module.name raise
    PoleAtSpectralPoint; returns the list of all calls made."""
    calls = []
    real = getattr(module, name)

    def patched(*args, **kwargs):
        calls.append(args)
        if every or len(calls) == 1:
            raise PoleAtSpectralPoint((1, -1), 0)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)
    return calls


def _draw(tag, orbits):
    # one multiplicity per orbit, as the campaign draws them
    rng = random.Random(tag)
    return tuple(Q(rng.randint(1, 12), rng.randint(2, 13)) for _ in range(orbits))


def test_campaign_redraws_a_sample_that_hits_a_pole(monkeypatch):
    # a pole on the first call of a sample discards attempt 0: the sample
    # is attempt 1's draw, seeded with f"{tag}:1"
    config = cli.CampaignConfig(systems=(("A", 1),), samples=1, height_bound=Q(0))
    tag = f"{config.seed}:A1:0"
    assert _draw(f"{tag}:0", 1) != _draw(f"{tag}:1", 1)
    _plant_poles(monkeypatch, diffeq, "verify_pieri", every=False)
    cases, (res,) = cli.pieri_cases(config, {})
    assert res["mults"].values == _draw(f"{tag}:1", 1)
    assert cases and all(c["status"] == "pass" for c in cases)

    tag = f"{config.seed}:bc:1:0"
    draws = {1: _draw(f"{tag}:1", 3), 2: _draw(f"{config.seed}:bc:2:0:0", 3)}
    assert _draw(f"{tag}:0", 3)[1:] != draws[1][1:]   # BC1 reads (g1, g2) only
    calls = _plant_poles(monkeypatch, nonreduced, "verify_pieri_bc", every=False)
    cases = cli.bc_cases(config, {})
    # the rank and multiplicities of each call after the planted pole, in
    # call order, and the (g, g1, g2) each case's detail records
    bc = {n: build_root_system("BC", n) for n in draws}
    assert list(dict.fromkeys((args[0].rank, args[1].values) for args in calls[1:])) == [
        (n, nonreduced.bc_multiplicities(bc[n], *gs).values) for n, gs in draws.items()]
    pieri = [c for c in cases if c["case"].startswith("bc/n=")]
    assert all(c["status"] == "pass" for c in pieri)
    assert {(c["detail"]["n"], tuple(c["detail"][k] for k in ("g", "g1", "g2")))
            for c in pieri} == {(n, tuple(map(str, gs))) for n, gs in draws.items()}


@pytest.mark.parametrize("module,name,driver", [
    (diffeq, "verify_pieri", cli.pieri_cases),
    (nonreduced, "verify_pieri_bc", cli.bc_cases),
], ids=["pieri", "bc"])
def test_campaign_gives_up_after_24_poles(module, name, driver, monkeypatch):
    calls = _plant_poles(monkeypatch, module, name, every=True)
    config = cli.CampaignConfig(systems=(("A", 1),), samples=1, height_bound=Q(0))
    with pytest.raises(RuntimeError, match="no pole-free sample"):
        driver(config, {})
    assert len(calls) == 24
