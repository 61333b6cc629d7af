import hashlib
import json

import pytest

from hodiff import cli


def run(args):
    return cli.main(args)


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


def test_whittaker_limits_command(capsys):
    code = run(["whittaker-limits", "--family", "A", "--rank", "1",
                "--omega", "1", "--xi", "1/40", "--x", "0.3,-0.3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confluence"]["status"] == "pass"


def test_verify_small_campaign_and_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    args = ["verify", "--suite", "pieri,eigen", "--family", "A", "--rank", "2",
            "--samples", "2", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["n_fail"] == 0 and payload["n_cases"] > 0


def test_verify_negative_control_exit_code(tmp_path):
    args = ["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
            "--samples", "1", "--perturb", "u-sign", "--out",
            str(tmp_path / "neg.json")]
    assert run(args) == 1


# Outputs without floats, so their bytes do not depend on the platform libm:
# (arguments, exit code, sha256 of the written file).
PINNED_OUTPUTS = (
    (["verify", "--suite", "pieri,eigen,bc,quasi"], 0,
     "eb379006af244da4fb6c4d440f73d6f6236a86458a67aa8098191b9895d5e3f6"),
    (["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
      "--samples", "1", "--perturb", "u-sign"], 1,
     "d12108665b46fba11a366530f9263efaf3f7339e9d934e0b9d7895d8c0bcdbdd"),
    (["verify", "--suite", "pieri", "--family", "B", "--rank", "2",
      "--samples", "1", "--perturb", "v-drop-pairing2"], 1,
     "49a8ef20ece1f6c7936c8aaa4091b7fac093a8203160e4644e2f744865d79fba"),
    (["coeffs", "--family", "G", "--rank", "2", "--omega", "1,0",
      "--format", "latex"], 0,
     "633787aea608a298f7d45e023abaa1725f637e1c578dd32f2ad783b8a81a01bf"),
)


@pytest.mark.parametrize("args,code,digest", PINNED_OUTPUTS,
                         ids=["exact-suites", "u-sign", "v-drop-pairing2",
                              "coeffs-g2"])
def test_exact_outputs_are_byte_stable(tmp_path, args, code, digest):
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_invalid_inputs(capsys):
    assert run(["verify", "--suite", "bogus"]) == 2
    assert run(["verify", "--family", "A"]) == 2  # missing rank
    assert run(["verify", "--suite", "pieri", "--family", "Z", "--rank", "1"]) == 2
    assert run(["verify", "--suite", "pieri", "--perturb", "nope"]) == 2
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
    # --jobs was removed; argparse rejects it as an unknown argument
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--jobs", "2"])
    assert exc.value.code == 2


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
