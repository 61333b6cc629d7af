"""The metric plumbing: tail rule, trace accounting, BENCHMARK.json, and the
refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import run
import speed
import stats
import tracer
from hodiff import diffeq, jacobi, rootsys, whittaker

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _metrics(n):
    return stats.phase_metrics([0.001 * (i + 1) for i in range(n)], 1.0, 1.0, 50.0)


def test_tail_omitted_below_forty_operations():
    assert "op_tail_ms" not in _metrics(39)
    assert "op_tail_ms" not in _metrics(1)
    m = _metrics(40)
    assert m["op_tail_ms"] == (30.0, "ms")        # ten samples lie beyond it
    assert m["op_tail_pct"][0] == 75.0
    assert m["op_p50_ms"][0] == 20.5


def test_tail_has_ten_samples_beyond():
    values = list(range(1000))
    pct, value = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 99.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_trace_patches_and_restores():
    original = diffeq.jacobi_polynomial
    assert original is jacobi.jacobi_polynomial
    with tracer.Tracer():
        # imported by name: wrapped in both modules, as one wrapper
        assert diffeq.jacobi_polynomial is not original
        assert diffeq.jacobi_polynomial is jacobi.jacobi_polynomial
        assert whittaker.coeff_U is diffeq.coeff_U
    assert diffeq.jacobi_polynomial is original
    assert rootsys.RootDatum.pairing.__name__ == "pairing"
    assert not hasattr(rootsys.RootDatum.pairing, "__wrapped__")


def test_trace_accounts_for_wall_time():
    with tracer.Tracer() as tr:
        datum = rootsys.build_root_system("B", 2)
        mults = rootsys.Multiplicities(datum, (Q(1, 3), Q(2, 5)))
        zero = (Q(0),) * datum.dim
        for omega in datum.small_fundamental_weights():
            assert diffeq.verify_pieri(datum, mults, omega, zero, cache={}).ok
    m = tr.layer_metrics(tr.wall_s, 0.0)
    names = {name for name, _unit, _better in tracer.LAYER_METRICS}
    assert names - set(m) == {"import.hodiff_s", "import.scipy_s"}
    modules = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES)
    assert abs(modules + m["trace.remainder_s"] - tr.wall_s) < 1e-9
    assert 0 <= m["trace.remainder_s"] < 0.5 * tr.wall_s
    assert m["rootsys.build.self_s"] > 0 and m["diffeq.verify_pieri.calls"] == 2
    assert m["jacobi.polys_built"] > 0 and m["jacobi.max_coeff_bits"] > 0
    assert m["rootsys.pairing.calls"] > 0
    assert 0 < m["diffeq.poly_reuse_ratio"] < 1


def test_import_times_parsed():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       10 |         20 |     scipy.special\n"
            "import time:       30 |        700 |   scipy.integrate\n"
            "import time:       40 |        900 | hodiff\n"
            "something else\n")
    times, rest = run.import_times(text)
    assert times == {"import.hodiff_s": 0.0009, "import.scipy_s": 0.0007}
    assert rest == "something else"


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "numeric",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_counts_pole_resamples():
    datum = rootsys.build_root_system("B", 2)
    # g_short = 1/2, g_long = 1/4 put 1 + <rho_g, -e1^vee> at zero
    mults = rootsys.Multiplicities(datum, (Q(1, 2), Q(1, 4)))
    zero = (Q(0),) * datum.dim
    with tracer.Tracer() as tr:
        try:
            diffeq.verify_pieri(datum, mults, datum.fundamental_weights[0], zero)
        except diffeq.PoleAtSpectralPoint:
            pass
        else:
            raise AssertionError("expected a pole")
    assert tr.layer_metrics(tr.wall_s, 0.0)["diffeq.pole_resamples"] == 1


def test_reference_seconds_divide_by_the_local_slowdown():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # full speed over [0, 1], half speed over [1, 2]; each probe takes its slot
    probe.starts = [0.0, 1.0 - ref, 2.0 - 2 * ref]
    probe.durations = [ref, ref, 2 * ref]
    assert abs(probe.reference_seconds(0.0, 1.0 - ref) - (1.0 - 2 * ref)) < 1e-12
    second = (2.0 - 2 * ref - 1.0) / 1.5
    assert abs(probe.reference_seconds(1.0, 2.0) - second) < 1e-12
    assert abs(probe.probe_seconds(0.0, 2.0) - 4 * ref) < 1e-12
    # an operation inside one stretch is scaled by that stretch alone
    assert abs(probe.reference_seconds(1.2, 1.5) - 0.3 / 1.5) < 1e-12


def test_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 3
    t0, t1 = probe.starts[0], probe.starts[-1] + probe.durations[-1]
    assert 0 < probe.reference_seconds(t0, t1) < 10 * (t1 - t0)
