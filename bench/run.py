"""Benchmark entry point.

    python3 bench/run.py --workload campaign|exceptional|numeric \\
        --seed N --seconds S --trace 0|1

Runs one workload in its own single-threaded worker process, against the
``src/`` of the checkout this file sits in, and prints as the last line of
standard output one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Every metric, including the tail
latency where a run has enough operations, is also printed by name with its
unit on standard error, and the whole record is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import phase_metrics
from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("campaign", "exceptional", "numeric")
# (name, unit, better, bound), as listed in BENCHMARK.json.  Machine-speed
# noise alone spreads the wall-time metrics by about 10 % between runs, so
# they get nearly the widest bound allowed (0.25), which setup_s keeps as
# the largest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
SETUP_SAMPLES = 3       # set-ups per run; setup_s is their median
DEADLINE_S = 170.0      # the whole run, all worker processes included


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(worker_args, deadline: float, importtime: bool = False):
    """Run one worker to completion; (start time, result, stderr text)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "worker.py")] + worker_args
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=worker_env(), timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return start, json.loads(lines[-1]), proc.stderr


def setup_seconds(spawned: float, worker: dict) -> float:
    """Set-up in reference seconds, from spawning the worker to its first
    timed operation."""
    return (worker["started"] - spawned) * worker["startup_scale"] + worker["setup_ref_s"]


def import_times(stderr: str) -> tuple[dict, str]:
    """Cumulative import times from ``-X importtime`` output, and the rest
    of the stderr text."""
    cumulative, rest = {}, []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            rest.append(line)
            continue
        try:
            micros = int(parts[1])
        except ValueError:
            continue   # the header line
        name = parts[2].strip()
        cumulative[name] = max(cumulative.get(name, 0), micros)
    scipy = max((us for name, us in cumulative.items()
                 if name == "scipy" or name.startswith("scipy.")), default=0)
    times = {"import.hodiff_s": cumulative.get("hodiff", 0) / 1e6,
             "import.scipy_s": scipy / 1e6}
    return times, "\n".join(rest)


def measure(args) -> tuple[dict, dict, dict]:
    """(worker result, metrics reported on stdout, every metric) as
    name -> (value, unit)."""
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out-dir", str(out_dir)]
    if args.trace:
        _start, result, stderr = spawn(base + ["--trace", "1"], deadline,
                                       importtime=True)
        imports, stderr = import_times(stderr)
        values = dict(result["per_layer"], **imports)
        every = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
        reported = every
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            start, probe, _ = spawn(base + ["--setup-only"], deadline)
            setups.append(setup_seconds(start, probe))
        start, result, stderr = spawn(base + ["--trace", "0"], deadline)
        setups.append(setup_seconds(start, result))
        result["setup_samples_s"] = setups
        every = {"setup_s": (statistics.median(setups), "s")}
        every.update(phase_metrics([ref for _kind, _wall, ref in result["ops"]],
                                   result["run_s"], result["cpu_s"],
                                   result["peak_rss_mb"]))
        every["run_wall_s"] = (result["run_wall_s"], "s")
        reported = {name: every[name] for name, *_ in END_TO_END}
    if stderr.strip():
        print(stderr.rstrip(), file=sys.stderr)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    record.write_text(json.dumps(dict(result, metrics=every), indent=1) + "\n")
    return result, reported, every


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hodiff" / "__init__.py").is_file():
        print(f"error: no hodiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, reported, every = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in every.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
