"""One workload in one single-threaded process: set up, run the timed
phase, check the outputs, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  A ``SpeedProbe`` runs
for the whole process, and times are reported both as wall time and in
reference seconds (see ``speed.py``).  With ``--setup-only`` the process
stops once its inputs are built and reports how long that took, which
``run.py`` uses to take several set-up times per run.  With ``--trace 1``
the same rounds run twice, untraced and then traced, and the difference of
the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Phase:
    t0: float = 0.0
    t1: float = 0.0
    cpu_s: float = 0.0
    ops: list = field(default_factory=list)    # (kind, start, end)
    failed: int = 0

    def summary(self, probe) -> dict:
        """Wall and reference-second figures; call once the probe has ended."""
        wall = self.t1 - self.t0
        busy = wall - probe.probe_seconds(self.t0, self.t1)
        run_ref = probe.reference_seconds(self.t0, self.t1)
        return {
            "run_wall_s": wall, "cpu_wall_s": self.cpu_s,
            "run_s": run_ref,
            # probes run in this process, so their time is CPU time too
            "cpu_s": (self.cpu_s - (wall - busy)) * run_ref / busy,
            "ops": [(kind, end - start, probe.reference_seconds(start, end))
                    for kind, start, end in self.ops],
        }


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_phase(workload, rounds: int) -> Phase:
    """Run whole rounds, timing each operation on its own."""
    phase = Phase()
    clock = time.perf_counter
    cpu0, phase.t0 = _cpu_s(), clock()
    for r in range(rounds):
        gen = workload.round(r)
        try:
            kind, call = gen.send(None)
            while True:
                start = clock()
                try:
                    result = call()
                except Exception:   # a failed operation is counted, not fatal
                    result = None
                    phase.failed += 1
                    traceback.print_exc(file=sys.stderr)
                phase.ops.append((kind, start, clock()))
                kind, call = gen.send(result)
        except StopIteration:
            pass
    phase.t1 = clock()
    phase.cpu_s = _cpu_s() - cpu0
    return phase


def _set_up(args):
    sys.path.insert(0, str(ROOT / "src"))
    import hodiff
    if not Path(hodiff.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hodiff imported from {hodiff.__file__}, not this checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    rounds = max(workload.min_rounds, round(args.seconds / workload.nominal_round_s))
    return workload, rounds


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    tracer = None
    with SpeedProbe() as probe:
        began = time.perf_counter()
        workload, rounds = _set_up(args)
        ready = time.perf_counter()
        if args.setup_only:
            phases = []
        elif args.trace:
            from tracer import Tracer
            rounds = max(1, rounds // 2)
            plain = run_phase(workload, rounds)
            with Tracer() as tracer:
                traced = run_phase(workload, rounds)
            phases = [plain, traced]
        else:
            phases = [run_phase(workload, rounds)]
    # set-up runs from process start: the part before the probe started, at
    # the first probe's speed, then the probed part
    result = {"started": started, "startup_scale": REFERENCE_S / probe.durations[0],
              "setup_wall_s": ready - began,
              "setup_ref_s": probe.reference_seconds(began, ready)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summaries = [phase.summary(probe) for phase in phases]
    result.update(summaries[0])
    result.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(len(p.ops) for p in phases),
        "failed": sum(p.failed for p in phases),
        "correct": not problems, "problems": problems, "probes": len(probe.durations),
        "per_layer": None,
    })
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(
            traced.t1 - traced.t0, summaries[1]["run_s"] - summaries[0]["run_s"])
        result["spans"] = {name: vars(st) for name, st in sorted(tracer.spans.items())}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
