"""Per-layer spans and counters around the hodiff modules.

The trace is installed from the benchmark's side: it replaces chosen
functions and methods of the ``hodiff`` modules with wrappers and puts the
originals back on exit, so ``src/`` carries no instrumentation.  A function
that another module imported by name is replaced there as well (for example
``jacobi_polynomial`` inside ``diffeq``); ``RootDatum`` and ``ExpPoly``
methods are replaced on the class.

Spans are aggregated per name in memory (calls, inclusive time, self time);
self time is a span's duration minus the time of the spans it encloses, so
the self times of all spans plus the remainder outside any span add up to
the wall time of the traced phase.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute path); one name may cover several targets
SPANS = (
    ("rootsys.build", "rootsys", "RootDatum.__init__"),
    ("rootsys.weyl_orbit", "rootsys", "RootDatum.weyl_orbit"),
    ("rootsys.stabilizer_orbit", "rootsys", "RootDatum.stabilizer_orbit"),
    ("rootsys.stabilizer_roots", "rootsys", "RootDatum.stabilizer_roots"),
    ("rootsys.saturated_map", "rootsys", "RootDatum.saturated_map"),
    ("rootsys.dominant_below", "rootsys", "RootDatum.dominant_below"),
    ("weylalg.exppoly_mul", "weylalg", "ExpPoly.__mul__"),
    ("weylalg.apply_L", "weylalg", "apply_L"),
    ("weylalg.expansion_E_omega", "weylalg", "expansion_E_omega"),
    ("weylalg.orbit_sum", "weylalg", "orbit_sum"),
    ("jacobi.jacobi_polynomial", "jacobi", "jacobi_polynomial"),
    ("jacobi.verify_eigen", "jacobi", "verify_eigen"),
    ("jacobi.leading_coefficient", "jacobi", "opdam_leading_coefficient"),
    ("diffeq.verify_pieri", "diffeq", "verify_pieri"),
    ("diffeq.pieri_terms", "diffeq", "pieri_terms"),
    ("diffeq.pieri_index", "diffeq", "pieri_index"),
    ("diffeq.coeff", "diffeq", "coeff_V"),
    ("diffeq.coeff", "diffeq", "coeff_U"),
    ("diffeq.poly_cache_get", "diffeq", "poly_cache_get"),
    ("diffeq.quasi", "diffeq", "quasi_identity_value"),
    ("diffeq.specialization", "diffeq", "specialization_consistency"),
    ("nonreduced.verify_pieri_bc", "nonreduced", "verify_pieri_bc"),
    ("nonreduced.coeff", "nonreduced", "coeff_V_signed"),
    ("nonreduced.coeff", "nonreduced", "coeff_U_Kp"),
    ("rankone.verify_de", "rankone", "verify_de"),
    ("rankone.gauss_2f1", "rankone", "gauss_2f1_jacobi"),
    ("rankone.series_2f1", "rankone", "series_2f1"),
    ("rankone.highprec", "rankone", "series_2f1_highprec"),
    ("rankone.exact", "rankone", "recurrence_rr"),
    ("rankone.exact", "rankone", "bc1_crosscheck"),
    ("whittaker.ode", "whittaker", "WhittakerA1.__init__"),
    ("whittaker.ode_eval", "whittaker", "WhittakerA1.log_value"),
    ("whittaker.verify_confluence", "whittaker", "verify_confluence"),
    ("whittaker.homogeneity", "whittaker", "homogeneity_identity"),
    ("whittaker.homogeneity", "whittaker", "homogeneity_gap"),
    ("whittaker.rank_one_check", "whittaker", "rank_one_whittaker_check"),
    ("cli.main", "cli", "main"),
    ("cli.suite.pieri", "cli", "pieri_cases"),
    ("cli.suite.eigen", "cli", "eigen_cases"),
    ("cli.suite.bc", "cli", "bc_cases"),
    ("cli.suite.quasi", "cli", "quasi_cases"),
    ("cli.suite.whittaker", "cli", "confluence_cases"),
    ("cli.suite.whittaker", "cli", "homogeneity_cases"),
    ("cli.suite.whittaker", "cli", "whittaker_rank_one_case"),
    ("cli.suite.rankone", "cli", "rankone_cases"),
    ("cli.emit", "cli", "_emit"),
)

# counted but not timed: the wrapper would cost more than the call
COUNTERS = (
    ("rootsys.pairing", "rootsys", "RootDatum.pairing"),
)

MODULES = ("rootsys", "weylalg", "jacobi", "diffeq", "nonreduced", "rankone",
           "whittaker", "cli")
CLI_SUITES = ("pieri", "eigen", "bc", "quasi", "whittaker", "rankone")
SPAN_NAMES = frozenset(name for name, _module, _path in SPANS)
POLE_SPANS = ("diffeq.verify_pieri", "nonreduced.verify_pieri_bc")

# (name, unit, better) for every per-layer metric the traced run reports
LAYER_METRICS = (
    ("rootsys.build.self_s", "s", "lower"),
    ("rootsys.weyl_orbit.calls", "count", "lower"),
    ("rootsys.weyl_orbit.self_s", "s", "lower"),
    ("rootsys.weyl_orbit.elems", "count", "lower"),
    ("rootsys.stabilizer_orbit.calls", "count", "lower"),
    ("rootsys.stabilizer_orbit.self_s", "s", "lower"),
    ("rootsys.stabilizer_roots.calls", "count", "lower"),
    ("rootsys.stabilizer_roots.self_s", "s", "lower"),
    ("rootsys.saturated_map.self_s", "s", "lower"),
    ("rootsys.dominant_below.self_s", "s", "lower"),
    ("rootsys.pairing.calls", "count", "lower"),
    ("weylalg.exppoly_mul.calls", "count", "lower"),
    ("weylalg.exppoly_mul.self_s", "s", "lower"),
    ("weylalg.exppoly_mul.terms_out", "count", "lower"),
    ("weylalg.apply_L.calls", "count", "lower"),
    ("weylalg.apply_L.self_s", "s", "lower"),
    ("weylalg.expansion_E_omega.self_s", "s", "lower"),
    ("weylalg.orbit_sum.self_s", "s", "lower"),
    ("jacobi.polys_built", "count", "lower"),
    ("jacobi.jacobi_polynomial.self_s", "s", "lower"),
    ("jacobi.verify_eigen.self_s", "s", "lower"),
    ("jacobi.leading_coefficient.self_s", "s", "lower"),
    ("jacobi.max_coeff_bits", "bits", "lower"),
    ("diffeq.verify_pieri.calls", "count", "lower"),
    ("diffeq.verify_pieri.self_s", "s", "lower"),
    ("diffeq.pieri_terms.self_s", "s", "lower"),
    ("diffeq.pieri_index.self_s", "s", "lower"),
    ("diffeq.coeff.calls", "count", "lower"),
    ("diffeq.coeff.self_s", "s", "lower"),
    ("diffeq.pieri_index.misses", "count", "lower"),
    ("diffeq.pieri_index.hit_ratio", "ratio", "higher"),
    ("diffeq.poly_reuse_ratio", "ratio", "higher"),
    ("diffeq.pole_resamples", "count", "lower"),
    ("nonreduced.verify_pieri_bc.calls", "count", "lower"),
    ("nonreduced.verify_pieri_bc.self_s", "s", "lower"),
    ("nonreduced.coeff.self_s", "s", "lower"),
    ("rankone.gauss_2f1.calls", "count", "lower"),
    ("rankone.gauss_2f1.self_s", "s", "lower"),
    ("rankone.series_2f1.calls", "count", "lower"),
    ("rankone.series_2f1.self_s", "s", "lower"),
    ("rankone.highprec.self_s", "s", "lower"),
    ("whittaker.ode_solves", "count", "lower"),
    ("whittaker.ode.self_s", "s", "lower"),
    ("whittaker.ode_eval.self_s", "s", "lower"),
    ("whittaker.verify_confluence.calls", "count", "lower"),
    ("whittaker.verify_confluence.self_s", "s", "lower"),
    ("whittaker.homogeneity.self_s", "s", "lower"),
) + tuple((f"cli.suite.{s}.s", "s", "lower") for s in CLI_SUITES) + (
    ("cli.emit.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
) + tuple((f"{m}.self_s", "s", "lower") for m in MODULES) + (
    ("import.hodiff_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wraps the hodiff layers while active (use as a context manager)."""

    def __init__(self):
        import hodiff.cli   # loads every module the trace patches
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.max_coeff_bits = 0
        self.report_bytes = 0
        self._cells: dict[str, list] = {}
        self._stack: list[list] = []      # [name, child seconds] of open spans
        self._patches: list[tuple] = []
        self._pole_error = hodiff.diffeq.PoleAtSpectralPoint
        self._pieri_index = hodiff.diffeq.pieri_index   # lru_cache object
        self._index_info = None

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        stat = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        after = self._after.get(name)
        count_poles = name in POLE_SPANS
        pole_error = self._pole_error
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except pole_error:
                if count_poles:
                    tracer.count("diffeq.pole_resamples")
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counter(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # post-call hooks, run after the span has closed
    def _after_weyl_orbit(self, args, result):
        self.count("rootsys.weyl_orbit.elems", len(result))

    def _after_mul(self, args, result):
        self.count("weylalg.exppoly_mul.terms_out", len(result.terms))

    def _after_jacobi(self, args, result):
        if self._stack and self._stack[-1][0] == "diffeq.poly_cache_get":
            self.count("diffeq.polys_built_in_cache")
        for c in result.coeffs.values():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _after_emit(self, args, result):
        out_path = args[1] if len(args) > 1 else None
        if out_path:
            self.report_bytes = os.path.getsize(out_path)

    _after = {
        "rootsys.weyl_orbit": _after_weyl_orbit,
        "weylalg.exppoly_mul": _after_mul,
        "jacobi.jacobi_polynomial": _after_jacobi,
        "cli.emit": _after_emit,
    }

    # -- installation ------------------------------------------------------------

    def _patch(self, module_name, path, make):
        module = sys.modules[f"hodiff.{module_name}"]
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = make(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            # every hodiff module that imported the function by name
            targets = [(mod, key) for mod_name, mod in list(sys.modules.items())
                       if mod is not None and (mod_name == "hodiff"
                                               or mod_name.startswith("hodiff."))
                       for key, value in list(vars(mod).items())
                       if value is original]
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, wrapped)

    def __enter__(self):
        for name, module_name, path in SPANS:
            self._patch(module_name, path, lambda fn, n=name: self._span(n, fn))
        for name, module_name, path in COUNTERS:
            self._patch(module_name, path, lambda fn, n=name: self._counter(n, fn))
        self._index_info = self._pieri_index.cache_info()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        info = self._pieri_index.cache_info()
        self.count("diffeq.pieri_index.hits", info.hits - self._index_info.hits)
        self.count("diffeq.pieri_index.misses",
                   info.misses - self._index_info.misses)
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()
        for name, cell in self._cells.items():
            self.count(f"{name}.calls", cell[0])
        return False

    # -- metrics -------------------------------------------------------------------

    def layer_metrics(self, run_s: float, overhead_s: float) -> dict:
        """Every per-layer metric except the import times, as name -> value.

        run_s is the traced phase's wall time, which the span self times
        and the remainder add up to; overhead_s is what the trace cost.
        """
        span = lambda n: self.spans.get(n, SpanStats())   # noqa: E731
        got = self.counts.get
        out = {}
        for name, _unit, _better in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = span(base).calls if base in SPAN_NAMES else got(name, 0)
            elif field == "self_s" and base in SPAN_NAMES:
                out[name] = span(base).self_s
        for s in CLI_SUITES:
            out[f"cli.suite.{s}.s"] = span(f"cli.suite.{s}").total_s
        self_total = 0.0
        for m in MODULES:
            own = sum(st.self_s for n, st in self.spans.items()
                      if n.split(".", 1)[0] == m)
            out[f"{m}.self_s"] = own
            self_total += own
        hits = got("diffeq.pieri_index.hits", 0)
        misses = got("diffeq.pieri_index.misses", 0)
        requested = span("diffeq.poly_cache_get").calls
        built = got("diffeq.polys_built_in_cache", 0)
        out.update({
            "rootsys.weyl_orbit.elems": got("rootsys.weyl_orbit.elems", 0),
            "weylalg.exppoly_mul.terms_out": got("weylalg.exppoly_mul.terms_out", 0),
            "jacobi.polys_built": span("jacobi.jacobi_polynomial").calls,
            "jacobi.max_coeff_bits": self.max_coeff_bits,
            "diffeq.pieri_index.misses": misses,
            "diffeq.pieri_index.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "diffeq.poly_reuse_ratio": 1.0 - built / requested if requested else 0.0,
            "diffeq.pole_resamples": got("diffeq.pole_resamples", 0),
            "whittaker.ode_solves": span("whittaker.ode").calls,
            "cli.report_bytes": self.report_bytes,
            "trace.run_s": run_s,
            "trace.remainder_s": run_s - self_total,
            "trace.overhead_s": overhead_s,
        })
        return out
