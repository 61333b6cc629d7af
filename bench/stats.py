"""Order statistics behind the end-to-end metrics."""

from __future__ import annotations

import statistics

TAIL_MIN_SAMPLES = 40   # below this the tail percentile would be no tail
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than forty samples."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def phase_metrics(op_seconds, run_s: float, cpu_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics of one timed phase, as name -> (value, unit).

    op_tail_ms is present only when the phase ran at least forty operations.
    """
    out = {
        "run_s": (run_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "op_p50_ms": (1000.0 * statistics.median(op_seconds), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops": (len(op_seconds), "count"),
    }
    t = tail(op_seconds)
    if t is not None:
        out["op_tail_ms"] = (1000.0 * t[1], "ms")
        out["op_tail_pct"] = (t[0], "%")
    return out
