import gc
import math
import random
import tracemalloc
from array import array
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from hodiff import rankone
from hodiff.cli import DE_PARAMETER_PAIRS, DE_X_GRID, DE_XI_GRID
from hodiff.diffeq import PoleAtSpectralPoint
from hodiff.nonreduced import rank_one_shift_coefficient
from hodiff.rankone import (DE_TOL, X_MAX, HypergeometricError, HypergeometricParams,
                            SeriesDenominators, bc1_crosscheck,
                            de_coefficients_match_rr,
                            gauss_2f1_jacobi, jacobi_poly_1d, recurrence_rr,
                            SERIES_CHUNK, SERIES_MAX_TERMS, SERIES_TOL, series_2f1,
                            series_2f1_highprec, verify_de)
from oracles import (bc1_orbit_sum_in_s, coefficient_list_bc1_crosscheck, de_residual,
                     pochhammer_jacobi_poly_1d, shift_coefficients)

# spot value pinned at 50 digits, by a brute-force series summation and by
# mpmath's hyp2f1, for the parameter point (g1, g2, xi, x) =
# (1/2, 1/3, 9/10, 11/10)
SPOT_50 = "1.105728513940390953552083275732182776581235669507"


def test_value_at_origin_is_one():
    for xi in (0.3, 0.9, 2.6):
        p = HypergeometricParams(0.5, 1 / 3, xi, 0.0)
        assert gauss_2f1_jacobi(p) == 1.0


def test_terminating_spectral_value_is_constant():
    # xi = g1/2 + g2 terminates the series at degree zero
    g1, g2 = 0.5, 1 / 3
    for x in (0.1, 0.9, 1.7, 3.0):
        p = HypergeometricParams(g1, g2, g1 / 2 + g2, x)
        assert abs(gauss_2f1_jacobi(p) - 1.0) < 1e-14


def test_frozen_high_precision_spot_value(monkeypatch):
    import mpmath
    # five guard digits over the 50 compared
    monkeypatch.setattr(rankone, "HIGHPREC_DPS", 55)
    with mpmath.workdps(55):
        z = -mpmath.sinh(mpmath.mpf(11) / 20) ** 2
        val = series_2f1_highprec(Q(-19, 60), Q(89, 60), Q(4, 3), z)
        assert mpmath.nstr(val, 50) == SPOT_50
    fast = gauss_2f1_jacobi(HypergeometricParams(0.5, 1 / 3, 0.9, 1.1))
    assert abs(fast - float(mpmath.mpf(SPOT_50))) <= 1e-12 * float(mpmath.mpf(SPOT_50))


def test_pfaff_and_series_agree_inside_disk():
    # |z| < 0.8 takes the dual-evaluation path with its internal agreement
    # assertion; a disagreement would raise
    for x in (0.2, 0.8, 1.4):
        gauss_2f1_jacobi(HypergeometricParams(0.5, 1 / 3, 0.77, x))
    # far outside the disk only the transformed series applies
    big = gauss_2f1_jacobi(HypergeometricParams(0.5, 1 / 3, 0.77, 4.0))
    assert math.isfinite(big)


def _size(table):
    return sum(map(len, table.chunks))


def _series(a, b, c, z):
    """``series_2f1`` on a fresh table for c."""
    return series_2f1(a, b, SeriesDenominators(c), z)


def test_series_divergence_guard():
    with pytest.raises(HypergeometricError):
        _series(0.3, 1.7, 1.2, 1.05)


def test_series_term_cap_guard():
    # finite terms that fall off like k^-0.2 never meet the stop test
    with pytest.raises(HypergeometricError, match="within the term cap$"):
        _series(0.3, 1.7, 1.2, 1 - 1e-7)


def test_de_residual_grid():
    xi_grid = (0.3, 0.77, 1.2, 2.6, 3.9)
    x_grid = (0.2, 0.6, 1.1, 1.7, 2.5)
    for g1, g2 in ((0.5, 1 / 3), (1.25, 3 / 7)):
        rep = verify_de(g1, g2, xi_grid, x_grid, DE_TOL)
        assert rep.ok and rep.max_residual() <= 1e-9
        assert len(rep.rows) == 25 and not rep.skipped


def test_de_pole_skip():
    rep = verify_de(0.5, 1 / 3, (0.5, 0.77), (0.2,), DE_TOL)
    assert len(rep.skipped) == 1 and len(rep.rows) == 1
    # a grid of poles only would check nothing, its x unvalidated
    with pytest.raises(ValueError, match="every xi"):
        verify_de(0.5, 1 / 3, (0.5, -0.5, 0.0), (9.0,), DE_TOL)


@pytest.mark.parametrize("grid", ["xi", "x"])
def test_sweep_refuses_an_empty_grid(grid):
    # an empty x grid used to pass with zero rows, an empty xi grid to read
    # as a grid of poles
    grids = {"xi": DE_XI_GRID, "x": DE_X_GRID, grid: ()}
    with pytest.raises(ValueError, match=f"^the {grid} grid is empty$"):
        verify_de(0.5, 1 / 3, grids["xi"], grids["x"], DE_TOL)


def test_de_trivial_at_origin():
    # both shifted differences vanish at x = 0
    assert de_residual(0.5, 1 / 3, 0.77, 0.0) < 1e-14


def _is_pole(xi):
    return min(abs(xi), abs(xi - 0.5), abs(xi + 0.5)) < 1e-9


@pytest.mark.parametrize("grid", [
    (DE_XI_GRID, DE_X_GRID),
    ((0.3, 0.5, -1.3, -0.5, 2.6), (0.0, 0.2, -1.7, 4.0)),
], ids=["default", "poles-and-origin"])
def test_sweep_rows_equal_the_per_point_oracle_bit_for_bit(grid):
    # sharing the per-x and per-xi work over the grid changes no bit of any
    # residual: the sweep equals three gauss_2f1_jacobi calls per point
    xi_grid, x_grid = grid
    rng = random.Random("rank-one-sweep-oracle")
    pairs = list(DE_PARAMETER_PAIRS) + [
        (rng.uniform(0.1, 3.0), rng.uniform(0.05, 2.0)) for _ in range(20)]
    for g1, g2 in pairs:
        rep = verify_de(g1, g2, xi_grid, x_grid, DE_TOL)
        expected = [(xi, x, de_residual(g1, g2, xi, x).hex())
                    for xi in xi_grid if not _is_pole(xi) for x in x_grid]
        assert [(xi, x, r.hex()) for xi, x, r in rep.rows] == expected, (g1, g2)
        assert [row["xi"] for row in rep.skipped] == [xi for xi in xi_grid if _is_pole(xi)]


def test_sweep_sums_every_series_of_the_per_point_checks(monkeypatch):
    # per non-pole xi: three shifts at each x, each a Pfaff series plus, for
    # |z| < 0.8, the plain series of the cross-check
    calls = []
    real = rankone.series_2f1
    monkeypatch.setattr(rankone, "series_2f1",
                        lambda *args: calls.append(args) or real(*args))
    verify_de(0.5, 1 / 3, DE_XI_GRID + (0.5,), DE_X_GRID, DE_TOL)
    in_disk = sum(math.sinh(x / 2) ** 2 < 0.8 for x in DE_X_GRID)
    assert in_disk == 3
    assert len(calls) == len(DE_XI_GRID) * (
        3 * 2 * in_disk + 3 * 1 * (len(DE_X_GRID) - in_disk)) == 120


def test_sweep_keeps_the_series_pfaff_cross_check(monkeypatch):
    # a plain series (argument z < 0) off by 1e-9 must trip the agreement
    # check inside the sweep, at an x inside the disk
    real = rankone.series_2f1
    monkeypatch.setattr(rankone, "series_2f1", lambda a, b, table, z: real(a, b, table, z)
                        * (1 + 1e-9 if z < 0 else 1))
    verify_de(0.5, 1 / 3, DE_XI_GRID, (2.5,), DE_TOL)
    with pytest.raises(HypergeometricError, match="disagreement"):
        verify_de(0.5, 1 / 3, DE_XI_GRID, (2.5, 0.6), DE_TOL)


def _tables_read(monkeypatch):
    """The tables the series of later calls read, in call order."""
    tables = []
    real = rankone.series_2f1
    monkeypatch.setattr(rankone, "series_2f1",
                        lambda a, b, table, z: tables.append(table) or real(a, b, table, z))
    return tables


def test_a_sweep_reads_one_table_of_at_most_256_pairs(monkeypatch):
    # all 120 series of a default-grid sweep read one table of their c,
    # which grows only as far as the longest series reads
    tables = _tables_read(monkeypatch)
    rng = random.Random("rank-one-sweep-table")
    pairs = list(DE_PARAMETER_PAIRS) + [
        (rng.uniform(0.1, 3.0), rng.uniform(0.05, 2.0)) for _ in range(20)]
    for g1, g2 in pairs:
        tables.clear()
        verify_de(g1, g2, DE_XI_GRID, DE_X_GRID, DE_TOL)
        assert len(tables) == 120 and len({id(t) for t in tables}) == 1
        assert tables[0].c == HypergeometricParams(g1, g2, 0.3, 0.0).abc[2]
        assert _size(tables[0]) <= 256, (g1, g2, _size(tables[0]))


def test_sweep_to_the_domain_edge_equals_the_reference_sums(monkeypatch):
    # out to |x| = X_MAX the shared table grows through many chunks, and
    # every residual equals, bit for bit, the per-point residual with each
    # series summed by the reference loop, its denominators formed in place
    xi_grid, x_grid = (0.3, -1.3, 2.6), (-X_MAX, -2.5, 0.2, 1.7, X_MAX)
    for g1, g2 in DE_PARAMETER_PAIRS:
        tables = _tables_read(monkeypatch)
        rows = list(verify_de(g1, g2, xi_grid, x_grid, DE_TOL).rows)
        assert len(tables[0].chunks) > 100 and len({id(t) for t in tables}) == 1
        monkeypatch.setattr(rankone, "series_2f1", lambda a, b, table, z:
                            _series_2f1_reference(a, b, table.c, z))
        expected = [(xi, x, de_residual(g1, g2, xi, x).hex()) for xi in xi_grid for x in x_grid]
        assert [(xi, x, r.hex()) for xi, x, r in rows] == expected, (g1, g2)
        monkeypatch.undo()


def test_a_sweep_keeps_no_table():
    # the table of a sweep to X_MAX, about 3 MB of pairs, is gone when the
    # sweep returns; its report stays
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = verify_de(0.5, 1 / 3, (0.3, 2.6), (0.2, X_MAX), DE_TOL)
        gc.collect()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 4
    assert peak > 2_000_000 and kept < 20_000, (peak, kept)


@pytest.mark.parametrize("g1,g2,xi_grid,x_grid", [
    (0.5, 1 / 3, DE_XI_GRID, (0.2, 0.6, 9.0, 1.7)),
    (0.5, 1 / 3, DE_XI_GRID, (0.2, -8.5, 1.1)),
    (0.5, 1 / 3, DE_XI_GRID, (0.2, math.nan, 1.1)),
    (0.5, 1 / 3, (0.3, 0.77, math.nan, 2.6), DE_X_GRID),
    (0.5, 1 / 3, (0.3, 0.77, math.inf, 2.6), DE_X_GRID),
    (-0.5, 0.0, (0.5, 0.77, 1.2), DE_X_GRID),
    (-2.25, -0.25, (0.5, 0.77, 1.2), DE_X_GRID),
], ids=["x-past-bound", "x-below-bound", "x-nan", "xi-nan", "xi-inf",
        "c-zero", "c-minus-two"])
def test_sweep_rejects_bad_parameters_mid_grid(g1, g2, xi_grid, x_grid):
    # each HypergeometricParams check runs once for every x and every kept
    # xi, before any series, so a bad value anywhere in a grid is refused
    with pytest.raises(ValueError):
        verify_de(g1, g2, xi_grid, x_grid, DE_TOL)


@pytest.mark.parametrize("xi", [89.976, 107.3, 109.3],
                         ids=["sides-overflow", "values-overflow", "prefactor-overflows"])
def test_sweep_refuses_a_point_beyond_the_float_range(xi):
    # at x = 7.9: for xi = 89.976 the three shifted values are finite but a
    # side of the equation is not; for 107.3 the Pfaff prefactor times the
    # series is inf at all three shifts, so both differences were inf - inf
    # and the row a NaN residual; for 109.3 the prefactor (1-z)^{-a} of the
    # shift xi+1 overflows as it is raised.  Each is a domain error at that
    # point, not a failing residual, and the point one x lower is fine
    with pytest.raises(HypergeometricError,
                       match=rf"^the equation overflows at xi = {xi}, x = 7\.9$"):
        verify_de(0.5, 1 / 3, (0.3, xi), (1.0, 7.9), DE_TOL)
    assert verify_de(0.5, 1 / 3, (0.3, xi), (1.0,), DE_TOL).ok


def test_kernel_refuses_a_value_beyond_the_float_range():
    # the point value that the sweep's xi = 107.3 row reads was inf
    with pytest.raises(OverflowError, match="beyond the float range"):
        gauss_2f1_jacobi(HypergeometricParams(0.5, 1 / 3, 107.3, 7.9))


def test_sweep_max_residual_is_nan_if_any_residual_is():
    # max() keeps a NaN only when it comes first; the report's maximum does
    # not hide one wherever it sits, and the report fails
    rep = verify_de(0.5, 1 / 3, DE_XI_GRID, DE_X_GRID, DE_TOL)
    for k in (0, 7, len(rep.rows) - 1):
        rows = list(rep.rows)
        rows[k] = rows[k][:2] + (math.nan,)
        bad = replace(rep, rows=rows)
        assert math.isnan(bad.max_residual()) and not bad.ok, k
        assert math.isnan(bad.to_dict()["max_residual"])
    assert replace(rep, rows=[]).max_residual() == 0.0
    assert rep.max_residual() == max(r for _xi, _x, r in rep.rows)


def test_sweep_rows_read_as_a_sequence_of_triples():
    # the report keeps the non-pole xis, the x grid and one packed double per
    # point; its rows read as the (xi, x, residual) triples, xi by xi
    g1, g2, x_grid = 0.5, 1 / 3, (0.2, 1.1, 2.5)
    rep = verify_de(g1, g2, (0.3, 0.5, 0.77, 1.2), x_grid, DE_TOL)
    triples = [(xi, x, de_residual(g1, g2, xi, x)) for xi in (0.3, 0.77, 1.2) for x in x_grid]
    rows = rep.rows
    assert type(rows.residuals) is array and rows.residuals.typecode == "d"
    assert all(type(r) is float for r in rows.residuals)
    assert len(rows) == 9 and list(rows) == triples and [*iter(rows)] == triples
    assert [rows[k] for k in range(-9, 9)] == triples + triples
    assert rows[0] == triples[0] and rows[-1] == triples[-1]
    assert type(rows[:-1]) is list and rows[:-1] == triples[:-1] and rows[::4] == triples[::4]
    assert rows[5:2] == [] and list(reversed(rows)) == triples[::-1]
    for k in (9, -10):
        with pytest.raises(IndexError):
            rows[k]
    # the benchmark's corrupted copy: rows replaced by a plain list, the
    # skipped pole kept
    bad = replace(rep, rows=rep.rows[:-1] + [(0.3, 0.2, 1e-6)])
    assert not bad.ok and bad.max_residual() == 1e-6 and rep.ok
    assert bad.to_dict() == dict(
        rep.to_dict(), status="fail", max_residual=1e-6, skipped=rep.skipped,
        rows=rep.to_dict()["rows"][:-1] + [{"xi": 0.3, "x": 0.2, "residual": 1e-6}])


def test_replaced_sweep_keeps_its_skipped_poles():
    # dataclasses.replace builds the copy through the constructor, which
    # takes the skipped list: the pole 0.5 stays listed
    rep = verify_de(0.5, 1 / 3, (0.3, 0.5, 0.77, 1.2), (0.2, 1.1), DE_TOL)
    for copy in (replace(rep, rows=list(rep.rows)[:-1]), replace(rep, rows=[])):
        assert copy.to_dict()["skipped"] == [{"xi": 0.5, "reason": "coefficient pole"}]


def test_sweep_report_retains_its_residuals_as_numbers():
    # traced growth while 40 default-grid reports are built and kept, after
    # a sweep that sets the allocator's free lists.  Reports whose rows are
    # (xi, x, residual) tuples read about 2,700 B each; one boxed float per
    # point behind the row view about 1,200 B, one packed double about 580 B
    verify_de(0.5, 1 / 3, DE_XI_GRID, DE_X_GRID, DE_TOL)
    kept = [None] * 40
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(len(kept)):
            g1, g2 = DE_PARAMETER_PAIRS[k % 2]
            kept[k] = verify_de(g1, g2, DE_XI_GRID, DE_X_GRID, DE_TOL)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(len(rep.rows) == 25 for rep in kept)
    assert retained < 800 * len(kept), retained / len(kept)


def test_recurrence_exact():
    for g1, g2 in ((Q(1, 2), Q(1, 3)), (Q(3, 7), Q(9, 4))):
        for l in range(7):
            for s in (Q(1, 4), Q(5, 3)):
                lhs, rhs = recurrence_rr(g1, g2, l, s)
                assert lhs == rhs, (g1, g2, l, s)


def test_recurrence_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="^l must be a nonnegative integer$"):
        recurrence_rr(Q(1, 2), Q(1, 3), -1, Q(1, 4))


def test_recurrence_l0_two_term():
    # the downward coefficient carries a factor of l and drops out at l = 0
    g1, g2 = Q(1, 2), Q(1, 3)
    s = Q(1, 4)
    p0 = jacobi_poly_1d(g1, g2, 0, s)
    p1 = jacobi_poly_1d(g1, g2, 1, s)
    den = g1 + 2 * g2
    c_up = (g1 + 2 * g2) * (Q(1, 2) + g1 + g2) / (den * (1 + den))
    assert p0 == 1
    assert s * p0 == c_up * (p1 - p0)


def test_de_coefficients_match_recurrence_times_four():
    for g1, g2 in ((Q(1, 2), Q(1, 3)), (Q(3, 7), Q(9, 4))):
        for l in range(7):
            assert de_coefficients_match_rr(g1, g2, l)


def test_recurrence_at_degree_zero_with_unit_denominator():
    # at l = 0 the down coefficient is 0, also where 2l + g1 + 2g2 = 1 would
    # make its formula 0/0
    lhs, rhs = recurrence_rr(Q(1, 2), Q(1, 4), 0, Q(1, 4))
    assert lhs == rhs == Q(1, 4)


def test_de_coefficients_match_sees_either_recurrence_coefficient(monkeypatch):
    # negative control: 1 added to c_up or to c_dn of the shared recurrence
    # coefficients breaks the match, at l = 0 (where c_dn is 0) as above it
    import hodiff.rankone as rankone
    exact = rankone._rr_coefficients
    for bump in ((1, 0), (0, 1)):
        monkeypatch.setattr(rankone, "_rr_coefficients", lambda g1, g2, l, b=bump: tuple(
            c + d for c, d in zip(exact(g1, g2, l), b)))
        for l in (0, 2):
            assert not de_coefficients_match_rr(Q(1, 2), Q(1, 3), l)


def _up_dn(g1, g2, xi):
    """The rank-one up and down coefficients as the package reads them."""
    return tuple(rank_one_shift_coefficient(1, (None, g1, g2), 0, (v,)) for v in (xi, -xi))


def _near_poles(rng, n):
    """n floats within 1e-3 of 0 or +-1/2 but at least 1e-8 from them, outside
    the sweep's 1e-9 skip; each side of each pole."""
    return [p + s * rng.uniform(1e-8, 1e-3) for _ in range(n)
            for p in (0.0, 0.5, -0.5) for s in (1, -1)]


def test_rank_one_coefficients_equal_the_written_out_pair_bit_for_bit():
    # up(-xi) is the written-out down coefficient with every rounding negated,
    # so the two agree to the bit on floats, and exactly on Fractions
    rng = random.Random("rank-one-coefficient")
    xis = [rng.uniform(-6.0, 6.0) for _ in range(2000)] + _near_poles(rng, 200) + list(DE_XI_GRID)
    pairs = list(DE_PARAMETER_PAIRS) + [
        (rng.uniform(0.01, 4.0), rng.uniform(0.01, 3.0)) for _ in range(20)]
    for g1, g2 in pairs:
        for xi in xis:
            if _is_pole(xi):
                continue
            got = _up_dn(g1, g2, xi)
            assert [v.hex() for v in got] == [v.hex() for v in shift_coefficients(g1, g2, xi)], (
                g1, g2, xi)
    for _ in range(400):
        g1, g2 = (Q(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(2))
        xi = Q(rng.randint(-90, 90), rng.randint(1, 30))
        if xi in (0, Q(1, 2), Q(-1, 2)):
            continue
        got = _up_dn(g1, g2, xi)
        assert got == shift_coefficients(g1, g2, xi) and all(type(v) is Q for v in got), (
            g1, g2, xi)


def test_shift_coefficient_poles():
    # up has its poles at xi = 0 (the root 2e_1) and xi = -1/2 (e_1, in the
    # shifted factor); down, read at -xi, has its own at xi = 1/2
    g1, g2 = Q(1, 2), Q(1, 3)
    for xi, alpha, which in ((Q(0), (2,), "<xi,a^vee>"), (Q(-1, 2), (1,), "1+<xi,a^vee>")):
        with pytest.raises(PoleAtSpectralPoint) as pole:
            rank_one_shift_coefficient(1, (None, g1, g2), 0, (xi,))
        assert (pole.value.alpha, pole.value.which) == (alpha, which)
    with pytest.raises(PoleAtSpectralPoint) as pole:
        _up_dn(g1, g2, Q(1, 2))
    assert (pole.value.alpha, pole.value.which) == ((1,), "1+<xi,a^vee>")
    assert rank_one_shift_coefficient(1, (None, g1, g2), 0, (Q(1, 2),)) == (
        (Q(1, 2) + g1 / 2 + g2) * (2 + g1))


def test_chebyshev_substitution():
    # e^{kx} + e^{-kx} rewritten through s = sinh^2(x/2), checked in floats
    import math
    for k in range(5):
        for x in (0.3, 1.1):
            s = Q(math.sinh(x / 2) ** 2).limit_denominator(10 ** 12)
            direct = math.exp(k * x) + math.exp(-k * x) if k else 1.0
            val = float(bc1_orbit_sum_in_s(k, s))
            assert abs(val - direct) < 1e-6 * max(1.0, abs(direct))


def test_bc1_crosscheck_exact(bc1):
    for g1, g2 in ((Q(1, 2), Q(1, 3)), (Q(5, 11), Q(9, 4))):
        for l in range(7):
            assert bc1_crosscheck(g1, g2, l, bc1), (g1, g2, l)


# the campaign's pairs and two with denominators >= 50
ORACLE_PAIRS = ((Q(1, 2), Q(1, 3)), (Q(3, 7), Q(9, 4)), (Q(5, 11), Q(9, 4)),
                (Q(37, 53), Q(61, 97)), (Q(101, 59), Q(7, 89)))
ORACLE_S = (Q(1, 4), Q(5, 3), Q(7, 2), Q(-3, 8))


def test_series_and_crosscheck_match_the_pochhammer_oracle(bc1, monkeypatch):
    # the ratio series equals the Pochhammer sum, and the cross-check on the
    # value recurrence of m_k(s) holds where the one on the Chebyshev
    # coefficient lists does, exactly, for l <= 12, at ORACLE_S
    monkeypatch.setattr(rankone, "BC1_S_VALUES", ORACLE_S)
    for g1, g2 in ORACLE_PAIRS:
        for l in range(-1, 13):
            for s in ORACLE_S:
                assert jacobi_poly_1d(g1, g2, l, s) == pochhammer_jacobi_poly_1d(g1, g2, l, s)
        for l in range(13):
            assert bc1_crosscheck(g1, g2, l, datum=bc1)
            assert coefficient_list_bc1_crosscheck(g1, g2, l, ORACLE_S, bc1)


def test_series_ratio_index_moved_by_one_is_caught(monkeypatch, bc1):
    # negative control: the series with its ratio index moved by one (r_{k+1}
    # in place of r_k) fails the recurrence and the BC1 cross-check
    import inspect
    source = inspect.getsource(rankone.jacobi_poly_1d)
    assert source.count("reversed(range(l))") == 1
    namespace = dict(vars(rankone))
    exec(source.replace("reversed(range(l))", "reversed(range(1, l + 1))"), namespace)
    monkeypatch.setattr(rankone, "jacobi_poly_1d", namespace["jacobi_poly_1d"])
    for g1, g2 in ORACLE_PAIRS:
        for l in range(7):
            lhs, rhs = recurrence_rr(g1, g2, l, Q(1, 4))
            assert lhs != rhs, (g1, g2, l)
        for l in range(1, 7):
            assert not bc1_crosscheck(g1, g2, l, datum=bc1), (g1, g2, l)


def test_params_validation():
    with pytest.raises(ValueError):
        HypergeometricParams(-0.5, 0.0, 0.3, 1.0)  # c = 0


@pytest.mark.parametrize("field", ["g1", "g2", "xi", "x"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    args = {"g1": 0.5, "g2": 1 / 3, "xi": 0.3, "x": 1.0}
    args[field] = value
    with pytest.raises(ValueError, match=f"{field} = .* is not finite"):
        HypergeometricParams(**args)


def test_domain_bound_enforced():
    with pytest.raises(ValueError):
        HypergeometricParams(0.5, 1 / 3, 0.3, 9.5)
    # inside the bound, the always-convergent route still works
    val = gauss_2f1_jacobi(HypergeometricParams(0.5, 1 / 3, 0.3, 7.5))
    assert math.isfinite(val)


def _series_2f1_reference(a, b, c, z, tol=SERIES_TOL, max_terms=SERIES_MAX_TERMS):
    # the summation loop with its original stop test, kept as the reference
    # for the cheaper stop test in series_2f1
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if not math.isfinite(total):
            raise HypergeometricError(f"series overflow at argument {z}")
        if abs(term) <= tol * max(1.0, abs(total)):
            term *= (a + k + 1) * (b + k + 1) / ((c + k + 1) * (k + 2.0)) * z
            total += term
            return total
    raise HypergeometricError("series did not converge within the term cap")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypergeometricError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(-4.0, 6.0), st.floats(-4.0, 6.0),
       st.floats(0.5, 6.0), st.floats(-0.99, 0.99))
def test_series_stop_test_matches_reference(a, b, c, z):
    # the same float bit for bit, or the same error
    assert (_outcome(_series, a, b, c, z)
            == _outcome(_series_2f1_reference, a, b, c, z)), (a, b, c, z)


def test_series_stop_test_on_sweep_parameters():
    # the parameter shapes of the rank-one sweep: Pfaff argument in [0, 1)
    # and the plain series inside the disk
    for xi in (0.3, 0.77, 1.2, 2.6, 3.9):
        a, b, c = HypergeometricParams(0.5, 1 / 3, xi, 0.0).abc
        for x in (0.2, 0.6, 1.1, 1.7, 2.5, 4.0, 8.0):
            z = -math.sinh(x / 2) ** 2
            w = z / (z - 1.0)
            assert _series(a, c - b, c, w) == _series_2f1_reference(a, c - b, c, w)
            if abs(z) < 0.8:
                assert _series(a, b, c, z) == _series_2f1_reference(a, b, c, z)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.05, 2.0), st.floats(0.1, 4.0),
       st.floats(0.1, 3.0))
def test_kernel_matches_mpmath_hyp2f1(g1, g2, xi, x):
    # the rank-one kernel at the parameter ranges the numeric benchmark
    # draws, against mpmath's hyp2f1 at 30 digits
    import mpmath
    params = HypergeometricParams(g1, g2, xi, x)
    with mpmath.workdps(30):
        z = -mpmath.sinh(mpmath.mpf(x) / 2) ** 2
        ref = float(mpmath.hyp2f1(*params.abc, z))
    assert abs(gauss_2f1_jacobi(params) - ref) <= 1e-12 * abs(ref), params


def test_series_overflow_raises_like_reference():
    new = _outcome(_series, 0.3, 1.7, 1.2, 1.05)
    assert new == _outcome(_series_2f1_reference, 0.3, 1.7, 1.2, 1.05)
    assert new[0] is HypergeometricError and "overflow" in new[1]


def test_series_nan_argument_raises_like_reference():
    # a NaN total never meets the stop test: the series runs to the term cap,
    # then names the overflow, as the reference does at its first term
    new = _outcome(_series, 0.3, 1.7, 1.2, math.nan)
    assert new == _outcome(_series_2f1_reference, 0.3, 1.7, 1.2, math.nan)
    assert new[0] is HypergeometricError and "overflow" in new[1]


def test_term_cap_keeps_no_table():
    # the capped series reads SERIES_MAX_TERMS pairs, about 11 MB, and none
    # of them outlives the table the caller drops
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = SeriesDenominators(1.2)
        with pytest.raises(HypergeometricError, match="within the term cap$"):
            series_2f1(0.3, 1.7, table, 1 - 1e-7)
        assert _size(table) == SERIES_MAX_TERMS
        del table
        gc.collect()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak > 8_000_000 and kept < 20_000, (peak, kept)


def test_a_table_grows_a_chunk_at_a_time_as_far_as_read():
    table = SeriesDenominators(1.2)
    assert _size(table) == SERIES_CHUNK
    series_2f1(0.3, 1.7, table, 0.01)   # a few terms: no growth
    assert len(table.chunks) == 1
    series_2f1(0.3, 1.7, table, 0.9)
    assert len(table.chunks) > 4 and all(len(chunk) == SERIES_CHUNK for chunk in table.chunks)
    assert [pair for chunk in table.chunks for pair in chunk] == [
        (k, (1.2 + k) * (k + 1.0)) for k in map(float, range(_size(table)))]


def test_a_table_serves_only_its_own_c():
    # c is read from the table alone, so no call can pair a table with
    # another c; two tables read in turn on one argument keep their own sums
    import inspect
    assert list(inspect.signature(series_2f1).parameters) == ["a", "b", "table", "z"]
    assert list(inspect.signature(rankone._checked_2f1).parameters) == [
        "a", "b", "table", "z", "w"]
    tables = {c: SeriesDenominators(c) for c in (1.2, 1.2 + 2 ** -40, 3.7)}
    for z in (0.3, -0.7, 0.95):
        for c, table in tables.items():
            assert table.c == c
            assert series_2f1(0.3, 1.7, table, z) == _series_2f1_reference(0.3, 1.7, c, z)
    for c, table in tables.items():
        assert all(d == (c + k) * (k + 1.0) for chunk in table.chunks for k, d in chunk)

