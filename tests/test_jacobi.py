import gc
import itertools
import random
import weakref
from fractions import Fraction as Q

import pytest

from hodiff.cli import PIERI_SYSTEMS
from hodiff.diffeq import sample_multiplicities
from hodiff.jacobi import (jacobi_polynomial, opdam_leading_coefficient,
                           verify_eigen)
from hodiff.rootsys import Multiplicities, build_root_system, vadd
from hodiff.weylalg import ExpPoly, apply_L, is_w_invariant
from oracles import (constant_multiplicities, dominance_leq, eigenvalue_E, inner,
                     tuple_walk_jacobi, vector_exp_to_json, vscale)
from test_rootsys import TABLE

G_SAMPLES = (Q(3, 7), Q(5, 11), Q(9, 4))


def test_constant_polynomial(a2):
    g = constant_multiplicities(a2, Q(3, 7))
    zero = (Q(0),) * a2.dim
    poly = jacobi_polynomial(a2, g, zero)
    assert poly.exp_poly() == ExpPoly.constant(1, a2.dim)
    assert opdam_leading_coefficient(a2, g, zero) == 1


def test_rank_one_fundamental_coefficient(a1):
    # the leading coefficient 1/2 is independent of the multiplicity
    w = a1.fundamental_weights[0]
    for g_val in G_SAMPLES:
        g = constant_multiplicities(a1, g_val)
        poly = jacobi_polynomial(a1, g, w)
        assert poly.leading_coefficient() == Q(1, 2)
        assert opdam_leading_coefficient(a1, g, w) == Q(1, 2)


def test_rank_one_doubled_weight_closed_form(a1):
    # frozen closed form (g+1)/(4g+2) for the doubled fundamental weight,
    # derived by one step of the recursion by hand
    w = a1.fundamental_weights[0]
    lam = vscale(2, w)
    for g_val in G_SAMPLES:
        g = constant_multiplicities(a1, g_val)
        poly = jacobi_polynomial(a1, g, lam)
        assert poly.leading_coefficient() == (g_val + 1) / (4 * g_val + 2)
        assert opdam_leading_coefficient(a1, g, lam) == \
            (g_val + 1) / (4 * g_val + 2)


def test_a2_fundamental_coefficient(a2):
    g = constant_multiplicities(a2, Q(3, 7))
    poly = jacobi_polynomial(a2, g, a2.fundamental_weights[0])
    assert poly.leading_coefficient() == Q(1, 3)


def test_unit_normalization_and_invariance(b2):
    g = Multiplicities(b2, [Q(5, 11), Q(9, 4)])
    lam = b2.weight_from_fundamental([1, 1])
    poly = jacobi_polynomial(b2, g, lam)
    total = sum(c * len(b2.weyl_orbit(mu)) for mu, c in poly.coeffs.items())
    assert total == 1
    assert poly.exp_poly().value_at_zero() == 1
    assert is_w_invariant(b2, poly.exp_poly())
    # triangular support
    for mu in poly.coeffs:
        assert dominance_leq(b2, mu, lam)


def test_eigencheck_exact(a2, b2):
    g = constant_multiplicities(a2, Q(3, 7))
    lam = vadd(*a2.fundamental_weights)
    report = verify_eigen(a2, g, lam, jacobi_polynomial(a2, g, lam))
    assert report.ok and report.residual == []
    gb = Multiplicities(b2, [Q(5, 11), Q(9, 4)])
    lam = vscale(2, b2.fundamental_weights[0])
    assert verify_eigen(b2, gb, lam, jacobi_polynomial(b2, gb, lam)).ok


def test_leading_coefficient_two_routes_agree():
    # recursion-normalized leading coefficient versus the closed product,
    # across systems, weights and multiplicity samples
    from hodiff.rootsys import build_root_system
    rng = random.Random(99)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2), ("BC", 1), ("BC", 2)]:
        datum = build_root_system(fam, rank)
        if fam == "BC":
            lams = [tuple(Q(x) for x in (2,) + (1,) * (rank - 1)),
                    tuple(Q(x) for x in (3,) + (0,) * (rank - 1))]
        else:
            lams = [datum.weight_from_fundamental([1] * rank),
                    datum.weight_from_fundamental([2] + [0] * (rank - 1))]
        for _ in range(2):
            mults = sample_multiplicities(datum, rng)
            for lam in lams:
                poly = jacobi_polynomial(datum, mults, lam)
                assert poly.leading_coefficient() == \
                    opdam_leading_coefficient(datum, mults, lam), (fam, rank, lam)


def test_bc1_opdam_halving_convention(bc1):
    # the doubled root contributes the halved multiplicity of its half
    g1, g2v = Q(5, 11), Q(9, 4)
    by_norm = {Q(1): g1, Q(4): g2v}   # e_1 and 2e_1
    mults = Multiplicities(bc1, [by_norm[inner(bc1, orbit[0], orbit[0])] for orbit in bc1.root_orbits])
    lam = (Q(1),)
    lead = opdam_leading_coefficient(bc1, mults, lam)
    rho = g1 / 2 + g2v
    # hand expansion: pairing 2 for e_1, pairing 1 for 2e_1
    expect = Q(1)
    for j in range(2):
        expect *= (2 * rho + j) / (2 * rho + g1 + j)
    expect *= (rho + g1 / 2) / (rho + g1 / 2 + g2v)
    assert lead == expect
    assert jacobi_polynomial(bc1, mults, lam).leading_coefficient() == lead


def test_rejects_non_dominant(a2):
    g = constant_multiplicities(a2, Q(3, 7))
    from hodiff.rootsys import vneg
    with pytest.raises(ValueError):
        jacobi_polynomial(a2, g, vneg(a2.fundamental_weights[0]))


@pytest.mark.parametrize("system", ["a2", "b2", "g2", "bc2"])
def test_cleared_eigencheck_residual_matches_public_path(system, request, corrupted):
    datum = request.getfixturevalue(system)
    mults = sample_multiplicities(datum, random.Random(f"eigen:{system}"))
    lam = ((Q(2), Q(1)) if datum.family == "BC"
           else datum.weight_from_fundamental([1] * datum.rank))
    good = jacobi_polynomial(datum, mults, lam)
    assert verify_eigen(datum, mults, lam, good).ok
    bad = corrupted(good)
    report = verify_eigen(datum, mults, lam, bad)
    p = bad.exp_poly()
    ev = eigenvalue_E(datum, mults, vadd(datum.rho(mults), lam))
    expected = apply_L(datum, mults, p) + p.scale(-ev)
    assert not report.ok and expected.terms
    assert report.residual == vector_exp_to_json(expected)


def test_exact_entry_points_reject_float_multiplicities(a2, b2):
    # a float multiplicity is refused where multiplicities are made, so no
    # exact entry point can be handed one; ints and Fractions are exact
    with pytest.raises(ValueError, match="exact multiplicities required"):
        constant_multiplicities(a2, 0.5)
    with pytest.raises(ValueError, match="exact multiplicities required"):
        Multiplicities(b2, (Q(1, 2), 0.5))
    lam = a2.fundamental_weights[0]
    for g in (1, Q(1, 2)):
        mults = constant_multiplicities(a2, g)
        poly = jacobi_polynomial(a2, mults, lam)
        assert verify_eigen(a2, mults, lam, poly).ok
        assert poly.leading_coefficient() == opdam_leading_coefficient(a2, mults, lam)


@pytest.mark.parametrize("system", ["A1", "A2", "A3", "B2", "C3", "D4", "G2", "BC1", "BC2"])
def test_opdam_product_matches_fraction_reference(system):
    # the cleared-integer product against the factor-by-factor Fraction one,
    # on every lambda the eigen suite checks for one campaign sample (each
    # shifted weight of the Pieri sweep; partitions with first part <= 3 for
    # BC), at that sample's multiplicities and at three more
    from oracles import fraction_opdam

    from hodiff.cli import CampaignConfig, pieri_cases
    from hodiff.rootsys import build_root_system
    fam, rank = system[:-1], int(system[-1])
    if fam == "BC":
        datum = build_root_system(fam, rank)
        lams = [tuple(map(Q, p)) for p in itertools.product(range(4), repeat=rank)
                if list(p) == sorted(p, reverse=True)]
        samples = []
    else:
        _cases, (res,) = pieri_cases(CampaignConfig(systems=((fam, rank),), samples=1), {})
        datum, lams, samples = res["datum"], [lam for _g, lam in res["cache"]], [res["mults"]]
    rng = random.Random(f"opdam:{system}")
    samples += [sample_multiplicities(datum, rng) for _ in range(3)]
    for mults in samples:
        for lam in lams:
            assert opdam_leading_coefficient(datum, mults, lam) == \
                fraction_opdam(datum, mults, lam), (system, lam)


@pytest.mark.parametrize("fam,rank", PIERI_SYSTEMS + (("BC", 1), ("BC", 2), ("BC", 3)))
def test_leading_rows_match_fraction_reference(fam, rank):
    # the rows of the sample record, d (<rho_g,a^vee>, m_a, g_a) per root
    # cleared once per sample, against the factor-by-factor product at every
    # dominant lambda of height <= 4, two samples on one datum
    from oracles import fraction_opdam
    datum = build_root_system(fam, rank)
    rng = random.Random(f"lead-rows:{fam}{rank}")
    for mults in [sample_multiplicities(datum, rng) for _ in range(2)]:
        for lam in datum.dominant_weights_up_to_height(4):
            assert opdam_leading_coefficient(datum, mults, lam) == \
                fraction_opdam(datum, mults, lam), (fam, rank, lam)
        record = mults._record
        cols = datum.pairings(datum.rho(mults)), mults.factor_values, mults.root_values
        assert record.rows == [tuple(x * record.d for x in row) for row in zip(*cols)]


def test_leading_rows_without_the_half_root_term_disagree(bc2):
    # negative control: the record's rows with g_{a/2}/2 dropped from M
    # (M = G on the doubled roots) no longer give the leading coefficient
    # of the BC2 polynomial
    mults = sample_multiplicities(bc2, random.Random("lead-half"))
    lam = (Q(2), Q(1))
    poly = jacobi_polynomial(bc2, mults, lam)
    assert poly.leading_coefficient() == opdam_leading_coefficient(bc2, mults, lam)
    record, half = mults._record, bc2.half_root_index
    assert any(half[i] is not None for i in bc2.positive_indices)
    mults._record = record._replace(rows=[row if h is None else (row[0], row[2], row[2])
                                          for row, h in zip(record.rows, half)])
    assert mults._record.rows != record.rows
    assert poly.leading_coefficient() != opdam_leading_coefficient(bc2, mults, lam)


ORACLE_SYSTEMS = [system for system in TABLE if system[0] != "E" or system[1] == 6]


@pytest.mark.parametrize("fam,rank", ORACLE_SYSTEMS)
def test_recursion_matches_tuple_walk_oracle(fam, rank):
    # the memoized integer pattern against the per-build tuple walk in
    # Fractions, exactly, at every dominant lambda up to height 3 and every
    # small dominant weight (the only nonzero ones on F4 and E6): two
    # samples on one datum (the second solves the memoized patterns, which
    # stay the same objects) and one on a fresh datum
    rng = random.Random(f"pattern:{fam}{rank}")
    datum = build_root_system(fam, rank)
    lams = sorted(set(datum.dominant_weights_up_to_height(3) + datum.small_dominant_weights()))

    def check(datum):
        mults = sample_multiplicities(datum, rng)
        for lam in lams:
            poly = jacobi_polynomial(datum, mults, lam)
            expected = tuple_walk_jacobi(datum, mults, lam)
            assert poly.label_coeffs == expected, (fam, rank, lam)
            assert list(poly.label_coeffs) == list(expected)

    check(datum)
    memo = dict(datum.jacobi_memo)
    assert memo.keys() == {datum.dominant_labels(lam) for lam in lams}
    check(datum)
    assert datum.jacobi_memo.keys() == memo.keys()
    assert all(datum.jacobi_memo[k] is v for k, v in memo.items())
    check(build_root_system(fam, rank))


def _shift_k(pattern, delta):
    """pattern with the K of the first term of its first nonempty row moved
    by delta."""
    doms, rows, counts, weights = pattern
    i = next(i for i, row in enumerate(rows) if row[0])
    (p, o, k), *rest = rows[i][0]
    row = (((p, o, k + delta), *rest),) + rows[i][1:]
    return doms, rows[:i] + (row,) + rows[i + 1:], counts, weights


def _drop_orbit(pattern, orbit):
    """pattern without the terms of one root orbit, in every row."""
    doms, rows, counts, weights = pattern
    rows = tuple((tuple(t for t in terms if t[1] != orbit), dq, bs)
                 for terms, dq, bs in rows)
    return doms, rows, counts, weights


@pytest.mark.parametrize("corrupt", [lambda p: _shift_k(p, 1), lambda p: _shift_k(p, -1),
                                     lambda p: _drop_orbit(p, 0), lambda p: _drop_orbit(p, 1)],
                         ids=["K+1", "K-1", "drop-orbit-0", "drop-orbit-1"])
def test_corrupted_pattern_fails_both_checks(corrupt, monkeypatch):
    # negative control for the memoized pattern: one corrupted entry makes
    # the eigencheck report a nonzero residual and moves the leading
    # coefficient off the closed product, so both independent checks still
    # guard the recursion
    datum = build_root_system("B", 2)
    mults = Multiplicities(datum, [Q(5, 11), Q(9, 4)])
    lam = datum.weight_from_fundamental([1, 2])
    top = datum.dominant_labels(lam)
    good = jacobi_polynomial(datum, mults, lam)
    assert verify_eigen(datum, mults, lam, good).ok
    assert good.leading_coefficient() == opdam_leading_coefficient(datum, mults, lam)
    monkeypatch.setitem(datum.jacobi_memo, top, corrupt(datum.jacobi_memo[top]))
    bad = jacobi_polynomial(datum, mults, lam)
    report = verify_eigen(datum, mults, lam, bad)
    assert not report.ok and report.residual
    assert bad.leading_coefficient() != opdam_leading_coefficient(datum, mults, lam)


@pytest.mark.parametrize("fam,rank", TABLE)
def test_label_eigenvalue_matches_vector_form(fam, rank):
    # E(rho_g + lam) on labels, as verify_eigen forms it, against
    # <xi, xi> - <rho_g, rho_g> in realization coordinates
    from hodiff.jacobi import _shifted_eigenvalue
    datum = build_root_system(fam, rank)
    mults = sample_multiplicities(datum, random.Random(f"E:{fam}{rank}"))
    for lam in ((Q(0),) * datum.dim,) + datum.small_dominant_weights():
        assert _shifted_eigenvalue(datum, mults, datum.labels(lam)) == \
            eigenvalue_E(datum, mults, vadd(datum.rho(mults), lam)), (fam, rank, lam)


def test_jacobi_keeps_no_datum_alive():
    # the recursion memo lives on the datum: once the datum, its
    # multiplicities and its polynomial are dropped, the datum is collected
    datum = build_root_system("B", 3)
    mults = sample_multiplicities(datum, random.Random(7))
    poly = jacobi_polynomial(datum, mults, datum.weight_from_fundamental([1, 1, 0]))
    assert verify_eigen(datum, mults, poly.lam, poly).ok and datum.jacobi_memo
    ref = weakref.ref(datum)
    del datum, mults, poly
    gc.collect()
    assert ref() is None
