import itertools
import random
from fractions import Fraction as Q

import pytest

from hodiff.diffeq import sample_multiplicities
from hodiff.jacobi import (jacobi_polynomial, opdam_leading_coefficient,
                           verify_eigen)
from hodiff.rootsys import Multiplicities, vadd
from hodiff.weylalg import (ExpPoly, apply_L, eigenvalue_E, exp_to_json,
                            is_w_invariant)
from oracles import constant_multiplicities, dominance_leq, vscale

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
    report = verify_eigen(a2, g, lam)
    assert report.ok and report.residual == []
    gb = Multiplicities(b2, [Q(5, 11), Q(9, 4)])
    lam = vscale(2, b2.fundamental_weights[0])
    assert verify_eigen(b2, gb, lam).ok


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
    mults = Multiplicities(bc1, [by_norm[bc1.norm_sq(orbit[0])] for orbit in bc1.root_orbits])
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
    assert verify_eigen(datum, mults, lam).ok
    bad = corrupted(jacobi_polynomial(datum, mults, lam))
    report = verify_eigen(datum, mults, lam, bad)
    p = bad.exp_poly()
    ev = eigenvalue_E(datum, mults, vadd(datum.rho(mults), lam))
    expected = apply_L(datum, mults, p) - p.scale(ev)
    assert not report.ok and not expected.is_zero()
    assert report.residual == exp_to_json(expected)


def test_exact_entry_points_reject_float_multiplicities(a2):
    floats = constant_multiplicities(a2, 0.5)
    lam = a2.fundamental_weights[0]
    with pytest.raises(ValueError, match="exact multiplicities required"):
        jacobi_polynomial(a2, floats, lam)
    poly = jacobi_polynomial(a2, constant_multiplicities(a2, Q(1, 2)), lam)
    with pytest.raises(ValueError, match="exact multiplicities required"):
        verify_eigen(a2, floats, lam, poly)
    with pytest.raises(ValueError, match="exact multiplicities required"):
        opdam_leading_coefficient(a2, floats, lam)


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
        (res,) = pieri_cases(CampaignConfig(systems=((fam, rank),), samples=1))
        datum, lams, samples = res["datum"], [lam for _g, lam in res["cache"]], [res["mults"]]
    rng = random.Random(f"opdam:{system}")
    samples += [sample_multiplicities(datum, rng) for _ in range(3)]
    for mults in samples:
        for lam in lams:
            assert opdam_leading_coefficient(datum, mults, lam) == \
                fraction_opdam(datum, mults, lam), (system, lam)
