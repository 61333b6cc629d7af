import itertools
import random
from fractions import Fraction as Q

import pytest

from hodiff import nonreduced
from hodiff.nonreduced import (SignedSubset, bc_multiplicities, coeff_U_Kp,
                               coeff_V_signed, expansion_E_ell, is_partition,
                               pieri_terms_bc, rank_one_shift_coefficient,
                               pieri_bc_index, rearrangement_gap, signed_subsets,
                               verify_pieri_bc)
from hodiff.diffeq import PoleAtSpectralPoint, pieri_residual
from hodiff.jacobi import jacobi_polynomial
from hodiff.rootsys import build_root_system
from hodiff.weylalg import ExpPoly, label_form
from oracles import multiplicity_of

GS = (Q(3, 7), Q(5, 11), Q(9, 4))


def test_signed_subset_validation():
    with pytest.raises(ValueError):
        SignedSubset((0, 1), (1,))
    with pytest.raises(ValueError):
        SignedSubset((1, 0), (1, 1))
    with pytest.raises(ValueError):
        SignedSubset((0,), (2,))
    sub = SignedSubset((0, 2), (1, -1))
    assert sub.shift_vector(3) == (Q(1), Q(0), Q(-1))
    assert len(list(signed_subsets((0, 1)))) == 4


def test_empty_subset_gives_unit():
    xi = (Q(7, 5), Q(2, 9))
    assert coeff_V_signed(2, GS, SignedSubset((), ()), xi) == 1


def test_rank_one_v_matches_scalar_shift_coefficients():
    # same rational function as the scalar identity coefficients, hence
    # (after the factor-of-four regrouping) the recurrence coefficients
    from hodiff.rankone import shift_coefficients
    g1, g2 = GS[1], GS[2]
    for l in range(4):
        xi_l = g1 / 2 + g2 + l
        up, dn = shift_coefficients(g1, g2, xi_l)
        assert coeff_V_signed(1, GS, SignedSubset((0,), (1,)), (xi_l,)) == up
        assert coeff_V_signed(1, GS, SignedSubset((0,), (-1,)), (xi_l,)) == dn


def test_singleton_coefficient_matches_displayed_form():
    # frozen displayed form for one positive slot at rank one and two
    g, g1, g2 = GS
    x1 = Q(7, 5)
    v = coeff_V_signed(1, GS, SignedSubset((0,), (1,)), (x1,))
    assert v == (x1 + g1 / 2 + g2) * (1 + 2 * x1 + g1) / (x1 * (1 + 2 * x1))
    x = (Q(7, 5), Q(2, 9))
    v = coeff_V_signed(2, GS, SignedSubset((0,), (1,)), x)
    expected = (x[0] + g1 / 2 + g2) * (1 + 2 * x[0] + g1) \
        / (x[0] * (1 + 2 * x[0])) \
        * (x[0] + x[1] + g) / (x[0] + x[1]) \
        * (x[0] - x[1] + g) / (x[0] - x[1])
    assert v == expected
    assert v == rank_one_shift_coefficient(2, GS, 0, x)


def test_pair_factor_signs():
    # inside-J pair factors carry +g in both numerators for V
    x = (Q(7, 5), Q(2, 9))
    g, g1, g2 = GS
    v = coeff_V_signed(2, GS, SignedSubset((0, 1), (1, 1)), x)
    s = x[0] + x[1]
    singles = (x[0] + g1 / 2 + g2) * (1 + 2 * x[0] + g1) / (x[0] * (1 + 2 * x[0])) \
        * (x[1] + g1 / 2 + g2) * (1 + 2 * x[1] + g1) / (x[1] * (1 + 2 * x[1]))
    assert v == singles * (s + g) / s * (1 + s + g) / (1 + s)


def test_u_trivial_and_expansion():
    x = (Q(7, 5), Q(2, 9))
    assert coeff_U_Kp(2, GS, (0, 1), 0, x) == 1
    assert coeff_U_Kp(2, GS, (), 0, x) == 1
    # rank-one single-flip sum with explicit signs
    _, g1, g2 = GS
    x1 = (Q(7, 5),)
    got = coeff_U_Kp(1, GS, (0,), 1, x1)
    plus = (x1[0] + g1 / 2 + g2) * (1 + 2 * x1[0] + g1) / (x1[0] * (1 + 2 * x1[0]))
    minus = (-x1[0] + g1 / 2 + g2) * (1 - 2 * x1[0] + g1) / (-x1[0] * (1 - 2 * x1[0]))
    assert got == -(plus + minus)
    with pytest.raises(ValueError):
        coeff_U_Kp(2, GS, (0,), 2, x)


def test_u_minus_g_in_last_factor():
    # the inside-I pair factor flips the sign of g relative to V
    x = (Q(7, 5), Q(2, 9))
    g, g1, g2 = GS
    u = coeff_U_Kp(2, GS, (0, 1), 2, x)
    total = Q(0)
    for s0, s1 in itertools.product((1, -1), repeat=2):
        term = Q(1)
        for s, xv in ((s0, x[0]), (s1, x[1])):
            term *= (s * xv + g1 / 2 + g2) * (1 + 2 * s * xv + g1) \
                / (s * xv * (1 + 2 * s * xv))
        pair = s0 * x[0] + s1 * x[1]
        term *= (pair + g) / pair * (1 + pair - g) / (1 + pair)
        total += term
    assert u == total  # (-1)^2 = +1


def test_expansion_e_ell(bc1, bc2):
    e1 = expansion_E_ell(1, 1)
    assert e1 == ExpPoly({(Q(1),): Q(1), (Q(0),): Q(-2), (Q(-1),): Q(1)})
    e22 = expansion_E_ell(2, 2)
    assert len(e22.terms) == 9
    assert e22.terms[(Q(0), Q(0))] == 4
    assert expansion_E_ell(3, 1).terms[(Q(0),) * 3] == -6
    with pytest.raises(ValueError):
        expansion_E_ell(2, 3)


def test_expansion_hyperoctahedral_invariance():
    e = expansion_E_ell(3, 2)
    # invariance under coordinate permutations and sign flips
    perm = ExpPoly({(nu[2], nu[0], nu[1]): c for nu, c in e.terms.items()})
    flip = ExpPoly({(-nu[0], nu[1], -nu[2]): c for nu, c in e.terms.items()})
    assert perm == e and flip == e


def test_pieri_term_multiset_invariance():
    # the multiset of V values over all signed singletons is stable under
    # permuting and sign-flipping the spectral coordinates
    xi = (Q(7, 5), Q(2, 9))
    vals = sorted(coeff_V_signed(2, GS, sub, xi)
                  for J in [(0,), (1,)] for sub in signed_subsets(J))
    xi_perm = (xi[1], xi[0])
    vals_perm = sorted(coeff_V_signed(2, GS, sub, xi_perm)
                       for J in [(0,), (1,)] for sub in signed_subsets(J))
    xi_flip = (-xi[0], xi[1])
    vals_flip = sorted(coeff_V_signed(2, GS, sub, xi_flip)
                       for J in [(0,), (1,)] for sub in signed_subsets(J))
    assert vals == vals_perm == vals_flip


def test_rearrangement_identity_at_rational_points():
    rng = random.Random("j1")
    for _ in range(5):
        xi = (Q(rng.randint(1, 40), 7), Q(rng.randint(41, 80), 9))
        assert rearrangement_gap(2, GS, xi) == 0
    assert rearrangement_gap(1, GS, (Q(7, 5),)) == 0


def test_pole_detection():
    with pytest.raises(PoleAtSpectralPoint):
        coeff_V_signed(2, GS, SignedSubset((0,), (1,)), (Q(2, 9), Q(2, 9)))


def test_partition_check():
    assert is_partition((Q(3), Q(1), Q(0)))
    assert not is_partition((Q(1), Q(2)))
    assert not is_partition((Q(1), Q(-1)))
    assert not is_partition((Q(3, 2), Q(0)))
    with pytest.raises(ValueError):
        verify_pieri_bc(2, GS, 1, (0, 1))


def test_pieri_bc_rank_one_seed(bc1):
    # lam = 0 reduces to the seed identity of the scalar three-term recurrence
    rep = verify_pieri_bc(1, GS, 1, (0,), datum=bc1)
    assert rep.ok and rep.n_terms == 2
    # the diagonal coefficient is forced: U_{full,1} = -(V_+ + V_-), and the
    # reflected shift dies at the base point
    g1, g2 = GS[1], GS[2]
    rho1 = g1 / 2 + g2
    xi = (rho1,)
    assert coeff_V_signed(1, GS, SignedSubset((0,), (-1,)), xi) == 0


def test_pieri_bc_spec_case(bc2):
    rep = verify_pieri_bc(2, GS, 1, (1, 0), datum=bc2)
    assert rep.ok
    rep = verify_pieri_bc(2, GS, 2, (0, 0), datum=bc2)
    assert rep.ok


def test_pieri_bc_sweep(bc1, bc2):
    cache = {}
    for lam in [(0,), (1,), (2,), (3,)]:
        assert verify_pieri_bc(1, GS, 1, lam, cache=cache, datum=bc1).ok
    cache = {}
    for ell in (1, 2):
        for lam in [(a, b) for a in range(3) for b in range(a + 1)]:
            assert verify_pieri_bc(2, GS, ell, lam, cache=cache, datum=bc2).ok


def test_pieri_bc_builds_multiplicities_once_per_triple(bc2, monkeypatch):
    # the (ell, lam) calls of one sample share the multiplicities and rho_g
    built = []
    real = nonreduced.bc_multiplicities
    monkeypatch.setattr(nonreduced, "bc_multiplicities",
                        lambda *args: built.append(args[1:]) or real(*args))
    cache = {}
    for ell in (1, 2):
        for lam in ((0, 0), (1, 0), (1, 1)):
            assert verify_pieri_bc(2, GS, ell, lam, cache=cache, datum=bc2).ok
    assert built == [GS]


def test_bc_multiplicities_by_length(bc2):
    m = bc_multiplicities(bc2, *GS)
    assert multiplicity_of(m, (Q(1), Q(1))) == GS[0]   # squared length 2
    assert multiplicity_of(m, (Q(0), Q(1))) == GS[1]   # squared length 1
    assert multiplicity_of(m, (Q(2), Q(0))) == GS[2]   # squared length 4


@pytest.mark.parametrize("ell", [1, 2])
def test_bc_pieri_residual_matches_product_reference(bc2, ell, reference_residual,
                                                     corrupted):
    lam = (Q(2), Q(1))
    mults = bc_multiplicities(bc2, *GS)
    rho = bc2.rho(mults)
    terms = pieri_terms_bc(bc2, GS, ell, lam, tuple(r + x for r, x in zip(rho, lam)))
    poly = jacobi_polynomial(bc2, mults, lam)
    shifted = [(jacobi_polynomial(bc2, mults, sh), c) for _sub, sh, c in terms]
    e_poly = expansion_E_ell(2, ell)
    top = bc2.labels((Q(3), Q(2)))
    assert pieri_residual(bc2, label_form(bc2, e_poly), poly, shifted, top).is_zero()
    # corrupt the shifted polynomial of the highest partition
    highest = max(p.lam for p, _c in shifted)
    bad = [(corrupted(p) if p.lam == highest else p, c) for p, c in shifted]
    got = pieri_residual(bc2, label_form(bc2, e_poly), poly, bad, top)
    assert not got.is_zero()
    assert got == reference_residual(e_poly, poly, bad)


def test_signed_product_matches_fraction_reference(bc2):
    # the integer product against the factor-by-factor Fraction one, on
    # random points and on points placed on each kind of pole, where both
    # must raise the same message; then the memoized index path against the
    # per-call term builder at the same points, with lam = (3, 1), at which
    # every shift is a partition, so that a pole is the only way to fail
    from oracles import fraction_signed_product, per_call_pieri_terms_bc

    from hodiff.nonreduced import _product, _slot_factors, cleared_point
    rng = random.Random("signed-product")
    poles = [(Q(0), Q(3, 5)), (Q(-1, 2), Q(3, 5)), (Q(2, 7), Q(2, 7)),
             (Q(2, 7), Q(-2, 7)), (Q(-1, 3), Q(-2, 3)), (Q(1, 3), Q(-4, 3))]
    points = poles + [tuple(Q(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2))
                      for _ in range(40)]
    seen, seen_index = set(), set()
    for xi in points:
        gs = tuple(Q(rng.randint(1, 12), rng.randint(2, 13)) for _ in range(3))
        for size in range(3):
            for J in itertools.combinations(range(2), size):
                others = [k for k in range(2) if k not in J]
                for sub in signed_subsets(J):
                    for sign in (1, -1):
                        point = cleared_point(gs, xi)
                        factors = _slot_factors(tuple(zip(sub.indices, sub.signs)), others, sign)
                        try:
                            want = fraction_signed_product(gs, sub, others, xi, sign * gs[0])
                        except PoleAtSpectralPoint as exc:
                            with pytest.raises(PoleAtSpectralPoint) as got:
                                _product(point, factors)
                            assert str(got.value) == str(exc)
                            seen.add(str(exc))
                        else:
                            assert Q(*_product(point, factors)) == want
        for ell in (1, 2):
            try:
                want = per_call_pieri_terms_bc(2, gs, ell, (3, 1), xi)
            except PoleAtSpectralPoint as exc:
                with pytest.raises(PoleAtSpectralPoint) as got:
                    pieri_terms_bc(bc2, gs, ell, (3, 1), xi)
                assert str(got.value) == str(exc)
                seen_index.add(str(exc))
            else:
                assert pieri_terms_bc(bc2, gs, ell, (3, 1), xi) == want
    assert len(seen) == 7     # every pole name, 1*xi_j and -1*xi_j apart
    # every name but -1*xi_j: at xi_j = 0 a U term with +1 at slot j comes first
    assert seen_index == {m for m in seen if not m.endswith("(-,1,*,x,i,_,j)")}


SEEDED_GS = [tuple(Q(rng.randint(1, 12), rng.randint(2, 13)) for _ in range(3))
             for rng in [random.Random(f"bc-index:{k}") for k in range(5)]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_terms_match_the_per_call_builder(n):
    # every ell, every partition with first part <= 3, five seeded samples;
    # a fresh datum, so the index is built here and then reused
    from oracles import per_call_pieri_terms_bc
    datum = build_root_system("BC", n)
    parts = [p for p in itertools.product(range(4), repeat=n)
             if all(a >= b for a, b in zip(p, p[1:]))]
    for gs in SEEDED_GS:
        rho = datum.rho(bc_multiplicities(datum, *gs))
        for ell in range(1, n + 1):
            for lam in parts:
                xi = tuple(r + x for r, x in zip(rho, lam))
                got = pieri_terms_bc(datum, gs, ell, tuple(map(Q, lam)), xi)
                assert got == per_call_pieri_terms_bc(n, gs, ell, lam, xi), (gs, ell, lam)
    assert set(datum.pieri_bc_memo) == set(range(1, n + 1))


def _edited_index(datum, ell, edit):
    """Replace the memoized index of ell by one with edit applied to every
    factor list, edit(factors, "u" or "v")."""
    datum.pieri_bc_memo[ell] = tuple(
        (K, p, tuple(edit(f, "u") for f in u),
         tuple((sub, row, edit(f, "v")) for sub, row, f in subs))
        for K, p, u, subs in pieri_bc_index(datum, ell))


def _flip_u_pair(factors, kind):
    # U's shifted pair factor: -g (e index 3) becomes +g
    return tuple(f[:5] + (2,) + f[6:] if kind == "u" and f[5] == 3 else f for f in factors)


def _flip_v_pair(factors, kind):
    # V's shifted pair factor (c = 1 with +g): +g becomes -g
    return tuple(f[:5] + (3,) + f[6:] if kind == "v" and f[0] == 1 and f[5] == 2 else f
                 for f in factors)


def _drop_cross(factors, _kind):
    return tuple(f for f in factors if f[6] not in ("xi_j+xi_k", "xi_j-xi_k"))


@pytest.mark.parametrize("edit", [_flip_u_pair, _flip_v_pair, _drop_cross])
@pytest.mark.parametrize("n,ell,lam", [(2, 2, (3, 1)), (3, 2, (5, 3, 1)), (3, 3, (5, 3, 1))])
def test_edited_index_leaves_a_residual(edit, n, ell, lam):
    # negative controls on the BC pair and cross factors, each edited in the
    # memoized index of a fresh datum: lam's parts are 2 apart and its last
    # is positive, so every shift is a partition and no vanishing V guards
    # the edit; the residual must be nonzero where the intact index passes
    cache = {}
    assert verify_pieri_bc(n, GS, ell, lam, cache=cache, datum=build_root_system("BC", n)).ok
    datum = build_root_system("BC", n)
    _edited_index(datum, ell, edit)
    rep = verify_pieri_bc(n, GS, ell, lam, cache=cache, datum=datum)
    assert not rep.ok and rep.residual
