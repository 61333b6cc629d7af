import dataclasses
import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as Q
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from hodiff import cli, nonreduced
from hodiff.nonreduced import (bc_multiplicities, coeff_U_Kp, coeff_V_signed, expansion_E_ell,
                               rank_one_shift_coefficient, rearrangement_gap, verify_pieri_bc)
from hodiff.diffeq import (PoleAtSpectralPoint, coeff_U, coeff_V, factor_product, float_table,
                           pieri_check, pieri_index, pieri_residual, pieri_terms, term_factors)
from hodiff.jacobi import jacobi_polynomial
from hodiff.rootsys import build_root_system
from hodiff.weylalg import ExpPoly, expansion_labels, label_form
from oracles import (multiplicity_of, orbitwise_expansion_labels, pole_free_rationals,
                     signed_rows, term_vectors)

GS = (Q(3, 7), Q(5, 11), Q(9, 4))


def _m(datum, gs=GS):
    return bc_multiplicities(datum, *gs)


def _omega(n, ell):
    # omega_ell = e_1 + ... + e_ell, the weight of E_ell's Pieri index
    return tuple(Q(int(k < ell)) for k in range(n))


def _bc_terms(datum, mults, ell, lam):
    """{shifted partition lam + nu: the sum of U*V over the etas of nu} from
    ``pieri_terms`` at omega_ell, lam a partition of Fractions."""
    out = {}
    for entry, _eta, c in pieri_terms(datum, mults, _omega(datum.rank, ell), datum.labels(lam),
                                      None):
        shifted = tuple(map(add, lam, datum.from_labels(entry.nu_labels)))
        out[shifted] = out.get(shifted, 0) + c
    return out


def test_empty_subset_gives_unit(bc2):
    xi = (Q(7, 5), Q(2, 9))
    assert coeff_V_signed(bc2, _m(bc2), (0, 0), xi) == 1


@pytest.mark.parametrize("row", [(1,), (1, 0, 0), (2, 0), (1, Q(1, 2))])
def test_signed_subset_row_is_checked(bc2, row):
    # a signed subset is its row e_{eps J}: n entries in {-1, 0, 1}
    with pytest.raises(ValueError, match="is not a signed subset row of length 2"):
        coeff_V_signed(bc2, _m(bc2), row, (Q(7, 5), Q(2, 9)))


def test_rank_one_v_matches_scalar_shift_coefficients(bc1):
    # same rational function as the scalar identity coefficients, the
    # displayed one at xi (up) and -xi (down), hence (after the factor-of-four
    # regrouping) the recurrence coefficients
    g1, g2 = GS[1], GS[2]
    for l in range(4):
        xi_l = g1 / 2 + g2 + l
        up, dn = (rank_one_shift_coefficient(1, GS, 0, (v,)) for v in (xi_l, -xi_l))
        assert coeff_V_signed(bc1, _m(bc1), (1,), (xi_l,)) == up
        assert coeff_V_signed(bc1, _m(bc1), (-1,), (xi_l,)) == dn


def test_singleton_coefficient_matches_displayed_form(bc1, bc2):
    # frozen displayed form for one positive slot at rank one and two
    g, g1, g2 = GS
    x1 = Q(7, 5)
    v = coeff_V_signed(bc1, _m(bc1), (1,), (x1,))
    assert v == (x1 + g1 / 2 + g2) * (1 + 2 * x1 + g1) / (x1 * (1 + 2 * x1))
    x = (Q(7, 5), Q(2, 9))
    v = coeff_V_signed(bc2, _m(bc2), (1, 0), x)
    expected = (x[0] + g1 / 2 + g2) * (1 + 2 * x[0] + g1) \
        / (x[0] * (1 + 2 * x[0])) \
        * (x[0] + x[1] + g) / (x[0] + x[1]) \
        * (x[0] - x[1] + g) / (x[0] - x[1])
    assert v == expected
    assert v == rank_one_shift_coefficient(2, GS, 0, x)


def test_pair_factor_signs(bc2):
    # inside-J pair factors carry +g in both numerators for V
    x = (Q(7, 5), Q(2, 9))
    g, g1, g2 = GS
    v = coeff_V_signed(bc2, _m(bc2), (1, 1), x)
    s = x[0] + x[1]
    singles = (x[0] + g1 / 2 + g2) * (1 + 2 * x[0] + g1) / (x[0] * (1 + 2 * x[0])) \
        * (x[1] + g1 / 2 + g2) * (1 + 2 * x[1] + g1) / (x[1] * (1 + 2 * x[1]))
    assert v == singles * (s + g) / s * (1 + s + g) / (1 + s)


def test_u_trivial_and_expansion(bc1, bc2):
    x = (Q(7, 5), Q(2, 9))
    assert coeff_U_Kp(bc2, _m(bc2), (0, 1), 0, x) == 1
    assert coeff_U_Kp(bc2, _m(bc2), (), 0, x) == 1
    # rank-one single-flip sum with explicit signs
    _, g1, g2 = GS
    x1 = (Q(7, 5),)
    got = coeff_U_Kp(bc1, _m(bc1), (0,), 1, x1)
    plus = (x1[0] + g1 / 2 + g2) * (1 + 2 * x1[0] + g1) / (x1[0] * (1 + 2 * x1[0]))
    minus = (-x1[0] + g1 / 2 + g2) * (1 - 2 * x1[0] + g1) / (-x1[0] * (1 - 2 * x1[0]))
    assert got == -(plus + minus)
    with pytest.raises(ValueError):
        coeff_U_Kp(bc2, _m(bc2), (0,), 2, x)


def test_u_minus_g_in_last_factor(bc2):
    # the inside-I pair factor flips the sign of g relative to V
    x = (Q(7, 5), Q(2, 9))
    g, g1, g2 = GS
    u = coeff_U_Kp(bc2, _m(bc2), (0, 1), 2, x)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_twisted_expansion_is_the_displayed_product(n):
    # E_omega of expansion_labels at omega = e_1 + ... + e_ell, its m_mu
    # twisted by (-1)^(sum omega - sum mu) on BC, is the displayed product of
    # 4 sinh^2(x_j/2), at every ell, and memoized under omega's labels
    datum = build_root_system("BC", n)
    for ell in range(1, n + 1):
        got, plain = (f(datum, _omega(n, ell)) for f in (expansion_labels,
                                                         orbitwise_expansion_labels))
        assert got.terms == label_form(datum, expansion_E_ell(n, ell)).terms
        assert got.terms == {l: (-1) ** int(ell - sum(datum.from_labels(l))) * c
                             for l, c in plain.terms.items()}
    assert set(datum.expansion_label_memo) == {datum.labels(_omega(n, ell))
                                               for ell in range(1, n + 1)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_untwisted_expansion_leaves_a_residual(n):
    # negative control on the twist: the plain E_omega of the reduced systems
    # (the orbit sums, no sign) fails the BC identity at every ell, where
    # the twisted form passes
    datum, lam, cache = build_root_system("BC", n), tuple(Q(n - k) for k in range(n)), {}
    mults = _m(datum)
    for ell in range(1, n + 1):
        omega = _omega(n, ell)
        for e_form, fails in ((expansion_labels(datum, omega), False),
                              (orbitwise_expansion_labels(datum, omega), True)):
            _terms, residual = pieri_check(datum, mults, omega, lam, e_form, None, cache)
            assert bool(residual) is fails, (ell, fails)


def test_expansion_hyperoctahedral_invariance():
    e = expansion_E_ell(3, 2)
    # invariance under coordinate permutations and sign flips
    perm = ExpPoly({(nu[2], nu[0], nu[1]): c for nu, c in e.terms.items()})
    flip = ExpPoly({(-nu[0], nu[1], -nu[2]): c for nu, c in e.terms.items()})
    assert perm == e and flip == e


def test_pieri_term_multiset_invariance(bc2):
    # the multiset of V values over all signed singletons is stable under
    # permuting and sign-flipping the spectral coordinates
    xi, mults = (Q(7, 5), Q(2, 9)), _m(bc2)
    rows = signed_rows(2, (0,)) + signed_rows(2, (1,))
    vals = sorted(coeff_V_signed(bc2, mults, row, xi) for row in rows)
    xi_perm = (xi[1], xi[0])
    vals_perm = sorted(coeff_V_signed(bc2, mults, row, xi_perm) for row in rows)
    xi_flip = (-xi[0], xi[1])
    vals_flip = sorted(coeff_V_signed(bc2, mults, row, xi_flip) for row in rows)
    assert vals == vals_perm == vals_flip


def test_rearrangement_identity_at_rational_points(bc1, bc2):
    rng = random.Random("j1")
    for _ in range(5):
        xi = (Q(rng.randint(1, 40), 7), Q(rng.randint(41, 80), 9))
        assert rearrangement_gap(bc2, GS, xi) == 0
    assert rearrangement_gap(bc1, GS, (Q(7, 5),)) == 0


@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_rearrangement_gap_is_zero_property(rank, data):
    # at random positive (g, g1, g2) and a pole-free xi: no xi_j, 2 xi_j or
    # xi_j +- xi_k is an integer, by the construction of pole_free_rationals
    positive = st.fractions(min_value=Q(1, 12), max_value=6, max_denominator=12)
    gs = tuple(data.draw(positive) for _ in range(3))
    xi = pole_free_rationals(data.draw, rank)
    assert rearrangement_gap(build_root_system("BC", rank), gs, xi) == 0


def test_pole_detection(bc2):
    with pytest.raises(PoleAtSpectralPoint):
        coeff_V_signed(bc2, _m(bc2), (1, 0), (Q(2, 9), Q(2, 9)))


@pytest.mark.parametrize("xi,root,which", [
    ((Q(0), Q(3, 5)), "2,0", "<xi,a^vee>"),
    ((Q(-1, 2), Q(3, 5)), "1,0", "1+<xi,a^vee>"),
    ((Q(2, 7), Q(2, 7)), "1,-1", "<xi,a^vee>"),
    ((Q(2, 7), Q(-2, 7)), "1,1", "<xi,a^vee>"),
], ids=["2e_j", "e_j", "e_j-e_k", "e_j+e_k"])
def test_pole_messages_name_the_root(bc2, xi, root, which):
    # one pole per root kind, named alike by the factor lists (V and U) and
    # by the Fraction form of the displayed single-shift coefficient
    message = f"denominator {which} vanishes at root ({root})"
    for coefficient in (
            lambda: coeff_V_signed(bc2, _m(bc2), (1, 0), xi),
            lambda: coeff_U_Kp(bc2, _m(bc2), (0, 1), 1, xi),
            lambda: rank_one_shift_coefficient(2, GS, 0, xi)):
        with pytest.raises(PoleAtSpectralPoint) as got:
            coefficient()
        assert str(got.value) == message


def test_partition_check(bc2):
    # lambda must be a partition: pieri_check refuses a weight that is not
    # dominant or not in BC2's weight lattice, as diffeq.verify_pieri does
    assert verify_pieri_bc(bc2, _m(bc2), 1, (Q(3), Q(1)), None, {}).ok
    for lam, message in [((Q(0), Q(1)), "(0/1,1/1) is not dominant"),
                         ((Q(1), Q(-1)), "(1/1,-1/1) is not dominant"),
                         ((Q(3, 2), Q(0)),
                          "(3/2,0/1) is not in the weight lattice of RootDatum(BC2)")]:
        with pytest.raises(ValueError) as got:
            verify_pieri_bc(bc2, _m(bc2), 1, lam, None, {})
        assert str(got.value) == message


@pytest.mark.parametrize("ell", [0, 3])
def test_ell_out_of_range_is_refused(bc2, ell):
    # omega = e_1 + ... + e_ell needs 1 <= ell <= n
    with pytest.raises(ValueError, match=f"ell={ell} out of range for rank 2"):
        verify_pieri_bc(bc2, _m(bc2), ell, (Q(1), Q(0)), None, {})


def test_pieri_bc_rank_one_seed(bc1):
    # lam = 0 reduces to the seed identity of the scalar three-term recurrence
    rep = verify_pieri_bc(bc1, _m(bc1), 1, (Q(0),), None, {})
    assert rep.ok and rep.n_terms == 2
    # the diagonal coefficient is forced: U_{full,1} = -(V_+ + V_-), and the
    # reflected shift dies at the base point
    g1, g2 = GS[1], GS[2]
    rho1 = g1 / 2 + g2
    xi = (rho1,)
    assert coeff_V_signed(bc1, _m(bc1), (-1,), xi) == 0


def test_pieri_bc_spec_case(bc2):
    rep = verify_pieri_bc(bc2, _m(bc2), 1, (Q(1), Q(0)), None, {})
    assert rep.ok
    rep = verify_pieri_bc(bc2, _m(bc2), 2, (Q(0), Q(0)), None, {})
    assert rep.ok


def test_pieri_bc_sweep(bc1, bc2):
    cache, mults = {}, _m(bc1)
    for lam in [(0,), (1,), (2,), (3,)]:
        assert verify_pieri_bc(bc1, mults, 1, tuple(map(Q, lam)), None, cache).ok
    cache, mults = {}, _m(bc2)
    for ell in (1, 2):
        for lam in [(a, b) for a in range(3) for b in range(a + 1)]:
            assert verify_pieri_bc(bc2, mults, ell, tuple(map(Q, lam)), None, cache).ok


def test_pieri_bc_builds_multiplicities_once_per_triple(monkeypatch):
    # the (ell, lam) calls of one bc suite sample share the multiplicities
    # and rho_g: one Multiplicities per (rank, sample), built from the triple
    built, seen = [], []
    real, verify = nonreduced.bc_multiplicities, nonreduced.verify_pieri_bc
    monkeypatch.setattr(nonreduced, "bc_multiplicities",
                        lambda *args: built.append(real(*args)) or built[-1])
    monkeypatch.setattr(nonreduced, "verify_pieri_bc",
                        lambda datum, mults, *args, **kw: seen.append((datum.rank, mults))
                        or verify(datum, mults, *args, **kw))
    cases = cli.bc_cases(cli.CampaignConfig(samples=2), {})
    assert all(c["status"] == "pass" for c in cases)
    samples = list(dict.fromkeys(seen))   # (rank, mults) per sample, in call order
    assert [n for n, _mults in samples] == [1, 1, 2, 2]
    # the builds after these four are the rank-one coefficient rows': one
    # for V, then one per rearrangement_gap, which reads (g, g1, g2) through
    # bc_multiplicities, at each of the five points
    assert [mults for _n, mults in samples] == built[:4] and len(built) == 4 + 1 + 5
    assert len(seen) == 2 * 4 + 2 * 2 * 10   # (ell, lam) calls per sample: 4 on BC1, 20 on BC2


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
    poly = jacobi_polynomial(bc2, mults, lam)
    shifted = [(jacobi_polynomial(bc2, mults, sh), c)
               for sh, c in _bc_terms(bc2, mults, ell, lam).items()]
    e_poly = expansion_E_ell(2, ell)
    top = bc2.labels((Q(3), Q(2)))
    assert pieri_residual(bc2, label_form(bc2, e_poly), poly, shifted, top) == {}
    # corrupt the shifted polynomial of the highest partition
    highest = max(p.lam for p, _c in shifted)
    bad = [(corrupted(p) if p.lam == highest else p, c) for p, c in shifted]
    got = pieri_residual(bc2, label_form(bc2, e_poly), poly, bad, top)
    assert got
    assert got == reference_residual(e_poly, poly, bad)


def _assert_named_pole(datum, exc, xi):
    # a raised pole names a root of the datum whose named denominator is 0 at xi
    z = datum.pairings(xi)[datum.roots.index(exc.alpha)]
    assert (z if exc.which == "<xi,a^vee>" else 1 + z) == 0, (exc, xi)


POLES = [(Q(0), Q(3, 5)), (Q(-1, 2), Q(3, 5)), (Q(2, 7), Q(2, 7)),
         (Q(2, 7), Q(-2, 7)), (Q(-1, 3), Q(-2, 3)), (Q(1, 3), Q(-4, 3))]


def test_signed_product_matches_fraction_reference():
    for n in (1, 2, 3):
        _check_signed_products(n)


def _check_signed_products(n):
    # every V and U coefficient, and each U_{nu,eta} alone (its (-1)^p
    # inside), against the factor-by-factor Fraction product, on random
    # points and on the pole points (their first n coordinates, padded by
    # 5/11): both raise, or both are equal; a raised pole names a root that
    # is one
    from oracles import fraction_signed_product
    datum, rng = build_root_system("BC", n), random.Random(f"signed-product:{n}")
    points = [(p + (Q(5, 11),) * n)[:n] for p in POLES] + [
        tuple(Q(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)) for _ in range(24)]
    seen = set()
    for xi in points:
        gs = tuple(Q(rng.randint(1, 12), rng.randint(2, 13)) for _ in range(3))
        mults = bc_multiplicities(datum, *gs)

        def check(got, want):
            try:
                expected = want()
            except PoleAtSpectralPoint:
                with pytest.raises(PoleAtSpectralPoint) as exc:
                    got()
                _assert_named_pole(datum, exc.value, xi)
                seen.add((datum.root_norms[datum.roots.index(exc.value.alpha)], exc.value.which))
            else:
                assert got() == expected

        for size in range(n + 1):
            for J in itertools.combinations(range(n), size):
                K = tuple(k for k in range(n) if k not in J)
                for row in signed_rows(n, J):
                    check(lambda: coeff_V_signed(datum, mults, row, xi),
                          lambda: fraction_signed_product(gs, row, K, xi, gs[0]))
                nu = tuple(int(k in J) for k in range(n))
                for p in range(len(K) + 1):
                    subs = [(row, [k for k in K if k not in I])
                            for I in itertools.combinations(K, p) for row in signed_rows(n, I)]
                    for row, rest in subs:
                        check(lambda: coeff_U(datum, mults, nu, row, xi), lambda: (-1) ** p
                              * fraction_signed_product(gs, row, rest, xi, -gs[0]))
                    check(lambda: coeff_U_Kp(datum, mults, K, p, xi), lambda: (-1) ** p * sum(
                        fraction_signed_product(gs, row, rest, xi, -gs[0]) for row, rest in subs))
    # every kind of pole: e_j shifted, 2e_j, and e_j +- e_k from rank 2
    assert seen == {(Q(1), "1+<xi,a^vee>"), (Q(4), "<xi,a^vee>")} | (
        {(Q(2), "<xi,a^vee>"), (Q(2), "1+<xi,a^vee>")} if n > 1 else set())


def test_bc_lists_follow_the_half_root_rule(bc2):
    # term_factors on BC reads the alpha/2 rule: e_j has no shift-0 entry,
    # as that factor moves into 2e_j's m, and its U shift-1 entry reads
    # -(1+z+g)/(1+z) (g sign -2) where the former lists kept + and put the
    # (-1)^p outside
    from oracles import bc_factors
    halves = {i for i in bc2.half_root_index if i is not None}
    assert {tuple(bc2.roots[i]) for i in halves} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    nu, eta = (1, 0), (0, -1)
    assert term_factors(bc2, nu) == bc_factors(bc2, nu)
    assert [f for f in term_factors(bc2, nu) if f[0] in halves] == [
        (bc2.roots.index((1, 0)), 1, 1)]
    assert [f for f in term_factors(bc2, nu, eta) if f[0] in halves] == [
        (bc2.roots.index((0, -1)), 1, -2)]
    assert [f for f in bc_factors(bc2, nu, eta) if f[0] in halves] == [
        (bc2.roots.index((0, -1)), 1, 1)]
    assert _m(bc2).factor_values[bc2.roots.index((2, 0))] == GS[2] + GS[1] / 2
    assert _m(bc2).factor_values[bc2.roots.index((1, 0))] == GS[1]


def test_coeff_v_and_u_give_the_bc_coefficients(bc2):
    # the public coeff_V/coeff_U read a BC datum by the same rule: V of the
    # shift e_1 is the displayed coefficient (6984972189/1124025749 when the
    # e_1 shift-0 factor was counted next to 2e_1's m), and coeff_U over the
    # signed p-subsets I of K sums to U_{K,p}
    xi, mults = (Q(7, 5), Q(2, 9)), _m(bc2)
    v = coeff_V(bc2, mults, (1, 0), xi)
    assert v == Q(78044382, 14597737) == rank_one_shift_coefficient(2, GS, 0, xi)
    assert v == coeff_V_signed(bc2, mults, (1, 0), xi)
    for K in ((0,), (1,), (0, 1)):
        nu = tuple(int(k not in K) for k in range(2))
        for p in range(len(K) + 1):
            assert sum(coeff_U(bc2, mults, nu, row, xi)
                       for I in itertools.combinations(K, p)
                       for row in signed_rows(2, I)) == coeff_U_Kp(bc2, mults, K, p, xi)


def test_float_multiplicities_read_the_half_root_sign(bc2):
    # the float path, factor_product on a float row of factor_values, reads
    # the alpha/2 rule as the exact one does: U_{K,1} is the float of the
    # exact value
    xi = (Q(7, 5), Q(2, 9))
    mults = _m(bc2)
    table, floats = float_table(bc2.pairings(xi)), tuple(map(float, mults.factor_values))
    for nu, eta in (((0, 0), (1, 0)), ((0, 0), (0, -1)), ((1, 0), (0, 1)), ((0, 0), None)):
        exact = coeff_V(bc2, mults, nu, xi) if eta is None else coeff_U(bc2, mults, nu, eta, xi)
        got = factor_product(bc2, term_factors(bc2, nu, eta), table, floats)
        assert math.isclose(got, float(exact), rel_tol=1e-13), (nu, eta)
    assert factor_product(bc2, term_factors(bc2, (0, 0), (1, 0)), table, floats) < 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_matches_the_signed_subset_builders(n):
    # pieri_index at omega_ell against BC's former own index, every ell: the
    # same shifts nu = e_{eps J}, |J| <= ell; per nu the same V list; as etas
    # nu + e_{eps I} over the signed p-subsets I of the complement K of J,
    # p = ell - |J|; and the U lists of U_{K,p} as a multiset, each with p
    # alpha/2 entries, which carry the (-1)^p (g sign -2 where it was +)
    from oracles import pieri_bc_index
    datum = build_root_system("BC", n)
    for ell in range(1, n + 1):
        index = {e.nu_labels: e for e in pieri_index(datum, _omega(n, ell))}
        want = {datum.labels(row): (K, p, u, v)
                for K, p, u, subs in pieri_bc_index(datum, ell) for row, v in subs}
        assert index.keys() == want.keys()
        for labels, (K, p, u, v) in want.items():
            entry = index[labels]
            assert entry.v_factors == v
            nu, _plus, etas = term_vectors(datum, entry)
            assert sorted(tuple(a - b for a, b in zip(eta, nu)) for eta in etas) \
                == sorted(row for I in itertools.combinations(K, p) for row in signed_rows(n, I))
            assert [sum(f[2] == -2 for f in us) for us in entry.u_factors] == [p] * len(u)
            assert Counter(tuple(f[:2] + (1,) if f[2] == -2 else f for f in us)
                           for us in entry.u_factors) == Counter(u)


SEEDED_GS = [tuple(Q(rng.randint(1, 12), rng.randint(2, 13)) for _ in range(3))
             for rng in [random.Random(f"bc-index:{k}") for k in range(5)]]
# g = 1 puts a pole at 1 - <xi, e_j - e_k> where lam_j = lam_k, and
# g1/2 + g2 = 1/2 one at 1 - 2 xi_n where lam_n = 0
POLE_GS = [(Q(1), Q(1, 2), Q(1, 4))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_terms_match_the_per_call_builder(n):
    # every ell, every partition with first part <= 3, five seeded samples
    # and one that meets poles; a fresh datum, so the index is built here and
    # then reused; both raise a pole, or both give the same terms
    from oracles import per_call_pieri_terms_bc
    datum = build_root_system("BC", n)
    parts = [p for p in itertools.product(range(4), repeat=n)
             if all(a >= b for a, b in zip(p, p[1:]))]
    poles = 0
    for gs in SEEDED_GS + POLE_GS:
        mults = bc_multiplicities(datum, *gs)
        rho = datum.rho(mults)
        for ell in range(1, n + 1):
            for lam in parts:
                xi = tuple(r + x for r, x in zip(rho, lam))
                try:
                    want = per_call_pieri_terms_bc(n, gs, ell, lam, xi)
                except PoleAtSpectralPoint:
                    with pytest.raises(PoleAtSpectralPoint) as exc:
                        _bc_terms(datum, mults, ell, tuple(map(Q, lam)))
                    _assert_named_pole(datum, exc.value, xi)
                    poles += 1
                else:
                    got = _bc_terms(datum, mults, ell, tuple(map(Q, lam)))
                    assert got == {sh: c for _sub, sh, c in want}, (gs, ell, lam)
    assert poles and set(datum.index_memo) == {datum.labels(_omega(n, ell))
                                               for ell in range(1, n + 1)}


def _edited_index(datum, ell, edit):
    """Replace the memoized index of omega_ell by one with edit applied to
    every factor list, edit(datum, factors, "u" or "v")."""
    omega = _omega(datum.rank, ell)
    datum.index_memo[datum.labels(omega)] = tuple(
        dataclasses.replace(e, v_factors=edit(datum, e.v_factors, "v"),
                            u_factors=tuple(edit(datum, f, "u") for f in e.u_factors))
        for e in pieri_index(datum, omega))


def _halves(datum):
    return set(datum.half_root_index)


def _flip_u_pair(datum, factors, kind):
    # U's shifted pair factor: -g becomes +g
    return tuple((i, 1, 1) if kind == "u" and (s, e) == (1, -1) else (i, s, e)
                 for i, s, e in factors)


def _flip_v_pair(datum, factors, kind):
    # V's shifted pair factor (shift 1 on a root e_j +- e_k): +g becomes -g
    return tuple((i, 1, -1) if kind == "v" and s == 1 and i not in _halves(datum) else (i, s, e)
                 for i, s, e in factors)


def _drop_cross(datum, factors, _kind):
    # the cross factors: shift 0 on a root e_j +- e_k that has no shift-1 entry
    paired = {i for i, s, _e in factors if s == 1}
    return tuple(f for f in factors if datum.root_norms[f[0]] != 2 or f[0] in paired)


def _keep_half_shift0(datum, factors, _kind):
    # the alpha/2 rule undone: e_j keeps its shift-0 entry next to 2e_j's m
    return tuple(g for f in factors
                 for g in ([(f[0], 0, 1), f] if f[0] in _halves(datum) else [f]))


def _drop_half_sign(datum, factors, _kind):
    # U's (-1)^p dropped: the alpha/2 entries read +(1+z+g)/(1+z)
    return tuple((i, s, 1) if e == -2 else (i, s, e) for i, s, e in factors)


@functools.cache
def _intact_cache(n, ell, lam):
    """The polynomial cache of a passing run with the intact index, once per
    (n, ell, lam) on a fresh datum; each control edits a copy."""
    cache, datum = {}, build_root_system("BC", n)
    assert verify_pieri_bc(datum, _m(datum), ell, tuple(map(Q, lam)), None, cache).ok
    return cache


CONTROL_CASES = [(2, 2, (3, 1)), (3, 2, (5, 3, 1)), (3, 3, (5, 3, 1))]


@pytest.mark.parametrize("edit", [_flip_u_pair, _flip_v_pair, _drop_cross, _keep_half_shift0,
                                  _drop_half_sign])
@pytest.mark.parametrize("n,ell,lam", CONTROL_CASES)
def test_edited_index_leaves_a_residual(edit, n, ell, lam):
    # negative controls on the BC pair and cross factors and on the alpha/2
    # rule and its sign, each edited in the memoized index of a fresh datum
    # (``pieri_index`` at omega_ell): lam's parts
    # are 2 apart and its last is positive, so every shift is a partition
    # and no vanishing V guards the edit; the residual must be nonzero where
    # the intact index passes
    cache = dict(_intact_cache(n, ell, lam))
    datum = build_root_system("BC", n)
    _edited_index(datum, ell, edit)
    rep = verify_pieri_bc(datum, _m(datum), ell, tuple(map(Q, lam)), None, cache)
    assert not rep.ok and rep.residual


@pytest.mark.parametrize("n,ell,lam", CONTROL_CASES)
def test_root_values_in_place_of_factor_values_leave_a_residual(n, ell, lam):
    # negative control on the m column: the same lists read with g_alpha
    # (m without g_{alpha/2}/2) fail, where the intact multiplicities pass
    cache, datum = dict(_intact_cache(n, ell, lam)), build_root_system("BC", n)
    mults = _m(datum)
    mults.factor_values = mults.root_values
    rep = verify_pieri_bc(datum, mults, ell, tuple(map(Q, lam)), None, cache)
    assert not rep.ok and rep.residual
