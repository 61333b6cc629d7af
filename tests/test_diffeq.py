import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest

import hodiff.diffeq as diffeq
from hodiff.diffeq import (PERTURB_U_SIGN, PERTURB_V_DROP, PERTURBATIONS,
                           PoleAtSpectralPoint, coeff_U, coeff_V,
                           integer_product, perturbed, pieri_index,
                           pieri_residual, pieri_terms, quasi_identity_value,
                           sample_multiplicities, sample_spectral_point,
                           scaled_table, specialization_consistency,
                           verify_pieri)
from hodiff.jacobi import jacobi_polynomial
from hodiff.rootsys import Multiplicities, vadd, vscale
from hodiff.weylalg import (ExpPoly, InternalConsistencyError,
                            expansion_E_omega)


def _a1_setup(a1, g_val=Q(3, 7), z=Q(5, 3)):
    g = Multiplicities.constant(a1, g_val)
    w = a1.fundamental_weights[0]
    alpha = a1.positive_roots[0]
    xi = vscale(z, w)  # <xi, alpha^vee> = z
    return g, w, alpha, xi


def test_coeff_v_rank_one_forms(a1):
    g_val, z = Q(3, 7), Q(5, 3)
    g, w, alpha, xi = _a1_setup(a1, g_val, z)
    assert coeff_V(a1, g, w, xi) == (z + g_val) / z
    assert coeff_V(a1, g, alpha, xi) == \
        (z + g_val) / z * (1 + z + g_val) / (1 + z)
    zero = (Q(0),) * a1.dim
    assert coeff_V(a1, g, zero, xi) == 1


def test_coeff_u_rank_one_forms(a1):
    g_val, z = Q(3, 7), Q(5, 3)
    g, w, alpha, xi = _a1_setup(a1, g_val, z)
    zero = (Q(0),) * a1.dim
    assert coeff_U(a1, g, zero, alpha, xi) == \
        (z + g_val) / z * (1 + z - g_val) / (1 + z)
    # regular nu has an empty stabilizer subsystem
    assert coeff_U(a1, g, w, w, xi) == 1


def test_pole_raises(a1):
    g, w, alpha, _ = _a1_setup(a1)
    zero_xi = (Q(0),) * a1.dim
    with pytest.raises(PoleAtSpectralPoint):
        coeff_V(a1, g, w, zero_xi)
    minus_one = vscale(Q(-1), w)  # pairing -1 hits the affine denominator
    with pytest.raises(PoleAtSpectralPoint):
        coeff_V(a1, g, alpha, minus_one)


def _reference_product(datum, factors, z, g):
    """A factor-list product one Fraction factor at a time."""
    total = Q(1)
    for i, s, e in factors:
        w = z[i] + s
        if w == 0:
            raise PoleAtSpectralPoint(datum.roots[i],
                                      "1+<xi,a^vee>" if s else "<xi,a^vee>")
        total *= (w + e * g[i]) / w
    return total


def _outcome(evaluate):
    try:
        return evaluate()
    except PoleAtSpectralPoint as exc:
        return ("pole", exc.alpha, exc.which)


def _every_factor_list(datum):
    """Each V and U factor list of every small weight's Pieri index,
    plain and under both negative-control edits."""
    for omega in datum.small_dominant_weights():
        for entry in pieri_index(datum, omega):
            for factors in (entry.v_factors, *entry.u_factors):
                for perturb in (None, *PERTURBATIONS):
                    yield perturbed(factors, perturb)


@pytest.mark.parametrize("system", ["a2", "b2", "g2", "c3", "d4", "f4"])
def test_integer_product_matches_fraction_reference(system, request):
    datum = request.getfixturevalue(system)
    rng = random.Random(f"integer-product:{system}")
    mults = sample_multiplicities(datum, rng)
    xi = sample_spectral_point(datum, rng)
    z, g = datum.pairings(xi), mults.root_values
    table = scaled_table(z, g)
    checked = 0
    for factors in _every_factor_list(datum):
        got = Q(*integer_product(datum, factors, table))
        assert got == _reference_product(datum, factors, z, g), factors
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("system", ["a2", "b2", "g2", "c3"])
def test_integer_product_poles_match_reference(system, request):
    # at xi = 0, -omega_j and -rho (all labels -1, so only 1+z vanishes)
    # every pole of the reference is raised by the integer evaluator at the
    # same root and denominator
    datum = request.getfixturevalue(system)
    g = sample_multiplicities(datum, random.Random(f"poles:{system}")).root_values
    points = [(Q(0),) * datum.dim,
              datum.weight_from_fundamental([-1] * datum.rank)]
    points += [vscale(-1, w) for w in datum.fundamental_weights]
    kinds = set()
    for xi in points:
        z = datum.pairings(xi)
        table = scaled_table(z, g)
        for factors in _every_factor_list(datum):
            want = _outcome(lambda: _reference_product(datum, factors, z, g))
            got = _outcome(lambda: Q(*integer_product(datum, factors, table)))
            assert got == want, (xi, factors)
            if isinstance(want, tuple):
                kinds.add(want[2])
    assert kinds == {"<xi,a^vee>", "1+<xi,a^vee>"}


def test_pieri_terms_pole_names_root_and_denominator(a1):
    # g = 1 at lambda = 0 puts <rho_g, (-alpha)^vee> at -1: the pairing-2
    # factor of V_{-alpha} for the quasi-minuscule alpha has a pole
    alpha = a1.positive_roots[0]
    zero = (Q(0),) * a1.dim
    with pytest.raises(PoleAtSpectralPoint) as exc:
        pieri_terms(a1, Multiplicities.constant(a1, Q(1)), alpha, zero)
    assert exc.value.alpha == vscale(-1, alpha)
    assert exc.value.which == "1+<xi,a^vee>"


def test_pieri_terms_requires_exact_multiplicities(a2):
    zero = (Q(0),) * a2.dim
    with pytest.raises(ValueError, match="exact multiplicities required"):
        pieri_terms(a2, Multiplicities.constant(a2, 0.5),
                    a2.fundamental_weights[0], zero)


def test_pieri_index_structure(a2):
    theta = a2.quasi_minuscule_weight()
    entries = pieri_index(a2, theta)
    zero = (Q(0),) * a2.dim
    assert {e.nu for e in entries} == set(a2.weyl_orbit(theta)) | {zero}
    for e in entries:
        if e.nu == zero:
            assert set(e.etas) == set(a2.weyl_orbit(theta))
        else:
            assert e.etas == (e.nu,)
    with pytest.raises(ValueError):
        pieri_index(a2, vscale(3, a2.fundamental_weights[0]))


def test_rank_one_pieri_collapses_to_doubling(a1):
    # at the base point the surviving term is the dominant shift with
    # coefficient 2, the reflected shift being killed by the vanishing factor
    g, w, alpha, _ = _a1_setup(a1)
    zero = (Q(0),) * a1.dim
    terms = pieri_terms(a1, g, w, zero)
    assert len(terms) == 1
    nu, eta, coeff = terms[0]
    assert nu == w and coeff == 2
    rep = verify_pieri(a1, g, w, zero)
    assert rep.ok and rep.residual == []


def test_pieri_exactness_spec_cases(a2, g2):
    g = Multiplicities.constant(a2, Q(3, 7))
    lam = vadd(*a2.fundamental_weights)
    assert verify_pieri(a2, g, a2.fundamental_weights[0], lam).ok
    assert verify_pieri(a2, g, a2.quasi_minuscule_weight(), lam).ok
    gm = Multiplicities(g2, [Q(3, 7), Q(5, 11)])
    zero = (Q(0),) * g2.dim
    assert verify_pieri(g2, gm, g2.small_fundamental_weights()[0], zero).ok


def test_pieri_term_sum_is_order_independent(b2):
    g = Multiplicities(b2, [Q(3, 7), Q(5, 11)])
    omega = b2.quasi_minuscule_weight()
    lam = b2.fundamental_weights[1]
    terms = pieri_terms(b2, g, omega, lam)
    rng = random.Random(5)
    shuffled = terms[:]
    rng.shuffle(shuffled)
    cache = {}
    def rhs(term_list):
        acc = ExpPoly.zero()
        for nu, _eta, c in term_list:
            key = vadd(lam, nu)
            poly = cache.get(key)
            if poly is None:
                poly = cache[key] = jacobi_polynomial(b2, g, key).exp_poly()
            acc = acc + poly.scale(c)
        return acc
    assert rhs(terms) == rhs(shuffled)


def test_quasi_identity_rank_one_frozen(a1):
    # the half-sum collapses to exactly 2 for every spectral value
    g, w, alpha, xi = _a1_setup(a1, Q(3, 7), Q(5, 3))
    assert quasi_identity_value(a1, g, alpha, xi) == 2


def test_quasi_identity_sampled(a2, b2):
    for datum, expect in ((a2, 6), (b2, 4)):
        omega = datum.quasi_minuscule_weight()
        assert len(datum.weyl_orbit(omega)) == expect
        rng = random.Random(f"quasi:{datum.family}{datum.rank}")
        mults = sample_multiplicities(datum, rng)
        for _ in range(5):
            xi = sample_spectral_point(datum, rng)
            assert quasi_identity_value(datum, mults, omega, xi) == expect


def test_specialization_consistency(a2, b2):
    rng = random.Random("spec-consistency")
    for datum in (a2, b2):
        mults = sample_multiplicities(datum, rng)
        xi = sample_spectral_point(datum, rng)
        for w in datum.small_fundamental_weights():
            if datum.is_minuscule(w):
                rep = specialization_consistency(datum, mults, w, xi)
                assert rep.kind == "minuscule" and rep.ok
        qm = datum.quasi_minuscule_weight()
        rep = specialization_consistency(datum, mults, qm, xi)
        assert rep.kind == "quasi-minuscule" and rep.ok
    # small weights that are neither minuscule nor quasi-minuscule are refused
    mults = sample_multiplicities(a2, rng)
    xi = sample_spectral_point(a2, rng)
    with pytest.raises(ValueError):
        specialization_consistency(a2, mults,
                                   vscale(2, a2.fundamental_weights[0]), xi)


def test_excluded_shift_vanishing(b2):
    # pieri_terms asserts V = 0 internally on every excluded shift; here we
    # also pin that the surviving index set is exactly the dominant one
    rng = random.Random("vanish")
    omega = b2.quasi_minuscule_weight()
    done = 0
    while done < 3:
        mults = sample_multiplicities(b2, rng)
        try:
            for lam_coeffs in ((0, 0), (1, 0), (0, 1)):
                lam = b2.weight_from_fundamental(lam_coeffs)
                surviving = {nu for nu, _e, _c in pieri_terms(b2, mults, omega, lam)}
                expected = {nu for nu in b2.saturated_set(omega)
                            if b2.is_dominant(vadd(lam, nu))}
                assert surviving == expected
        except PoleAtSpectralPoint:
            continue  # non-generic draw; resample as production callers do
        done += 1


def test_perturbations_break_exactness(b2):
    g = Multiplicities(b2, [Q(3, 7), Q(5, 11)])
    omega = b2.quasi_minuscule_weight()
    lam = b2.fundamental_weights[1]
    cache = {}
    assert verify_pieri(b2, g, omega, lam, cache=cache).ok
    assert not verify_pieri(b2, g, omega, lam, perturb=PERTURB_U_SIGN,
                            cache=cache).ok
    assert not verify_pieri(b2, g, omega, lam, perturb=PERTURB_V_DROP,
                            cache=cache).ok


def _single_edits(factors):
    """Each factor list with one entry dropped or its g sign flipped."""
    for j, (i, s, e) in enumerate(factors):
        yield factors[:j] + factors[j + 1:]
        yield factors[:j] + ((i, s, -e),) + factors[j + 1:]


def _mutated_entries(entry):
    for v in _single_edits(entry.v_factors):
        yield replace(entry, v_factors=v)
    us = entry.u_factors
    for m, factors in enumerate(us):
        for u in _single_edits(factors):
            yield replace(entry, u_factors=us[:m] + (u,) + us[m + 1:])


@pytest.mark.parametrize("system", ["a1", "a2", "a3", "b2", "g2",
                                    pytest.param("c3", marks=pytest.mark.slow)])
def test_every_single_factor_edit_breaks_pieri(system, request, monkeypatch):
    # the factor-level negative controls: dropping or sign-flipping any one
    # entry of any V or U factor list must break the exact identity.  lambda
    # has every label at least the largest |label| of a nu, so every shift
    # survives and each factor enters the right-hand side
    datum = request.getfixturevalue(system)
    rng = random.Random(f"factor-controls:{system}")
    checked = 0
    for omega in datum.small_fundamental_weights():
        index = pieri_index(datum, omega)
        k = max(abs(l) for e in index for l in datum.labels(e.nu))
        lam = datum.weight_from_fundamental([k] * datum.rank)
        while True:
            mults = sample_multiplicities(datum, rng)
            cache = {}
            try:
                assert verify_pieri(datum, mults, omega, lam, cache=cache).ok
            except PoleAtSpectralPoint:
                continue
            break
        for n, entry in enumerate(index):
            for mutant in _mutated_entries(entry):
                edited = index[:n] + (mutant,) + index[n + 1:]
                with monkeypatch.context() as mp:
                    mp.setattr(diffeq, "pieri_index", lambda _d, _o: edited)
                    report = verify_pieri(datum, mults, omega, lam, cache=cache)
                assert not report.ok, (omega, entry.nu, mutant)
                checked += 1
    assert checked > 0


def test_sampler_determinism(c3):
    m1 = sample_multiplicities(c3, random.Random("s"))
    m2 = sample_multiplicities(c3, random.Random("s"))
    assert m1.key() == m2.key()
    xi1 = sample_spectral_point(c3, random.Random("x"))
    xi2 = sample_spectral_point(c3, random.Random("x"))
    assert xi1 == xi2
    assert all(c3.pairing(xi1, a) not in (0, -1) for a in c3.roots)


def _pieri_sides(datum, omega, lam, tag, perturb=None):
    rng = random.Random(tag)
    while True:
        mults = sample_multiplicities(datum, rng)
        try:
            terms = pieri_terms(datum, mults, omega, lam, perturb=perturb)
        except PoleAtSpectralPoint:
            continue
        shifted = [(jacobi_polynomial(datum, mults, vadd(lam, nu)), c)
                   for nu, _eta, c in terms]
        return jacobi_polynomial(datum, mults, lam), shifted


@pytest.mark.parametrize("system", ["a2", "b2", "g2", "c3", "d4"])
def test_pieri_residual_matches_product_reference(system, request,
                                                  reference_residual, corrupted):
    datum = request.getfixturevalue(system)
    omega = datum.small_fundamental_weights()[0]
    lam = datum.fundamental_weights[-1]
    poly, shifted = _pieri_sides(datum, omega, lam, f"residual:{system}")
    e_poly = expansion_E_omega(datum, omega)
    top = vadd(lam, omega)
    assert pieri_residual(datum, e_poly, poly, shifted, top).is_zero()
    # corrupt the shifted polynomial with the highest weight
    i = max(range(len(shifted)), key=lambda j: datum.height(shifted[j][0].lam))
    bad = list(shifted)
    bad[i] = (corrupted(shifted[i][0]), shifted[i][1])
    got = pieri_residual(datum, e_poly, poly, bad, top)
    assert not got.is_zero()
    assert got == reference_residual(e_poly, poly, bad)


@pytest.mark.parametrize("perturb", [PERTURB_U_SIGN, PERTURB_V_DROP])
def test_pieri_residual_matches_reference_under_perturbation(b2, perturb,
                                                            reference_residual):
    omega = b2.quasi_minuscule_weight()
    lam = b2.fundamental_weights[1]
    poly, shifted = _pieri_sides(b2, omega, lam, "perturbed", perturb)
    e_poly = expansion_E_omega(b2, omega)
    got = pieri_residual(b2, e_poly, poly, shifted, vadd(lam, omega))
    assert not got.is_zero()
    assert got == reference_residual(e_poly, poly, shifted)


def test_pieri_residual_coverage_guard(a2):
    omega = a2.fundamental_weights[0]
    lam = a2.fundamental_weights[1]
    g = Multiplicities.constant(a2, Q(3, 7))
    poly = jacobi_polynomial(a2, g, lam)
    e_poly = expansion_E_omega(a2, omega)
    top = vadd(lam, omega)
    # a shifted weight lam + 2 omega is not below lam + omega
    far = jacobi_polynomial(a2, g, vadd(top, omega))
    with pytest.raises(InternalConsistencyError):
        pieri_residual(a2, e_poly, poly, [(far, Q(1))], top)
    # lam + omega, from the exponent omega of E_omega, is not below lam
    with pytest.raises(InternalConsistencyError):
        pieri_residual(a2, e_poly, poly, [], lam)


def test_verify_pieri_requires_exact_multiplicities(a2):
    zero = (Q(0),) * a2.dim
    with pytest.raises(ValueError, match="exact multiplicities required"):
        verify_pieri(a2, Multiplicities.constant(a2, 0.5),
                     a2.fundamental_weights[0], zero)
