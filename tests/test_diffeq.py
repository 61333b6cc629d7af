import gc
import random
import weakref
from dataclasses import fields, replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import hodiff.diffeq as diffeq
from hodiff.cli import PIERI_SYSTEMS
from hodiff.diffeq import (PERTURB_U_SIGN, PERTURB_V_DROP, PERTURBATIONS,
                           PoleAtSpectralPoint, coeff_U, coeff_V, factor_product,
                           float_table, integer_product, perturbed, pieri_index,
                           pieri_residual, pieri_terms, quasi_identity_value,
                           sample_multiplicities, sample_spectral_point,
                           scaled_table, specialization_consistency,
                           term_factors, verify_pieri)
from hodiff.jacobi import jacobi_polynomial, verify_eigen
from hodiff.rootsys import Multiplicities, build_root_system, vadd
from hodiff.weylalg import (ExpPoly, InternalConsistencyError, LabelForm,
                            expansion_E_omega, expansion_labels, is_w_invariant,
                            label_form, sample_record)
from oracles import (constant_multiplicities, dominant_representative, every_u_pieri_terms,
                     fraction_point_table, height, orbit_under_reflections, pole_free_rationals,
                     scan_pieri_index, term_vectors, vector_sample_spectral_point, vscale)
from weyl_words import apply_word, inverse_word


def _a1_setup(a1, g_val=Q(3, 7), z=Q(5, 3)):
    g = constant_multiplicities(a1, g_val)
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
    # float couplings: the float table keeps the pole test exact
    g_float = (0.375,) * len(a1.roots)
    with pytest.raises(PoleAtSpectralPoint, match=r"denominator <xi"):
        factor_product(a1, term_factors(a1, w), float_table(a1.pairings(zero_xi)), g_float)
    with pytest.raises(PoleAtSpectralPoint, match=r"denominator 1\+<xi"):
        factor_product(a1, term_factors(a1, alpha), float_table(a1.pairings(minus_one)), g_float)



def test_coefficients_read_a_float_xi_as_its_binary_value(b2):
    # coeff_V and coeff_U read a float entry of xi by Fraction, as the limit
    # coefficients do, at Fraction and at int multiplicities alike
    w1 = b2.fundamental_weights[0]
    origin = (Q(0),) * b2.dim
    xi, exact = (0.3, 0.2), (Q(0.3), Q(0.2))
    for mults in (Multiplicities(b2, [Q(1, 3), Q(2, 5)]), Multiplicities(b2, [1, 2])):
        assert coeff_V(b2, mults, w1, xi) == coeff_V(b2, mults, w1, exact)
        assert coeff_U(b2, mults, origin, w1, xi) == coeff_U(b2, mults, origin, w1, exact)
    assert isinstance(coeff_V(b2, Multiplicities(b2, [Q(1, 3), Q(2, 5)]), w1, xi), Q)

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
        pieri_terms(a1, constant_multiplicities(a1, Q(1)), alpha, a1.labels(zero), None)
    assert exc.value.alpha == vscale(-1, alpha)
    assert exc.value.which == "1+<xi,a^vee>"


def test_pieri_terms_requires_exact_multiplicities(a2):
    zero = (Q(0),) * a2.dim
    with pytest.raises(ValueError, match="exact multiplicities required"):
        pieri_terms(a2, constant_multiplicities(a2, 0.5),
                    a2.fundamental_weights[0], a2.labels(zero), None)


def test_pieri_index_structure(a2):
    theta = a2.quasi_minuscule_weight()
    entries = [term_vectors(a2, e) for e in pieri_index(a2, theta)]
    zero = (Q(0),) * a2.dim
    assert {nu for nu, _plus, _etas in entries} == set(a2.weyl_orbit(theta)) | {zero}
    for nu, _plus, etas in entries:
        if nu == zero:
            assert set(etas) == set(a2.weyl_orbit(theta))
        else:
            assert etas == (nu,)
    with pytest.raises(ValueError):
        pieri_index(a2, vscale(3, a2.fundamental_weights[0]))


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                      ("G", 2), ("F", 4), ("E", 6), ("BC", 3)])
def test_pieri_index_matches_generic_stabilizer_search(fam, rank):
    # the parabolic orbits against the generic search: for every small
    # weight, each entry's etas (order included) are the orbit of
    # w^{-1} omega under the reflections in the positive roots orthogonal
    # to nu, and its V and U lists are the vector ``term_factors``; the
    # E_omega coefficients are the generic stabilizer-orbit sizes, on BC
    # times (-1)^(sum omega - sum mu), and the index and label-form memos
    # hand back the object they hold
    datum = build_root_system(fam, rank)
    positive = set(datum.positive_roots)

    def orbit(v, eta):
        gens = [a for a in datum.stabilizer_roots(v) if a in positive]
        return orbit_under_reflections(datum, gens, eta)

    for omega in datum.small_dominant_weights():
        before = pieri_index.cache_info()
        index = pieri_index(datum, omega)
        assert [term_vectors(datum, e)[0] for e in index] == sorted(datum.saturated_map(omega))
        for e in index:
            nu, plus, held = term_vectors(datum, e)
            assert (plus, e.word) == dominant_representative(datum, nu)
            etas = orbit(nu, apply_word(datum, inverse_word(e.word), omega))
            assert held == etas, (omega, nu)
            assert e.v_factors == term_factors(datum, nu)
            assert e.u_factors == tuple(term_factors(datum, nu, eta) for eta in etas)
        assert pieri_index(datum, omega) is index
        after = pieri_index.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
        e_poly = expansion_E_omega(datum, omega)
        twist = fam == "BC"
        expected = {nu: Q(len(orbit(mu, omega))) * (-1) ** int(twist and sum(omega) - sum(mu))
                    for mu in datum.dominant_below(omega) for nu in datum.weyl_orbit(mu)}
        # same terms in the same order (the float sums of the confluence
        # check read them in order)
        assert list(e_poly.terms.items()) == list(expected.items())
        assert expansion_E_omega(datum, omega) == e_poly   # converted per call
        # the label form built on labels is the checked conversion of e_poly
        e_form = expansion_labels(datum, omega)
        assert e_form.terms == label_form(datum, e_poly).terms
        assert expansion_labels(datum, omega) is e_form


@pytest.mark.parametrize("fam,rank,i", [
    ("E", 7, 1), ("E", 7, 7), ("E", 8, 8),
    pytest.param("E", 8, 1, marks=pytest.mark.slow)])
def test_pieri_index_matches_row_scan(fam, rank, i):
    # on a fresh datum, the factor lists carried down the Weyl descent by
    # the root permutations are the scans of each nu's and eta's pairing
    # row, and the etas, words and nu+ are those of stabilizer_orbit and
    # the greedy descent, order included
    datum = build_root_system(fam, rank)
    omega = datum.fundamental_weights[i - 1]
    index = [(e.nu_labels, e.word, e.plus_labels, e.eta_labels, e.v_factors, e.u_factors)
             for e in pieri_index(datum, omega)]
    assert index == scan_pieri_index(datum, omega)


def test_dropped_datum_is_freed_without_a_cyclic_collection():
    # the Pieri index lives in the datum's memo and holds labels only, not
    # the datum, so after verify_pieri a dropped datum is freed by reference
    # counting
    gc.disable()
    try:
        datum = build_root_system("F", 4)
        mults = Multiplicities(datum, (Q(3, 7), Q(5, 11)))
        for omega in datum.small_fundamental_weights():
            assert verify_pieri(datum, mults, omega, (Q(0),) * datum.dim).ok
        ref = weakref.ref(datum)
        del datum, mults
        assert ref() is None
    finally:
        gc.enable()


def test_held_index_outlives_its_datum():
    # a held index keeps its labels when its datum is freed, and a fresh
    # datum of the type turns them into the vectors the first one gave
    datum = build_root_system("A", 2)
    omega = datum.quasi_minuscule_weight()
    index = pieri_index(datum, omega)
    expected = [term_vectors(datum, e) for e in index]
    ref = weakref.ref(datum)
    del datum
    assert ref() is None
    fresh = build_root_system("A", 2)
    assert [term_vectors(fresh, e) for e in index] == expected


@pytest.mark.slow
@pytest.mark.parametrize("i,n_terms", [(1, 2287), (8, 241)])
def test_e8_pieri_at_zero(i, n_terms):
    # the largest small weight of E8 on a fresh datum
    datum = build_root_system("E", 8)
    omega = datum.fundamental_weights[i - 1]
    zero = (Q(0),) * datum.dim
    rng = random.Random(f"e8:{i}")
    while True:
        try:
            report = verify_pieri(datum, sample_multiplicities(datum, rng), omega, zero)
        except PoleAtSpectralPoint:
            continue
        break
    assert report.ok and report.residual == []
    assert report.n_terms == n_terms


def test_rank_one_pieri_collapses_to_doubling(a1):
    # at the base point the surviving term is the dominant shift with
    # coefficient 2, the reflected shift being killed by the vanishing factor
    g, w, alpha, _ = _a1_setup(a1)
    zero = (Q(0),) * a1.dim
    terms = pieri_terms(a1, g, w, a1.labels(zero), None)
    assert len(terms) == 1
    entry, eta, coeff = terms[0]
    assert a1.from_labels(entry.nu_labels) == w and coeff == 2
    rep = verify_pieri(a1, g, w, zero)
    assert rep.ok and rep.residual == []


def test_pieri_exactness_spec_cases(a2, g2):
    g = constant_multiplicities(a2, Q(3, 7))
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
    terms = pieri_terms(b2, g, omega, b2.labels(lam), None)
    rng = random.Random(5)
    shuffled = terms[:]
    rng.shuffle(shuffled)
    cache = {}
    def rhs(term_list):
        acc = ExpPoly({})
        for entry, _eta, c in term_list:
            key = vadd(lam, b2.from_labels(entry.nu_labels))
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


POSITIVE = st.fractions(min_value=Q(1, 12), max_value=6, max_denominator=12)


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("G", 2)])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_quasi_identity_is_the_orbit_size_property(fam, rank, data):
    # at random exact multiplicities and a pole-free xi (no pairing of xi
    # is an integer, by the construction of pole_free_rationals)
    datum = build_root_system(fam, rank)
    mults = Multiplicities(datum, [data.draw(POSITIVE) for _ in datum.root_orbits])
    xi = datum.from_labels(pole_free_rationals(data.draw, rank))
    assert not any(type(z) is int for z in datum.pairings(xi))
    omega = datum.quasi_minuscule_weight()
    assert quasi_identity_value(datum, mults, omega, xi) == len(datum.weyl_orbit(omega))


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
                surviving = {b2.from_labels(e.nu_labels) for e, _eta, _c in
                             pieri_terms(b2, mults, omega, b2.labels(lam), None)}
                expected = {nu for nu in b2.saturated_map(omega)
                            if min(b2.labels(vadd(lam, nu))) >= 0}
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
        k = max(abs(l) for e in index for l in e.nu_labels)
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
                assert not report.ok, (omega, entry.nu_labels, mutant)
                checked += 1
    assert checked > 0


class _PoleDraws:
    """A stand-in for Random whose labels are all 0, a pole on every root;
    it counts its draws."""

    def __init__(self):
        self.draws = 0

    def randint(self, low, high):
        self.draws += 1
        return 0 if low < 0 else low


@pytest.mark.parametrize("fam,rank", PIERI_SYSTEMS)
def test_label_sampler_matches_the_vector_sampler(fam, rank, monkeypatch):
    # the labels are drawn in the order of the vector sampler's coefficients,
    # so both return equal points and leave the Random in the same state, or
    # both give up after max_tries (the package's MAX_SPECTRAL_DRAWS, 200)
    datum = build_root_system(fam, rank)
    assert diffeq.MAX_SPECTRAL_DRAWS == 200
    for seed in range(50):
        for max_tries in (1, 200):
            monkeypatch.setattr(diffeq, "MAX_SPECTRAL_DRAWS", max_tries)
            got, want = random.Random(seed), random.Random(seed)
            try:
                xi = sample_spectral_point(datum, got)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=str(exc)):
                    vector_sample_spectral_point(datum, want, max_tries)
            else:
                assert xi == vector_sample_spectral_point(datum, want, max_tries)
                known, read = datum.labels(xi), datum.labels(tuple(list(xi)))
                assert known == read and list(map(type, known)) == list(map(type, read))
            assert got.getstate() == want.getstate()
    got, want = _PoleDraws(), _PoleDraws()
    monkeypatch.setattr(diffeq, "MAX_SPECTRAL_DRAWS", 7)
    with pytest.raises(RuntimeError, match="could not sample a pole-free spectral point"):
        sample_spectral_point(datum, got)
    with pytest.raises(RuntimeError, match="could not sample a pole-free spectral point"):
        vector_sample_spectral_point(datum, want, 7)
    assert got.draws == want.draws == 7 * 2 * rank


def test_sampler_determinism(c3):
    m1 = sample_multiplicities(c3, random.Random("s"))
    m2 = sample_multiplicities(c3, random.Random("s"))
    assert m1.values == m2.values
    xi1 = sample_spectral_point(c3, random.Random("x"))
    xi2 = sample_spectral_point(c3, random.Random("x"))
    assert xi1 == xi2
    assert all(c3.pairing(xi1, a) not in (0, -1) for a in c3.roots)


def _pieri_sides(datum, omega, lam, tag, perturb=None):
    rng = random.Random(tag)
    while True:
        mults = sample_multiplicities(datum, rng)
        try:
            terms = pieri_terms(datum, mults, omega, datum.labels(lam), perturb)
        except PoleAtSpectralPoint:
            continue
        shifted = [(jacobi_polynomial(datum, mults, vadd(lam, datum.from_labels(e.nu_labels))), c)
                   for e, _eta, c in terms]
        return jacobi_polynomial(datum, mults, lam), shifted


@pytest.mark.parametrize("system", ["a2", "b2", "g2", "c3", "d4"])
def test_pieri_residual_matches_product_reference(system, request,
                                                  reference_residual, corrupted):
    datum = request.getfixturevalue(system)
    omega = datum.small_fundamental_weights()[0]
    lam = datum.fundamental_weights[-1]
    poly, shifted = _pieri_sides(datum, omega, lam, f"residual:{system}")
    e_poly = expansion_E_omega(datum, omega)
    top = datum.labels(vadd(lam, omega))
    assert pieri_residual(datum, label_form(datum, e_poly), poly, shifted, top) == {}
    # corrupt the shifted polynomial with the highest weight
    i = max(range(len(shifted)), key=lambda j: height(datum, shifted[j][0].lam))
    bad = list(shifted)
    bad[i] = (corrupted(shifted[i][0]), shifted[i][1])
    got = pieri_residual(datum, label_form(datum, e_poly), poly, bad, top)
    assert got
    assert got == reference_residual(e_poly, poly, bad)


@pytest.mark.parametrize("perturb", [PERTURB_U_SIGN, PERTURB_V_DROP])
def test_pieri_residual_matches_reference_under_perturbation(b2, perturb,
                                                            reference_residual):
    omega = b2.quasi_minuscule_weight()
    lam = b2.fundamental_weights[1]
    poly, shifted = _pieri_sides(b2, omega, lam, "perturbed", perturb)
    e_poly = expansion_E_omega(b2, omega)
    got = pieri_residual(b2, label_form(b2, e_poly), poly, shifted, b2.labels(vadd(lam, omega)))
    assert got
    assert got == reference_residual(e_poly, poly, shifted)


def test_pieri_residual_coverage_guard(a2):
    omega = a2.fundamental_weights[0]
    lam = a2.fundamental_weights[1]
    g = constant_multiplicities(a2, Q(3, 7))
    poly = jacobi_polynomial(a2, g, lam)
    e_poly = expansion_E_omega(a2, omega)
    top = vadd(lam, omega)
    # a shifted weight lam + 2 omega is not below lam + omega
    far = jacobi_polynomial(a2, g, vadd(top, omega))
    with pytest.raises(InternalConsistencyError):
        pieri_residual(a2, label_form(a2, e_poly), poly, [(far, Q(1))], a2.labels(top))
    # lam + omega, from the exponent omega of E_omega, is not below lam
    with pytest.raises(InternalConsistencyError):
        pieri_residual(a2, label_form(a2, e_poly), poly, [], a2.labels(lam))


def test_pieri_residual_takes_only_checked_label_forms(a2):
    # the residual is compared on the dominant chamber alone, so E must come
    # as a LabelForm: an unchecked dict is refused, and a LabelForm cannot
    # be made from a non-invariant or non-integral element
    omega = a2.fundamental_weights[0]
    lam = a2.fundamental_weights[1]
    poly = jacobi_polynomial(a2, constant_multiplicities(a2, Q(3, 7)), lam)
    top = a2.labels(vadd(lam, omega))
    terms = label_form(a2, expansion_E_omega(a2, omega)).terms
    with pytest.raises(TypeError, match="LabelForm"):
        pieri_residual(a2, dict(terms), poly, [], top)
    with pytest.raises(InternalConsistencyError, match="not W-invariant"):
        LabelForm(a2, {(1, 0): 1})
    with pytest.raises(InternalConsistencyError, match="integer coefficients"):
        label_form(a2, expansion_E_omega(a2, omega).scale(Q(1, 2)))


def test_verify_pieri_requires_exact_multiplicities(a2):
    zero = (Q(0),) * a2.dim
    with pytest.raises(ValueError, match="exact multiplicities required"):
        verify_pieri(a2, constant_multiplicities(a2, 0.5),
                     a2.fundamental_weights[0], zero)


def test_pieri_index_serves_bc(bc2):
    # BC's equation at omega = e_1 reads this index: nu runs over 0 and the
    # +-e_j, the etas of the origin are the +-e_j, and each of its U lists
    # carries U_{K,1}'s sign (-1)^1 in its one alpha/2 entry (g sign -2)
    index = pieri_index(bc2, (Q(1), Q(0)))
    assert [term_vectors(bc2, e)[0] for e in index] == sorted(
        [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    origin, = (e for e in index if not any(e.nu_labels))
    _nu, _plus, etas = term_vectors(bc2, origin)
    assert etas == tuple(sorted([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    halves = set(bc2.half_root_index)
    for eta, factors in zip(etas, origin.u_factors):
        assert [f for f in factors if f[0] in halves] == [(bc2.roots.index(eta), 1, -2)]


@pytest.mark.parametrize("system", ["b2", "g2", "d4"])
def test_verify_pieri_without_cache_builds_each_shift_once(system, request, monkeypatch):
    # with no cache given, terms that share a shift share one polynomial
    datum = request.getfixturevalue(system)
    omega = datum.quasi_minuscule_weight()
    lam = datum.fundamental_weights[-1]
    mults = sample_multiplicities(datum, random.Random(f"builds:{system}"))
    built = []
    real = diffeq.jacobi_polynomial
    monkeypatch.setattr(diffeq, "jacobi_polynomial",
                        lambda d, m, mu: built.append(mu) or real(d, m, mu))
    terms = pieri_terms(datum, mults, omega, datum.labels(lam), None)
    shifts = {vadd(lam, datum.from_labels(e.nu_labels)) for e, _eta, _c in terms}
    assert len(terms) > len(shifts)
    assert verify_pieri(datum, mults, omega, lam).ok
    assert sorted(built) == sorted(shifts | {lam})


def test_verify_pieri_cache_keeps_its_vector_form(b2):
    # the polynomial cache handed to verify_pieri is keyed by (multiplicities,
    # lambda vector), and each polynomial shows its vector views: lam,
    # Fraction coefficients keyed by the dominant vectors, and an exp_poly
    # that is 1 at 0 and W-invariant (what the benchmark reads)
    mults = Multiplicities(b2, [Q(3, 7), Q(5, 11)])
    lam = b2.fundamental_weights[1]
    cache = {}
    assert verify_pieri(b2, mults, b2.quasi_minuscule_weight(), lam, cache=cache).ok
    assert (mults.values, lam) in cache and len(cache) > 1
    for (g, mu), poly in cache.items():
        assert g == mults.values and poly.lam == mu
        assert all(type(x) is Q for x in mu)
        assert sorted(poly.coeffs) == sorted(b2.dominant_below(mu))
        assert all(type(c) is Q for c in poly.coeffs.values())
        p = poly.exp_poly()
        assert p.value_at_zero() == 1 and is_w_invariant(b2, p)


@pytest.mark.parametrize("system", ["b2", "g2"])
def test_pieri_residual_matches_reference_with_every_polynomial_corrupted(
        system, request, reference_residual, corrupted):
    # every shifted polynomial and P_lambda itself moved by its own amount,
    # so that the cleared denominators differ from side to side
    datum = request.getfixturevalue(system)
    omega = datum.quasi_minuscule_weight()
    lam = datum.fundamental_weights[0]
    poly, shifted = _pieri_sides(datum, omega, lam, f"all-corrupted:{system}")
    e_poly = expansion_E_omega(datum, omega)
    top = datum.labels(vadd(lam, omega))
    for bad_poly in (poly, corrupted(poly, Q(-5, 11))):
        bad = [(corrupted(p, Q(i + 1, 3 * i + 7)), c) for i, (p, c) in enumerate(shifted)]
        got = pieri_residual(datum, label_form(datum, e_poly), bad_poly, bad, top)
        assert got
        assert got == reference_residual(e_poly, bad_poly, bad)


@pytest.mark.parametrize("entry", ["pieri_index", "expansion_labels", "verify_confluence",
                                   "homogeneity_identity"])
def test_every_entry_refuses_a_weight_that_is_not_small_in_one_text(entry, g2):
    # RootDatum.small_labels owns the rule and its message; a weight prints
    # as (p/q,...), as the report case names do, never as Fraction reprs
    from hodiff.whittaker import homogeneity_identity, verify_confluence
    omega2 = g2.fundamental_weights[1]   # pairs 3 with a coroot
    zero = (Q(0),) * g2.dim
    refuse = {"pieri_index": lambda: pieri_index(g2, omega2),
              "expansion_labels": lambda: expansion_labels(g2, omega2),
              "verify_confluence": lambda: verify_confluence(g2, omega2, zero, (0.0,) * g2.dim),
              "homogeneity_identity": lambda: homogeneity_identity(g2, omega2, zero)}[entry]
    with pytest.raises(ValueError) as exc:
        refuse()
    assert str(exc.value) == "(3/1,2/1) is not small (a pairing exceeds 2)"


def test_weights_in_error_messages_print_as_p_over_q(a2):
    # every other refusal that names a weight prints it as (p/q,...) too
    mults = constant_multiplicities(a2, Q(1, 3))
    xi = a2.weight_from_fundamental([Q(1, 5), Q(2, 7)])
    w1 = a2.fundamental_weights[0]
    with pytest.raises(ValueError, match=r"^\(2/3,-1/3,-1/3\) is not quasi-minuscule$"):
        quasi_identity_value(a2, mults, w1, xi)
    with pytest.raises(ValueError, match=r"^\(4/3,-2/3,-2/3\) is neither minuscule "):
        specialization_consistency(a2, mults, vscale(2, w1), xi)
    with pytest.raises(ValueError, match=r"^\(-2/3,1/3,1/3\) is not dominant$"):
        a2.dominant_labels(vscale(-1, w1))
    with pytest.raises(ValueError, match=r"^\(1/3,-1/6,-1/6\) is not in the weight lattice"):
        a2.weight_labels(vscale(Q(1, 2), w1))


# -- the exact path against its form before the per-sample record -----------------


def _terms_outcome(compute):
    """What compute() returns, or the type and message of what it raises."""
    try:
        return compute()
    except (PoleAtSpectralPoint, InternalConsistencyError) as exc:
        return type(exc), str(exc)


def _assert_terms_match_reference(datum, mults, lams, perturbs=(None,), omegas=None):
    """point_table and pieri_terms against the Fraction table and every U
    list evaluated, at each lam and small weight (the fundamental ones if
    omegas is None); the number of (poles, points with a zero table entry)."""
    poles = zeros = 0
    for lam in map(datum.labels, lams):
        table = diffeq.point_table(datum, mults, lam)
        assert table == fraction_point_table(datum, mults, lam), lam
        zeros += not all(w and w1 for w, w1, _g in table)
        for omega in omegas or datum.small_fundamental_weights():
            for perturb in perturbs:
                got = _terms_outcome(lambda: pieri_terms(datum, mults, omega, lam, perturb))
                assert got == _terms_outcome(
                    lambda: every_u_pieri_terms(datum, mults, omega, lam, perturb)), (lam, omega)
                poles += isinstance(got, tuple)
    return poles, zeros


def test_sample_record_is_built_once_per_sample(b2):
    # every exact check of one sample reads the same record, kept on it
    mults = sample_multiplicities(b2, random.Random("record"))
    record = sample_record(b2, mults)
    assert mults._record is record
    lam = b2.fundamental_weights[0]
    poly = jacobi_polynomial(b2, mults, lam)
    assert verify_pieri(b2, mults, lam, lam).ok and verify_eigen(b2, mults, lam, poly).ok
    assert sample_record(b2, mults) is record
    with pytest.raises(ValueError, match="exact multiplicities required"):
        sample_record(b2, constant_multiplicities(b2, 0.5))


def test_pieri_residual_keeps_one_shift_list_per_mu():
    # E_omega's (mu - a, e) pairs are built once per dominant mu and read
    # again by every later check whose chamber holds mu (a fresh datum: the
    # shared b2 fixture has its memos filled by other tests)
    b2 = build_root_system("B", 2)
    mults = sample_multiplicities(b2, random.Random("shifts"))
    omega, zero = b2.fundamental_weights[1], (Q(0),) * b2.dim
    e_form = expansion_labels(b2, omega)
    assert verify_pieri(b2, mults, omega, zero).ok
    first = dict(e_form.shifts)
    assert set(first) == set(b2.below_labels(b2.labels(omega)))
    assert verify_pieri(b2, mults, omega, b2.fundamental_weights[0]).ok
    assert all(e_form.shifts[m] is pairs for m, pairs in first.items())
    assert len(e_form.shifts) > len(first)


@pytest.mark.parametrize("fam,rank", PIERI_SYSTEMS)
def test_pieri_terms_match_every_u_reference(fam, rank):
    # three samples, every dominant lambda of height <= 4, both controls too
    datum = build_root_system(fam, rank)
    rng = random.Random(f"every-u:{fam}{rank}")
    for _ in range(3):
        _assert_terms_match_reference(datum, sample_multiplicities(datum, rng),
                                      datum.dominant_weights_up_to_height(4),
                                      (None, *PERTURBATIONS))


@pytest.mark.parametrize("fam,rank", [("F", 4), ("E", 6)])
def test_pieri_terms_match_every_u_reference_at_zero(fam, rank):
    # at lambda = 0 most terms are excluded; of these samples, only E6's
    # meet poles
    datum = build_root_system(fam, rank)
    rng = random.Random(f"every-u:{fam}{rank}")
    found = [_assert_terms_match_reference(datum, sample_multiplicities(datum, rng),
                                           [(Q(0),) * datum.dim]) for _ in range(3)]
    assert (sum(p for p, _z in found) > 0) == (fam == "E")


@pytest.mark.parametrize("fam,rank", PIERI_SYSTEMS)
def test_pieri_terms_with_a_zero_table_entry_raise_as_the_reference(fam, rank):
    # g = 1 or 1/2 puts <rho_g, a^vee> at -1 for some negative root a, so
    # the table holds a zero and the U lists of every term are evaluated:
    # the same pole, named by the same message, or the same terms, for every
    # small weight (type A has its pairing-2 factors only at the highest root)
    datum = build_root_system(fam, rank)
    found = [_assert_terms_match_reference(datum, constant_multiplicities(datum, g),
                                           datum.dominant_weights_up_to_height(2),
                                           omegas=datum.small_dominant_weights())
             for g in (Q(1), Q(1, 2))]
    assert sum(z for _p, z in found) > 0 and sum(p for p, _z in found) > 0


def test_exact_checks_keep_labels_until_the_report(b2, bc2, corrupted, monkeypatch):
    # a failing Pieri check (reduced and BC) and a failing eigencheck write
    # their residuals without building an ExpPoly on the way, once the memo
    # of E_ell holds its label form; an index entry holds labels only
    from hodiff.nonreduced import verify_pieri_bc
    mults = Multiplicities(b2, [Q(3, 7), Q(5, 11)])
    omega, lam = b2.quasi_minuscule_weight(), b2.fundamental_weights[1]
    bc_mults = Multiplicities(bc2, [Q(3, 7), Q(5, 11), Q(9, 4)])
    assert verify_pieri_bc(bc2, bc_mults, 2, (Q(1), Q(0)), None, {}).ok
    top = vadd(*b2.fundamental_weights)   # P_top has two coefficients
    poly = corrupted(jacobi_polynomial(b2, mults, top))
    built = []
    real = ExpPoly.__init__
    monkeypatch.setattr(ExpPoly, "__init__", lambda p, terms: built.append(p) or real(p, terms))
    reports = [verify_pieri(b2, mults, omega, lam, perturb=PERTURB_U_SIGN),
               verify_pieri_bc(bc2, bc_mults, 2, (Q(1), Q(0)), PERTURB_U_SIGN, {}),
               verify_eigen(b2, mults, top, poly)]
    assert not any(rep.ok for rep in reports) and all(rep.residual for rep in reports)
    assert built == []
    assert [f.name for f in fields(diffeq.PieriTermIndex)] == [
        "nu_labels", "word", "plus_labels", "eta_labels", "v_factors", "u_factors"]
    assert not any(isinstance(v, property) for v in vars(diffeq.PieriTermIndex).values())
