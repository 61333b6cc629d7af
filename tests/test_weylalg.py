import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from hodiff.rootsys import Multiplicities, build_root_system, vadd, vneg
from hodiff.cli import PIERI_SYSTEMS
from hodiff.weylalg import (ExpPoly, _apply_L_table, apply_L, exp_to_json, expansion_E_omega,
                            expansion_labels, is_w_invariant, orbit_sum)
from oracles import (constant_multiplicities, eigenvalue_E, eval_at, exp_from_json,
                     orbitwise_expansion_labels, vector_exp_to_json, vscale)


def _exp(datum, terms):
    """The ExpPoly of label-keyed terms."""
    return ExpPoly({datum.from_labels(l): Q(c) for l, c in terms.items()})


def _divided(datum, n, image):
    """The ExpPoly image / n of label-keyed integer numerators."""
    return ExpPoly({datum.from_labels(l): Q(v, n) for l, v in image.items()})


def test_orbit_sum_basics(a1, a2):
    zero = (Q(0),) * a1.dim
    assert orbit_sum(a1, zero) == ExpPoly.constant(1, a1.dim)
    w = a1.fundamental_weights[0]
    m = orbit_sum(a1, w)
    assert m == ExpPoly({w: Q(1), vneg(w): Q(1)})
    assert m.value_at_zero() == 2
    assert len(orbit_sum(a2, a2.fundamental_weights[0]).terms) == 3
    with pytest.raises(ValueError):
        orbit_sum(a1, vneg(w))


def test_exppoly_ring_ops(a2):
    w1, w2 = a2.fundamental_weights
    p = orbit_sum(a2, w1)
    q = orbit_sum(a2, w2)
    assert p + q == q + p
    assert p * q == q * p
    assert p + p.scale(-1) == ExpPoly({})
    assert p * ExpPoly.constant(1, a2.dim) == p
    assert p.scale(Q(2, 3)) == p * ExpPoly.constant(Q(2, 3), a2.dim)
    assert (p * q).value_at_zero() == p.value_at_zero() * q.value_at_zero()


def test_multiplication_agrees_with_evaluation(a2, b2):
    rng = random.Random(404)
    for datum in (a2, b2):
        doms = [datum.weight_from_fundamental([rng.randint(0, 2), rng.randint(0, 2)])
                for _ in range(3)]
        polys = [orbit_sum(datum, mu).scale(Q(rng.randint(1, 9), rng.randint(1, 9)))
                 for mu in doms]
        for _ in range(4):
            x = [rng.uniform(-1.0, 1.0) for _ in range(datum.dim)]
            for p in polys:
                for q in polys:
                    lhs = eval_at(datum, p * q, x)
                    rhs = eval_at(datum, p, x) * eval_at(datum, q, x)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_apply_l_annihilates_constants(a2):
    g = constant_multiplicities(a2, Q(3, 7))
    assert apply_L(a2, g, ExpPoly.constant(5, a2.dim)) == ExpPoly({})


def test_apply_l_rejects_non_invariant(a2):
    g = constant_multiplicities(a2, Q(3, 7))
    with pytest.raises(ValueError):
        apply_L(a2, g, ExpPoly({a2.fundamental_weights[0]: Q(1)}))


def test_apply_l_preserves_invariance_and_triangularity(b2):
    g = Multiplicities(b2, [Q(5, 11), Q(9, 4)])
    lam = b2.weight_from_fundamental([1, 1])
    # omega_2 < lam in dominance order, so p lies in the span below lam
    p = orbit_sum(b2, lam) + orbit_sum(b2, b2.fundamental_weights[1]).scale(Q(2, 5))
    image = apply_L(b2, g, p)
    assert is_w_invariant(b2, image)
    # support stays inside the saturated set of lam
    sat = set(b2.saturated_map(lam))
    assert set(image.terms) <= sat


def test_eigenvalue_examples(a1):
    g = constant_multiplicities(a1, Q(1))
    rho = a1.rho(g)
    assert eigenvalue_E(a1, g, rho) == 0
    w = a1.fundamental_weights[0]
    # g = 1 and long-root normalization squared length 2
    assert eigenvalue_E(a1, g, vadd(rho, w)) == Q(3, 2)
    # W-invariance of the quadratic form, including off-lattice points
    xi = vscale(Q(7, 3), w)
    alpha = a1.positive_roots[0]
    k = a1.pairing(xi, alpha)
    reflected = tuple(a - k * b for a, b in zip(xi, alpha))
    assert eigenvalue_E(a1, g, reflected) == eigenvalue_E(a1, g, xi)


def test_expansion_e_omega(a2, b2):
    zero = (Q(0),) * a2.dim
    assert expansion_E_omega(a2, zero) == ExpPoly.constant(1, a2.dim)
    w1 = a2.fundamental_weights[0]
    assert expansion_E_omega(a2, w1) == orbit_sum(a2, w1)  # minuscule
    theta = a2.quasi_minuscule_weight()
    assert expansion_E_omega(a2, theta) == \
        orbit_sum(a2, theta) + ExpPoly.constant(6, a2.dim)
    # value at zero equals sum over mu of |W_mu(omega)| |W mu|
    e = expansion_E_omega(b2, b2.fundamental_weights[0])
    total = Q(0)
    for mu in b2.dominant_below(b2.fundamental_weights[0]):
        total += len(b2.stabilizer_orbit(mu, b2.fundamental_weights[0])) \
            * len(b2.weyl_orbit(mu))
    assert e.value_at_zero() == total


@pytest.mark.parametrize("fam,rank", PIERI_SYSTEMS + (("F", 4), ("E", 6)))
def test_expansion_labels_match_orbitwise_reference(fam, rank):
    # one parabolic orbit per mu and the shared orbit walks give the terms of
    # the reference, one parabolic orbit per orbit element, in the same order
    datum = build_root_system(fam, rank)
    for omega in datum.small_dominant_weights():
        got = expansion_labels(datum, omega).terms
        assert list(got.items()) == list(orbitwise_expansion_labels(datum, omega).terms.items())


def test_expansion_e_omega_rejects_non_small(a2, g2):
    with pytest.raises(ValueError):
        expansion_E_omega(a2, vscale(3, a2.fundamental_weights[0]))
    # the long fundamental weight of G2 has a pairing of 3
    long_fund = [w for w in g2.fundamental_weights
                 if w not in g2.small_fundamental_weights()][0]
    with pytest.raises(ValueError):
        expansion_E_omega(g2, long_fund)


def test_json_roundtrip_canonical(a2):
    p = orbit_sum(a2, a2.quasi_minuscule_weight()).scale(Q(-3, 7)) \
        + ExpPoly.constant(Q(1, 2), a2.dim)
    blob = exp_to_json(a2, {a2.weight_labels(nu): c for nu, c in p.terms.items()})
    assert blob == sorted(blob, key=lambda item: [Q(w) for w in item["weight"]])
    assert blob == vector_exp_to_json(p)
    assert exp_from_json(blob) == p


def test_eval_at_matches_direct_formula(g2):
    # non-identity Gram matrix path
    p = orbit_sum(g2, g2.quasi_minuscule_weight())
    x = [0.3, -0.2]
    direct = sum(
        math.exp(sum(float(nu[i]) * float(g2.gram[i][j]) * x[j]
                     for i in range(2) for j in range(2)))
        for nu in p.terms)
    assert abs(eval_at(g2, p, x) - direct) < 1e-12 * abs(direct)


def test_apply_l_untelescoped_string_is_fatal(a2, monkeypatch):
    # negative control for the string division: let a non-invariant element
    # past the invariance gates; the alpha_2-string of e^{omega_1} +
    # e^{s_1 omega_1} does not sum to zero, so the exact division must refuse
    # rather than truncate.  With _is_invariant alone patched, the table's
    # reflections still catch it.
    from hodiff import weylalg
    monkeypatch.setattr(weylalg, "_is_invariant", lambda datum, terms: True)
    g = constant_multiplicities(a2, Q(3, 7))
    w = a2.fundamental_weights[0]
    p = ExpPoly({w: Q(1), a2.from_labels((-1, 1)): Q(1)})
    with pytest.raises(weylalg.InternalConsistencyError, match="reflections disagree"):
        apply_L(a2, g, p)
    table = a2.string_table
    monkeypatch.setattr(a2, "string_table", lambda tops: table(tops)._replace(perms=()))
    with pytest.raises(weylalg.InternalConsistencyError, match="remainder"):
        apply_L(a2, g, p)


def test_is_w_invariant_rejects_off_lattice_exponents(a2):
    with pytest.raises(ValueError):
        is_w_invariant(a2, ExpPoly({(Q(1), Q(0), Q(0)): Q(1)}))


def test_apply_l_requires_exact_multiplicities(a2):
    with pytest.raises(ValueError, match="exact multiplicities required"):
        apply_L(a2, constant_multiplicities(a2, 0.5), ExpPoly.constant(1, a2.dim))


def _campaign_polynomials(system):
    """(datum, mults, polynomial) for every polynomial one sample of the
    default campaign builds on a system: the Pieri sweep's cache on A1-G2,
    the eigen suite's BC data, and for E6 the Pieri check at lambda = 0,
    omega_2."""
    from hodiff.cli import CampaignConfig, pieri_cases
    from hodiff.diffeq import sample_multiplicities, verify_pieri
    from hodiff.jacobi import jacobi_polynomial
    from hodiff.rootsys import build_root_system
    fam, rank = system[:-1], int(system[-1])
    datum = build_root_system(fam, rank)
    if fam == "BC":
        mults = sample_multiplicities(datum, random.Random(f"20150801:bc-eigen:{rank}"))
        lams = ((0,), (1,), (2,)) if rank == 1 else ((1, 0), (1, 1), (2, 1))
        return [(datum, mults, jacobi_polynomial(datum, mults, tuple(map(Q, lam))))
                for lam in lams]
    if fam == "E":
        mults = Multiplicities(datum, [Q(4, 9)])
        cache = {}
        assert verify_pieri(datum, mults, datum.fundamental_weights[1],
                            (Q(0),) * datum.dim, cache=cache).ok
        return [(datum, mults, poly) for poly in cache.values()]
    _cases, (res,) = pieri_cases(CampaignConfig(systems=((fam, rank),), samples=1), {})
    return [(res["datum"], res["mults"], poly) for poly in res["cache"].values()]


@pytest.mark.parametrize("system", ["A1", "A2", "A3", "B2", "C3", "D4", "G2",
                                    "BC1", "BC2", "E6", "F4"])
def test_string_tables_match_per_call_walk(system, corrupted):
    # the alpha-string tables against the per-call walk they replace, on
    # each polynomial and on a corrupted copy of it, which is off the
    # eigenspace exactly when P has more than one coefficient (the move only
    # scales P_0 and a minuscule P_omega, which are one orbit sum)
    from oracles import string_walk_apply_L

    from hodiff.jacobi import verify_eigen
    polys = _campaign_polynomials(system)
    assert polys
    for datum, mults, poly in polys:
        top = datum.dominant_labels(poly.lam)
        bad = corrupted(poly)
        assert verify_eigen(datum, mults, poly.lam, bad).ok == (len(poly.label_coeffs) == 1)
        for p in (poly, bad):
            _d, terms = p.cleared_terms()
            table = datum.string_table((top,))
            n, _coef, image = _apply_L_table(datum, mults, [top], table, terms)
            assert set(table.index) == set(datum.saturated_labels(top))
            walked_n, walked = string_walk_apply_L(datum, mults, terms)
            assert n == walked_n
            nonzero = {l: v for l, v in zip(table.index, image) if v}
            assert nonzero == {l: v for l, v in walked.items() if v}
    # one table per saturated set: each keyed by its top alone
    for datum in {id(d): d for d, _m, _p in polys}.values():
        assert all(len(tops) == 1 for tops in datum._string_tables)


def test_apply_l_support_outside_string_table_is_fatal(a2, monkeypatch):
    # a non-invariant element let past the gate may leave the table: e^{-omega_1}
    # has no dominant exponent, and e^{s_1(omega_1 + omega_2)} lies outside
    # P(omega_1), added to m_{omega_1}
    from hodiff import weylalg
    monkeypatch.setattr(weylalg, "_is_invariant", lambda datum, terms: True)
    g = constant_multiplicities(a2, Q(3, 7))
    with pytest.raises(weylalg.InternalConsistencyError, match="outside"):
        apply_L(a2, g, ExpPoly({vneg(a2.fundamental_weights[0]): Q(1)}))
    with pytest.raises(weylalg.InternalConsistencyError, match="outside"):
        apply_L(a2, g, _exp(a2, {(1, 0): 1, (-1, 1): 1, (0, -1): 1, (-1, 2): 1}))


def test_string_table_keyed_by_maximal_dominant_labels():
    # the key is the maximal dominant labels of the support: m_lam + m_mu,
    # mu < lam, reuses the table of P(lam), while omega_1 and omega_2 of B2
    # (in different cosets of the root lattice) are both maximal
    b2 = build_root_system("B", 2)
    g = constant_multiplicities(b2, Q(2, 5))
    w1, w2 = b2.fundamental_weights
    lam = vadd(w1, w2)
    for mu in b2.dominant_below(lam):
        apply_L(b2, g, orbit_sum(b2, lam) + orbit_sum(b2, mu))
    assert list(b2._string_tables) == [(b2.dominant_labels(lam),)]
    apply_L(b2, g, orbit_sum(b2, w1) + orbit_sum(b2, w2))
    assert tuple(sorted(map(b2.dominant_labels, (w1, w2)))) in b2._string_tables
    assert len(b2._string_tables) == 2


TABLE_SYSTEMS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6",
                 "BC1", "BC2", "BC3"]


def _datum(system):
    return build_root_system(system[:-1], int(system[-1]))


@pytest.mark.parametrize("system", TABLE_SYSTEMS)
def test_string_table_matches_label_steps(system):
    # the tables of P(omega) per small dominant weight omega, of P(2 omega)
    # for the smallest P(omega) (longer strings) and of the union of all
    # P(omega): each stored permutation is s_j of every label; each string
    # steps down by its root from a top whose label plus the root leaves S,
    # every such top has its string and each string is stored once, in the
    # k <= 2 columns (ends, with the k = 2 middles under mids) or among the
    # k >= 3 walks, by root; own[o] sums k over the k <= 2 ends of orbit o;
    # and the packed codes are distinct on S and on every label one
    # positive root above S
    from collections import Counter
    from operator import mul

    from hodiff.rootsys import _label_code, _step
    datum = _datum(system)
    tops = [datum.dominant_labels(w) for w in datum.small_dominant_weights()]
    least = min(tops, key=lambda t: len(datum.saturated_labels(t)))
    for key in [(t,) for t in tops] + [(tuple(2 * x for x in least),), tuple(sorted(tops))]:
        table = datum.string_table(key)
        labels = list(table.index)
        assert len(table.perms) == datum.rank
        for j, (perm, row) in enumerate(zip(table.perms, datum.cartan)):
            assert [labels[i] for i in perm] == [_step(l, l[j], row) for l in labels]

        def pairing(r, l):
            return sum(map(mul, datum.coroot_coefficients[r], l))
        found = []
        own = [Counter() for _ in datum.root_orbits]
        mids = [{} for _ in datum.root_orbits]
        assert len(table.tops) == len(table.bottoms) == len(table.ends)
        for t, b, (r, k) in zip(table.tops, table.bottoms, table.ends):
            top, row, o = labels[t], datum.root_labels[r], datum.root_orbit_ids[r]
            assert k == pairing(r, top) in (1, 2)
            assert labels[b] == _step(top, k, row)
            own[o][t] += k
            own[o][b] += k
            if k == 2:
                mids[o].setdefault(table.index[_step(top, 1, row)], []).append(t)
            found.append((r, top))
        assert table.own == tuple(tuple(c[i] for i in range(len(labels))) for c in own)
        assert table.mids == tuple(mids)
        order = [datum.positive_indices.index(r) for r, _k, _idx in table.strings]
        assert order == sorted(order)
        for r, k, idx in table.strings:
            top, row = labels[idx[0]], datum.root_labels[r]
            assert k == pairing(r, top) >= 3
            assert [labels[i] for i in idx] == [_step(top, j, row) for j in range(k + 1)]
            found.append((r, top))
        assert len(found) == len(set(found))
        assert set(found) == {(r, l) for r in datum.positive_indices for l in labels
                              if pairing(r, l) > 0
                              and _step(l, -1, datum.root_labels[r]) not in table.index}
        code = _label_code(table.index, datum.root_labels)
        above = set(labels).union(_step(l, -1, datum.root_labels[r])
                                  for l in labels for r in datum.positive_indices)
        assert len(set(map(code, above))) == len(above)


@pytest.mark.parametrize("system, top, k", [("B2", (1, 0), 2), ("F4", (0, 0, 0, 1), 2),
                                            ("G2", (0, 1), 3)])
def test_apply_l_planted_remainder_names_its_root(system, top, k, monkeypatch):
    # negative control per string branch: m_top summed over P(top), every
    # coefficient 1, with one label moved by one.  The reflection gate is
    # emptied so the string division must refuse.  For k = 2 the moved label
    # is the bottom of the first k = 2 string, and the first unequal end pair
    # of the k <= 2 columns is that string; for k >= 3 (G2) no label lies on
    # k >= 3 strings alone, so the k <= 2 columns are emptied too, the moved
    # label is the first on a k >= 3 string, and the first k >= 3 string whose
    # closed-form remainder sum_i (k - 2i) c_i is nonzero is the one named
    from hodiff import weylalg
    datum = _datum(system)
    table = datum.string_table((top,))
    terms, message = _planted_remainder(datum, table, k, monkeypatch)
    g = constant_multiplicities(datum, Q(2, 5))
    with pytest.raises(weylalg.InternalConsistencyError) as err:
        apply_L(datum, g, _exp(datum, terms))
    assert str(err.value) == message


def _planted_remainder(datum, table, k, monkeypatch):
    """(terms, message): m_top over the labels of table, every coefficient 1
    with one moved by one, and the remainder error the string division must
    raise on it once datum.string_table serves table with its reflection
    permutations (and, for k >= 3, its k <= 2 columns) emptied, as it does
    from here on (see ``test_apply_l_planted_remainder_names_its_root``)."""
    from hodiff.rootsys import weight_str
    labels = list(table.index)
    cut = {"perms": ()} if k == 2 else {"perms": (), "tops": (), "bottoms": (), "ends": ()}
    monkeypatch.setattr(datum, "string_table", lambda tops: table._replace(**cut))
    coef = [1] * len(labels)
    if k == 2:
        i = next(i for i, (_r, kk) in enumerate(table.ends) if kk == 2)
        coef[table.bottoms[i]] += 1
        pairs = zip(table.tops, table.bottoms, table.ends)
        r, rem = next((r, kk * (coef[t] - coef[b])) for t, b, (r, kk) in pairs
                      if coef[t] != coef[b])
        assert (r, rem) == (table.ends[i][0], -2)
    else:
        coef[table.strings[0][2][0]] += 1
        r, rem = next((r, s) for r, kk, idx in table.strings
                      if (s := sum((kk - 2 * i) * coef[j] for i, j in enumerate(idx))))
    return (dict(zip(labels, coef)),
            f"division by 1 - e^-{weight_str(datum.roots[r])} left remainder {rem}")


@pytest.mark.parametrize("system", ["F4", "E6", "BC2"])
def test_apply_l_rejects_one_changed_coefficient(system, monkeypatch):
    # a cleared P_lam with one non-dominant coefficient moved by one, or set
    # to zero, is not W-invariant: ValueError.  The table's permutations
    # decide, and _is_invariant is called only to choose the error
    from hodiff import weylalg
    from hodiff.jacobi import jacobi_polynomial
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(4, 9))
    _d, terms = jacobi_polynomial(datum, mults, datum.small_fundamental_weights()[0]).cleared_terms()
    calls = []
    check = weylalg._is_invariant
    monkeypatch.setattr(weylalg, "_is_invariant",
                        lambda datum, terms: calls.append(1) or check(datum, terms))
    apply_L(datum, mults, _exp(datum, terms))
    assert not calls
    changed = [l for l in terms if min(l) < 0]
    assert changed
    for l in changed:
        for c in (terms[l] + 1, 0):
            with pytest.raises(ValueError, match="W-invariant"):
                apply_L(datum, mults, _exp(datum, {**terms, l: c}))
    assert len(calls) == 2 * len(changed)


@pytest.mark.parametrize("system,top", [("F4", (1, 1, 1, 1)), ("E6", (1, 0, 0, 0, 0, 1)),
                                        ("BC2", (1, 2))])
def test_apply_l_refuses_a_partial_orbit(system, top):
    # a dominant label whose simple reflections are missing, or carry
    # another coefficient, is refused; valid calls match the per-call string
    # walk
    from oracles import string_walk_apply_L

    from hodiff.jacobi import jacobi_polynomial
    from hodiff.rootsys import _step
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(4, 9))
    for bad in ({top: 1}, {top: 1, _step(top, top[0], datum.cartan[0]): 1},
                {l: 1 + (l == top) for l in datum.orbit_labels(top)}):
        with pytest.raises(ValueError, match="W-invariant"):
            apply_L(datum, mults, _exp(datum, bad))
    for omega in datum.small_dominant_weights():
        _d, terms = jacobi_polynomial(datum, mults, omega).cleared_terms()
        assert apply_L(datum, mults, _exp(datum, terms)) == \
            _divided(datum, *string_walk_apply_L(datum, mults, terms))


def test_apply_l_explicit_zero_coefficient(a2):
    # a zero coefficient is no term of the operator core's label-keyed
    # input (an ExpPoly holds none): on a label of the table's set S it
    # changes nothing, although _is_invariant, which compares dict entries,
    # rejects it while its reflections are absent; a label outside S is
    # refused even at coefficient zero
    from hodiff.weylalg import _is_invariant
    g = constant_multiplicities(a2, Q(3, 7))
    table = a2.string_table(((2, 0),))
    terms = {l: 1 for l, m in a2.saturated_labels((2, 0)).items() if m == (2, 0)}
    with_zero = {**terms, (1, -1): 0}          # s_2 omega_2, in P(2 omega_1)
    assert not _is_invariant(a2, with_zero)
    assert _apply_L_table(a2, g, [(2, 0)], table, with_zero) == \
        _apply_L_table(a2, g, [(2, 0)], table, terms)
    with pytest.raises(ValueError, match="W-invariant"):
        _apply_L_table(a2, g, [(2, 0)], table, {**terms, (3, -3): 0})


# -- the eigencheck on its polynomial's own string table ------------------------


def _recording_table_core(monkeypatch):
    """Patch the operator core that ``verify_eigen`` calls to record each
    call's (datum, mults, table, terms, result)."""
    from hodiff import jacobi
    calls, core = [], jacobi._apply_L_table

    def recording(datum, mults, tops, table, terms):
        calls.append((datum, mults, table, terms, core(datum, mults, tops, table, terms)))
        return calls[-1][-1]
    monkeypatch.setattr(jacobi, "_apply_L_table", recording)
    return calls


def test_eigencheck_image_matches_both_operator_paths(monkeypatch, corrupted):
    # the image verify_eigen forms on the polynomial's table, for every
    # polynomial a one-sample default campaign eigenchecks and for the small
    # fundamentals of F4 and E6 (each also corrupted, which leaves a
    # minuscule P_omega, one orbit sum, on the eigenspace),
    # equals apply_L's image on the table of its support's dominant labels
    # and the per-call string walk of the oracles
    from oracles import string_walk_apply_L

    from hodiff import cli
    from hodiff.jacobi import jacobi_polynomial, verify_eigen
    calls = _recording_table_core(monkeypatch)
    cases = list(cli.run_campaign(cli.CampaignConfig(samples=1, suites=("pieri", "eigen")), {}))
    eigen = [c for c in cases if c["case"].startswith("eigen/")]
    assert eigen and all(c["status"] == "pass" for c in cases) and len(calls) == len(eigen)
    for system in ("F4", "E6"):
        datum = _datum(system)
        mults = constant_multiplicities(datum, Q(4, 9))
        for omega in datum.small_fundamental_weights():
            poly = jacobi_polynomial(datum, mults, omega)
            assert verify_eigen(datum, mults, omega, poly).ok
            # a corrupted m_omega, omega minuscule, is still an eigenvector
            bad = verify_eigen(datum, mults, omega, corrupted(poly))
            assert bad.ok == (len(poly.label_coeffs) == 1)
    assert {c[0].name for c in calls} >= {"F4", "E6", "A1", "G2", "BC2"}
    for datum, mults, table, terms, (n, coef, image) in calls:
        assert coef == [terms.get(l, 0) for l in table.index]
        assert apply_L(datum, mults, _exp(datum, terms)) == \
            _divided(datum, n, dict(zip(table.index, image)))
        walked_n, walked = string_walk_apply_L(datum, mults, terms)
        assert n == walked_n
        assert ({l: v for l, v in zip(table.index, image) if v}
                == {l: v for l, v in walked.items() if v})


def _cleared_poly(system):
    """(datum, mults, poly, d, terms) for P at the first small fundamental."""
    from hodiff.jacobi import jacobi_polynomial
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(4, 9))
    poly = jacobi_polynomial(datum, mults, datum.small_fundamental_weights()[0])
    d, terms = poly.cleared_terms()
    return datum, mults, poly, d, terms


def _with_terms(poly, d, terms):
    """A copy of poly whose cleared expansion reads terms."""
    from hodiff.jacobi import JacobiPolynomial
    bad = JacobiPolynomial(poly.datum, poly.mults, poly.top, poly.label_coeffs)
    bad._cleared = d, terms
    return bad


@pytest.mark.parametrize("system", ["F4", "E6", "BC2"])
def test_eigencheck_refuses_a_moved_coefficient(system):
    # with no check before the table, each non-dominant coefficient moved by
    # one is caught by the table's reflection permutations: ValueError
    from hodiff.jacobi import verify_eigen
    datum, mults, poly, d, terms = _cleared_poly(system)
    changed = [l for l in terms if min(l) < 0]
    assert changed
    for l in changed:
        with pytest.raises(ValueError, match="W-invariant"):
            verify_eigen(datum, mults, poly.lam, _with_terms(poly, d, {**terms, l: terms[l] + 1}))


@pytest.mark.parametrize("system", ["F4", "E6", "BC2"])
def test_eigencheck_refuses_labels_outside_the_table(system):
    # the W-orbit of 2 lam added to P_lam is W-invariant, so the labels outside
    # P(lam) are fatal, not bad input
    from hodiff import weylalg
    from hodiff.jacobi import verify_eigen
    datum, mults, poly, d, terms = _cleared_poly(system)
    far = {l: 1 for l in datum.orbit_labels(tuple(2 * x for x in poly.top))}
    assert not far.keys() & terms.keys()
    with pytest.raises(weylalg.InternalConsistencyError, match="outside"):
        verify_eigen(datum, mults, poly.lam, _with_terms(poly, d, {**terms, **far}))


@pytest.mark.parametrize("system, top, k", [("B2", (1, 0), 2), ("F4", (0, 0, 0, 1), 2),
                                            ("G2", (0, 1), 3)])
def test_eigencheck_planted_remainder_names_its_root(system, top, k, monkeypatch):
    # the remainder controls of apply_L, through verify_eigen: the
    # polynomial is built first, then its table is served with its gates cut
    from hodiff import weylalg
    from hodiff.jacobi import jacobi_polynomial, verify_eigen
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(2, 5))
    poly = jacobi_polynomial(datum, mults, datum.from_labels(top))
    terms, message = _planted_remainder(datum, datum.string_table((top,)), k, monkeypatch)
    with pytest.raises(weylalg.InternalConsistencyError) as err:
        verify_eigen(datum, mults, poly.lam, _with_terms(poly, 1, terms))
    assert str(err.value) == message


@pytest.mark.parametrize("system", ["B2", "G2", "F4", "E6", "BC2"])
def test_eigencheck_of_another_lambda_fails(system):
    # E(rho_g + lam) is taken from lam, not from the polynomial: a polynomial
    # checked under another small weight leaves the residual (E_P - E) P, at
    # every label of the table, unless the two eigenvalues agree (E6's
    # omega_1 and omega_6)
    from hodiff.jacobi import _shifted_eigenvalue, verify_eigen
    datum, mults, poly, _d, _terms = _cleared_poly(system)
    lams = ((Q(0),) * datum.dim, *datum.small_dominant_weights())
    own = _shifted_eigenvalue(datum, mults, poly.top)
    failed = 0
    for lam in lams:
        report = verify_eigen(datum, mults, lam, poly)
        gap = own - _shifted_eigenvalue(datum, mults, datum.labels(lam))
        assert report.ok == (gap == 0)
        assert report.residual == vector_exp_to_json(poly.exp_poly().scale(gap))
        failed += not report.ok
    assert 0 < failed < len(lams)


@pytest.mark.parametrize("system", ["A2", "G2", "F4", "E6", "BC2"])
def test_eigencheck_reads_the_table_the_pattern_built(system, monkeypatch):
    # verify_eigen on a polynomial jacobi_polynomial built adds no string
    # table and no saturated set, and reads the table under (top,) alone:
    # it does no search for the tops of the support
    from hodiff.jacobi import jacobi_polynomial, verify_eigen
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(3, 7))
    for omega in datum.small_dominant_weights():
        poly = jacobi_polynomial(datum, mults, omega)
        tables, sats = dict(datum._string_tables), dict(datum._sat_label_cache)
        assert verify_eigen(datum, mults, omega, poly).ok
        assert datum._string_tables == tables and datum._sat_label_cache == sats
    read, table = [], datum.string_table
    monkeypatch.setattr(datum, "string_table", lambda tops: read.append(tops) or table(tops))
    monkeypatch.setattr(datum, "saturated_labels", None)
    assert verify_eigen(datum, mults, omega, poly).ok
    assert read == [(poly.top,)]


@pytest.mark.parametrize("system", ["A2", "B2", "G2"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_apply_l_labels_is_w_invariant_and_triangular_property(system, data):
    # p an integer combination of orbit sums m_mu, mu <= top, read by apply_L
    # on its labels: L p is W-invariant, supported in the saturated sets of
    # the mu it holds, so in P(top), and at each maximal such mu reads
    # c_mu E(rho_g + mu); the operator core on the table of P(top) gives the
    # same image over its n
    from hodiff.jacobi import _shifted_eigenvalue
    from hodiff.weylalg import _is_invariant
    datum = _datum(system)
    top = data.draw(st.tuples(*[st.integers(0, 2)] * datum.rank), label="top")
    doms = datum.below_labels(top)
    coef = data.draw(st.lists(st.integers(-3, 3), min_size=len(doms), max_size=len(doms)),
                     label="c_mu")
    mults = Multiplicities(datum, data.draw(st.lists(
        st.sampled_from([Q(1, 3), Q(2, 5), Q(1), Q(7, 4)]),
        min_size=len(datum.root_orbits), max_size=len(datum.root_orbits)), label="g"))
    held = {mu: c for mu, c in zip(doms, coef) if c}
    terms = {l: c for mu, c in held.items() for l in datum.orbit_labels(mu)}
    image = apply_L(datum, mults, _exp(datum, terms))
    nonzero = {datum.weight_labels(nu): c for nu, c in image.terms.items()}
    assert _is_invariant(datum, nonzero)
    assert nonzero.keys() <= set().union(*map(datum.saturated_labels, held)) \
        <= datum.saturated_labels(top).keys()
    for mu, c in held.items():
        if not any(mu in datum.saturated_labels(nu) for nu in held if nu != mu):
            assert nonzero.get(mu, 0) == c * _shifted_eigenvalue(datum, mults, mu)
    table = datum.string_table((top,))
    core_n, core_coef, core_image = _apply_L_table(datum, mults, [top], table, terms)
    assert core_coef == [terms.get(l, 0) for l in table.index]
    assert _divided(datum, core_n, dict(zip(table.index, core_image))) == image
