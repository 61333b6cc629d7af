import math
import random
from fractions import Fraction as Q

import pytest

from hodiff.rootsys import Multiplicities, build_root_system, vadd, vneg
from hodiff.cli import PIERI_SYSTEMS
from hodiff.weylalg import (ExpPoly, apply_L, apply_L_labels, eigenvalue_E, exp_to_json,
                            expansion_E_omega, expansion_labels, is_w_invariant, orbit_sum)
from oracles import (constant_multiplicities, eval_at, exp_from_json, orbitwise_expansion_labels,
                     vscale)


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
    assert (p - p).is_zero()
    assert p * ExpPoly.constant(1, a2.dim) == p
    assert p.scale(Q(2, 3)) == Q(2, 3) * p
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
    assert apply_L(a2, g, ExpPoly.constant(5, a2.dim)).is_zero()


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
    blob = exp_to_json(p)
    assert blob == sorted(blob, key=lambda item: item["weight"])
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
    # rather than truncate.  Its dominant label passes the check made before
    # the table; with _is_invariant alone patched, the table's reflections
    # still catch it.
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
    # each polynomial and on a corrupted copy of it (off the eigenspace)
    from oracles import string_walk_apply_L
    polys = _campaign_polynomials(system)
    assert polys
    for datum, mults, poly in polys:
        top = datum.dominant_labels(poly.lam)
        for p in (poly, corrupted(poly)):
            _d, terms = p.cleared_terms()
            n, image = apply_L_labels(datum, mults, terms)
            assert set(image) == set(datum.saturated_labels(top))
            walked_n, walked = string_walk_apply_L(datum, mults, terms)
            assert n == walked_n
            nonzero = {l: v for l, v in image.items() if v}
            assert nonzero == {l: v for l, v in walked.items() if v}
    # one table per saturated set: each keyed by its top alone
    for datum in {id(d): d for d, _m, _p in polys}.values():
        assert all(len(tops) == 1 for tops in datum._string_tables)


def test_apply_l_support_outside_string_table_is_fatal(a2, monkeypatch):
    # a non-invariant element let past the gate may leave the table: e^{-omega_1}
    # has no dominant exponent, and e^{s_1(omega_1 + omega_2)} lies outside
    # P(omega_1), added to m_{omega_1} (which passes the check on dominant labels)
    from hodiff import weylalg
    monkeypatch.setattr(weylalg, "_is_invariant", lambda datum, terms: True)
    g = constant_multiplicities(a2, Q(3, 7))
    with pytest.raises(weylalg.InternalConsistencyError, match="outside"):
        apply_L(a2, g, ExpPoly({vneg(a2.fundamental_weights[0]): Q(1)}))
    with pytest.raises(weylalg.InternalConsistencyError, match="outside"):
        apply_L_labels(a2, g, {(1, 0): 1, (-1, 1): 1, (0, -1): 1, (-1, 2): 1})


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
    # label is the first on a k >= 3 string that no simple reflection of a
    # dominant label reaches (the check made before the table), and the
    # first k >= 3 string whose closed-form remainder sum_i (k - 2i) c_i is
    # nonzero is the one named
    from hodiff import weylalg
    from hodiff.rootsys import _step, weight_str
    datum = _datum(system)
    table = datum.string_table((top,))
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
        near = {_step(l, l[j], row) for l in labels if min(l) >= 0
                for j, row in enumerate(datum.cartan)}
        coef[next(i for _r, _k, idx in table.strings for i in idx
                  if labels[i] not in near)] += 1
        r, rem = next((r, s) for r, kk, idx in table.strings
                      if (s := sum((kk - 2 * i) * coef[j] for i, j in enumerate(idx))))
    g = constant_multiplicities(datum, Q(2, 5))
    with pytest.raises(weylalg.InternalConsistencyError) as err:
        apply_L_labels(datum, g, dict(zip(labels, coef)))
    assert str(err.value) == f"division by 1 - e^-{weight_str(datum.roots[r])} left remainder {rem}"


@pytest.mark.parametrize("system", ["F4", "E6", "BC2"])
def test_apply_l_rejects_one_changed_coefficient(system, monkeypatch):
    # a cleared P_lam with one non-dominant coefficient moved by one, or set
    # to zero, is not W-invariant: ValueError.  At a simple reflection of a
    # dominant label the check made before the table refuses it; elsewhere
    # the table's permutations decide, and _is_invariant is called only to
    # choose the error
    from hodiff.rootsys import _step
    from hodiff import weylalg
    from hodiff.jacobi import jacobi_polynomial
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(4, 9))
    _d, terms = jacobi_polynomial(datum, mults, datum.small_fundamental_weights()[0]).cleared_terms()
    calls = []
    check = weylalg._is_invariant
    monkeypatch.setattr(weylalg, "_is_invariant",
                        lambda datum, terms: calls.append(1) or check(datum, terms))
    apply_L_labels(datum, mults, terms)
    assert not calls
    changed = [l for l in terms if min(l) < 0]
    near = {_step(l, k, row) for l in terms if min(l) >= 0
            for k, row in zip(l, datum.cartan) if k}
    assert changed and set(changed) - near
    for l in changed:
        for c in (terms[l] + 1, 0):
            with pytest.raises(ValueError, match="W-invariant"):
                apply_L_labels(datum, mults, {**terms, l: c})
    assert len(calls) == 2 * len(set(changed) - near)


@pytest.mark.parametrize("system,top", [("F4", (1, 1, 1, 1)), ("E6", (1, 0, 0, 0, 0, 1)),
                                        ("BC2", (1, 2))])
def test_apply_l_refuses_before_building_tables(system, top):
    # a dominant label whose simple reflections are missing is refused
    # before its saturated set or alpha-string table is built; valid calls
    # still match the per-call string walk
    from oracles import string_walk_apply_L

    from hodiff.jacobi import jacobi_polynomial
    from hodiff.rootsys import _step
    datum = _datum(system)
    mults = constant_multiplicities(datum, Q(4, 9))
    for bad in ({top: 1}, {top: 1, _step(top, top[0], datum.cartan[0]): 1}):
        with pytest.raises(ValueError, match="W-invariant"):
            apply_L_labels(datum, mults, bad)
    assert datum._string_tables == {} and datum._sat_label_cache == {}
    for omega in datum.small_dominant_weights():
        _d, terms = jacobi_polynomial(datum, mults, omega).cleared_terms()
        assert apply_L_labels(datum, mults, terms) == string_walk_apply_L(datum, mults, terms)


def test_apply_l_explicit_zero_coefficient(a2):
    # a zero coefficient is no term: on a label of the table's set S it
    # changes nothing, although _is_invariant, which compares dict entries,
    # rejects it while its reflections are absent; a label outside S is
    # refused even at coefficient zero
    from hodiff.weylalg import _is_invariant
    g = constant_multiplicities(a2, Q(3, 7))
    terms = {l: 1 for l, m in a2.saturated_labels((2, 0)).items() if m == (2, 0)}
    with_zero = {**terms, (1, -1): 0}          # s_2 omega_2, in P(2 omega_1)
    assert not _is_invariant(a2, with_zero)
    assert apply_L_labels(a2, g, with_zero) == apply_L_labels(a2, g, terms)
    with pytest.raises(ValueError, match="W-invariant"):
        apply_L_labels(a2, g, {**terms, (3, -3): 0})
