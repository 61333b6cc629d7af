import random
from fractions import Fraction as Q

import pytest

from hodiff.rootsys import (Multiplicities, build_root_system, vadd, vneg,
                            vscale)

# classical counts used as an oracle only; the library computes its orders
# by orbit-stabilizer
TABLE = {
    ("A", 1): (2, 2), ("A", 2): (6, 6), ("A", 3): (12, 24),
    ("B", 2): (8, 8), ("B", 3): (18, 48), ("C", 3): (18, 48),
    ("D", 4): (24, 192), ("G", 2): (12, 12), ("F", 4): (48, 1152),
    ("BC", 1): (4, 2), ("BC", 2): (12, 8), ("BC", 3): (24, 48),
    ("E", 6): (72, 51840),
}


def all_weyl_words(datum):
    """Brute-force group enumeration: map state -> one shortest word."""
    ident = tuple(datum.fundamental_weights)
    elems = {ident: ()}
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for state, word in frontier:
            for i in range(datum.rank):
                new = tuple(datum.simple_reflect(i, v) for v in state)
                if new not in elems:
                    elems[new] = (i,) + word
                    nxt.append((new, (i,) + word))
        frontier = nxt
    return elems


def test_root_counts_and_group_orders():
    for (fam, rank), (n_roots, order) in TABLE.items():
        datum = build_root_system(fam, rank)
        assert len(datum.roots) == n_roots, (fam, rank)
        assert len(datum.positive_roots) * 2 == n_roots
        assert datum.weyl_order() == order, (fam, rank)


def test_group_order_matches_regular_orbit():
    # independent oracle: the orbit of a regular weight has |W| elements
    for fam, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3),
                      ("D", 4), ("G", 2), ("BC", 2)]:
        datum = build_root_system(fam, rank)
        reg = datum.weight_from_fundamental([1] * rank)
        if fam == "BC":
            reg = vscale(2, reg)  # fundamental combos may leave the lattice
        assert len(datum.weyl_orbit(reg)) == datum.weyl_order()


def test_invalid_family_rank_rejected():
    for fam, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5),
                      ("E", 9), ("F", 3), ("G", 3), ("Z", 2), ("BC", 0)]:
        with pytest.raises(ValueError):
            build_root_system(fam, rank)


def test_bc2_standard_root_set(bc2):
    e1, e2 = (Q(1), Q(0)), (Q(0), Q(1))
    expected = set()
    for v in (e1, e2):
        expected |= {v, vneg(v), vscale(2, v), vscale(-2, v)}
    for s1 in (1, -1):
        for s2 in (1, -1):
            expected.add((Q(s1), Q(s2)))
    assert set(bc2.roots) == expected


def test_crystallographic_condition():
    for fam, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2),
                      ("F", 4), ("BC", 2), ("E", 7), ("E", 8)]:
        datum = build_root_system(fam, rank)
        for a in datum.positive_roots:
            for b in datum.roots:
                assert datum.pairing(a, b).denominator == 1
        if fam != "BC":
            root_set = set(datum.roots)
            assert all(vscale(2, a) not in root_set for a in datum.roots)


def test_fundamental_weight_duality(c3):
    for i, w in enumerate(c3.fundamental_weights):
        for j, a in enumerate(c3.simple_roots):
            assert c3.pairing(w, a) == (1 if i == j else 0)


def test_weyl_orbit_basics(a1, a2):
    w = a1.fundamental_weights[0]
    assert set(a1.weyl_orbit(w)) == {w, vneg(w)}
    assert a1.weyl_orbit((Q(0), Q(0))) == ((Q(0), Q(0)),)
    # A2 fundamental orbit: the three cyclic images, frozen coordinates
    w1 = a2.fundamental_weights[0]
    orbit = a2.weyl_orbit(w1)
    assert len(orbit) == 3
    assert w1 == (Q(2, 3), Q(-1, 3), Q(-1, 3))
    assert set(orbit) == {(Q(2, 3), Q(-1, 3), Q(-1, 3)),
                          (Q(-1, 3), Q(2, 3), Q(-1, 3)),
                          (Q(-1, 3), Q(-1, 3), Q(2, 3))}


def test_weight_lattice_membership(a2):
    assert a2.is_weight(a2.fundamental_weights[0])
    assert a2.is_weight(a2.positive_roots[0])
    # off the root span
    assert not a2.is_weight((Q(1), Q(0), Q(0)))
    # in the span but fractional pairings
    assert not a2.is_weight(vscale(Q(1, 2), a2.fundamental_weights[0]))
    with pytest.raises(ValueError):
        a2.weyl_orbit((Q(1), Q(0), Q(0)))


def test_dominant_representative_identity_and_reflection(a1):
    w = a1.fundamental_weights[0]
    plus, word = a1.dominant_representative(w)
    assert plus == w and word == ()
    plus, word = a1.dominant_representative(vneg(w))
    assert plus == w and word == (0,)


def test_dominant_representative_minimal_brute_force(a2, b2):
    # oracle: exhaustive search over all Weyl words for the shortest element
    for datum in (a2, b2):
        elems = all_weyl_words(datum)
        assert len(elems) == datum.weyl_order()
        reg = datum.weight_from_fundamental([1, 2])
        probes = set(datum.weyl_orbit(reg)) | set(datum.roots)
        for nu in sorted(probes):
            plus, word = datum.dominant_representative(nu)
            assert datum.apply_word(word, nu) == plus
            assert datum.is_dominant(plus)
            best = min(len(w) for w in elems.values()
                       if datum.is_dominant(datum.apply_word(w, nu)))
            assert len(word) == best, (nu, word)


def test_word_inverse_roundtrip(b2):
    nu = vneg(b2.weight_from_fundamental([2, 1]))
    plus, word = b2.dominant_representative(nu)
    inv = b2.inverse_word(word)
    assert b2.apply_word(inv, plus) == nu


def test_stabilizer_data(a2):
    w1 = a2.fundamental_weights[0]
    reg = a2.weight_from_fundamental([1, 1])
    assert a2.stabilizer_roots(reg) == ()
    zero = (Q(0),) * a2.dim
    assert set(a2.stabilizer_roots(zero)) == set(a2.roots)
    assert len(a2.stabilizer_roots(w1)) == 2
    # orbit under the stabilizer of 0 is the full orbit
    assert a2.stabilizer_orbit(zero, w1) == a2.weyl_orbit(w1)


def test_orbit_size_divides_group_order():
    rng = random.Random(11)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        datum = build_root_system(fam, rank)
        order = datum.weyl_order()
        for _ in range(4):
            nu = datum.weight_from_fundamental(
                [rng.randint(0, 2) for _ in range(rank)])
            assert order % len(datum.weyl_orbit(nu)) == 0


def test_orbit_elements_share_dominant_representative(c3):
    lam = c3.weight_from_fundamental([1, 1, 0])
    for nu in c3.weyl_orbit(lam):
        plus, _ = c3.dominant_representative(nu)
        assert plus == lam


def test_dominance_order(a2):
    w1, w2 = a2.fundamental_weights
    theta = vadd(w1, w2)
    zero = (Q(0),) * a2.dim
    assert a2.dominance_leq(zero, theta)
    assert a2.dominance_leq(theta, theta)
    assert not a2.dominance_leq(w1, w2)
    assert not a2.dominance_leq(zero, w1)  # w1 is not in the root lattice
    with pytest.raises(ValueError):
        a2.dominance_leq(vneg(w1), w1)


def test_saturated_sets(a2, b2, d4):
    # minuscule: saturated set is exactly the orbit
    for datum, idx in [(a2, 0), (a2, 1), (d4, 0)]:
        w = datum.fundamental_weights[idx]
        assert datum.is_minuscule(w)
        assert set(datum.saturated_set(w)) == set(datum.weyl_orbit(w))
    # quasi-minuscule: orbit plus origin
    for datum in (a2, b2, d4):
        qm = datum.quasi_minuscule_weight()
        zero = (Q(0),) * datum.dim
        assert set(datum.saturated_set(qm)) == set(datum.weyl_orbit(qm)) | {zero}
    # W-stability and membership
    lam = b2.weight_from_fundamental([1, 1])
    sat = set(b2.saturated_set(lam))
    assert lam in sat
    for nu in sat:
        for i in range(b2.rank):
            assert b2.simple_reflect(i, nu) in sat


def test_small_weights_classical(a3, b2, c3, d4, g2):
    for datum in (a3, b2, c3, d4):
        assert len(datum.small_fundamental_weights()) == datum.rank
    assert len(g2.small_fundamental_weights()) == 1


def test_quasi_minuscule_weights(a2, b2, c3, g2):
    assert a2.quasi_minuscule_weight() == vadd(*a2.fundamental_weights)
    assert b2.quasi_minuscule_weight() == (Q(1), Q(0))
    assert c3.quasi_minuscule_weight() == (Q(1), Q(1), Q(0))
    theta_s = g2.quasi_minuscule_weight()
    assert g2.norm_sq(theta_s) == Q(2, 3)  # short-root normalization


def test_rho_vectors(a1, bc2):
    g = Multiplicities.constant(a1, Q(3, 7))
    rho = a1.rho(g)
    assert a1.pairing(rho, a1.positive_roots[0]) == Q(3, 7)
    # nonreduced: rho_j = (n-j) g + g1/2 + g2 in orthonormal coordinates
    gg, g1, g2v = Q(3, 7), Q(5, 11), Q(9, 4)
    mults = Multiplicities.by_representative(
        bc2, {(Q(1), Q(0)): g1, (Q(1), Q(1)): gg, (Q(2), Q(0)): g2v})
    rho = bc2.rho(mults)
    assert rho == (gg + g1 / 2 + g2v, g1 / 2 + g2v)
    # zero weights give the zero vector
    assert bc2.half_weighted_sum(lambda a: Q(0)) == (Q(0), Q(0))


def test_rho_vee(a2):
    rho_vee = a2.rho_vee()
    # rho_vee pairs to 1 with every simple root
    for a in a2.simple_roots:
        assert a2.inner(rho_vee, a) == 1
    # and <omega_i, rho_vee> = 1 for fundamental weights
    for w in a2.fundamental_weights:
        assert a2.inner(w, rho_vee) == 1


def test_dominant_weights_up_to_height(a1, c3):
    lams = a1.dominant_weights_up_to_height(4)
    assert len(lams) == 9  # k * omega for k = 0..8, height k/2
    lams3 = c3.dominant_weights_up_to_height(4)
    zero = (Q(0),) * 3
    assert zero in lams3 and c3.fundamental_weights[1] in lams3
    assert c3.fundamental_weights[2] not in lams3  # height 9/2


def test_multiplicities_validation(b2):
    with pytest.raises(ValueError):
        Multiplicities(b2, [Q(1)])
    with pytest.raises(ValueError):
        Multiplicities(b2, [Q(1), Q(-1)])
    m = Multiplicities.constant(b2, Q(2, 3))
    assert all(m.of(a) == Q(2, 3) for a in b2.roots)
    short, long_ = b2.orbit_representatives()
    m = Multiplicities.by_representative(b2, {short: Q(1, 2), long_: Q(5)})
    assert m.of((Q(0), Q(1))) == Q(1, 2)
    assert m.of((Q(1), Q(-1))) == Q(5)


LABEL_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4),
                 ("G", 2), ("BC", 1), ("BC", 2), ("F", 4), ("E", 6)]


@pytest.mark.parametrize("fam,rank", LABEL_SYSTEMS)
def test_label_kernel_matches_gram_form(fam, rank):
    datum = build_root_system(fam, rank)
    rng = random.Random(f"gram:{fam}{rank}")
    randoms = [tuple(Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(datum.dim))
               for _ in range(5)]
    for v in datum.roots + datum.fundamental_weights + tuple(randoms):
        table = datum.pairings(v)
        assert len(table) == len(datum.roots)
        for i, alpha in enumerate(datum.roots):
            gram = 2 * datum.inner(v, alpha) / datum.norm_sq(alpha)
            assert table[i] == gram, (v, alpha)
            assert datum.pairing(v, alpha) == gram
    for i, alpha in enumerate(datum.roots):
        assert datum.labels(alpha) == datum.root_labels[i]
        assert datum.from_labels(datum.root_labels[i]) == alpha
    for w in datum.fundamental_weights:
        assert datum.from_labels(datum.labels(w)) == w
    # the fundamental-weight Gram form on labels
    for v in datum.roots + datum.fundamental_weights:
        l = datum.labels(v)
        form = sum(a * b * g for a, row in zip(l, datum.weight_gram)
                   for b, g in zip(l, row))
        assert Q(form, datum.weight_gram_den) == datum.inner(v, v), v


@pytest.mark.parametrize("fam,rank", [("B", 2), ("G", 2), ("BC", 2)])
def test_saturated_label_map_points_to_dominant_labels(fam, rank):
    datum = build_root_system(fam, rank)
    lam = ((Q(2), Q(1)) if fam == "BC"
           else datum.weight_from_fundamental([1] * rank))
    labels = datum.saturated_label_map(lam)
    assert set(map(datum.from_labels, labels)) == set(datum.saturated_set(lam))
    for l, m in labels.items():
        assert m == datum.labels(datum.dominant_representative(datum.from_labels(l))[0])


@pytest.mark.parametrize("fam,rank", [("F", 4), ("E", 6)])
def test_orbit_stabilizer_exceptional(fam, rank):
    datum = build_root_system(fam, rank)
    order = datum.weyl_order()
    regular = datum.weight_from_fundamental([1] * rank)
    for i, w in enumerate(datum.fundamental_weights):
        # W_{omega_i} is generated by the other simple reflections and acts
        # freely on a regular weight, whose orbit under it has |W_{omega_i}|
        # elements
        gens = [a for j, a in enumerate(datum.simple_roots) if j != i]
        stab_order = len(datum.orbit_under_reflections(gens, regular))
        assert order % stab_order == 0
        assert len(datum.weyl_orbit(w)) == order // stab_order


def test_root_values_follow_orbits(b2, bc2):
    for datum in (b2, bc2):
        values = [Q(k + 1, 7) for k in range(len(datum.root_orbits))]
        m = Multiplicities(datum, values)
        assert m.root_values == tuple(m.of(a) for a in datum.roots)
        assert datum.rho(m) is datum.rho(m)
        assert datum.rho(m) == datum.half_weighted_sum(m.of)


@pytest.mark.parametrize("fam,rank", [("F", 4), ("E", 6)])
def test_stabilizer_orbit_matches_root_definition(fam, rank):
    # the index-keyed orbit equals the orbit under the reflections in the
    # positive roots orthogonal to nu, order included, for every nu of the
    # saturated sets of the small fundamentals and eta as in the Pieri index
    datum = build_root_system(fam, rank)
    positive = set(datum.positive_roots)
    checked = 0
    for omega in datum.small_fundamental_weights():
        for nu in datum.saturated_set(omega):
            _plus, word = datum.dominant_representative(nu)
            eta = datum.apply_word(datum.inverse_word(word), omega)
            gens = [a for a in datum.stabilizer_roots(nu) if a in positive]
            assert datum.stabilizer_orbit(nu, eta) == \
                datum.orbit_under_reflections(gens, eta)
            checked += 1
    assert checked == {"F": 49 + 25, "E": 27 + 73 + 243 + 243 + 27}[fam]


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                      ("G", 2), ("F", 4), ("E", 6), ("BC", 2)])
def test_height_from_labels_matches_simple_coefficients(fam, rank):
    datum = build_root_system(fam, rank)
    rng = random.Random(f"height:{fam}{rank}")
    for _ in range(20):
        v = datum.weight_from_fundamental(
            [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank)])
        assert datum.height(v) == sum(datum.simple_coefficients(v))
