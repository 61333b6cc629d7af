import gc
import hashlib
import itertools
import pickle
import random
import re
import weakref
from copy import deepcopy
from fractions import Fraction as Q
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from hodiff.diffeq import (quasi_identity_value, sample_multiplicities, sample_spectral_point,
                           verify_pieri)
from hodiff.jacobi import verify_eigen
from hodiff.nonreduced import bc_multiplicities, verify_pieri_bc
from hodiff.rootsys import Multiplicities, Weight, build_root_system, vadd, vneg, weight_str
from oracles import (constant_multiplicities, dominance_leq, dominant_representative,
                     half_weighted_sum, height, inner, invert_rational_matrix, multiplicity_of,
                     orbit_under_reflections, pairing_quasi_minuscule, rho_vee,
                     searched_quasi_minuscule_weight, simple_coefficients, vscale)
from weyl_words import apply_word, inverse_word

# classical counts used as an oracle only; the library computes its orders
# along a parabolic chain (``weyl_order``)
TABLE = {
    ("A", 1): (2, 2), ("A", 2): (6, 6), ("A", 3): (12, 24),
    ("B", 2): (8, 8), ("B", 3): (18, 48), ("C", 3): (18, 48),
    ("D", 4): (24, 192), ("G", 2): (12, 12), ("F", 4): (48, 1152),
    ("BC", 1): (4, 2), ("BC", 2): (12, 8), ("BC", 3): (24, 48),
    ("E", 6): (72, 51840), ("E", 7): (126, 2903040), ("E", 8): (240, 696729600),
}

# the tables every suite reads, pinned per type by the sha256 of their repr:
# the root order fixes the order of the multiplicity values, and so the
# report bytes
TABLE_NAMES = ("roots", "root_labels", "root_perms", "root_orbits", "root_orbit_ids",
               "positive_indices", "coroot_coefficients", "root_norms",
               "half_root_index", "fundamental_weights", "cartan")
TABLE_DIGESTS = {
    ("A", 1): "c71c24942b8829b7cfa849dbb434d4c35d49359f28fa6088f24f99fc8955a789",
    ("A", 2): "e408146a219bb1e72ebdfb9f5276367e75b3711abf13ea5bc1bbf7574816d9c8",
    ("A", 3): "14dddac11894780d5b87e410431ad1f001ce9c2f91397aad15ba0549ed69df91",
    ("B", 2): "d94b8be0b2894850352401a854cd6e8153cd351cd808d303e764c3660045c22d",
    ("B", 3): "70c574bd9b330a1849bf6707f6d4e6818067ce0d5235aedd2ed8c6b3290ee035",
    ("C", 3): "360e19d73861f712fc83b1f6656a01660a764df9d8783f6f00a29b3f26a775d0",
    ("D", 4): "131b09a9c96001dfa4bb36491592d62c16d496d0d1e7000f1760a26009bea129",
    ("G", 2): "75463305bcebcc610aed70d575f75cd3eba1e85a0e2738dddb41c90570eb98a5",
    ("F", 4): "1324f7730e638bd035d708ddb3f3fe7b87ead95dae80e2917e7ac1c9388605e1",
    ("BC", 1): "af77eb7daa2eedc3ed9b1094afb4f2887ad26583ae9a8b93009258aace1b16c8",
    ("BC", 2): "8334c11796415f92db8bab79c6225aeaea0e7f50935c39f3b5805b372ae013a3",
    ("BC", 3): "27c7710681f4ac8018de242bac4e1092d37a7a0c2b6a5aa624fd0a0cab673073",
    ("E", 6): "6106b40edbe3f743982441038afd46bc8aa26ea1ccb724c3a309f00c3297db9a",
    ("E", 7): "2b330c76398d0b3ce400eb2d9cd3f99018ccc4f66986d959809d4dbaeeec1c2f",
    ("E", 8): "b36d8482060354244bd2a3a083393f2512f3813fc814c71e66874b7081e53020",
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
                new = tuple(apply_word(datum, (i,), v) for v in state)
                if new not in elems:
                    elems[new] = (i,) + word
                    nxt.append((new, (i,) + word))
        frontier = nxt
    return elems


def is_weight(datum, v) -> bool:
    """v is in the weight lattice: ``weight_labels`` raises ValueError if not."""
    try:
        datum.weight_labels(v)
    except ValueError:
        return False
    return True


def test_root_counts_and_group_orders():
    for (fam, rank), (n_roots, order) in TABLE.items():
        datum = build_root_system(fam, rank)
        assert len(datum.roots) == n_roots, (fam, rank)
        assert len(datum.positive_roots) * 2 == n_roots
        assert datum.weyl_order() == order, (fam, rank)


@pytest.mark.parametrize("fam,rank", TABLE)
def test_tables_are_pinned(fam, rank):
    datum = build_root_system(fam, rank)
    text = repr(tuple(getattr(datum, name) for name in TABLE_NAMES))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[fam, rank]


def test_group_order_matches_regular_orbit():
    # independent oracle: the orbit of a regular weight has |W| elements
    for fam, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3),
                      ("D", 4), ("G", 2), ("BC", 2)]:
        datum = build_root_system(fam, rank)
        reg = datum.weight_from_fundamental([1] * rank)
        if fam == "BC":
            reg = vscale(2, reg)  # fundamental combos may leave the lattice
        assert len(datum.weyl_orbit(reg)) == datum.weyl_order()


def test_weight_from_fundamental_refuses_a_wrong_count(a2):
    for coeffs in ([1], [1, 0, 2]):
        with pytest.raises(ValueError, match="^need 2 fundamental coefficients$"):
            a2.weight_from_fundamental(coeffs)


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
    assert is_weight(a2, a2.fundamental_weights[0])
    assert is_weight(a2, a2.positive_roots[0])
    # off the root span
    assert not is_weight(a2, (Q(1), Q(0), Q(0)))
    # in the span but fractional pairings
    assert not is_weight(a2, vscale(Q(1, 2), a2.fundamental_weights[0]))
    with pytest.raises(ValueError):
        a2.weyl_orbit((Q(1), Q(0), Q(0)))


def test_dominant_representative_identity_and_reflection(a1):
    w = a1.fundamental_weights[0]
    plus, word = dominant_representative(a1, w)
    assert plus == w and word == ()
    plus, word = dominant_representative(a1, vneg(w))
    assert plus == w and word == (0,)


def test_dominant_representative_minimal_brute_force(a2, b2):
    # oracle: exhaustive search over all Weyl words for the shortest element
    for datum in (a2, b2):
        elems = all_weyl_words(datum)
        assert len(elems) == datum.weyl_order()
        reg = datum.weight_from_fundamental([1, 2])
        probes = set(datum.weyl_orbit(reg)) | set(datum.roots)
        for nu in sorted(probes):
            plus, word = dominant_representative(datum, nu)
            assert apply_word(datum, word, nu) == plus
            assert min(datum.labels(plus)) >= 0
            best = min(len(w) for w in elems.values()
                       if min(datum.labels(apply_word(datum, w, nu))) >= 0)
            assert len(word) == best, (nu, word)


def test_word_inverse_roundtrip(b2):
    nu = vneg(b2.weight_from_fundamental([2, 1]))
    plus, word = dominant_representative(b2, nu)
    assert apply_word(b2, inverse_word(word), plus) == nu


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
        plus, _ = dominant_representative(c3, nu)
        assert plus == lam


def test_dominance_order(a2):
    w1, w2 = a2.fundamental_weights
    theta = vadd(w1, w2)
    zero = (Q(0),) * a2.dim
    assert dominance_leq(a2, zero, theta)
    assert dominance_leq(a2, theta, theta)
    assert not dominance_leq(a2, w1, w2)
    assert not dominance_leq(a2, zero, w1)  # w1 is not in the root lattice
    with pytest.raises(ValueError):
        dominance_leq(a2, vneg(w1), w1)


def test_saturated_sets(a2, b2, d4):
    # minuscule: saturated set is exactly the orbit
    for datum, idx in [(a2, 0), (a2, 1), (d4, 0)]:
        w = datum.fundamental_weights[idx]
        assert datum.is_minuscule(w)
        assert set(datum.saturated_map(w)) == set(datum.weyl_orbit(w))
    # quasi-minuscule: orbit plus origin
    for datum in (a2, b2, d4):
        qm = datum.quasi_minuscule_weight()
        zero = (Q(0),) * datum.dim
        assert set(datum.saturated_map(qm)) == set(datum.weyl_orbit(qm)) | {zero}
    # W-stability and membership
    lam = b2.weight_from_fundamental([1, 1])
    sat = set(b2.saturated_map(lam))
    assert lam in sat
    for nu in sat:
        for i in range(b2.rank):
            assert apply_word(b2, (i,), nu) in sat


def test_small_weights_classical(a3, b2, c3, d4, g2):
    for datum in (a3, b2, c3, d4):
        assert len(datum.small_fundamental_weights()) == datum.rank
    assert len(g2.small_fundamental_weights()) == 1
    # the small dominant weights leave out zero and hold every small fundamental
    for datum in (a3, b2, g2):
        small = datum.small_dominant_weights()
        assert (Q(0),) * datum.dim not in small
        assert set(datum.small_fundamental_weights()) <= set(small)


def test_quasi_minuscule_weights(a2, b2, c3, g2):
    assert a2.quasi_minuscule_weight() == vadd(*a2.fundamental_weights)
    assert b2.quasi_minuscule_weight() == (Q(1), Q(0))
    assert c3.quasi_minuscule_weight() == (Q(1), Q(1), Q(0))
    theta_s = g2.quasi_minuscule_weight()
    assert inner(g2, theta_s, theta_s) == Q(2, 3)  # short-root normalization


QUASI_FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
                  ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
                  ("E", 6), ("E", 7), ("E", 8), ("BC", 1), ("BC", 2), ("BC", 3)]


@pytest.mark.parametrize("fam,rank", QUASI_FAMILIES)
def test_quasi_minuscule_weight_matches_the_pairing_search(fam, rank):
    # the dominant root of the shortest orbit is the dominant root whose other
    # pairings are at most 1, and is_quasi_minuscule agrees with that search
    # on every small dominant weight
    datum = build_root_system(fam, rank)
    qm = datum.quasi_minuscule_weight()
    assert qm == searched_quasi_minuscule_weight(datum)
    assert [datum.is_quasi_minuscule(w) for w in datum.small_dominant_weights()] == [
        pairing_quasi_minuscule(datum, w) for w in datum.small_dominant_weights()]
    assert datum.is_quasi_minuscule(qm)


def test_rho_vectors(a1, bc2):
    g = constant_multiplicities(a1, Q(3, 7))
    rho = a1.rho(g)
    assert a1.pairing(rho, a1.positive_roots[0]) == Q(3, 7)
    # nonreduced: rho_j = (n-j) g + g1/2 + g2 in orthonormal coordinates
    gg, g1, g2v = Q(3, 7), Q(5, 11), Q(9, 4)
    mults = bc_multiplicities(bc2, gg, g1, g2v)
    rho = bc2.rho(mults)
    assert rho == (gg + g1 / 2 + g2v, g1 / 2 + g2v)
    # zero weights give the zero vector
    assert half_weighted_sum(bc2, lambda a: Q(0)) == (Q(0), Q(0))


def test_rho_vee(a2):
    rv = rho_vee(a2)
    # rho_vee pairs to 1 with every simple root
    for a in a2.simple_roots:
        assert inner(a2, rv, a) == 1
    # and <omega_i, rho_vee> = 1 for fundamental weights
    for w in a2.fundamental_weights:
        assert inner(a2, w, rv) == 1


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
    m = constant_multiplicities(b2, Q(2, 3))
    assert all(multiplicity_of(m, a) == Q(2, 3) for a in b2.roots)
    by_norm = {Q(1): Q(1, 2), Q(2): Q(5)}   # short and long orbit
    m = Multiplicities(b2, [by_norm[inner(b2, orbit[0], orbit[0])] for orbit in b2.root_orbits])
    assert multiplicity_of(m, (Q(0), Q(1))) == Q(1, 2)
    assert multiplicity_of(m, (Q(1), Q(-1))) == Q(5)


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
            gram = 2 * inner(datum, v, alpha) / inner(datum, alpha, alpha)
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
        assert Q(form, datum.weight_gram_den) == inner(datum, v, v), v
    # |alpha|^2 per root orbit, for every root of the orbit
    assert len(datum.orbit_norms) == len(datum.root_orbits)
    for norm, orbit in zip(datum.orbit_norms, datum.root_orbits):
        assert all(norm == inner(datum, a, a) for a in orbit)


@pytest.mark.parametrize("fam,rank", [("B", 2), ("G", 2), ("BC", 2)])
def test_saturated_label_map_points_to_dominant_labels(fam, rank):
    datum = build_root_system(fam, rank)
    lam = ((Q(2), Q(1)) if fam == "BC"
           else datum.weight_from_fundamental([1] * rank))
    labels = datum.saturated_labels(datum.dominant_labels(lam))
    assert set(map(datum.from_labels, labels)) == set(datum.saturated_map(lam))
    for l, m in labels.items():
        assert m == datum.labels(dominant_representative(datum, datum.from_labels(l))[0])


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
        stab_order = len(orbit_under_reflections(datum, gens, regular))
        assert order % stab_order == 0
        assert len(datum.weyl_orbit(w)) == order // stab_order


def test_root_values_follow_orbits(b2, bc2):
    # for Fraction and int multiplicities alike; m_alpha stays exact
    for datum, exact in itertools.product((b2, bc2), (Q(1, 7), 1)):
        values = [(k + 1) * exact for k in range(len(datum.root_orbits))]
        m = Multiplicities(datum, values)
        assert all(isinstance(x, (int, Q)) for x in m.factor_values)
        assert m.root_values == tuple(multiplicity_of(m, a) for a in datum.roots)
        assert datum.rho(m) is datum.rho(m)
        assert datum.rho(m) == half_weighted_sum(datum, lambda a: multiplicity_of(m, a))
        # m_alpha = g_alpha + g_{alpha/2}/2, alpha/2 looked up by its vector
        assert m.factor_values == tuple(
            multiplicity_of(m, a) + (multiplicity_of(m, tuple(x / 2 for x in a)) / 2
                                     if tuple(x / 2 for x in a) in datum.roots else 0)
            for a in datum.roots)
    assert Multiplicities(b2, (Q(1, 3), Q(2, 5))).factor_values == (
        Multiplicities(b2, (Q(1, 3), Q(2, 5))).root_values)


EVERY_TYPE = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2),
              ("F", 4), ("E", 6), ("E", 7), ("E", 8), ("BC", 1), ("BC", 2), ("BC", 3)]


@pytest.mark.parametrize("fam,rank", EVERY_TYPE)
def test_rho_on_labels_matches_vector_half_sum(fam, rank):
    # rho_g from the orbit label sums is the half-sum of g_alpha alpha over
    # the positive roots, for Fraction multiplicities and for ints; its labels
    # are those a fresh datum reads off the vector, ints where integral, and
    # the Weight rho_g carries them
    datum, fresh = build_root_system(fam, rank), build_root_system(fam, rank)
    n = len(datum.root_orbits)
    for values in ([Q(2 * k + 3, 7) for k in range(n)], [2 * k + 1 for k in range(n)]):
        m = Multiplicities(datum, values)
        want = half_weighted_sum(datum, lambda a: multiplicity_of(m, a))
        assert datum.rho(m) == want
        got, ref = datum.rho(m).labels, fresh.labels(want)
        assert got == ref and list(map(type, got)) == list(map(type, ref))
        assert datum.labels(datum.rho(m)) is got and datum.labels(want) == got


@pytest.mark.parametrize("fam,rank", EVERY_TYPE)
def test_root_permutations_are_the_simple_reflections(fam, rank):
    # perm_j is an involution taking alpha_r to s_j alpha_r (by the Gram
    # form), alpha_j to -alpha_j, and the positive roots other than the
    # multiples of alpha_j among themselves
    datum = build_root_system(fam, rank)
    positive = set(datum.positive_indices)
    for j, perm in enumerate(datum.root_perms):
        alpha = datum.simple_roots[j]
        assert sorted(perm) == list(range(len(datum.roots)))
        assert all(perm[perm[r]] == r for r in range(len(perm)))
        for r, a in enumerate(datum.roots):
            k = 2 * inner(datum, a, alpha) / inner(datum, alpha, alpha)
            assert datum.roots[perm[r]] == tuple(x - k * y for x, y in zip(a, alpha))
        assert datum.roots[perm[datum.roots.index(alpha)]] == vneg(alpha)
        others = {r for r in positive if datum.roots[r] not in (alpha, vscale(2, alpha))}
        assert {perm[r] for r in others} == others


def _pairs_at_most_2(datum, w) -> bool:
    """The definition of a small weight: every positive-coroot pairing at most 2."""
    return max(datum.pairings(w)[i] for i in datum.positive_indices) <= 2


def _small_labels(datum):
    """Labels of the nonzero small dominant weights: those pairing at most 2
    with the highest coroot, which bounds every positive coroot
    coefficientwise; for BC_n, whose weight lattice is Z^n (not every
    fundamental weight is a weight there), the partitions 1^k 0^(n-k)."""
    if datum.family == "BC":
        labels = [datum.labels(tuple(Q(int(i < k)) for i in range(datum.rank)))
                  for k in range(1, datum.rank + 1)]
    else:
        top = max((datum.coroot_coefficients[i] for i in datum.positive_indices), key=sum)
        labels = [l for l in itertools.product(range(3), repeat=datum.rank)
                  if any(l) and sum(map(mul, top, l)) <= 2]
    assert labels and all(_pairs_at_most_2(datum, datum.from_labels(l)) for l in labels)
    return labels


@pytest.mark.parametrize("fam,rank", EVERY_TYPE)
def test_small_dominant_weights_match_scan(fam, rank):
    datum = build_root_system(fam, rank)
    assert datum.small_dominant_weights() == tuple(
        sorted(map(datum.from_labels, _small_labels(datum))))


@pytest.mark.parametrize("fam,rank", EVERY_TYPE)
def test_small_fundamental_weights_are_weights(fam, rank):
    # the small fundamental weights, in order; on BC_n only e_1 + ... + e_k,
    # k < n, are weights (omega_n = (1/2, ..., 1/2) is not, and used to
    # raise), elsewhere every fundamental weight pairing at most 2 with each coroot
    datum = build_root_system(fam, rank)
    got = datum.small_fundamental_weights()
    if fam == "BC":
        assert got == tuple(tuple(Q(int(i < k)) for i in range(rank)) for k in range(1, rank))
        assert datum.fundamental_weights[-1] == (Q(1, 2),) * rank
    else:
        assert got == tuple(w for w in datum.fundamental_weights if _pairs_at_most_2(datum, w))
    assert all(datum.weight_labels(w) for w in got)
    assert set(got) <= set(datum.small_dominant_weights())


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                      ("G", 2), ("F", 4), ("BC", 2)])
def test_weights_up_to_height_match_box_scan(fam, rank):
    # every fundamental combination in the box that each height bound puts
    # on the labels, kept if it is a weight (not all are on BC) of height
    # at most the bound
    datum = build_root_system(fam, rank)
    heights = [height(datum, w) for w in datum.fundamental_weights]
    for bound in (0, 1, Q(5, 2), 4):
        box = itertools.product(*(range(int(bound / h) + 1) for h in heights))
        want = sorted(v for v in map(datum.from_labels, box)
                      if is_weight(datum, v) and height(datum, v) <= bound)
        got = datum.dominant_weights_up_to_height(bound)
        assert got == tuple(want), (fam, rank, bound)


@pytest.mark.parametrize("fam,rank", EVERY_TYPE)
def test_permuted_rows_match_label_pairings(fam, rank):
    # down the label descent of each small weight's orbit, the pairing row
    # of s_j u is the row of u read through perm_j
    datum = build_root_system(fam, rank)
    checked = 0
    for top in _small_labels(datum):
        rows = {}
        for l, step in datum._dominant_orbit(top).items():
            rows[l] = (datum.label_pairings(l) if step is None else
                       tuple(map(rows[step[0]].__getitem__, datum.root_perms[step[1]])))
            assert rows[l] == datum.label_pairings(l), (top, l)
            checked += step is not None
    assert checked > 0


@pytest.mark.parametrize("fam,rank", [("F", 4), ("E", 6)])
def test_stabilizer_orbit_matches_root_definition(fam, rank):
    # the index-keyed orbit equals the orbit under the reflections in the
    # positive roots orthogonal to nu, order included, for every nu of the
    # saturated sets of the small fundamentals and eta as in the Pieri index
    datum = build_root_system(fam, rank)
    positive = set(datum.positive_roots)
    checked = 0
    for omega in datum.small_fundamental_weights():
        for nu in sorted(datum.saturated_map(omega)):
            _plus, word = dominant_representative(datum, nu)
            eta = apply_word(datum, inverse_word(word), omega)
            gens = [a for a in datum.stabilizer_roots(nu) if a in positive]
            assert datum.stabilizer_orbit(nu, eta) == \
                orbit_under_reflections(datum, gens, eta)
            checked += 1
    assert checked == {"F": 49 + 25, "E": 27 + 73 + 243 + 243 + 27}[fam]


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2),
                                      ("BC", 2)])
def test_stabilizer_orbit_of_any_pair_matches_root_definition(fam, rank):
    # v off the dominant chamber, with zero labels before it was moved, and
    # eta anywhere in the span, rational labels included
    datum = build_root_system(fam, rank)
    rng = random.Random(f"stabilizer:{fam}{rank}")
    positive = set(datum.positive_roots)
    for _ in range(12):
        top = datum.weight_from_fundamental(
            [rng.choice([0, 0, 1, Q(1, 2)]) for _ in range(rank)])
        word = [rng.randrange(rank) for _ in range(rng.randrange(8))]
        v = apply_word(datum, word, top)
        eta = datum.weight_from_fundamental(
            [Q(rng.randint(-4, 4), rng.choice([1, 1, 3])) for _ in range(rank)])
        gens = [a for a in datum.stabilizer_roots(v) if a in positive]
        assert datum.stabilizer_orbit(v, eta) == \
            orbit_under_reflections(datum, gens, eta), (v, eta)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                      ("G", 2), ("F", 4), ("E", 6), ("BC", 2)])
def test_height_from_labels_matches_simple_coefficients(fam, rank):
    datum = build_root_system(fam, rank)
    rng = random.Random(f"height:{fam}{rank}")
    for _ in range(20):
        v = datum.weight_from_fundamental(
            [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank)])
        assert height(datum, v) == sum(simple_coefficients(datum, v))


# -- dominance intervals: Stembridge's descent against the box ------------------

def _box_below(datum, lam):
    """Dominant mu <= lam by brute force: lam minus every integer combination
    of simple roots inside the box of lam's simple-root coefficients."""
    top = datum.labels(lam)
    ranges = [range(int(c) + 1) for c in simple_coefficients(datum, lam)]
    found = set()
    for ks in itertools.product(*ranges):
        mu = tuple(x - sum(k * row[j] for k, row in zip(ks, datum.cartan))
                   for j, x in enumerate(top))
        if min(mu) >= 0:
            found.add(datum.from_labels(mu))
    return found


DESCENT_SYSTEMS = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
                   + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
                   + [("E", 6), ("F", 4), ("G", 2)] + [("BC", r) for r in range(1, 4)])


@pytest.mark.parametrize("fam,rank", DESCENT_SYSTEMS)
def test_descent_matches_box_enumeration(fam, rank):
    datum = build_root_system(fam, rank)
    lams = datum.dominant_weights_up_to_height(6)
    assert lams
    for lam in lams:
        assert datum.dominant_below(lam) == tuple(sorted(_box_below(datum, lam))), lam


# largest label drawn per system: the box of F4 at 2 rho has 521,203 points
PROPERTY_SYSTEMS = {("A", 3): 2, ("B", 3): 2, ("C", 3): 2, ("D", 4): 2,
                    ("G", 2): 2, ("F", 4): 1, ("BC", 2): 2}


@pytest.mark.parametrize("fam,rank", PROPERTY_SYSTEMS)
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_descent_matches_box_property(fam, rank, data):
    datum = build_root_system(fam, rank)
    top = data.draw(st.tuples(*[st.integers(0, PROPERTY_SYSTEMS[fam, rank])] * rank))
    if fam == "BC":
        top = top[:-1] + (2 * top[-1],)   # the BC weights have an even last label
    lam = datum.from_labels(top)
    assert set(datum.dominant_below(lam)) == _box_below(datum, lam)


LABEL_SYSTEMS = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4),
                 ("G", 2), ("BC", 2))
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@pytest.mark.parametrize("fam,rank", LABEL_SYSTEMS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_label_kernel_matches_the_gram_form_property(fam, rank, data):
    # for random rational vectors: the pairings read from the labels are
    # 2 <v, alpha> / <alpha, alpha> on the Gram form (G2's is not the
    # identity), and a vector of the root span comes back from its labels
    datum = build_root_system(fam, rank)
    v = data.draw(st.tuples(*[RATIONALS] * datum.dim))
    assert datum.label_pairings(datum.labels(v)) == tuple(
        2 * inner(datum, v, a) / inner(datum, a, a) for a in datum.roots)
    coeffs = data.draw(st.tuples(*[RATIONALS] * rank))
    w = tuple(sum(c * a[d] for c, a in zip(coeffs, datum.simple_roots))
              for d in range(datum.dim))
    assert datum.from_labels(datum.labels(w)) == w


@pytest.mark.parametrize("fam,rank", LABEL_SYSTEMS + (("F", 4), ("E", 6)))
def test_pairing_reads_made_roots_by_labels(fam, rank, monkeypatch):
    # pairing finds a root the datum made by its labels, and an equal copy
    # by its labels and coordinates; both agree with the Gram form, a made
    # weight that is no root is refused, and the made roots cost no Fraction
    # hash
    datum = build_root_system(fam, rank)
    rho = datum.rho(Multiplicities(datum, [Q(k + 2, 7) for k in range(len(datum.root_orbits))]))
    others = [w for w in datum.fundamental_weights if datum.labels(w) not in datum.root_labels]
    if fam == "A":   # off the root span, with a root's labels: no root
        others += [tuple(x + 1 for x in a) for a in datum.roots]
    for a in datum.roots:
        copy = tuple(list(a))
        assert copy is not a
        want = 2 * inner(datum, rho, a) / inner(datum, a, a)
        assert datum.pairing(rho, a) == datum.pairing(rho, copy) == want
    for a in others:
        with pytest.raises(ValueError, match="is not a root"):
            datum.pairing(rho, a)
    hashes = []
    monkeypatch.setattr(Q, "__hash__", lambda q: hashes.append(q) or hash(q.numerator))
    assert [datum.pairing(rho, a) for a in datum.roots] == list(datum.pairings(rho))
    assert hashes == []


def test_e8_highest_root_interval():
    # the box holds 151,200 points; the descent visits two weights
    datum = build_root_system("E", 8)
    theta = datum.quasi_minuscule_weight()
    assert datum.labels(theta) == (0, 0, 0, 0, 0, 0, 0, 1)
    assert datum.dominant_below(theta) == ((Q(0),) * 8, theta)


# -- one weight key: every per-datum memo is keyed by integers ------------------

def _holds_fraction(key) -> bool:
    if isinstance(key, (tuple, frozenset)):
        return any(map(_holds_fraction, key))
    return isinstance(key, Q)


def _fraction_keyed_memos(datum):
    """Dicts on datum (dict values included) with a Fraction in some key."""
    return {name for name, memo in vars(datum).items()
            if isinstance(memo, dict)
            and any(_holds_fraction(k) or (isinstance(v, dict) and any(map(_holds_fraction, v)))
                    for k, v in memo.items())}


@pytest.mark.parametrize("fam,rank", [("B", 2), ("G", 2), ("BC", 2)])
def test_memos_are_keyed_by_labels(fam, rank):
    datum = build_root_system(fam, rank)
    if fam == "BC":
        mults = bc_multiplicities(datum, Q(1, 3), Q(2, 5), Q(3, 7))
        for ell in (1, 2):
            for lam in ((0, 0), (1, 0), (2, 1)):
                assert verify_pieri_bc(datum, mults, ell, tuple(map(Q, lam)), None, {}).ok
        omega = (Q(1), Q(0))
    else:
        mults = Multiplicities(datum, [Q(k + 2, 7) for k in range(len(datum.root_orbits))])
        for omega in datum.small_fundamental_weights():
            for lam in ((Q(0),) * datum.dim, datum.fundamental_weights[0]):
                cache = {}
                assert verify_pieri(datum, mults, omega, lam, cache=cache).ok
                for (_g, mu), poly in cache.items():
                    assert verify_eigen(datum, mults, mu, poly).ok
    assert _fraction_keyed_memos(datum) == set()
    # an orbit is walked once, under the labels of its dominant element:
    # repeated weyl_orbit calls read the orbit memo and add nothing to it
    orbit = datum.weyl_orbit(omega)
    walks = dict(datum._walks)
    assert all(datum.weyl_orbit(nu) == orbit for nu in orbit)
    assert datum._walks == walks and all(datum._walks[k] is v for k, v in walks.items())


# -- a vector the datum made is a Weight that carries its labels -------------


def _outcome(method, v):
    """What method(v) returns, or the message of its ValueError."""
    try:
        return method(v)
    except ValueError as exc:
        return str(exc)


def _off_span(datum):
    """A nonzero vector orthogonal to every root, or None if the roots span
    the realization: e_k less its projection onto the root span."""
    simples = datum.simple_roots
    inverse = invert_rational_matrix([[inner(datum, a, b) for b in simples] for a in simples])
    for k in range(datum.dim):
        e = tuple(Q(int(d == k)) for d in range(datum.dim))
        c = [sum(r * inner(datum, b, e) for r, b in zip(row, simples)) for row in inverse]
        u = tuple(e[d] - sum(x * a[d] for x, a in zip(c, simples)) for d in range(datum.dim))
        if any(u):
            return u
    return None


@pytest.mark.parametrize("fam,rank", TABLE)
def test_made_vectors_read_their_labels_by_identity(fam, rank):
    # the datum's own vectors (roots, fundamental weights, from_labels and
    # rho) are Weights, equal to and hashed as a plain copy; the copy gets
    # the same labels and the same ValueError, as does each Weight read by a
    # second datum of the type
    gc.disable()
    try:
        datum, other = build_root_system(fam, rank), build_root_system(fam, rank)
        n = datum.rank
        half = (Q(1, 2),) + (0,) * (n - 1)
        made = [*datum.roots, *datum.fundamental_weights,
                datum.from_labels(tuple(range(1 - n, 1))),     # not dominant
                datum.from_labels((0,) * (n - 1) + (1,)),       # on BC, not a weight
                datum.from_labels(half),                        # non-integral labels
                datum.from_labels((Q(2),) * n),                 # integers as Fractions
                datum.rho(constant_multiplicities(datum, Q(2, 5)))]
        for v in made:
            copy = tuple(list(v))
            assert type(v) is Weight and type(copy) is tuple
            assert copy == v and hash(copy) == hash(v)
            assert pickle.loads(pickle.dumps(v)) == deepcopy(v) == copy
            for name in ("labels", "weight_labels", "dominant_labels"):
                want = _outcome(getattr(datum, name), copy)
                assert _outcome(getattr(datum, name), v) == want, (name, v)
                assert _outcome(getattr(other, name), v) == want, (name, v)
        # a Weight carries its labels; a copy's are read off its coordinates,
        # which enters no memo
        third = (Q(1, 3),) + (0,) * (n - 1)
        v = datum.from_labels(third)
        sizes = {name: len(memo) for name, memo in vars(datum).items() if isinstance(memo, dict)}
        assert datum.labels(v) is v.labels == third
        assert datum.labels(tuple(list(v))) == third
        assert {name: len(memo) for name, memo in vars(datum).items()
                if isinstance(memo, dict)} == sizes
        # non-weights are refused either way
        refused = [v, *([datum.fundamental_weights[-1]] if fam == "BC" else [])]
        off = _off_span(datum)
        if off is not None:
            refused.append(tuple(map(add, datum.fundamental_weights[0], off)))
        for v in refused:
            for w in (v, tuple(list(v))):
                message = f"{weight_str(w)} is not in the weight lattice of {datum}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    datum.weight_labels(w)
        # no Weight holds its datum: with its Weights alive, the datum is
        # freed by reference counting
        ref = weakref.ref(datum)
        del datum
        assert made and ref() is None
    finally:
        gc.enable()


def test_a_weight_read_by_another_type_gets_that_types_labels():
    # B3 and C3 share their realization but not their labels: a Weight B3
    # made reads on C3 as its plain copy does, by the Gram form, and leaves
    # its B3 labels and pairing row as they were
    b3, c3 = build_root_system("B", 3), build_root_system("C", 3)
    made = [*b3.roots, *b3.fundamental_weights, b3.rho(constant_multiplicities(b3, Q(2, 5)))]
    assert any(c3.labels(v) != b3.labels(v) for v in made)
    for v in made:
        copy, row = tuple(list(v)), b3.pairings(v)
        assert c3.labels(v) == c3.labels(copy) == tuple(
            2 * inner(c3, v, a) / inner(c3, a, a) for a in c3.simple_roots)
        assert c3.pairings(v) == c3.pairings(copy)
        # pairing looks v up among the C3 roots by its C3 labels, and
        # refuses v where it is no C3 root (the short e_i, the weights)
        if v in c3.roots:
            assert c3.pairing(v, v) == c3.pairing(copy, copy) == 2
        else:
            for alpha in (v, copy):
                with pytest.raises(ValueError, match="is not a root"):
                    c3.pairing(alpha, alpha)
        assert b3.labels(v) is v.labels and b3.pairings(v) is row == b3.pairings(copy)


def test_rational_spectral_points_leave_the_memos_bounded():
    # 500 rational spectral points on one B2 datum: a memo keyed by vector
    # or by the points' labels grows by about one entry a point (511 and 590
    # entries before Weights carried their labels); every dict on the datum
    # stays under 50 entries, and pairing rows are memoized under integer
    # labels only
    datum = build_root_system("B", 2)
    rng = random.Random(7)
    mults = sample_multiplicities(datum, rng)
    omega = datum.quasi_minuscule_weight()
    for _ in range(500):
        quasi_identity_value(datum, mults, omega, sample_spectral_point(datum, rng))
    sizes = {name: len(memo) for name, memo in vars(datum).items() if isinstance(memo, dict)}
    assert max(sizes.values()) < 50, sizes
    assert all(type(x) is int for l in datum._pairings for x in l)


def test_sampled_points_leave_the_vector_memo_as_it_was():
    # a sampled point is built by vector_of, outside the memo of from_labels
    # (which grew from 3 to 105 entries over 5,000 draws, one per integral
    # point): after one collapse check has built what the engines ask for,
    # 2,000 more draws and checks leave _vectors as they found it.  The
    # drawn Weight carries the labels from_labels would give it, and the
    # collapse check reads it as it is (its pairing row stays on it)
    datum = build_root_system("B", 2)
    rng = random.Random(7)
    mults = Multiplicities(datum, [Q(1, 3), Q(2, 5)])
    omega = datum.quasi_minuscule_weight()
    quasi_identity_value(datum, mults, omega, sample_spectral_point(datum, rng))
    before = dict(datum._vectors)
    for _ in range(2000):
        xi = sample_spectral_point(datum, rng)
        assert xi.labels == datum.labels(tuple(xi))
        quasi_identity_value(datum, mults, omega, xi)
        assert xi.row is not None
    assert datum._vectors == before


def test_sampled_points_leave_the_pairing_memo_as_it_was():
    # a sampled point carries the pairing row its pole test read, so that a
    # check at it writes no _pairings row (the memo grew from 2 to 104 rows
    # over 5,000 draws, one per integral point): 500 draws, each followed
    # by the half-sum identity, leave _pairings at its size before them.
    # Some of the draws are integral, and each row is the one the labels give
    datum = build_root_system("B", 2)
    rng = random.Random(7)
    mults = sample_multiplicities(datum, rng)
    omega = datum.quasi_minuscule_weight()
    quasi_identity_value(datum, mults, omega, sample_spectral_point(datum, rng))
    before, integral = dict(datum._pairings), 0
    for _ in range(500):
        xi = sample_spectral_point(datum, rng)
        integral += all(type(x) is int for x in xi.labels)
        assert xi.row == datum.label_pairings(tuple(map(Q, xi.labels)))
        quasi_identity_value(datum, mults, omega, xi)
    assert integral > 0
    assert datum._pairings == before


@pytest.mark.parametrize("fam,rank", [("B", 2), ("G", 2)])
def test_labels_refuse_a_vector_of_the_wrong_length(fam, rank):
    datum = build_root_system(fam, rank)
    with pytest.raises(ValueError, match=re.escape("(1/1,2/1,3/1) has 3 coordinates, not 2")):
        datum.labels((1, 2, 3))
