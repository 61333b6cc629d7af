"""Irreducible crystallographic root systems over exact rational realizations.

Weights are plain tuples of ``fractions.Fraction`` in the coordinates of a
fixed realization space.  Classical families (and the nonreduced family BC)
live in the orthonormal basis of R^n (R^{n+1} for type A); the exceptional
types use rational Gram matrices with long roots normalized to squared
length 2.

Inside, the combinatorics runs on Dynkin labels l = (<v, alpha_i^vee>)_i,
which are integer tuples for weights.  Three tables are built once per
datum: the Cartan rows (the labels of the simple roots), the labels of every
root, and every root's coroot coefficients c_i(alpha) = <omega_i, alpha^vee>.
Then <v, alpha^vee> = sum_i c_i l_i and s_alpha(l) = l - <v, alpha^vee>
labels(alpha).  Realization coordinates are rebuilt only where a weight
leaves the kernel.  Every pairing, reflection and orbit below is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from operator import mul

Vector = tuple[Q, ...]

REDUCED_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
FAMILIES = REDUCED_FAMILIES + ("BC",)


def vec(*coords) -> Vector:
    return tuple(Q(c) for c in coords)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c, u: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in u)


def vzero(dim: int) -> Vector:
    return (Q(0),) * dim


def _exact(x):
    """x as an int when it is integral, else unchanged (a Fraction)."""
    return x.numerator if x.denominator == 1 else x


def _step(l, k, row):
    """l - k * row: a reflection in label coordinates."""
    return tuple(a - k * b for a, b in zip(l, row))


def invert_rational_matrix(m):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(m)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _simple_roots(family: str, rank: int):
    """Simple roots, realization dimension and Gram matrix for a type."""
    if family == "A" and rank >= 1:
        dim = rank + 1
        simples = [tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0)
                         for k in range(dim)) for i in range(rank)]
        return dim, None, simples
    if family in ("B", "BC") and (rank >= 2 or (family == "BC" and rank >= 1)):
        dim = rank
        simples = [tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0)
                         for k in range(dim)) for i in range(rank - 1)]
        simples.append(tuple(Q(1) if k == rank - 1 else Q(0) for k in range(dim)))
        return dim, None, simples
    if family == "C" and rank >= 2:
        dim = rank
        simples = [tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0)
                         for k in range(dim)) for i in range(rank - 1)]
        simples.append(tuple(Q(2) if k == rank - 1 else Q(0) for k in range(dim)))
        return dim, None, simples
    if family == "D" and rank >= 3:
        dim = rank
        simples = [tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0)
                         for k in range(dim)) for i in range(rank - 1)]
        simples.append(tuple(Q(1) if k in (rank - 2, rank - 1) else Q(0)
                             for k in range(dim)))
        return dim, None, simples
    if family == "E" and rank in (6, 7, 8):
        dim = 8
        a1 = tuple([Q(1, 2)] + [Q(-1, 2)] * 6 + [Q(1, 2)])
        a2 = vec(1, 1, 0, 0, 0, 0, 0, 0)
        simples = [a1, a2]
        for i in range(rank - 2):
            simples.append(tuple(Q(-1) if k == i else Q(1) if k == i + 1 else Q(0)
                                 for k in range(dim)))
        return dim, None, simples
    if family == "F" and rank == 4:
        simples = [vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(0, 0, 0, 1),
                   tuple([Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)])]
        return 4, None, simples
    if family == "G" and rank == 2:
        # Simple-root coordinates; Gram fixes |long|^2 = 2, |short|^2 = 2/3.
        gram = [[Q(2, 3), Q(-1)], [Q(-1), Q(2)]]
        return 2, gram, [vec(1, 0), vec(0, 1)]
    raise ValueError(f"invalid family/rank combination: {family}_{rank}")


class RootDatum:
    """A realized irreducible root system with its Weyl combinatorics.

    The roots and the label tables are fixed at construction.  Results per
    vector (labels, pairings, orbits, stabilizers, validated weights) are
    memoized on the instance the first time they are asked for.  Each entry
    is a pure function of its key, so threads sharing an instance can at
    worst compute an entry twice.
    """

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        dim, gram, simples = _simple_roots(family, rank)
        self.family = family
        self.rank = rank
        self.dim = dim
        self.gram = tuple(tuple(row) for row in gram) if gram is not None else None
        self.simple_roots: tuple[Vector, ...] = tuple(simples)

        self._norm_cache: dict[Vector, Q] = {}
        self._coroot_cache: dict[Vector, Vector] = {}

        cartan = [[self.pairing(a, b) for b in simples] for a in simples]
        if any(x.denominator != 1 for row in cartan for x in row):
            raise ValueError("simple roots are not crystallographic")
        # cartan[i] = labels of alpha_i
        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(x.numerator for x in row) for row in cartan)
        self._cartan_inv = invert_rational_matrix(cartan)

        # roots as simple-root coefficient vectors n, alpha = sum_k n_k alpha_k
        coeffs = self._simple_root_closure()
        if family == "BC":
            short = min(self.norm_sq(self._from_simple(n)) for n in coeffs)
            coeffs |= {tuple(2 * x for x in n) for n in coeffs
                       if self.norm_sq(self._from_simple(n)) == short}
        by_root = {self._from_simple(n): n for n in coeffs}
        self.roots: tuple[Vector, ...] = tuple(sorted(by_root))
        self.root_index: dict[Vector, int] = {a: i for i, a in enumerate(self.roots)}
        self.positive_indices: tuple[int, ...] = tuple(
            i for i, a in enumerate(self.roots) if min(by_root[a]) >= 0)
        self.positive_roots: tuple[Vector, ...] = tuple(
            self.roots[i] for i in self.positive_indices)
        self._positive_set = frozenset(self.positive_roots)
        if 2 * len(self.positive_roots) != len(self.roots):
            raise ValueError("positive system does not split the roots evenly")

        self.root_labels: tuple[tuple[int, ...], ...] = tuple(
            tuple(sum(n[k] * self.cartan[k][j] for k in range(rank))
                  for j in range(rank))
            for n in map(by_root.__getitem__, self.roots))
        # alpha^vee = sum_k n_k (|alpha_k|^2 / |alpha|^2) alpha_k^vee
        self.coroot_coefficients: tuple[tuple, ...] = tuple(
            tuple(_exact(by_root[a][k] * self.norm_sq(simples[k]) / self.norm_sq(a))
                  for k in range(rank))
            for a in self.roots)
        self._integral_coroots = all(isinstance(c, int)
                                     for row in self.coroot_coefficients for c in row)

        # omega_i = sum_k (cartan^{-1})[i][k] alpha_k
        fund = []
        for i in range(rank):
            w = vzero(dim)
            for k in range(rank):
                w = vadd(w, vscale(self._cartan_inv[i][k], self.simple_roots[k]))
            fund.append(w)
        self.fundamental_weights: tuple[Vector, ...] = tuple(fund)
        for i in range(rank):
            for j in range(rank):
                if self.pairing(fund[i], self.simple_roots[j]) != (1 if i == j else 0):
                    raise ValueError("fundamental weights failed duality check")
        # from_labels: coordinate d is sum_i l_i * _fund_rows[d][i] / _fund_den
        self._fund_den = math.lcm(*(x.denominator for w in fund for x in w))
        self._fund_rows = tuple(tuple((x * self._fund_den).numerator for x in col)
                                for col in zip(*fund))
        # <omega_i, omega_j> = (cartan^{-1})[j][i] |alpha_i|^2 / 2, held as
        # weight_gram[i][j] / weight_gram_den, so <v, v> = l G l / den on labels
        gram_w = [[self._cartan_inv[j][i] * self.norm_sq(simples[i]) / 2
                   for j in range(rank)] for i in range(rank)]
        self.weight_gram_den = math.lcm(*(x.denominator for row in gram_w for x in row))
        self.weight_gram: tuple[tuple[int, ...], ...] = tuple(
            tuple((x * self.weight_gram_den).numerator for x in row) for row in gram_w)

        self._labels: dict[Vector, tuple] = {}
        self._vectors: dict[tuple, Vector] = {}
        self._pairings: dict[Vector, tuple] = {}
        self._weights: dict[Vector, tuple] = {}
        self._orbits: dict[Vector, tuple[Vector, ...]] = {}
        self._stabilizers: dict[Vector, tuple[Vector, ...]] = {}

        self.root_orbits: tuple[tuple[Vector, ...], ...] = self._compute_root_orbits()
        self._orbit_index = {a: i for i, orb in enumerate(self.root_orbits) for a in orb}
        self.root_orbit_ids: tuple[int, ...] = tuple(
            self._orbit_index[a] for a in self.roots)

        self._weyl_order_memo: dict[frozenset, int] = {}
        self._sat_label_cache: dict[Vector, dict[tuple, tuple]] = {}
        self._dominant_below_cache: dict[Vector, tuple[Vector, ...]] = {}

    # -- bilinear form ------------------------------------------------------

    def inner(self, u: Vector, v: Vector) -> Q:
        if self.gram is None:
            return sum(a * b for a, b in zip(u, v, strict=True))
        return sum(u[i] * self.gram[i][j] * v[j]
                   for i in range(self.dim) for j in range(self.dim))

    def norm_sq(self, alpha: Vector) -> Q:
        val = self._norm_cache.get(alpha)
        if val is None:
            val = self.inner(alpha, alpha)
            self._norm_cache[alpha] = val
        return val

    def coroot(self, alpha: Vector) -> Vector:
        cv = self._coroot_cache.get(alpha)
        if cv is None:
            cv = vscale(Q(2) / self.norm_sq(alpha), alpha)
            self._coroot_cache[alpha] = cv
        return cv

    def pairing(self, v: Vector, alpha: Vector) -> Q:
        """<v, alpha^vee> = 2 <v, alpha> / <alpha, alpha>, the Gram form.

        Exact for any two vectors of the realization; the label kernel is
        built from it and entered through it (``labels``).
        """
        return 2 * self.inner(v, alpha) / self.norm_sq(alpha)

    def reflect(self, v: Vector, alpha: Vector) -> Vector:
        return vsub(v, vscale(self.pairing(v, alpha), alpha))

    def simple_reflect(self, i: int, v: Vector) -> Vector:
        return self.reflect(v, self.simple_roots[i])

    # -- the label kernel -----------------------------------------------------

    def labels(self, v: Vector) -> tuple:
        """Dynkin labels (<v, alpha_i^vee>)_i, ints where integral (memoized)."""
        l = self._labels.get(v)
        if l is None:
            l = tuple(_exact(self.pairing(v, a)) for a in self.simple_roots)
            self._labels[v] = l
        return l

    def from_labels(self, l: tuple) -> Vector:
        """The vector sum_i l_i omega_i of the root span (memoized)."""
        v = self._vectors.get(l)
        if v is None:
            den = self._fund_den
            v = tuple(Q(sum(map(mul, row, l)), den) for row in self._fund_rows)
            self._vectors[l] = v
            self._labels.setdefault(v, tuple(map(_exact, l)))
        return v

    def _label_pairings(self, l: tuple) -> tuple:
        return tuple(_exact(sum(map(mul, c, l))) for c in self.coroot_coefficients)

    def pairings(self, v: Vector) -> tuple:
        """<v, alpha^vee> for every root, in the order of ``roots`` (memoized)."""
        p = self._pairings.get(v)
        if p is None:
            p = self._pairings[v] = self._label_pairings(self.labels(v))
        return p

    def _orbit_labels(self, gens, l: tuple) -> set:
        """Label orbit of l under the reflections in the roots indexed by gens."""
        tables = [(self.coroot_coefficients[i], self.root_labels[i]) for i in gens]
        seen = {l}
        stack = [l]
        while stack:
            u = stack.pop()
            for c, row in tables:
                k = _exact(sum(map(mul, c, u)))
                if k:
                    w = _step(u, k, row)
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return seen

    def _dominant_orbit(self, top: tuple) -> set:
        """W-orbit of dominant labels: descend by the simple reflections at
        positive labels, which reaches every element (as in LiE)."""
        seen = {top}
        stack = [top]
        while stack:
            u = stack.pop()
            for k, row in zip(u, self.cartan):
                if k > 0:
                    w = _step(u, k, row)
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return seen

    def _dominant_labels(self, l: tuple):
        """Greedy reflection at the least simple root with a negative label."""
        steps = []
        while True:
            i = next((i for i, k in enumerate(l) if k < 0), None)
            if i is None:
                return l, steps
            l = _step(l, l[i], self.cartan[i])
            steps.append(i)

    # -- construction helpers ----------------------------------------------

    def _from_simple(self, n) -> Vector:
        return tuple(sum((c * a[d] for c, a in zip(n, self.simple_roots)), Q(0))
                     for d in range(self.dim))

    def _simple_root_closure(self) -> set:
        """Simple-root coefficients of the reduced roots: the simple roots
        closed under s_j(n) = n - <alpha(n), alpha_j^vee> e_j."""
        rank = self.rank
        seeds = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for n in frontier:
                for j in range(rank):
                    k = sum(n[i] * self.cartan[i][j] for i in range(rank))
                    m = n[:j] + (n[j] - k,) + n[j + 1:]
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
            frontier = nxt
        return seen

    def _compute_root_orbits(self):
        simple = [self.root_index[a] for a in self.simple_roots]
        by_labels = {l: i for i, l in enumerate(self.root_labels)}
        remaining = set(range(len(self.roots)))
        orbits = []
        while remaining:
            seed = min(remaining)
            orb = {by_labels[l] for l in self._orbit_labels(simple, self.root_labels[seed])}
            orbits.append(tuple(self.roots[i] for i in sorted(orb)))
            remaining -= orb
        # canonical order: by dominant representative of each orbit
        orbits.sort(key=lambda orb: self.dominant_representative(orb[0])[0])
        return tuple(orbits)

    def orbit_representatives(self) -> tuple[Vector, ...]:
        """Dominant representative of each root orbit, in canonical order."""
        return tuple(self.dominant_representative(orb[0])[0] for orb in self.root_orbits)

    def orbit_index(self, alpha: Vector) -> int:
        return self._orbit_index[alpha]

    # -- lattice membership --------------------------------------------------

    def simple_coefficients(self, v: Vector):
        """Coordinates of v in the simple-root basis, or None if v is off-span."""
        l = self.labels(v)
        if self.from_labels(l) != v:
            return None
        return tuple(sum((l[j] * self._cartan_inv[j][k] for j in range(self.rank)), Q(0))
                     for k in range(self.rank))

    def is_weight(self, v: Vector) -> bool:
        l = self.labels(v)
        if self.from_labels(l) != v:
            return False
        pairs = l if self._integral_coroots else self.pairings(v)
        return all(isinstance(x, int) for x in pairs)

    def _weight(self, v: Vector):
        """(v with Fraction entries, its labels); ValueError off the lattice."""
        v = tuple(v)
        entry = self._weights.get(v)
        if entry is None:
            w = tuple(Q(x) for x in v)
            if not self.is_weight(w):
                raise ValueError(f"{w} is not in the weight lattice of {self}")
            entry = self._weights[w] = (w, self.labels(w))
        return entry

    def check_weight(self, v: Vector) -> Vector:
        return self._weight(v)[0]

    def weight_labels(self, v: Vector) -> tuple:
        """Labels of a weight; ValueError if v is not in the weight lattice."""
        return self._weight(v)[1]

    def height(self, v: Vector) -> Q:
        """Sum of simple-root coordinates of v."""
        c = self.simple_coefficients(v)
        if c is None:
            raise ValueError("vector is not in the root span")
        return sum(c)

    def is_dominant(self, v: Vector) -> bool:
        return all(x >= 0 for x in self.labels(v))

    def check_dominant(self, v: Vector) -> Vector:
        v = self.check_weight(v)
        if not self.is_dominant(v):
            raise ValueError(f"{v} is not dominant")
        return v

    def weight_from_fundamental(self, coeffs) -> Vector:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.rank:
            raise ValueError(f"need {self.rank} fundamental coefficients")
        return self.from_labels(coeffs)

    # -- Weyl group actions ---------------------------------------------------

    def weyl_orbit(self, v: Vector) -> tuple[Vector, ...]:
        """Full W-orbit of a weight, sorted (memoized)."""
        v, l = self._weight(v)
        orbit = self._orbits.get(v)
        if orbit is None:
            top, _ = self._dominant_labels(l)
            orbit = tuple(sorted(map(self.from_labels, self._dominant_orbit(top))))
            self._orbits[v] = orbit
        return orbit

    def orbit_under_reflections(self, gen_roots, v: Vector) -> tuple[Vector, ...]:
        """Orbit of v (in the root span) under the reflections in gen_roots."""
        gens = [self.root_index[a] for a in gen_roots]
        return tuple(sorted(map(self.from_labels, self._orbit_labels(gens, self.labels(v)))))

    def apply_word(self, word, v: Vector) -> Vector:
        """Act by the word [i1,...,im] = s_{i1} s_{i2} ... s_{im} (rightmost first)."""
        l = self.labels(v)
        for i in reversed(word):
            l = _step(l, l[i], self.cartan[i])
        return self.from_labels(l)

    def dominant_representative(self, v: Vector):
        """(v+, word for the shortest w with w(v) = v+ dominant), v in the span.

        Greedy reflection at the least simple root with negative pairing; the
        step count is the length of the minimal element (checked by brute
        force in the test suite for small groups).
        """
        l, steps = self._dominant_labels(self.labels(v))
        return self.from_labels(l), tuple(reversed(steps))

    @staticmethod
    def inverse_word(word):
        return tuple(reversed(word))

    def stabilizer_roots(self, v: Vector) -> tuple[Vector, ...]:
        """R_v: the roots orthogonal to v (they generate the stabilizer W_v)."""
        stab = self._stabilizers.get(v)
        if stab is None:
            stab = self._stabilizers[v] = tuple(
                a for a, k in zip(self.roots, self.pairings(v)) if k == 0)
        return stab

    def stabilizer_orbit(self, v: Vector, eta: Vector) -> tuple[Vector, ...]:
        """Orbit W_v(eta) of eta under the stabilizer of v."""
        gens = [a for a in self.stabilizer_roots(v) if a in self._positive_set]
        return self.orbit_under_reflections(gens, eta)

    def weyl_order(self) -> int:
        """|W| by recursive orbit-stabilizer on roots.

        |W'| = |orbit of a root| * |stabilizer|, the stabilizer of a vector
        being generated by the reflections fixing it; recursion bottoms out
        on the empty subsystem.
        """
        return self._subsystem_order(frozenset(range(len(self.roots))))

    def _subsystem_order(self, roots: frozenset) -> int:
        """Order of the group generated by the roots with these indices."""
        if not roots:
            return 1
        memo = self._weyl_order_memo
        if roots in memo:
            return memo[roots]
        beta = min(roots)
        orbit = self._orbit_labels(sorted(roots), self.root_labels[beta])
        pairs = self._label_pairings(self.root_labels[beta])
        stab = frozenset(g for g in roots if pairs[g] == 0)
        val = len(orbit) * self._subsystem_order(stab)
        memo[roots] = val
        return val

    # -- dominance order and saturated sets -----------------------------------

    def dominance_leq(self, mu: Vector, lam: Vector) -> bool:
        """mu <= lam in dominance order: lam - mu in Q+ (dominant inputs)."""
        mu = self.check_dominant(mu)
        lam = self.check_dominant(lam)
        return self._in_q_plus(vsub(lam, mu))

    def _in_q_plus(self, v: Vector) -> bool:
        c = self.simple_coefficients(v)
        return c is not None and all(x >= 0 and x.denominator == 1 for x in c)

    def dominant_below(self, lam: Vector) -> tuple[Vector, ...]:
        """All dominant mu <= lam, lexicographically sorted."""
        lam = self.check_dominant(lam)
        cached = self._dominant_below_cache.get(lam)
        if cached is not None:
            return cached
        top = self.labels(lam)
        ranges = [range(int(b) + 1) for b in self.simple_coefficients(lam)]
        found = []
        for ks in itertools.product(*ranges):
            mu = tuple(x - sum(k * row[j] for k, row in zip(ks, self.cartan))
                       for j, x in enumerate(top))
            if min(mu) >= 0:
                found.append(self.from_labels(mu))
        result = tuple(sorted(found))
        self._dominant_below_cache[lam] = result
        return result

    def saturated_map(self, lam: Vector) -> dict[Vector, Vector]:
        """P(lam) as a map orbit element -> its dominant representative."""
        return {self.from_labels(l): self.from_labels(m)
                for l, m in self.saturated_label_map(lam).items()}

    def saturated_label_map(self, lam: Vector) -> dict[tuple, tuple]:
        """P(lam) as a map from the labels of an element to the labels of its
        dominant representative, memoized."""
        lam = self.check_dominant(lam)
        cached = self._sat_label_cache.get(lam)
        if cached is None:
            cached = {l: m for m in map(self.labels, self.dominant_below(lam))
                      for l in self._dominant_orbit(m)}
            self._sat_label_cache[lam] = cached
        return cached

    def saturated_set(self, lam: Vector) -> tuple[Vector, ...]:
        return tuple(sorted(self.saturated_map(lam)))

    # -- small weights ---------------------------------------------------------

    def _positive_pairings(self, omega: Vector):
        p = self.pairings(omega)
        return (p[i] for i in self.positive_indices)

    def is_small(self, omega: Vector) -> bool:
        """All pairings with positive coroots at most 2."""
        omega = self.check_dominant(omega)
        return all(k <= 2 for k in self._positive_pairings(omega))

    def is_minuscule(self, omega: Vector) -> bool:
        omega = self.check_dominant(omega)
        return all(k <= 1 for k in self._positive_pairings(omega))

    def is_quasi_minuscule(self, omega: Vector) -> bool:
        omega = self.check_dominant(omega)
        j = self.root_index.get(omega)
        if j is None:
            return False
        p = self.pairings(omega)
        return all(p[i] <= 1 for i in self.positive_indices if i != j)

    def small_fundamental_weights(self) -> tuple[Vector, ...]:
        return tuple(w for w in self.fundamental_weights if self.is_small(w))

    def small_dominant_weights(self, include_zero: bool = False) -> tuple[Vector, ...]:
        """All small dominant weights (finite: fundamental pairings <= 2)."""
        out = []
        for ms in itertools.product(range(3), repeat=self.rank):
            w = self.weight_from_fundamental(ms)
            if not include_zero and not any(ms):
                continue
            if self.is_small(w):
                out.append(w)
        return tuple(sorted(out))

    def quasi_minuscule_weight(self) -> Vector:
        """The dominant root with all other pairings at most 1."""
        for a in self.positive_roots:
            if self.is_dominant(a) and self.is_quasi_minuscule(a):
                return a
        raise ValueError("no quasi-minuscule weight found")

    def dominant_weights_up_to_height(self, bound) -> tuple[Vector, ...]:
        """Dominant weights whose simple-root height is <= bound."""
        bound = Q(bound)
        heights = [self.height(w) for w in self.fundamental_weights]
        out = []

        def rec(i, acc, h):
            if i == self.rank:
                out.append(self.weight_from_fundamental(acc))
                return
            m = 0
            while h + m * heights[i] <= bound:
                rec(i + 1, acc + [m], h + m * heights[i])
                m += 1

        rec(0, [], Q(0))
        return tuple(sorted(out))

    # -- rho vectors -----------------------------------------------------------

    def half_weighted_sum(self, weight_of_root) -> Vector:
        """(1/2) sum over positive roots of weight(alpha) * alpha."""
        acc = vzero(self.dim)
        for a in self.positive_roots:
            acc = vadd(acc, vscale(weight_of_root(a), a))
        return vscale(Q(1, 2), acc)

    def rho(self, mults: "Multiplicities") -> Vector:
        """rho_g = (1/2) sum_{alpha > 0} g_alpha alpha, memoized on mults."""
        if mults._rho is None:
            mults._rho = self.half_weighted_sum(mults.of)
        return mults._rho

    def rho_vee(self) -> Vector:
        """rho^vee = (1/2) sum_{alpha > 0} alpha^vee."""
        acc = vzero(self.dim)
        for a in self.positive_roots:
            acc = vadd(acc, self.coroot(a))
        return vscale(Q(1, 2), acc)

    def __repr__(self):
        return f"RootDatum({self.family}{self.rank})"


class Multiplicities:
    """Orbit-constant root multiplicities g_alpha > 0 (exact or float).

    ``root_values`` holds one value per root in ``datum.roots`` order.
    """

    def __init__(self, datum: RootDatum, values):
        values = tuple(values)
        if len(values) != len(datum.root_orbits):
            raise ValueError(f"expected {len(datum.root_orbits)} orbit values, "
                             f"got {len(values)}")
        if not all(v > 0 for v in values):
            raise ValueError("multiplicities must be positive")
        self.datum = datum
        self.values = values
        self.root_values = tuple(values[i] for i in datum.root_orbit_ids)
        self._rho = None

    @classmethod
    def constant(cls, datum: RootDatum, g):
        return cls(datum, [g] * len(datum.root_orbits))

    @classmethod
    def by_representative(cls, datum: RootDatum, mapping):
        """Build from {dominant orbit representative: value}."""
        reps = datum.orbit_representatives()
        if set(mapping) != set(reps):
            raise ValueError(f"need one value per orbit representative {reps}")
        return cls(datum, [mapping[r] for r in reps])

    def of(self, alpha: Vector):
        return self.values[self.datum.orbit_index(alpha)]

    def key(self):
        return tuple(self.values)

    def __eq__(self, other):
        return (isinstance(other, Multiplicities)
                and self.datum is other.datum and self.values == other.values)

    def __hash__(self):
        return hash((id(self.datum), self.values))

    def __repr__(self):
        return f"Multiplicities({self.values})"


def build_root_system(family: str, rank: int) -> RootDatum:
    """Construct the realized irreducible system of the given type."""
    return RootDatum(family, int(rank))
