"""Irreducible crystallographic root systems over exact rational realizations.

Weights are plain tuples of ``fractions.Fraction`` in the coordinates of a
fixed realization space.  Classical families (and the nonreduced family BC)
live in the orthonormal basis of R^n (R^{n+1} for type A); the exceptional
types use rational Gram matrices with long roots normalized to squared
length 2.

Inside, the combinatorics runs on Dynkin labels l = (<v, alpha_i^vee>)_i,
which are integer tuples for weights.  Four tables are built once per
datum: the Cartan rows (the labels of the simple roots), the labels of every
root, every root's coroot coefficients c_i(alpha) = <omega_i, alpha^vee>, and
per simple reflection the permutation of the roots (``root_perms``).  Then
<v, alpha^vee> = sum_i c_i l_i and s_alpha(l) = l - <v, alpha^vee>
labels(alpha).  A W-stable label set S gets a ``string_table``: its
alpha-strings and, for the W-invariance check of ``weylalg.apply_L``, per
simple reflection a permutation of S, both found on packed integer codes.
A vector the datum made is a ``Weight``, a tuple carrying its labels, its
type's name (which alone fixes them) and, once read, its pairing row; any
other vector gets its labels from integer rows, unmemoized.  Every memo of
a datum is keyed by integer labels, and the exact engines (``jacobi``,
``diffeq``, ``nonreduced``) carry weights as labels too, down to rho_g
(``rho``).  Realization coordinates are rebuilt (``from_labels``)
only where a weight leaves them: the public API, reports, polynomial cache
keys, sampled points.  Every pairing, reflection and orbit below is exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from functools import partial
from operator import mul

Vector = tuple[Q, ...]
StringTable = namedtuple("StringTable", "index quad perms tops bottoms ends own mids strings")
SampleRecord = namedtuple("SampleRecord", "d rows n weights lap r rho2")   # ``sample_record``

REDUCED_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
FAMILIES = REDUCED_FAMILIES + ("BC",)


def vec(*coords) -> Vector:
    return tuple(Q(c) for c in coords)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def _q_str(c: Q) -> str:
    return f"{c.numerator}/{c.denominator}"


def weight_str(v) -> str:
    """A weight of ints and Fractions as (p/q,...), as case names and errors print it."""
    return "(" + ",".join(map(_q_str, v)) + ")"


def _exact(x):
    """x as an int when it is integral, else unchanged (a Fraction)."""
    return x.numerator if x.denominator == 1 else x


def _integral(l) -> bool:
    """Every entry is an int (labels and pairings are normalized by _exact)."""
    return all(type(x) is int for x in l)


def _step(l, k, row):
    """l - k * row: a reflection in label coordinates."""
    return tuple(a - k * b for a, b in zip(l, row))


def _label_code(labels, rows):
    """The code l -> sum_i l_i B^i, B = 2 (max |label| + max |row entry|) + 1,
    distinct on labels and labels plus a row; l - j row codes as c - j code(row)."""
    b = 2 * (max((abs(x) for l in labels for x in l), default=0)
             + max(abs(x) for row in rows for x in row)) + 1
    powers = [b ** i for i in range(len(rows[0]))]
    return lambda l: sum(map(mul, powers, l))


def _integer_inverse(m):
    """(d, rows) with m^{-1} = rows / d, for an invertible integer matrix m:
    Gauss-Jordan on integer rows, each divided by its content."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                row = [p[col] * x - aug[r][col] * y for x, y in zip(aug[r], p)]
                c = math.gcd(*row)
                aug[r] = [x // c for x in row]
    d = math.lcm(*(row[i] for i, row in enumerate(aug)))
    return d, [[x * (d // row[i]) for x in row[n:]] for i, row in enumerate(aug)]


class Weight(tuple):
    """A vector a datum made, equal to and hashed as the plain tuple: it holds
    its labels, its type's name ``kind`` (the labels depend on it alone) and,
    once ``RootDatum.pairings`` reads it, its pairing ``row``; no datum."""

    def __new__(cls, coords, kind: str, labels: tuple):
        w = super().__new__(cls, coords)
        w.kind, w.labels, w.row = kind, labels, None
        return w

    def __reduce__(self):   # pickled and copied as the plain tuple
        return tuple, (tuple(self),)


def _combine(rows, den: int, kind: str, l: tuple) -> Weight:
    return Weight((Q(sum(map(mul, row, l)), den) for row in rows), kind, l)


def _reduced(den: int, rows):
    """rows / den over the lcm of its reduced denominators: (lcm, numerators)."""
    g = math.gcd(den, *(x for row in rows for x in row))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


def _chain(count: int, dim: int) -> list:
    """The roots e_i - e_{i+1}, i < count, of R^dim."""
    return [tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0)
                  for k in range(dim)) for i in range(count)]


def _simple_roots(family: str, rank: int):
    """Simple roots, realization dimension and Gram matrix for a type."""
    if family == "A" and rank >= 1:
        return rank + 1, None, _chain(rank, rank + 1)
    if family in ("B", "BC") and (rank >= 2 or (family == "BC" and rank >= 1)):
        last = tuple(Q(1) if k == rank - 1 else Q(0) for k in range(rank))
        return rank, None, _chain(rank - 1, rank) + [last]
    if family == "C" and rank >= 2:
        last = tuple(Q(2) if k == rank - 1 else Q(0) for k in range(rank))
        return rank, None, _chain(rank - 1, rank) + [last]
    if family == "D" and rank >= 3:
        last = tuple(Q(1) if k in (rank - 2, rank - 1) else Q(0) for k in range(rank))
        return rank, None, _chain(rank - 1, rank) + [last]
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

    The roots and the label tables are fixed at construction, from integer rows
    over one denominator (the Cartan matrix, its inverse and the duality check
    of the fundamental weights included), and so is ``root_perms``, from which
    the Pieri index carries its factor lists down the Weyl descent, and
    |alpha|^2 per root and per root orbit (``root_norms``, ``orbit_norms``).
    One label descent (``_dominant_orbit``) finds every Weyl and parabolic
    orbit and |W| (``weyl_order``); one greedy descent (``_greedy``) finds a
    label's dominant element and word; one bounded scan of labels finds the
    small weights and the weights up to a height, and ``small_labels`` alone
    refuses a weight that is not small.  Results are memoized when asked, under
    integer labels: the vectors and pairing rows of weights, the orbit memo
    (``orbit_labels``, each dominant label's W-orbit walked once and shared,
    ``weyl_orbit`` sorting it per call, and each ``parabolic_orbit``),
    dominance intervals, saturated maps, their alpha-string tables, Jacobi
    recursion patterns (``jacobi_memo``), and for a small weight omega its
    Pieri index and E_omega on labels (``index_memo``, ``expansion_label_memo``,
    BC's included), and the confluent limit's etas (``eta_memo``).  The memos live and
    die with the datum; each entry is a pure function of its key, so threads
    sharing an instance can at worst compute it twice.  rho_g and the integers
    of the exact checks are kept once per sample, on ``Multiplicities``.
    """

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        dim, gram, simples = _simple_roots(family, rank)
        self.family = family
        self.rank = rank
        self.name = f"{family}{rank}"
        self.dim = dim
        self.gram = tuple(tuple(row) for row in gram) if gram is not None else None
        self.simple_roots: tuple[Vector, ...] = tuple(simples)

        # the simple roots as integer rows over den and their images under
        # the Gram form over gden: den^2 gden <alpha_i, alpha_j> = ip[i][j]
        den = math.lcm(*(x.denominator for a in simples for x in a))
        rows = [[(x * den).numerator for x in a] for a in simples]
        gden = 1 if gram is None else math.lcm(*(x.denominator for r in gram for x in r))
        gint = ([[int(i == j) for j in range(dim)] for i in range(dim)] if gram is None
                else [[(x * gden).numerator for x in r] for r in gram])
        forms = [[sum(map(mul, a, col)) for col in zip(*gint)] for a in rows]
        ip = [[sum(map(mul, a, f)) for f in forms] for a in rows]
        snum, sden = [ip[k][k] for k in range(rank)], den * den * gden
        # labels(v)_i = sum_d v_d row_i[d] / snum_i with row_i = 2 den forms[i]
        self._label_rows = tuple((tuple(2 * den * x for x in f), n) for f, n in zip(forms, snum))
        if any(2 * x % n for row in ip for x, n in zip(row, snum)):
            raise ValueError("simple roots are not crystallographic")
        # cartan[i] = labels of alpha_i
        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(2 * x // n for x, n in zip(row, snum)) for row in ip)
        # cartan^{-1} = cinv / cden.  height(v) = sum_i l_i height_row[i] /
        # height_den on labels: the row sums of cartan^{-1} are the heights
        # of the fundamental weights
        cden, cinv = _integer_inverse(self.cartan)
        self.height_den, (self.height_row,) = _reduced(cden, [[sum(r) for r in cinv]])

        # vector coordinate d of sum_k n_k alpha_k is
        # sum_k n_k _simple_rows[d][k] / den
        self._simple_rows = tuple(zip(*rows))
        # omega_i = sum_k (cartan^{-1})[i][k] alpha_k = w[i] / (cden den),
        # checked on integers: <omega_i, alpha_j^vee> = 2 w[i].forms[j]
        # / (cden snum_j) must be 1 if i = j, else 0
        w = [[sum(map(mul, c, col)) for col in self._simple_rows] for c in cinv]
        if any(2 * sum(map(mul, wi, forms[j])) != (i == j) * cden * snum[j]
               for i, wi in enumerate(w) for j in range(rank)):
            raise ValueError("fundamental weights failed duality check")

        self._walks: dict[tuple, dict] = {}   # the orbit memo, parabolic orbits too
        # the reduced roots are the W-orbits of the simple roots, found by
        # descent from their dominant elements and keyed by their simple-root
        # coefficients n = l cartan^{-1}, alpha = sum_k n_k alpha_k.  With
        # |alpha_k|^2 = snum_k / sden and <alpha_k, alpha> = l_k |alpha_k|^2 / 2,
        # the integer t(n) = sum_k n_k l_k snum_k is 2 sden |alpha|^2
        label_of = {tuple(sum(map(mul, l, col)) // cden for col in zip(*cinv)): l
                    for top in dict.fromkeys(self._greedy(row, {})[0] for row in self.cartan)
                    for l in self.orbit_labels(top)}
        twice_of = {n: sum(map(mul, map(mul, n, l), snum)) for n, l in label_of.items()}
        if family == "BC":
            short = min(twice_of.values())
            for n in [n for n, t in twice_of.items() if t == short]:
                m = tuple(2 * k for k in n)
                label_of[m] = tuple(2 * k for k in label_of[n])
                twice_of[m] = 4 * short
        # the integer numerators of the coordinates order the roots as
        # their vectors
        nums = {n: tuple(sum(map(mul, row, n)) for row in self._simple_rows)
                for n in label_of}
        order = sorted(label_of, key=nums.__getitem__)
        coord = {x: Q(x, den) for n in order for x in nums[n]}
        self.roots: tuple[Weight, ...] = tuple(
            Weight(map(coord.__getitem__, nums[n]), self.name, label_of[n]) for n in order)
        self.root_labels: tuple[tuple[int, ...], ...] = tuple(map(label_of.get, order))
        # root_perms[j][r] is the index of s_j alpha_r, so that
        # <s_j u, alpha_r^vee> = <u, alpha_{root_perms[j][r]}^vee>
        self._label_roots = index = {l: i for i, l in enumerate(self.root_labels)}
        self.root_perms: tuple[tuple[int, ...], ...] = tuple(
            tuple(index[_step(l, l[j], row)] for l in self.root_labels)
            for j, row in enumerate(self.cartan))
        twice = tuple(map(twice_of.get, order))
        # |alpha|^2 per root, read by index
        self.root_norms: tuple[Q, ...] = tuple(Q(t, 2 * sden) for t in twice)
        self.positive_indices: tuple[int, ...] = tuple(
            i for i, n in enumerate(order) if min(n) >= 0)
        self.positive_roots: tuple[Vector, ...] = tuple(
            self.roots[i] for i in self.positive_indices)
        # index of alpha/2 per root; None unless alpha is a doubled root of BC
        doubles = {tuple(2 * x for x in l): i for i, l in enumerate(self.root_labels)}
        self.half_root_index: tuple = tuple(map(doubles.get, self.root_labels))
        if 2 * len(self.positive_roots) != len(self.roots):
            raise ValueError("positive system does not split the roots evenly")
        # alpha^vee = sum_k c_k alpha_k^vee, c_k = n_k |alpha_k|^2 / |alpha|^2
        # = 2 n_k snum_k / t(n)
        self.coroot_coefficients: tuple[tuple, ...] = tuple(
            tuple(_exact(Q(2 * k * s, t)) for k, s in zip(n, snum))
            for n, t in zip(order, twice))
        self._integral_coroots = all(isinstance(c, int)
                                     for row in self.coroot_coefficients for c in row)
        # the coroot coefficients of the highest coroot, which bound those of
        # every positive coroot: <v, alpha^vee> <= top_coroot . l for v
        # dominant with labels l (``small_labels``, ``small_dominant_weights``)
        self._top_coroot = max(
            (self.coroot_coefficients[i] for i in self.positive_indices), key=sum)

        # from_labels: coordinate d is sum_i l_i * _fund_rows[d][i] / _fund_den,
        # by vector_of (no memo), which holds them and the name, not the datum
        self._fund_den, self._fund_rows = _reduced(cden * den, list(zip(*w)))
        self.vector_of = partial(_combine, self._fund_rows, self._fund_den, self.name)
        # <omega_i, omega_j> = (cartan^{-1})[j][i] |alpha_i|^2 / 2, held as
        # weight_gram[i][j] / weight_gram_den, so <v, v> = l G l / den on labels
        self.weight_gram_den, self.weight_gram = _reduced(
            2 * cden * sden, [[cinv[j][i] * snum[i] for j in range(rank)] for i in range(rank)])

        # memos, the orbit memo _walks (made before the roots) among them,
        # under integer labels or sets of root indices; the last four are filled
        # by jacobi._pattern, diffeq.pieri_index, weylalg and whittaker.orbit_etas
        self._vectors: dict[tuple, Weight] = {}
        self._pairings: dict[tuple, tuple] = {}
        self._dominant_below_cache: dict[tuple, tuple[tuple, ...]] = {}
        self._sat_label_cache: dict[tuple, dict[tuple, tuple]] = {}
        self._string_tables: dict[tuple, tuple] = {}
        self.jacobi_memo: dict[tuple, tuple] = {}
        self.index_memo: dict[tuple, tuple] = {}
        self.expansion_label_memo: dict[tuple, object] = {}
        self.eta_memo: tuple | None = None
        self.fundamental_weights: tuple[Vector, ...] = tuple(
            self.from_labels(tuple(int(i == j) for j in range(rank))) for i in range(rank))

        orbits = self._root_orbit_indices()
        self.root_orbits: tuple[tuple[Vector, ...], ...] = tuple(
            tuple(map(self.roots.__getitem__, orb)) for orb in orbits)
        ids = {i: k for k, orb in enumerate(orbits) for i in orb}
        self.root_orbit_ids: tuple[int, ...] = tuple(ids[i] for i in range(len(self.roots)))
        # |alpha|^2 per root orbit, read by orbit index
        self.orbit_norms: tuple[Q, ...] = tuple(self.root_norms[orb[0]] for orb in orbits)
        # per root orbit, the label sum of its positive roots (``rho``)
        positive = set(self.positive_indices)
        self._orbit_label_sums = tuple(tuple(map(sum, zip(*(
            self.root_labels[i] for i in orb if i in positive)))) for orb in orbits)

    def _root_at(self, alpha: Vector):
        """alpha's index in ``roots`` or None, found by its labels."""
        i = self._label_roots.get(self.labels(alpha))
        return None if i is None or self.roots[i] != alpha else i

    def pairing(self, v: Vector, alpha: Vector) -> Q:
        """<v, alpha^vee> for a root alpha (``_root_at``; ValueError for any
        other vector), read from the label kernel (``pairings``)."""
        i = self._root_at(alpha)
        if i is None:
            raise ValueError(f"{weight_str(alpha)} is not a root of {self}")
        return self.pairings(v)[i]

    # -- the label kernel -----------------------------------------------------

    def labels(self, v: Vector) -> tuple:
        """Dynkin labels (<v, alpha_i^vee>)_i, ints where integral: those a
        Weight of the datum's type carries, else from ``_label_rows``."""
        if type(v) is Weight and v.kind == self.name:
            return v.labels
        if len(v) != self.dim:
            raise ValueError(f"{weight_str(v)} has {len(v)} coordinates, not {self.dim}")
        den = math.lcm(*(x.denominator for x in v))
        nums = [x.numerator * (den // x.denominator) for x in v]
        return tuple(_exact(Q(sum(map(mul, nums, row)), den * n)) for row, n in self._label_rows)

    def from_labels(self, l: tuple) -> Weight:
        """The Weight sum_i l_i omega_i of the root span (memoized for a weight)."""
        v = self._vectors.get(l)
        if v is None:
            l = tuple(map(_exact, l))
            v = self.vector_of(l)
            if _integral(l):
                self._vectors[l] = v
        return v

    def label_pairings(self, l: tuple) -> tuple:
        """<v, alpha^vee> for every root from the labels of v, memoized under
        a weight's integer labels.  Integer dot products where labels and
        coroot coefficients are integral, as for every weight of a reduced
        system."""
        if (weight := _integral(l)) and (p := self._pairings.get(l)) is not None:
            return p
        den = math.lcm(*(x.denominator for x in l))
        nums = tuple(x.numerator * (den // x.denominator) for x in l)
        dots = (sum(map(mul, c, nums)) for c in self.coroot_coefficients)
        p = (tuple(dots) if den == 1 and self._integral_coroots
             else tuple(_exact(Q(x, den)) for x in dots))
        if weight:
            self._pairings[l] = p
        return p

    def pairings(self, v: Vector) -> tuple:
        """<v, alpha^vee> for every root, in the order of ``roots``; a Weight
        of the datum's type keeps its row once read."""
        if type(v) is not Weight or v.kind != self.name:
            return self.label_pairings(self.labels(v))
        if v.row is None:
            v.row = self.label_pairings(v.labels)
        return v.row

    def _dominant_orbit(self, top: tuple, J=None) -> dict:
        """W_J-orbit of labels top that are nonnegative on J (J None: all of
        W): descend by the s_j, j in J, at positive labels, which reaches
        every element (as in LiE).  Each element maps to (u, j) with
        s_j u = element, u found before it (top maps to None)."""
        rows = [(j, self.cartan[j]) for j in (range(self.rank) if J is None else J)]
        seen = {top: None}
        stack = [top]
        while stack:
            u = stack.pop()
            for j, row in rows:
                k = u[j]
                if k > 0:
                    w = _step(u, k, row)
                    if w not in seen:
                        seen[w] = (u, j)
                        stack.append(w)
        return seen

    def orbit_labels(self, top: tuple) -> dict:
        """``_dominant_orbit(top)``, walked once per dominant top (the orbit memo,
        shared by the roots, Weyl orbits, saturated sets and Pieri index)."""
        if (found := self._walks.get(top)) is None:
            found = self._walks[top] = self._dominant_orbit(top)
        return found

    def _greedy(self, l: tuple, memo: dict, J=None) -> tuple:
        """Greedy reflection at the least s_j, j in J (J None: all), with a
        negative label: (result, word of the steps, last first), memoized in
        memo (one per J), as the chains of an orbit share their tails.  For J
        None the word is reduced, of the shortest w with w l dominant
        (checked by brute force in the tests)."""
        found = memo.get(l)
        if found is None:
            i = next((j for j in (range(self.rank) if J is None else J) if l[j] < 0), None)
            plus, w = (l, ()) if i is None else self._greedy(
                _step(l, l[i], self.cartan[i]), memo, J)
            found = memo[l] = (plus, w if i is None else w + (i,))
        return found

    def _apply_word(self, word, l: tuple) -> tuple:
        """Labels of s_{i1} ... s_{im} v for word (i1, ..., im), v with labels l."""
        for i in reversed(word):
            l = _step(l, l[i], self.cartan[i])
        return l

    def _vector_key(self, l: tuple) -> tuple:
        """The integer numerators of ``from_labels(l)`` over one positive
        denominator: sorting labels by them sorts the vectors."""
        return tuple(sum(map(mul, row, l)) for row in self._fund_rows)

    def parabolic_orbit(self, top: tuple, l: tuple) -> dict:
        """Labels of the W_J-orbit of l, nonnegative on J, the zero labels of
        the dominant labels top (W_J: the stabilizer of top, Humphreys 1.10-1.12),
        walked once per (top, l) in the orbit memo the Pieri index and E_omega share."""
        if (found := self._walks.get((top, l))) is None:
            J = [j for j, k in enumerate(top) if k == 0]
            found = self._walks[top, l] = self._dominant_orbit(l, J)
        return found

    # -- construction helpers ----------------------------------------------

    def _root_orbit_indices(self):
        """Sorted root indices of each W-orbit of roots: one orbit per
        dominant root, in the order of those roots."""
        tops = sorted((l for l in self.root_labels if min(l) >= 0), key=self.from_labels)
        return [sorted(map(self._label_roots.get, self.orbit_labels(t))) for t in tops]

    # -- lattice membership --------------------------------------------------

    def weight_labels(self, v: Vector) -> tuple:
        """Labels of a weight; ValueError if v is not in the weight lattice:
        integer labels, v in the root span and, for BC (where some coroots
        have half-integer simple-coroot coefficients), integer pairings."""
        l = self.labels(v)
        if not (_integral(l) and self.from_labels(l) == tuple(v)
                and (self._integral_coroots or _integral(self.label_pairings(l)))):
            raise ValueError(f"{weight_str(v)} is not in the weight lattice of {self}")
        return l

    def dominant_labels(self, v: Vector) -> tuple:
        """Labels of a dominant weight; ValueError otherwise."""
        l = self.weight_labels(v)
        if min(l) < 0:
            raise ValueError(f"{weight_str(self.from_labels(l))} is not dominant")
        return l

    def check_dominant(self, v: Vector) -> Vector:
        return self.from_labels(self.dominant_labels(v))

    def weight_from_fundamental(self, coeffs) -> Vector:
        coeffs = tuple(_exact(Q(c)) for c in coeffs)
        if len(coeffs) != self.rank:
            raise ValueError(f"need {self.rank} fundamental coefficients")
        return self.from_labels(coeffs)

    # -- Weyl group actions ---------------------------------------------------

    def weyl_orbit(self, v: Vector) -> tuple[Vector, ...]:
        """Full W-orbit of a weight, sorted: the labels the orbit memo holds
        for its dominant element (``orbit_labels``), as vectors."""
        top = self._greedy(self.weight_labels(v), {})[0]
        return tuple(map(self.from_labels, sorted(self.orbit_labels(top), key=self._vector_key)))

    def stabilizer_roots(self, v: Vector) -> tuple[Vector, ...]:
        """R_v: the roots orthogonal to v (they generate the stabilizer W_v)."""
        return tuple(a for a, k in zip(self.roots, self.pairings(v)) if k == 0)

    def stabilizer_orbit(self, v: Vector, eta: Vector) -> tuple[Vector, ...]:
        """Orbit W_v(eta) of eta under the stabilizer of v, sorted.  With w v =
        v+ dominant, W_v = w^{-1} W_J w for W_J the stabilizer of v+, so W_v(eta)
        = w^{-1} W_J u, u = w eta made nonnegative on J (``parabolic_orbit``)."""
        top, word = self._greedy(self.labels(v), {})   # w^{-1} is the word reversed
        J = [j for j, k in enumerate(top) if k == 0]
        u = self._greedy(self._apply_word(word, self.labels(eta)), {}, J)[0]
        orbit = self.parabolic_orbit(top, u)
        return tuple(sorted(self.from_labels(self._apply_word(word[::-1], x)) for x in orbit))

    def stabilizer_orbits(self, top: tuple) -> dict:
        """For each nu of P(omega), omega with dominant labels top, parents
        first: labels of nu -> (labels of nu+, word of w, step, etas), w the
        shortest element with w nu = nu+ (``_greedy``), step None at
        nu = nu+ and else (u, j) with s_j u = nu, and etas the labels of
        W_nu(w^{-1} omega), parents first, mapped to their steps: those of
        ``parabolic_orbit`` at nu = nu+, else (x, j) with x an eta of u.
        Sorted by ``_vector_key``, nu and the etas are in vector order.

        As omega is dominant, W_nu(w^{-1} omega) = w^{-1} W_J omega with W_J
        the stabilizer of nu+, for any w with w nu = nu+.  So the set of
        s_j nu is s_j applied to the set of nu: W_J omega is found once per
        nu+ (``parabolic_orbit``) and carried down the descent from nu+."""
        sets, words = {}, {}
        for plus in self.below_labels(top):
            for l, step in self.orbit_labels(plus).items():
                if step is None:
                    etas = self.parabolic_orbit(plus, top)
                else:
                    u, j = step
                    etas = {_step(x, x[j], self.cartan[j]): (x, j) for x in sets[u][3]}
                sets[l] = (*self._greedy(l, words), step, etas)
        return sets

    def weyl_order(self) -> int:
        """|W| as the product over k of |W_{J_k} omega_k|, J_k = {0, ..., k}:
        the stabilizer of omega_k in W_{J_k} is W_{J_{k-1}} (Humphreys,
        1.10-1.12), so |W_{J_k}| = |W_{J_k} omega_k| |W_{J_{k-1}}|."""
        return math.prod(len(self._dominant_orbit(
            tuple(int(i == k) for i in range(self.rank)), range(k + 1)))
            for k in range(self.rank))

    # -- dominance order and saturated sets -----------------------------------

    def below_labels(self, top: tuple) -> tuple[tuple, ...]:
        """Labels of all dominant mu <= lam, lam with dominant labels top, in
        the lexicographic order of the vectors (memoized).  Each such mu is
        reached from lam through dominant weights by subtracting one positive
        root at a time (J. Stembridge, The partial order of dominant weights,
        Adv. Math. 136, 1998), so the search stays in the dominant chamber."""
        found = self._dominant_below_cache.get(top)
        if found is None:
            rows = [self.root_labels[i] for i in self.positive_indices]
            seen = {top}
            stack = [top]
            while stack:
                l = stack.pop()
                for row in rows:
                    m = tuple(a - b for a, b in zip(l, row))
                    if min(m) >= 0 and m not in seen:
                        seen.add(m)
                        stack.append(m)
            found = self._dominant_below_cache[top] = tuple(
                sorted(seen, key=self.from_labels))
        return found

    def dominant_below(self, lam: Vector) -> tuple[Vector, ...]:
        """All dominant mu <= lam, lexicographically sorted."""
        return tuple(map(self.from_labels, self.below_labels(self.dominant_labels(lam))))

    def saturated_map(self, lam: Vector) -> dict[Vector, Vector]:
        """P(lam) as a map orbit element -> its dominant representative."""
        return {self.from_labels(l): self.from_labels(m)
                for l, m in self.saturated_labels(self.dominant_labels(lam)).items()}

    def saturated_labels(self, top: tuple) -> dict[tuple, tuple]:
        """P(lam) for lam with dominant labels top, as a map from labels to
        the labels of the dominant representative (memoized)."""
        found = self._sat_label_cache.get(top)
        if found is None:
            found = self._sat_label_cache[top] = {
                l: m for m in self.below_labels(top) for l in self.orbit_labels(m)}
        return found

    def string_table(self, tops: tuple) -> StringTable:
        """The ``StringTable`` of S, the union of the saturated sets P(t), t in
        tops (memoized): index numbers the labels of S; quad holds <l, l> times
        ``weight_gram_den`` per label, one per dominant representative; perms[j][i]
        numbers s_j of label i (S is W-stable).  Each alpha-string, alpha > 0, is
        walked down from its top l, k = <l, alpha^vee> > 0 (S is saturated: k + 1
        labels), and stored once.  For k <= 2: its ends in the columns tops and
        bottoms, (root index, k) in ends, k added at each end to own[o] (o the
        root's orbit) and, for k = 2, its top under its middle in mids[o].  For
        k >= 3: (root index, k, the indices of its labels at pairings k, k-2,
        ..., -k) in strings, by root.  Both walk codes (``_label_code``)."""
        found = self._string_tables.get(tops)
        if found is None:
            reps = {l: m for t in tops for l, m in self.saturated_labels(t).items()}
            index = {l: i for i, l in enumerate(reps)}
            code = _label_code(index, self.root_labels)
            at = {code(l): i for l, i in index.items()}   # codes in index order
            ends, strings = [], []
            own = [[0] * len(index) for _ in self.root_orbits]
            mids = [{} for _ in self.root_orbits]
            for r in self.positive_indices:
                a, o = code(self.root_labels[r]), self.root_orbit_ids[r]
                for c in at:
                    if c + a not in at and c - a in at:
                        string = [at[c]]
                        while (c := c - a) in at:
                            string.append(at[c])
                        if (k := len(string) - 1) > 2:
                            strings.append((r, k, tuple(string)))
                            continue
                        ends.append((string[0], string[-1], r, k))
                        own[o][string[0]] += k
                        own[o][string[-1]] += k
                        if k == 2:
                            mids[o].setdefault(string[1], []).append(string[0])
            perms = tuple(tuple(at[c - l[j] * a] for l, c in zip(index, at))
                          for j, a in enumerate(map(code, self.cartan)))
            per_rep = {m: sum(x * sum(map(mul, row, m)) for x, row in zip(m, self.weight_gram))
                       for m in set(reps.values())}
            found = self._string_tables[tops] = StringTable(
                index, tuple(map(per_rep.__getitem__, reps.values())), perms,
                tuple(e[0] for e in ends), tuple(e[1] for e in ends), tuple(e[2:] for e in ends),
                tuple(map(tuple, own)), tuple(mids), tuple(strings))
        return found

    # -- small weights ---------------------------------------------------------

    def _top_pairing(self, l: tuple):
        """The largest <omega, alpha^vee> over alpha > 0, for omega with
        dominant labels l: its pairing with the highest coroot."""
        return sum(map(mul, self._top_coroot, l))

    def is_minuscule(self, omega: Vector) -> bool:
        return self._top_pairing(self.dominant_labels(omega)) <= 1

    def small_labels(self, omega: Vector) -> tuple:
        """Labels of a dominant omega pairing at most 2 with each coroot; else ValueError."""
        l = self.dominant_labels(omega)
        if self._top_pairing(l) > 2:
            raise ValueError(f"{weight_str(omega)} is not small (a pairing exceeds 2)")
        return l

    def is_quasi_minuscule(self, omega: Vector) -> bool:
        return self.dominant_labels(omega) == self.quasi_minuscule_weight().labels

    def small_fundamental_weights(self) -> tuple[Vector, ...]:
        small = set(self._bounded_labels(self._top_coroot, 2))   # weights only (BC)
        return tuple(w for w in self.fundamental_weights if self.labels(w) in small)

    def _bounded_labels(self, row, bound: int) -> list:
        """The nonnegative integer labels l with row . l <= bound, row
        positive, that are labels of weights (on BC: integral pairings)."""
        found = [((), 0)]
        for c in row:
            found = [(l + (k,), s + k * c) for l, s in found
                     for k in range((bound - s) // c + 1)]
        return [l for l, _ in found
                if self._integral_coroots or _integral(self.label_pairings(l))]

    def small_dominant_weights(self) -> tuple[Vector, ...]:
        """All nonzero small dominant weights: their labels pair at most 2
        with the highest coroot."""
        return tuple(sorted(self.from_labels(l)
                            for l in self._bounded_labels(self._top_coroot, 2) if any(l)))

    def quasi_minuscule_weight(self) -> Weight:
        """The highest short root: the dominant root of the shortest root orbit."""
        return min((n, a) for n, a in zip(self.root_norms, self.roots) if min(a.labels) >= 0)[1]

    def dominant_weights_up_to_height(self, bound) -> tuple[Vector, ...]:
        """Dominant weights whose simple-root height is <= bound."""
        scaled = math.floor(Q(bound) * self.height_den)
        return tuple(sorted(map(self.from_labels, self._bounded_labels(self.height_row, scaled))))

    # -- rho vectors -----------------------------------------------------------

    def rho(self, mults: "Multiplicities") -> Weight:
        """rho_g = (1/2) sum_{alpha > 0} g_alpha alpha as a Weight (memoized on
        mults), its labels half of sum_o g_o times the integer label sum of
        the positive roots of orbit o."""
        if mults._rho is None:
            mults._rho = self.vector_of(tuple(_exact(Q(sum(map(mul, mults.values, col)), 2))
                                              for col in zip(*self._orbit_label_sums)))
        return mults._rho

    def __repr__(self):
        return f"RootDatum({self.name})"


class Multiplicities:
    """Orbit-constant root multiplicities g_alpha > 0, each an int or a Fraction.

    ``root_values`` holds one value per root in ``datum.roots`` order, and
    ``factor_values`` the m_a = g_a + g_{a/2}/2 that a's coefficient factors
    read (m_a = g_a where a/2 is no root, as on every reduced system); rho_g
    (``_rho``) and the per-sample record (``_record``) are built once each.
    """

    def __init__(self, datum: RootDatum, values):
        values = tuple(values)
        if len(values) != len(datum.root_orbits):
            raise ValueError(f"expected {len(datum.root_orbits)} orbit values, "
                             f"got {len(values)}")
        if not all(isinstance(v, (int, Q)) for v in values):
            raise ValueError("exact multiplicities required")
        if not all(v > 0 for v in values):
            raise ValueError("multiplicities must be positive")
        self.datum = datum
        self.values = values
        self.root_values = g = tuple(values[i] for i in datum.root_orbit_ids)
        self.factor_values = tuple(x if h is None else x + Q(g[h], 2)
                                   for x, h in zip(g, datum.half_root_index))
        self._rho = self._record = None

    def __repr__(self):
        return f"Multiplicities({self.values})"


def build_root_system(family: str, rank: int) -> RootDatum:
    """Construct the realized irreducible system of the given type."""
    return RootDatum(family, int(rank))
