"""Matroids, quotients and flag matroids on ground sets of up to 64 elements.

Elements are labelled 1..n and subsets are stored as bit masks (bit i-1 is
element i).  A single rank query scans the bases with popcounts.
Whole-lattice consumers (quotient checks, pseudo-bases, polytope membership
and the corank-nullity sums) read one int8 table of the rank of every
subset, built once per matroid by n vectorized subset-max passes (the zeta
transform of Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets
Mobius", 2007); it exists only for ground sets of at most RANK_TABLE_MAX
elements.
All constructors validate unless the construction is structurally safe
(uniform, dual, direct sum, minor), in which case a private trusted flag
skips re-validation; `validate()` can always be called explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    EmptyBases, EmptyMatrix, GroundSetExhausted, GroundSetMismatch,
    GroundSetTooLarge, InputError, InvalidRank, NotAMatroid,
    NotAQuotientChain, NotNested,
)
from .linalg import forest_rank, matrix_rank

MAX_GROUND = 64
RANK_TABLE_MAX = 24


def _integer(value, error, what):
    """value as an int.  A bool, or a number that is no integer such as
    1.9, is refused by error rather than truncated; an integral float such
    as 3.0 is read as 3, as io reads it."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if (whole is None or isinstance(value, bool)
            or (whole != value and not isinstance(value, str))):
        raise error("%s %r is not an integer" % (what, value))
    return whole


def _mask_of(subset, n):
    """Accept an int mask or an iterable of 1-based elements; an element
    that is no integer (_integer) is refused rather than truncated."""
    if isinstance(subset, int):
        if subset < 0 or subset >> n:
            raise GroundSetMismatch("mask %d outside ground set [%d]" % (subset, n))
        return subset
    m = 0
    for e in subset:
        e = _integer(e, GroundSetMismatch, "element")
        if not 1 <= e <= n:
            raise GroundSetMismatch("element %d outside ground set [%d]" % (e, n))
        m |= 1 << (e - 1)
    return m


def _set_of(mask):
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relabel(families, s):
    """Per family of basis masks, the key() of the matroid of the images
    B & s relabelled by position in s: (|s|, the sorted distinct images).
    One bit map (bit[1 << p] the bit that element p of s takes) serves
    every family."""
    bit, size, rest = {}, 0, s
    while rest:
        low = rest & -rest
        bit[low] = 1 << size
        size += 1
        rest ^= low
    out = []
    for masks in families:
        images = []
        for b in {b & s for b in masks}:
            image = 0
            while b:
                low = b & -b
                image |= bit[low]
                b ^= low
            images.append(image)
        images.sort()
        out.append((size, tuple(images)))
    return out


class Matroid:
    """A matroid given by its explicit basis family."""

    __slots__ = ("n", "rank_value", "_bases", "_table", "_counts", "_key")

    def __init__(self, n, bases_masks, _trusted=False):
        self.n = int(n)
        self._bases = frozenset(int(b) for b in bases_masks)
        if not self._bases:
            raise EmptyBases("a matroid needs at least one basis")
        self.rank_value = next(iter(self._bases)).bit_count()
        self._table = None
        self._counts = None
        self._key = None
        if not _trusted:
            self.validate()

    # ------------------------------------------------------------ construction

    @classmethod
    def from_bases(cls, n, bases):
        n = _integer(n, GroundSetMismatch, "ground set size")
        if n < 1:
            raise GroundSetMismatch("ground set must have at least one element")
        if n > MAX_GROUND:
            raise GroundSetTooLarge("ground set larger than %d" % MAX_GROUND)
        masks = [_mask_of(b, n) for b in bases]
        if not masks:
            raise EmptyBases("a matroid needs at least one basis")
        return cls(n, masks, _trusted=False)

    @classmethod
    def uniform(cls, r, n):
        r = _integer(r, InvalidRank, "rank")
        n = _integer(n, GroundSetMismatch, "ground set size")
        if n < 0 or r < 0 or r > n:
            raise InvalidRank("need 0 <= r <= n, got r=%d n=%d" % (r, n))
        if n > MAX_GROUND:
            raise GroundSetTooLarge("ground set larger than %d" % MAX_GROUND)
        # the r-subset masks in increasing order, by Gosper's hack
        m, masks = (1 << r) - 1, []
        while m < 1 << n:
            masks.append(m)
            if not m:
                break
            low = m & -m
            ripple = m + low
            m = ((ripple ^ m) >> 2) // low | ripple
        return cls(n, masks, _trusted=True)

    @classmethod
    def from_matrix(cls, rows):
        rows = [tuple(Fraction(x) for x in row) for row in rows]
        if not rows or not rows[0]:
            raise EmptyMatrix("matrix must have at least one row and column")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise EmptyMatrix("ragged matrix")
        if n > MAX_GROUND:
            raise GroundSetTooLarge("ground set larger than %d" % MAX_GROUND)
        cols = [tuple(row[j] for row in rows) for j in range(n)]
        r = matrix_rank(rows)
        masks = []
        for combo in combinations(range(n), r):
            if matrix_rank([cols[j] for j in combo]) == r:
                m = 0
                for j in combo:
                    m |= 1 << j
                masks.append(m)
        return cls(n, masks, _trusted=True)

    @classmethod
    def graphic(cls, edges, n_vertices=None):
        edges = [(_integer(u, GroundSetMismatch, "vertex label"),
                  _integer(v, GroundSetMismatch, "vertex label"))
                 for u, v in edges]
        if not edges:
            raise EmptyBases("graphic matroid needs at least one edge")
        low = min(map(min, edges))
        if low < 0:
            raise InputError("vertex label %d is negative" % low)
        if len(edges) > MAX_GROUND:
            raise GroundSetTooLarge("more than %d edges" % MAX_GROUND)
        nv = max(max(u, v) for u, v in edges)
        if n_vertices is not None:
            nv = max(nv, _integer(n_vertices, GroundSetMismatch,
                                  "vertex count"))
        n = len(edges)
        r = forest_rank(edges, nv + 1)
        return cls(n, [sum(1 << i for i in combo)
                       for combo in combinations(range(n), r)
                       if forest_rank([edges[i] for i in combo], nv + 1) == r],
                   _trusted=True)

    # -------------------------------------------------------------- validation

    def validate(self):
        full = (1 << self.n) - 1
        r = self.rank_value
        bases = self._bases
        for b in bases:
            if b & ~full:
                raise GroundSetMismatch("basis outside ground set")
            if b.bit_count() != r:
                raise NotAMatroid("bases of different cardinalities")
        for b1 in bases:
            for b2 in bases:
                if b1 == b2:
                    continue
                only1 = b1 & ~b2
                only2 = b2 & ~b1
                for i in _bits(only1):
                    stripped = b1 & ~(1 << i)
                    if not any(stripped | (1 << j) in bases for j in _bits(only2)):
                        raise NotAMatroid(
                            "exchange fails for bases %s, %s at element %d"
                            % (sorted(_set_of(b1)), sorted(_set_of(b2)), i + 1))
        return True

    # ------------------------------------------------------------------ basics

    @property
    def bases_masks(self):
        return self._bases

    @property
    def bases(self):
        return [_set_of(b) for b in sorted(self._bases)]

    def is_basis(self, subset):
        return _mask_of(subset, self.n) in self._bases

    def rank(self, subset):
        mask = _mask_of(subset, self.n)
        if self._table is not None:
            return int(self._table[mask])
        return max((b & mask).bit_count() for b in self._bases)

    def loops(self):
        union = 0
        for b in self._bases:
            union |= b
        return _set_of(((1 << self.n) - 1) & ~union)

    def coloops(self):
        inter = (1 << self.n) - 1
        for b in self._bases:
            inter &= b
        return _set_of(inter)

    def key(self):
        if self._key is None:
            self._key = (self.n, tuple(sorted(self._bases)))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Matroid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Matroid(n=%d, rank=%d, bases=%d)" % (
            self.n, self.rank_value, len(self._bases))

    # ------------------------------------------------------------ constructions

    def dual(self):
        full = (1 << self.n) - 1
        return Matroid(self.n, [full ^ b for b in self._bases], _trusted=True)

    def direct_sum(self, other):
        if self.n + other.n > MAX_GROUND:
            raise GroundSetTooLarge("direct sum exceeds %d elements" % MAX_GROUND)
        masks = [b1 | (b2 << self.n)
                 for b1 in self._bases for b2 in other._bases]
        return Matroid(self.n + other.n, masks, _trusted=True)

    def minor(self, delete=(), contract=()):
        """(M / contract) with `delete` removed; returns (Matroid, relabel).

        relabel maps surviving old labels to 1..n' in increasing order.  The
        bases of M / C are the sets B - C over the bases B of M that meet C
        in rk(C) elements, and deleting D keeps the largest of their
        intersections with the rest of the ground set.
        """
        d = _mask_of(delete, self.n)
        c = _mask_of(contract, self.n)
        if d & c:
            raise GroundSetMismatch("delete and contract sets overlap")
        keep = ((1 << self.n) - 1) & ~(d | c)
        if keep == 0:
            raise GroundSetExhausted("minor would have an empty ground set")
        relabel = {i + 1: pos + 1 for pos, i in enumerate(_bits(keep))}
        rc = max((b & c).bit_count() for b in self._bases)
        kept = {b & keep for b in self._bases if (b & c).bit_count() == rc}
        rnew = max(b.bit_count() for b in kept)
        (size, masks), = _relabel(
            [[b for b in kept if b.bit_count() == rnew]], keep)
        return Matroid(size, masks, _trusted=True), relabel

    def truncation(self):
        """Rank lowered by one; bases are the independent sets of size r-1."""
        if self.rank_value == 0:
            raise InvalidRank("cannot truncate a rank-0 matroid")
        masks = set()
        for b in self._bases:
            for i in _bits(b):
                masks.add(b & ~(1 << i))
        return Matroid(self.n, masks, _trusted=True)


# ------------------------------------------------------------------- quotients


def _subset_sizes(n):
    """|S| for every subset mask S of an n-element ground set, as uint8."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32))


def rank_table(m):
    """The rank of every subset mask of m: a read-only int8 array of 2^n.

    Built once and kept on the matroid.  The bases are marked and closed
    downward one element at a time, which leaves the independent sets; each
    of those gets its size, every other subset 0, and one subset-max pass
    per element, rank[S + e] = max(rank[S + e], rank[S]), spreads the ranks
    upward.  Ground sets past RANK_TABLE_MAX elements raise
    GroundSetTooLarge before anything is allocated.
    """
    if m._table is None:
        n = m.n
        if n > RANK_TABLE_MAX:
            raise GroundSetTooLarge(
                "a rank table covers at most %d elements (2^%d subsets), "
                "got %d" % (RANK_TABLE_MAX, RANK_TABLE_MAX, n))
        indep = np.zeros(1 << n, dtype=bool)
        indep[list(m._bases)] = True
        for i in range(n):
            v = indep.reshape(-1, 2, 1 << i)
            v[:, 0, :] |= v[:, 1, :]
        table = _subset_sizes(n).astype(np.int8)
        table *= indep
        for i in range(n):
            v = table.reshape(-1, 2, 1 << i)
            np.maximum(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
        table.flags.writeable = False
        m._table = table
    return m._table


@lru_cache(maxsize=7)
def _cube_edges(k):
    """(lo, hi): the k 2^(k-1) edges (S, S + e) of the k-element lattice."""
    lo, bit = np.nonzero(~np.arange(1 << k)[:, None] >> np.arange(k) & 1)
    return lo, lo | 1 << bit


def is_quotient(m1, m2):
    """True when m1 is a quotient of m2 (every flat of m1 a flat of m2).

    Checked through the local rank form: for all A and e not in A,
    rk2(A+e) - rk2(A) >= rk1(A+e) - rk1(A), i.e. d = rk2 - rk1 never drops
    along an edge (A, A+e) of the subset lattice.  Edges along the low
    k = min(n, 6) bits (every corpus ground set) are one comparison d[hi] <
    d[lo] over rows of 2^k subsets (_cube_edges; the gathers hold k 2^(n-1)
    entries); each higher bit compares two strided halves of d.
    """
    if m1.n != m2.n:
        raise GroundSetMismatch("quotient needs a common ground set")
    d = rank_table(m2) - rank_table(m1)
    k = min(m1.n, 6)
    lo, hi = _cube_edges(k)
    rows = d.reshape(-1, 1 << k)
    if (rows[:, hi] < rows[:, lo]).any():
        return False
    for i in range(k, m1.n):
        v = d.reshape(-1, 2, 1 << i)
        if (v[:, 1, :] < v[:, 0, :]).any():
            return False
    return True


class FlagBasis(tuple):
    """A nested chain of constituent bases, stored as masks."""

    @property
    def chain(self):
        return [_set_of(b) for b in self]


class FlagMatroid:
    """A chain of matroid quotients M_1 <<- ... <<- M_k on a common ground set."""

    __slots__ = ("constituents", "n", "ranks", "_flag_bases", "_key")

    def __init__(self, constituents, _trusted=False):
        ms = tuple(constituents)
        if not ms:
            raise EmptyBases("a flag matroid needs at least one constituent")
        n = ms[0].n
        for m in ms[1:]:
            if m.n != n:
                raise GroundSetMismatch("constituents on different ground sets")
        if not _trusted:
            for i in range(len(ms) - 1):
                if not is_quotient(ms[i], ms[i + 1]):
                    raise NotAQuotientChain(i + 1)
        self.constituents = ms
        self.n = n
        self.ranks = tuple(m.rank_value for m in ms)
        self._flag_bases = None
        self._key = None

    @property
    def k(self):
        return len(self.constituents)

    def key(self):
        if self._key is None:
            self._key = tuple(m.key() for m in self.constituents)
        return self._key

    def __eq__(self, other):
        return isinstance(other, FlagMatroid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "FlagMatroid(n=%d, ranks=%s)" % (self.n, list(self.ranks))

    def flag_bases(self):
        """All nested basis chains, sorted by their mask tuples."""
        if self._flag_bases is None:
            chains = [(b,) for b in sorted(self.constituents[-1].bases_masks)]
            for m in reversed(self.constituents[:-1]):
                refined = []
                level = sorted(m.bases_masks)
                for chain in chains:
                    top = chain[0]
                    for b in level:
                        if b & ~top == 0:
                            refined.append((b,) + chain)
                chains = refined
            self._flag_bases = sorted(FlagBasis(c) for c in chains)
        return list(self._flag_bases)

    def is_flag_basis(self, chain):
        masks = tuple(_mask_of(b, self.n) for b in chain)
        if len(masks) != self.k:
            return False
        for m, b in zip(self.constituents, masks):
            if b not in m.bases_masks:
                return False
        return all(masks[i] & ~masks[i + 1] == 0 for i in range(len(masks) - 1))

    def polytope_membership(self, w):
        """Is the integer point w in the base polytope (Minkowski sum)?"""
        w = tuple(int(x) for x in w)
        if len(w) != self.n:
            raise GroundSetMismatch("point has wrong dimension")
        if any(x < 0 or x > self.k for x in w):
            return False
        return bool(_polytope_members(self, np.array([w]))[0])


_MEMBER_ENTRIES = 1 << 20


def _polytope_members(fm, points):
    """Which rows of a (P x n) int array lie in the base polytope of a flag.

    That Minkowski sum is the base polytope of the summed rank functions:
    w(S) <= sum of rank(S) for every subset S, with equality at the ground
    set.  Per chunk of points (at most _MEMBER_ENTRIES sums) the subset
    sums w(S) double up over the elements against the summed rank tables.
    """
    n = fm.n
    bound = sum(rank_table(m).astype(np.int32) for m in fm.constituents)
    out = np.empty(len(points), dtype=bool)
    step = max(1, _MEMBER_ENTRIES >> n)
    for at in range(0, len(points), step):
        w = points[at:at + step].astype(np.int32)
        ws = np.zeros((len(w), 1 << n), dtype=np.int32)
        for i in range(n):
            ws[:, 1 << i:2 << i] = ws[:, :1 << i] + w[:, i:i + 1]
        out[at:at + step] = ((ws <= bound).all(axis=1)
                             & (ws[:, -1] == bound[-1]))
    return out


def flag(*matroids):
    """Validate a quotient chain and build the flag matroid."""
    if len(matroids) == 1 and isinstance(matroids[0], (list, tuple)):
        matroids = tuple(matroids[0])
    return FlagMatroid(matroids, _trusted=False)


def flag_dual(fm):
    """Constituent-wise dual; the chain reverses to stay a quotient chain."""
    return FlagMatroid(tuple(m.dual() for m in reversed(fm.constituents)))


def flag_direct_sum(fm1, fm2):
    """Constituent-wise direct sum of two flag matroids of the same length."""
    if fm1.k != fm2.k:
        raise GroundSetMismatch(
            "direct sum needs flag matroids with equally many constituents")
    return FlagMatroid(tuple(a.direct_sum(b) for a, b in
                             zip(fm1.constituents, fm2.constituents)))


def pseudo_bases(m1, m2):
    """Subsets spanning in m1 and independent in m2, sorted by (size, mask)."""
    masks = pseudo_basis_masks(m1, m2)
    return [_set_of(m) for m in masks]


def pseudo_basis_masks(m1, m2):
    if m1.n != m2.n:
        raise GroundSetMismatch("quotient needs a common ground set")
    sizes = _subset_sizes(m1.n)
    masks = np.flatnonzero((rank_table(m1) == m1.rank_value)
                           & (rank_table(m2) == sizes))
    return masks[np.argsort(sizes[masks], kind="stable")].tolist()


def higgs_factorization(m1, m2):
    """The Higgs chain from m2 down to m1 through elementary quotients.

    Layer i has as bases the pseudo-bases of cardinality r2 - i; the list
    runs [M^(0) = m2, ..., M^(d) = m1] with d = r2 - r1.  Every layer is
    validated and consecutive layers are quotients by construction.
    """
    pbs = pseudo_basis_masks(m1, m2)
    d = m2.rank_value - m1.rank_value
    layers = []
    for i in range(d + 1):
        want = m2.rank_value - i
        masks = [s for s in pbs if s.bit_count() == want]
        layers.append(Matroid(m1.n, masks, _trusted=False))
    if layers[0] != m2 or layers[-1] != m1:
        raise NotNested("Higgs factorization endpoints do not match")
    return layers


def face_basis(fm, chain):
    """A flag basis adapted to a nested chain of subsets.

    Elements are ordered: chain[0] first, then chain[1] minus chain[0], ...,
    then the rest, ascending labels inside each block; each constituent picks
    its greedy basis along that order, which maximizes every intersection
    |B_i cap S_j| to rk_i(S_j).  The results nest along the quotient chain.
    """
    masks = [_mask_of(s, fm.n) for s in chain]
    for a, b in zip(masks, masks[1:]):
        if a & ~b:
            raise InputError("chain of subsets is not nested")
    order = []
    seen = 0
    for s in masks + [(1 << fm.n) - 1]:
        for i in range(fm.n):
            if s >> i & 1 and not seen >> i & 1:
                order.append(i)
                seen |= 1 << i
    picked = []
    for m in fm.constituents:
        b = 0
        r = 0
        for i in order:
            if m.rank(b | (1 << i)) > r:
                b |= 1 << i
                r += 1
        if b not in m.bases_masks:
            raise NotNested("greedy selection missed a basis")
        picked.append(b)
    for a, b in zip(picked, picked[1:]):
        if a & ~b:
            raise NotNested("greedy bases failed to nest along the chain")
    fb = FlagBasis(picked)
    if not fm.is_flag_basis(fb):
        raise NotNested("greedy chain is not a flag basis")
    return fb
