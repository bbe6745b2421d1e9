"""Polynomial invariants of matroids, matroid quotients, and flag matroids.

The corank-nullity family (Tutte, characteristic, Las Vergnas Tutte, beta,
Poincare) is read off each matroid's rank table (matroid.rank_table): one
bincount of the subsets per (corank, nullity, gap) into a dense int64 array
C.  Tutte and Las Vergnas Tutte open (x - 1)^a (y - 1)^b as P^T C P with a
signed Pascal matrix P (batched over the gap axis), in int64, as every
entry stays below 4^n <= 2^48; characteristic, beta and Poincare multiply C
by the (-1)^(cr + nl + gap) parity grid and sum the dropped axes.  The
flag-geometric family (KT, its equivariant refinement, the h-polynomial) is
computed from the localization sum over flag bases, with the flag as the
unit of work.  _flag_cells holds, per flag, the half-open triangulations of
the tangent cones at all its flag bases as int arrays (ray tails, heads,
open flags and basis per cell), plus each basis's slot order and level
counts.  One closed-form numerator serves every flag basis (_numerator,
memoized per mode and slot counts): each coordinate's factor depends only
on its slot type (inside B_1, inside B_k but not B_1, outside B_k).  Both the
t = 1 value and the full equivariant sum are multiplicative over a direct
sum, so one block loop (_block_parts) serves both: it splits a flag into
its blocks (_flag_blocks), looks each up in the route's cache and computes
it on a miss.  A t = 1 block value is one pass of genfun's specialization
core over the arrays, and the values multiply in integers.  A block
support flips the same arrays along a direction and goes through the
support core (_flag_kernels), and the supports multiply as arrays.
Relabelled blocks share that pass: it runs once per canonical block key
(_canonical), and each labelled block permutes the columns of the
canonical points.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

from .cones import (
    _row_ranks, _tangent_generators, _triangulate,
    default_direction, tangent_cone_generators, triangulate_half_open,
)
from .errors import (
    HasLoopOrColoop, InputError, InternalAssertion, LoopOrColoop,
    NotAQuotient, NotDivisible, NotInUV, RankGapZero, RankZeroConstituent,
)
from .genfun import (
    EquivariantPolynomial, GenFun, GenFunTerm, _box_candidates,
    _decode_support, _interned, _reversed_edges, _specialize_t1,
    _support_core, _support_product,
)
from .lru import LRUCache
from .matroid import (
    FlagMatroid, Matroid, _subset_sizes, flag, flag_dual,
    higgs_factorization, is_quotient, pseudo_basis_masks, rank_table,
)
from .polynomial import AuxPolynomial


# ------------------------------------------------------ corank-nullity family


@lru_cache(maxsize=64)
def _pascal(b):
    """P[e, j] = (-1)^(e - j) C(e, j), row e the coefficients of (v - 1)^e."""
    pas = np.array([[(-1) ** (e - j) * comb(e, j) for j in range(b)]
                    for e in range(b)], dtype=np.int64)
    pas.setflags(write=False)
    return pas


def _open_shifts(A):
    """Open (v - 1)^e along the last two axes of A (its only one if A is a
    vector): P^T @ A @ P, batched.  int64 products stay off BLAS."""
    A = A @ _pascal(A.shape[-1]).astype(A.dtype, copy=False)
    if A.ndim > 1:
        A = _pascal(A.shape[-2]).astype(A.dtype, copy=False).T @ A
    return A


def _poly(vars, coeffs):
    """The AuxPolynomial whose coefficient of vars^e is coeffs[e]."""
    idx = np.nonzero(coeffs)
    return AuxPolynomial._trusted(vars, {
        e: Fraction(c) for e, c in zip(zip(*(i.tolist() for i in idx)),
                                       coeffs[idx].tolist())})


def _expand_shifted(vars, terms):
    """sum c prod (v_i - 1)^(e_i) over {exponents: integral Fraction c}, in
    one or two variables.  Every partial sum of the Pascal products is at
    most sum |c| 2^(a + b) < max|c| 2^(sum of the array's sides): the array
    is int64 when that is below 2^63, exact Python ints otherwise."""
    if any(c.denominator != 1 for c in terms.values()):
        raise InternalAssertion("a non-integral coefficient to expand")
    cols = tuple(zip(*terms))
    coeffs = [c.numerator for c in terms.values()]
    shape = [max(col) + 1 for col in cols]
    wide = max(map(abs, coeffs)).bit_length() + sum(shape) > 63
    A = np.zeros(shape, dtype=object if wide else np.int64)
    A[cols] = coeffs
    return _poly(vars, _open_shifts(A))


def _require_quotient(m1, m2):
    if not is_quotient(m1, m2):
        raise NotAQuotient("second matroid is not a quotient target of the "
                           "first")


def _corank_nullity_codes(m1, m2):
    """Per subset mask S, the code (cr * b + nl) * b + gap, with b = n + 1.

    cr = r1 - rk1(S), nl = |S| - rk2(S) and gap = (r2 - rk2(S)) - cr; all
    three lie in [0, n] when m1 is a quotient of m2 or equals it, so the
    code is a base-b number.  Returns (int16 codes, b).
    """
    cr = m1.rank_value - rank_table(m1).astype(np.int16)
    rk2 = rank_table(m2).astype(np.int16)
    b = m1.n + 1
    nl = _subset_sizes(m1.n) - rk2
    return (cr * b + nl) * b + (m2.rank_value - rk2 - cr), b


def _corank_nullity_counts(m1, m2):
    """The number of subsets per (cr, nl, gap), a dense int64 b^3 array.

    Products with it stay in int64: an entry or partial sum is at most
    sum_S C(cr, i) C(nl, j) <= sum_S 2^(cr + nl), and cr <= |E - S| (as
    r1 <= rk1(S) + |E - S|) and nl <= |S|, so at most 2^n 2^n = 4^n: 2^48
    at RANK_TABLE_MAX = 24.
    """
    codes, b = _corank_nullity_codes(m1, m2)
    return np.bincount(codes, minlength=b ** 3).reshape(b, b, b)


@lru_cache(maxsize=64)
def _parity(b):
    """(-1)^(cr + nl + gap) over a b^3 count array."""
    grid = (-1) ** np.indices((b, b, b)).sum(axis=0)
    grid.setflags(write=False)
    return grid


def _signed(m1, m2, sign, drop):
    """sum (-1)^(sign + cr + nl + gap) of the pair's counts over axes drop."""
    counts = _corank_nullity_counts(m1, m2)
    out = (counts * _parity(len(counts))).sum(axis=drop)
    return -out if sign & 1 else out


def tutte(m):
    """The Tutte polynomial by the corank-nullity sum, in x and y."""
    return _poly(("x", "y"),
                 _open_shifts(_corank_nullity_counts(m, m).sum(axis=2)))


def characteristic(m):
    """The characteristic polynomial chi(q) = (-1)^r T(1-q, 0)."""
    return _poly(("q",), _signed(m, m, m.rank_value, (1, 2)))


def lv_tutte(m1, m2):
    """The three-variable corank-nullity polynomial of a quotient, in x,y,z."""
    _require_quotient(m1, m2)
    counts = _corank_nullity_counts(m1, m2).transpose(2, 0, 1)
    return _poly(("x", "y", "z"), _open_shifts(counts).transpose(1, 2, 0))


def lv_tutte_equivariant(m1, m2):
    """The subset-graded refinement: value u^cr v^nl w^gap at each t^{e_S}."""
    _require_quotient(m1, m2)
    codes, b = _corank_nullity_codes(m1, m2)
    values, inverse = np.unique(codes, return_inverse=True)
    monos = [AuxPolynomial.monomial(("u", "v", "w"), e)
             for e in zip(*np.unravel_index(values, (b, b, b)))]
    n = m1.n
    support = {tuple(s >> i & 1 for i in range(n)): monos[k]
               for s, k in enumerate(inverse.tolist())}
    return EquivariantPolynomial(n, support)


# ------------------------------------------------- localization sum machinery


_CELLS_CACHE = LRUCache(1024)
_VALUE_CACHE = LRUCache(8192)
_SUPPORT_CACHE = LRUCache(2048)
_CANON_ENTRIES = 1 << 18


class _FlagCells(NamedTuple):
    """The triangulated tangent cones of all flag bases of one flag.

    Per cell (C x d, d the dimension of the base polytope): tails and heads
    of its rays (the ray e_j - e_i has tail i and head j), open flags, and
    owner, the index of its flag basis.  Per flag basis (B x n): slots, its
    coordinates ordered by slot type (inside B_1, inside B_k but not B_1,
    outside B_k; ascending within a type), and levels, how many of
    B_1, ..., B_{k-1} hold each coordinate.  Every array is read-only.
    """
    tails: np.ndarray
    heads: np.ndarray
    opens: np.ndarray
    owner: np.ndarray
    slots: np.ndarray
    levels: np.ndarray


def _flag_cells(fm):
    """The _FlagCells of a flag, cached per flag in _CELLS_CACHE.

    The exchange digraphs of all flag bases are one adjacency stack
    (cones._tangent_generators), triangulated per relabelled class and
    carried back to each basis by cones._triangulate.
    """
    key = fm.key()
    hit = _CELLS_CACHE.lookup(key)
    if hit is not None:
        return hit
    n = fm.n
    chains = np.array(fm.flag_bases(), dtype=np.uint64).reshape(-1, fm.k)
    tails, heads, opens, owner = _triangulate(_tangent_generators(fm, chains))
    member = ((chains[:, :, None] >> np.arange(n, dtype=np.uint64))
              & 1).astype(np.int64)
    kind = 2 - member[:, -1] - member[:, 0]
    out = _FlagCells(tails, heads, opens, owner,
                     np.argsort(kind * n + np.arange(n), axis=1),
                     member[:, :-1].sum(axis=1))
    for a in out:
        a.setflags(write=False)
    _CELLS_CACHE.store(key, out)
    return out


# The numerator of a flag basis B_1 < ... < B_k has one factor per coordinate
# t_i, fixed by the mode and by the slot type of i: inside B_1, inside B_k but
# not B_1, or outside B_k.  "kt": (u + t_i), (u + t_i)(1 + v t_i), (1 + v t_i),
# times t^(e_{B_1} + ... + e_{B_{k-1}}); "h": (1 + u/t_i),
# (1 + u/t_i)(1 + v t_i), (1 + v t_i); "h_lv": (1 + u/t_i), t_i, (1 + v t_i).
# Each factor is listed as its terms (t_i-exponent, u-exponent, v-exponent,
# m), where m = 1 marks the term t_i^e (1 + uv).
_SLOT_TERMS = {
    "kt": (((0, 1, 0, 0), (1, 0, 0, 0)),
           ((0, 1, 0, 0), (1, 0, 0, 1), (2, 0, 1, 0)),
           ((0, 0, 0, 0), (1, 0, 1, 0))),
    "h": (((0, 0, 0, 0), (-1, 1, 0, 0)),
          ((-1, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)),
          ((0, 0, 0, 0), (1, 0, 1, 0))),
    "h_lv": (((0, 0, 0, 0), (-1, 1, 0, 0)),
             ((1, 0, 0, 0),),
             ((0, 0, 0, 0), (1, 0, 1, 0))),
}


@lru_cache(maxsize=256)
def _numerator(mode, counts):
    """The closed-form numerator of a flag with counts slots of each type.

    One term per slot gives one row per mixed-radix digit vector; a row that
    picked (1 + uv) m times splits by Pascal's triangle into m + 1 distinct
    rows.  Returns read-only (steps, cls, vals) and classes: per row, its
    t-exponent on each slot (int8, slots ordered by type), its class index
    and its multiplicity; classes lists the (u, v)-exponent pairs, sorted.
    Memoized per (mode, counts).
    """
    terms = _SLOT_TERMS[mode]
    width = max(len(t) for t in terms)
    table = np.array([t + ((0, 0, 0, 0),) * (width - len(t)) for t in terms],
                     dtype=np.int64)
    types = np.repeat(np.arange(3), counts)
    radix = np.repeat([len(t) for t in terms], counts)
    place = np.cumprod(np.concatenate(([1], radix)))
    digits = np.arange(place[-1])[:, None] // place[:-1] % radix
    chosen = table[types, digits]
    U, V, M = chosen[:, :, 1:].sum(axis=1).T
    reps = M + 1
    rows = np.repeat(np.arange(len(M)), reps)
    j = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
    vstr = sum(counts) + 1
    used, cls = np.unique((U[rows] + j) * vstr + V[rows] + j,
                          return_inverse=True)
    out = (chosen[rows, :, 0].astype(np.int8), cls.reshape(-1),
           np.abs(_pascal(int(M.max()) + 1)[M[rows], j]))
    for a in out:
        a.setflags(write=False)
    return out + (tuple(divmod(int(c), vstr) for c in used),)


def _slot_counts(fm):
    r1, rk = fm.ranks[0], fm.ranks[-1]
    return (r1, rk - r1, fm.n - rk)


def _flag_kernels(fm, mode, direction=None):
    """The localization sum of a flag as arrays for _support_core.

    The cells of _flag_cells, each owned by its flag basis.  How many
    coordinates each slot type of _SLOT_TERMS holds depends only on the
    ranks, so one closed-form numerator (_numerator) serves every basis:
    all share its cls and vals, and each basis gets one apex block of A,
    its levels (mode "kt") plus the slot steps on its own coordinates.
    With a direction every cell is flipped first, as _support_core needs:
    the rays pairing negatively (one table lookup per ray) reverse, toggle
    their open flags and flip the sign.  Returns ((tails, heads, opens,
    signs, owner), (A, cls, vals), classes), classes the sorted (u, v)
    exponent pairs.
    """
    cells = _flag_cells(fm)
    steps, cls, vals, classes = _numerator(mode, _slot_counts(fm))
    A = steps[:, np.argsort(cells.slots, axis=1)].transpose(1, 0, 2)
    A = A.astype(np.int64)
    if mode == "kt":
        A += cells.levels[:, None, :]
    tails, heads, opens = cells.tails, cells.heads, cells.opens
    signs = np.ones(len(tails), dtype=np.int64)
    if direction is not None:
        flip = _reversed_edges(_interned(direction.key()))[tails, heads]
        tails, heads = (np.where(flip, heads, tails),
                        np.where(flip, tails, heads))
        opens = opens ^ flip
        signs = 1 - 2 * (flip.sum(axis=1) & 1)
    return ((tails, heads, opens, signs, cells.owner), (A, cls, vals),
            list(classes))


def _whole_support(fm, mode):
    """The support of a flag's localization sum in array form, from one
    pass of the support core over the whole flag, never split."""
    cells, numerators, classes = _flag_kernels(fm, mode,
                                               default_direction(fm.n))
    A = numerators[0]
    los = tuple(A.min(axis=(0, 1)).tolist())
    his = tuple(A.max(axis=(0, 1)).tolist())
    return _support_core(fm.n, los, his, cells, numerators, classes,
                         ("u", "v"), 1)


def _class_support(block, mode):
    """The support of a connected block in array form, one support core
    pass per isomorphism class.

    Relabelling a block permutes the coordinates of its support, so the
    pass runs (along the class's own default direction; the support does
    not depend on it) only when the canonical key (_canonical) misses
    _SUPPORT_CACHE, and the block's support is one gather of the point
    columns stored under that key.
    """
    ckey, sigma = _canonical(block.key())
    whole = _SUPPORT_CACHE.lookup((ckey, mode))
    if whole is None:
        whole = _whole_support(_flag_of_key(ckey), mode)
        _SUPPORT_CACHE.store((ckey, mode), whole)
    return whole._replace(points=whole.points[:, sigma])


def _ktt_support(fm, mode="kt"):
    """The full equivariant localization sum as a Laurent polynomial.

    Valid for any quotient chain, including a rank-0 first constituent
    (the sum itself makes sense verbatim there).  The mode selects the
    numerator; see _flag_kernels.  Each numerator factor depends on one
    coordinate, so the sum is multiplicative over a direct sum: the blocks'
    arrays (_block_parts over _SUPPORT_CACHE, _class_support on a miss)
    multiply by _support_product.  The decoded polynomial is not cached.
    """
    return _decode_support(_support_product(
        fm.n, _block_parts(fm, mode, _SUPPORT_CACHE, _class_support)))


def kt_equivariant(fm):
    """The torus-equivariant flag-geometric Tutte polynomial, aux u and v.

    The result is the equivariant polynomial at arguments (u+1, v+1).
    """
    if fm.ranks[0] == 0:
        raise RankZeroConstituent(
            "the equivariant form needs a first constituent of rank >= 1; "
            "the rank-0 case is defined only after specializing t to 1")
    return _ktt_support(fm)


def _flag_blocks(fm):
    """The blocks of a flag's ground set, as masks, by least element.

    The blocks are the finest partition of the ground set into separators of
    every constituent, the join of their component partitions.  One basis B
    per constituent finds them (Krogdahl, "The dependence graph for bases in
    matroids", 1977): a matroid's components are those of the fundamental
    graph of B, with an edge i - j whenever i is in B, j is not and
    B - i + j is a basis; a loop or a coloop is a block of its own.
    """
    n = fm.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in fm.constituents:
        bases = m.bases_masks
        b = next(iter(bases))
        inside = [i for i in range(n) if b >> i & 1]
        outside = [j for j in range(n) if not b >> j & 1]
        for i in inside:
            rest = b ^ 1 << i
            for j in outside:
                if rest | 1 << j in bases:
                    parent[find(i)] = find(j)
    blocks = {}
    for e in range(n):
        root = find(e)
        blocks[root] = blocks.get(root, 0) | 1 << e
    return list(blocks.values())


def _restrict(fm, s):
    """FlagMatroid.key() of the flag of the restrictions to a block s.

    The bases of a restriction to a separator are the sets B & s, relabelled
    by bit position, and restricted to a separator a quotient chain stays
    one, so _flag_of_key builds the flag without re-validating it.
    """
    pos = [i for i in range(fm.n) if s >> i & 1]
    return tuple((len(pos), tuple(sorted(
        sum((b >> p & 1) << i for i, p in enumerate(pos))
        for b in {b & s for b in m.bases_masks}))) for m in fm.constituents)


def _flag_of_key(key):
    return FlagMatroid(tuple(Matroid(n, bases, _trusted=True)
                             for n, bases in key), _trusted=True)


def _block_parts(fm, mode, cache, compute):
    """(mask, part) per block of a flag (_flag_blocks), each part cached.

    The one block loop of the t -> 1 values and the equivariant supports:
    a block is keyed by the flag's key() when the flag is connected and by
    _restrict otherwise, looked up in cache under (key, mode), and on a
    miss computed by compute(block, mode) from the block as a flag (the
    flag itself, or one built by _flag_of_key from the key) and stored.
    """
    blocks = _flag_blocks(fm)
    parts = []
    for s in blocks:
        key = fm.key() if len(blocks) == 1 else _restrict(fm, s)
        part = cache.lookup((key, mode))
        if part is None:
            part = compute(fm if len(blocks) == 1 else _flag_of_key(key),
                           mode)
            cache.store((key, mode), part)
        parts.append((s, part))
    return parts


def _canonical(key):
    """A canonical form of a flag key under relabelling, and its position map.

    Returns (ckey, sigma): ckey is key relabelled by sigma, element i going
    to position sigma[i], and relabelled keys give the same ckey.  The
    elements are coloured by refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 2014): first by how many bases of
    each constituent hold them, then, until the classes stop splitting, by
    the sorted (colour, pair counts) over all elements, pair counts being
    how many bases of each constituent hold both.  The colours are ranks of
    these invariants, so the classes take consecutive positions in an order
    that relabelling keeps.  ckey is the least key, comparing the sorted
    basis tuples constituent by constituent, over every relabelling that
    respects the classes, found in one pass: each candidate's image masks,
    sorted per constituent, then lexsort.  When candidates times bases pass
    _CANON_ENTRIES, ckey is key itself with the identity map: correct, only
    not shared with its relabellings.
    """
    n = key[0][0]
    total = sum(len(bases) for _, bases in key)
    if n < 2 or total > _CANON_ENTRIES:
        return key, np.arange(n)
    shifts = np.arange(n, dtype=np.uint64)
    bits = [(np.array(bases, dtype=np.uint64)[:, None] >> shifts) & 1
            for _, bases in key]
    pairs = np.stack([b.T @ b for b in bits], axis=2)
    code = _row_ranks(pairs.reshape(n * n, -1))[0].reshape(n, n)
    colour = np.unique(code.diagonal(), return_inverse=True)[1]
    while True:
        near = np.sort(colour * (int(code.max()) + 1) + code, axis=1)
        refined = _row_ranks(np.concatenate([colour[:, None], near],
                                            axis=1))[0]
        if refined.max() == colour.max():
            break
        colour = refined
    sizes = np.bincount(colour).tolist()
    arrangements = [factorial(size) for size in sizes]
    count = prod(arrangements)
    if count * total > _CANON_ENTRIES:
        return key, np.arange(n)
    order = np.argsort(colour, kind="stable")
    pick = np.unravel_index(np.arange(count), arrangements)
    sigma = np.empty((count, n), dtype=np.uint64)
    start = 0
    for size, p in zip(sizes, pick):
        perms = np.array(list(permutations(range(start, start + size))),
                         dtype=np.uint64)
        sigma[:, order[start:start + size]] = perms[p]
        start += size
    images = np.concatenate([np.sort((np.uint64(1) << sigma) @ b.T, axis=1)
                             for b in bits], axis=1)
    best = np.lexsort(images.T[::-1])[0]
    row = images[best].tolist()
    cuts = np.cumsum([0] + [len(bases) for _, bases in key]).tolist()
    return (tuple((n, tuple(row[a:b])) for a, b in zip(cuts, cuts[1:])),
            sigma[best].astype(np.intp))


def _multiply_terms(a, b):
    """The product of two {(u, v) exponents: int} term dicts."""
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            e = (i + k, j + l)
            out[e] = out.get(e, 0) + c * d
    return out


def _localization_value(fm, mode):
    """The t -> 1 value of a localization sum, as a polynomial in u and v.

    The sum is multiplicative over a direct sum, so a flag is the integer
    product of its blocks' values (_block_parts over _VALUE_CACHE,
    _connected_value on a miss); the empty product is 1.  Values stay keyed
    by labelled blocks: a canonical key costs more than most connected
    blocks do, and those rarely share a class.
    """
    terms = {(0, 0): 1}
    for _, part in _block_parts(fm, mode, _VALUE_CACHE, _connected_value):
        terms = _multiply_terms(terms, part)
    return AuxPolynomial._trusted(
        ("u", "v"), {e: Fraction(c) for e, c in terms.items() if c})


def _connected_value(fm, mode):
    """The t -> 1 value of a flag of one block, as {(u, v) exponents: int}.

    One pass of _specialize_t1 over the arrays of _flag_cells: the pairings
    of all rays with the weight are w[head] - w[tail], and the z-exponents
    of all flag bases' numerator rows are one product of the shared slot
    steps with the weight gathered in each basis's slot order.
    """
    cells = _flag_cells(fm)
    steps, cls, vals, classes = _numerator(mode, _slot_counts(fm))
    levels = (mode == "kt") * cells.levels
    # the apex box: coordinate i of a basis takes the steps of its slot
    rank = np.argsort(cells.slots, axis=1)
    los = steps.min(axis=0)[rank] + levels
    his = steps.max(axis=0)[rank] + levels
    points = prod((his.max(axis=0) - los.min(axis=0) + 1).tolist())

    def at_weight(w):
        dots = w[cells.heads] - w[cells.tails]
        if not dots.all():
            return None
        return dots, w[cells.slots] @ steps.T + (levels @ w)[:, None], points

    values = _specialize_t1(fm.n, at_weight, cells.opens, 1, cells.owner,
                            cls, vals, len(classes))
    return {e: c for e, c in zip(classes, values) if c}


def kt(fm):
    """The flag-geometric Tutte polynomial in x and y.

    Computed as the t = 1 value of the localization sum (which also covers
    a rank-0 first constituent) followed by u = x-1, v = y-1.
    """
    return _expand_shifted(("x", "y"), _localization_value(fm, "kt").terms)


# ----------------------------------------------------------------- h family


def _check_loops_coloops(fm):
    if fm.constituents[0].loops():
        raise HasLoopOrColoop("first constituent has a loop")
    if fm.constituents[-1].coloops():
        raise HasLoopOrColoop("last constituent has a coloop")


def _is_diagonal(phi):
    """Whether a (u,v)-polynomial has equal u- and v-exponents throughout."""
    return all(u == v for u, v in phi.align(("u", "v")).terms)


def h_value_uv(fm):
    """The t -> 1 value of the untwisted localization sum, in u and v."""
    _check_loops_coloops(fm)
    return _localization_value(fm, "h")


def h_polynomial(fm):
    """The one-variable h-polynomial, via the uv-diagonal substitution.

    The untwisted sum is a polynomial in the product uv; writing it as
    sum c_m (uv)^m, the h-polynomial is sum c_m (1-s)^m.
    """
    phi = h_value_uv(fm)
    if not _is_diagonal(phi):
        raise NotInUV("untwisted localization value has a term off the "
                      "uv-diagonal")
    return _expand_shifted(("s",), {(u,): -c if u & 1 else c for (u, _), c
                                    in phi.align(("u", "v")).terms.items()})


def h_candidate_lv(fm):
    """The analogous construction built from the coarse/fine diagram.

    Per flag basis this sums p inside B_1 and q outside B_k, with the cone
    apex shifted by the indicator of B_k minus B_1 (the line-bundle twist
    native to that diagram; it vanishes when k = 1, so single matroids give
    the same polynomial as h_value_uv).  Returns the (u,v)-polynomial and
    whether it lies on the uv-diagonal, which it need not in general.
    """
    _check_loops_coloops(fm)
    phi = _localization_value(fm, "h_lv")
    return phi, _is_diagonal(phi)


# --------------------------------------------------------------- beta family


def beta_invariant(m):
    """Signed derivative of the characteristic polynomial at q = 1."""
    chi = _signed(m, m, 1, (1, 2))  # sign 1: (-1)^(r - 1) chi
    return Fraction(int(np.arange(len(chi)) @ chi))


def beta_polynomial(m1, m2):
    """The beta polynomial of a quotient and its (q-1)-reduced form."""
    _require_quotient(m1, m2)
    if m1.rank_value == m2.rank_value:
        raise RankGapZero("beta polynomial reduction needs r2 > r1")
    beta = _signed(m1, m2, m2.rank_value - m1.rank_value, (0, 1))
    # beta / (q - 1) has the coefficients -(c_0 + ... + c_e)
    reduced = -np.cumsum(beta)
    if reduced[-1]:
        raise NotDivisible("beta polynomial is not divisible by (q - 1)")
    return _poly(("q",), beta), _poly(("q",), reduced[:-1])


def reduced_beta_via_higgs(m1, m2):
    """The alternating Higgs-layer expression for the reduced beta."""
    _require_quotient(m1, m2)
    d = m2.rank_value - m1.rank_value
    if d == 0:
        raise RankGapZero("Higgs expression needs r2 > r1")
    layers = higgs_factorization(m1, m2)
    betas = [beta_invariant(layer) for layer in layers]
    q = AuxPolynomial.variable("q")
    total = AuxPolynomial.zero(("q",))
    for i in range(d):
        total = total + (q ** i) * ((-1) ** (d - 1 - i)
                                    * (betas[i] + betas[i + 1]))
    return total


def poincare(m1, m2):
    """The two-variable specialization (-1)^{r2} LVT(1-q, 0, -s)."""
    _require_quotient(m1, m2)
    return _poly(("q", "s"), _signed(m1, m2, m2.rank_value, 1))


def k_char(fm):
    """The flag-geometric characteristic polynomial (-1)^{r_k} KT(1-q, 0)."""
    q = AuxPolynomial.variable("q")
    out = kt(fm).substitute({"x": 1 - q, "y": 0})
    return out * ((-1) ** fm.ranks[-1])


# ------------------------------------------------------------- verification


class VerifyReport:
    """Outcome of one identity check: passed flag plus per-check details."""

    __slots__ = ("name", "passed", "details", "data")

    def __init__(self, name):
        self.name = name
        self.passed = True
        self.details = []
        self.data = {}

    def check(self, label, ok):
        self.details.append((label, bool(ok)))
        if not ok:
            self.passed = False
        return ok

    def __repr__(self):
        return "VerifyReport(%s, %s)" % (self.name,
                                         "PASS" if self.passed else "FAIL")


def _mask_vector(n, s):
    return tuple(1 if s >> i & 1 else 0 for i in range(n))


def kt22_rhs_equivariant(m1, m2):
    """Product side of the pseudo-basis identity, with aux variable q."""
    n = m1.n
    pbs = pseudo_basis_masks(m1, m2)
    support = {}
    for t_sub in range(1 << n):
        wt = _mask_vector(n, t_sub)
        qt = t_sub.bit_count()
        for s in pbs:
            w = tuple(a + b for a, b in zip(wt, _mask_vector(n, s)))
            mono = AuxPolynomial.monomial(("q",), (qt + s.bit_count(),))
            cur = support.get(w)
            support[w] = mono if cur is None else cur + mono
    return EquivariantPolynomial(n, support)


def verify_kt22(fm):
    """Check the pseudo-basis expansion of a two-step localization sum.

    The identity compared is q^{r1+r2} KT^T(1+1/q, 1+q) = prod (1+t_i q)
    times sum over pseudo-bases S of t^{e_S} q^{|S|}; the q-grading follows
    from regrouping the numerator sum over (p, q) into subsets R of the
    ground set and subsets S of B_2 minus B_1.
    """
    if fm.k != 2:
        raise InputError("the pseudo-basis identity is for two-step flags")
    m1, m2 = fm.constituents
    n = fm.n
    rsum = m1.rank_value + m2.rank_value
    report = VerifyReport("kt22")
    pbs = pseudo_basis_masks(m1, m2)
    report.data["pseudo_bases"] = len(pbs)

    phi_t = _ktt_support(fm)
    qinv = AuxPolynomial.monomial(("q",), (-1,))
    q = AuxPolynomial.variable("q")
    scale = q ** rsum
    # support points share coefficient objects: map each one once
    done = {}
    lhs_support = {}
    for w, coeff in phi_t.support.items():
        val = done.get(id(coeff))
        if val is None:
            val = done[id(coeff)] = coeff.substitute(
                {"u": qinv, "v": q}) * scale
        if val:
            lhs_support[w] = val
    lhs = EquivariantPolynomial(n, lhs_support)
    rhs = kt22_rhs_equivariant(m1, m2)
    report.check("equivariant pseudo-basis identity", lhs == rhs)

    phi = _localization_value(fm, "kt")
    lhs_q = phi.substitute({"u": qinv, "v": q}) * (q ** rsum)
    rhs_q = ((1 + q) ** n) * sum(
        (q ** s.bit_count() for s in pbs), AuxPolynomial.zero(("q",)))
    report.check("one-variable pseudo-basis identity", lhs_q == rhs_q)

    at22 = phi.substitute({"u": 1, "v": 1})
    expect = Fraction(2 ** n * len(pbs))
    got = at22.constant_term()
    report.data["kt_at_2_2"] = got
    report.check("value at (2,2) equals 2^n times the pseudo-basis count",
                 at22 == AuxPolynomial.constant(expect) and got == expect)
    return report


def delcont_rhs_supports(m, e, ell):
    """Right-hand side of the l-fold deletion-contraction identity."""
    dele, relabel1 = m.minor(delete=(e,))
    cont, relabel2 = m.minor(contract=(e,))
    assert relabel1 == relabel2
    parts = []
    for i in range(ell + 1):
        constituents = (cont,) * (ell - i) + (dele,) * i
        sub = FlagMatroid(constituents)
        piece = _ktt_support(sub).insert_coordinate(e - 1, ell - i)
        parts.append(piece)
    total = parts[0]
    for piece in parts[1:]:
        total = total + piece
    return total


def verify_delcont(m, e, ell=2):
    """Check the l-fold equivariant deletion-contraction identity at e."""
    loops = m.loops()
    coloops = m.coloops()
    if e in loops or e in coloops:
        raise LoopOrColoop("element %d is a loop or coloop" % e)
    report = VerifyReport("delcont")
    fm = FlagMatroid((m,) * ell)
    lhs = _ktt_support(fm)
    rhs = delcont_rhs_supports(m, e, ell)
    report.check("equivariant %d-fold identity at element %d" % (ell, e),
                 lhs == rhs)

    dele, _ = m.minor(delete=(e,))
    cont, _ = m.minor(contract=(e,))
    lhs_v = _localization_value(fm, "kt")
    rhs_v = AuxPolynomial.zero(("u", "v"))
    for i in range(ell + 1):
        sub = FlagMatroid((cont,) * (ell - i) + (dele,) * i)
        rhs_v = rhs_v + _localization_value(sub, "kt")
    report.check("value identity at t = 1", lhs_v == rhs_v)
    return report


def check_lvt_special(m1, m2):
    """Specializations of the three-variable quotient polynomial.

    The subset-graded refinement collapses to the corank-nullity sum at
    t = 1; identical pairs reduce to the one-matroid polynomial; a rank-zero
    bottom shifts x to z + 1; and the value at (2, 2, 1) counts subsets.
    """
    report = VerifyReport("lvt-special")
    lvt = lv_tutte(m1, m2)
    x = AuxPolynomial.variable("x")
    y = AuxPolynomial.variable("y")
    z = AuxPolynomial.variable("z")
    collapsed = lv_tutte_equivariant(m1, m2).specialize_t1().substitute(
        {"u": x - 1, "v": y - 1, "w": z})
    report.check("subset-weighted sum matches corank-nullity", collapsed == lvt)
    if m1.key() == m2.key():
        report.check("identical pair reduces to the one-matroid polynomial",
                     lvt == tutte(m1))
    if m1.rank_value == 0:
        report.check("rank-zero bottom substitutes x to z + 1",
                     lvt == tutte(m2).substitute({"x": z + 1}))
    val = lvt.evaluate({"x": 2, "y": 2, "z": 1})
    report.check("value 2^n at (2, 2, 1)", val == 1 << m1.n)
    report.data["value_2_2_1"] = int(val)
    return report


def check_beta_higgs(m1, m2):
    """The reduced beta polynomial against its Higgs-layer expression."""
    report = VerifyReport("beta-higgs")
    beta, red = beta_polynomial(m1, m2)
    report.check("reduction matches the Higgs-layer expression",
                 red == reduced_beta_via_higgs(m1, m2))
    report.data["beta"] = beta
    report.data["reduced"] = red
    return report


def verify_h_uv(fm):
    """Cross-check both h constructions between two evaluation routes.

    The one-variable weight specialization and the full support extraction
    must give the same t -> 1 value for the untwisted sum and for the
    diagram candidate, the untwisted value must lie in Q[uv], and the
    candidate's diagonality flag must agree with the support route.
    """
    _check_loops_coloops(fm)
    report = VerifyReport("h-uv")
    phi = h_value_uv(fm)
    sup = _ktt_support(fm, mode="h").specialize_t1()
    report.check("untwisted routes agree", phi == sup)
    report.check("untwisted value lies in Q[uv]", _is_diagonal(phi))
    cand, in_uv = h_candidate_lv(fm)
    cand_sup = _ktt_support(fm, mode="h_lv").specialize_t1()
    report.check("diagram-candidate routes agree", cand == cand_sup)
    report.check("diagonality detection confirmed",
                 in_uv == _is_diagonal(cand_sup))
    report.data["candidate_in_uv"] = in_uv
    return report


def check_lvt_delcont(m1, m2, e=None):
    """Deletion-contraction for the three-variable quotient polynomial.

    For e neither a loop nor a coloop of the second constituent, the
    polynomial of the pair is the sum of the polynomials of the deleted and
    contracted pairs.  With e omitted, every eligible element is checked.
    """
    _require_quotient(m1, m2)
    bad = m2.loops() | m2.coloops()
    if e is not None:
        if e in bad:
            raise LoopOrColoop("element %d is a loop or coloop" % e)
        elements = [e]
    else:
        elements = [i for i in range(1, m2.n + 1) if i not in bad]
    report = VerifyReport("lvt-delcont")
    lhs = lv_tutte(m1, m2)
    for el in elements:
        d1, _ = m1.minor(delete=(el,))
        d2, _ = m2.minor(delete=(el,))
        c1, _ = m1.minor(contract=(el,))
        c2, _ = m2.minor(contract=(el,))
        rhs = lv_tutte(d1, d2) + lv_tutte(c1, c2)
        report.check("three-term identity at element %d" % el, lhs == rhs)
    return report


def count_lattice_points(fm):
    """Lattice points of the base polytope by direct membership testing."""
    return len(_enumerate_polytope(fm))


def check_duality(fm):
    """Equivariant and plain duality: reverse-dualize, swap u and v.

    Support exponents of a k-step flag live in [0, k]^n, so the dual support
    is the image under w -> k - w coordinatewise.
    """
    dual = flag_dual(fm)
    report = VerifyReport("duality")
    b = _ktt_support(dual)
    n, k = fm.n, fm.k
    u = AuxPolynomial.variable("u")
    v = AuxPolynomial.variable("v")
    a = _ktt_support(fm).substitute_aux({"u": v, "v": u})
    mapped = {tuple(k - x for x in w): c for w, c in a.support.items()}
    report.check("equivariant duality", EquivariantPolynomial(n, mapped) == b)
    x = AuxPolynomial.variable("x")
    y = AuxPolynomial.variable("y")
    report.check("plain duality",
                 kt(fm).substitute({"x": y, "y": x}) == kt(dual))
    return report


def check_direct_sum(fm1, fm2):
    """Multiplicativity over a split ground set, equivariantly.

    kt and kt_equivariant themselves multiply the values and supports of a
    flag's blocks, so both checks compare against the whole sum's support
    from one pass of the support core over the direct sum, a route that
    never splits the flag; the plain check sums it over t.
    """
    from .matroid import flag_direct_sum
    report = VerifyReport("direct-sum")
    fm = flag_direct_sum(fm1, fm2)
    a = _ktt_support(fm1)
    b = _ktt_support(fm2)
    whole = _decode_support(_whole_support(fm, "kt"))
    prod_support = {}
    for w1, c1 in a.support.items():
        for w2, c2 in b.support.items():
            prod_support[w1 + w2] = c1 * c2
    report.check("equivariant direct-sum multiplicativity",
                 EquivariantPolynomial(fm.n, prod_support) == whole)
    x = AuxPolynomial.variable("x")
    y = AuxPolynomial.variable("y")
    report.check("plain direct-sum multiplicativity",
                 kt(fm1) * kt(fm2) == whole.specialize_t1().substitute(
                     {"u": x - 1, "v": y - 1}))
    return report


def check_latticepoints(fm):
    """The (1,1) value against direct polytope point enumeration."""
    report = VerifyReport("latticepoints")
    expected = count_lattice_points(fm)
    report.data["lattice_points"] = expected
    phi = _localization_value(fm, "kt")
    value = phi.constant_term()
    report.check("kt at (1,1) equals the lattice-point count",
                 value == expected
                 and kt(fm).substitute({"x": 1, "y": 1})
                 == AuxPolynomial.constant(expected))
    eq = _ktt_support(fm).substitute_aux({"u": 0, "v": 0})
    pts = {w: AuxPolynomial.constant(1) for w in _enumerate_polytope(fm)}
    report.check("equivariant (1,1) value lists the lattice points",
                 eq == EquivariantPolynomial(fm.n, pts))
    return report


def _enumerate_polytope(fm):
    """Lattice points of the base polytope, from its box [0, k]^n."""
    box = _box_candidates([0] * fm.n, [fm.k] * fm.n, sum(fm.ranks))
    return [w for w in box if fm.polytope_membership(w)]


def check_loop_coloop_divisibility(fm):
    """x^(coloops of last) y^(loops of first) divides the kt polynomial."""
    report = VerifyReport("divisibility")
    nl = len(fm.constituents[0].loops())
    nc = len(fm.constituents[-1].coloops())
    ok = all(x >= nc and y >= nl for x, y in kt(fm).terms)
    report.data["loops"] = nl
    report.data["coloops"] = nc
    report.check("monomial-wise divisibility by x^%d y^%d" % (nc, nl), ok)
    return report


def check_coefficient_theorem(fm):
    """Support-wide check of the two-step 0/1 coefficient rule."""
    if fm.k != 2:
        raise InputError("the coefficient rule is for two-step flags")
    m1, m2 = fm.constituents
    r1, r2 = fm.ranks
    report = VerifyReport("coefficients")
    phi_t = _ktt_support(fm)
    ok_sum = True
    ok_rule = True
    for w, coeff in phi_t.support.items():
        for exps, gamma in coeff.terms.items():
            a = exps[coeff.vars.index("u")]
            b = exps[coeff.vars.index("v")]
            i, j = r2 - a, b
            if sum(w) != r1 + i + j:
                ok_sum = False
            c = sum(1 for x in w if x == 1)
            bound = abs(r1 + j - i)
            if c < bound:
                ok_rule = False
            elif c == bound:
                s2 = sum(1 << idx for idx, x in enumerate(w) if x >= 1)
                s1 = sum(1 << idx for idx, x in enumerate(w) if x == 2)
                good = (m1.rank(s2) == r1
                        and m2.rank(s1) == s1.bit_count())
                if gamma != 1 or not good:
                    ok_rule = False
    report.check("coordinate sums match r1 + i + j", ok_sum)
    report.check("0/1 coefficient rule at the few-ones boundary", ok_rule)
    return report


def check_kchi_conjecture(m):
    """Observe whether k_char of (U_{1,n}, M) collapses to (q-1)^rank."""
    n = m.n
    if m.loops():
        raise InputError("conjecture check needs a loopless matroid")
    u1n = Matroid.uniform(1, n)
    fm = FlagMatroid((u1n, m))
    got = k_char(fm)
    q = AuxPolynomial.variable("q")
    expected = (q - 1) ** m.rank_value
    report = VerifyReport("kchi-conjecture")
    report.data["matches"] = bool(got == expected)
    report.data["value"] = got
    report.details.append(("k_char equals (q-1)^r", bool(got == expected)))
    return report


def brion_example_report():
    """Reproduce the five-term trapezoid sum from the six vertex cones."""
    report = VerifyReport("brion-example")
    fm = flag(Matroid.uniform(1, 3), Matroid.uniform(2, 3))
    pairs = [
        ((1, 1, 0), (0b001, 0b011)),
        ((1, 0, 1), (0b001, 0b101)),
        ((0, 2, 0), (0b010, 0b011)),
        ((0, 0, 2), (0b100, 0b101)),
        ((0, 2, 0), (0b010, 0b110)),
        ((0, 0, 2), (0b100, 0b110)),
    ]
    terms = []
    for apex, fb in pairs:
        gens = tangent_cone_generators(fm, fb)
        for cell in triangulate_half_open(apex, gens):
            terms.append(GenFunTerm(AuxPolynomial.constant(1), cell))
    from .genfun import coefficient_at, slice_genfun, support
    g = GenFun(3, terms)
    phi = support(g)
    expected = EquivariantPolynomial(3, {
        (1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1,
    })
    report.check("vertex-cone sum equals the five-term polynomial",
                 phi == expected)
    sl = support(slice_genfun(g, (1, 0, 0), 0))
    report.check("slice at e1 = 0",
                 sl == EquivariantPolynomial(3, {(0, 2, 0): 1, (0, 1, 1): 1,
                                                 (0, 0, 2): 1}))
    report.check("coefficient of t1^2 vanishes",
                 coefficient_at(g, (2, 0, 0)).is_zero())
    report.check("coefficient of t2^2 is one",
                 coefficient_at(g, (0, 2, 0)) == AuxPolynomial.constant(1))
    report.data["polynomial"] = phi
    return report


# ------------------------------------------------------------- CLI plumbing


class InvariantResult:
    """A computed invariant with its provenance metadata."""

    __slots__ = ("polynomial", "equivariant", "metadata")

    def __init__(self, polynomial, equivariant=None, metadata=None):
        self.polynomial = polynomial
        self.equivariant = equivariant
        self.metadata = metadata or {}


def _input_hash(obj):
    if isinstance(obj, FlagMatroid):
        key = obj.key()
    elif isinstance(obj, Matroid):
        key = obj.key()
    else:
        key = tuple(obj)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _as_flag(obj):
    if isinstance(obj, FlagMatroid):
        return obj
    return flag(obj)


def _as_matroid(obj):
    if isinstance(obj, Matroid):
        return obj
    if isinstance(obj, FlagMatroid) and obj.k == 1:
        return obj.constituents[0]
    raise InputError("this invariant needs a single matroid")


def _as_quotient_pair(obj):
    if isinstance(obj, FlagMatroid) and obj.k == 2:
        return obj.constituents
    if isinstance(obj, Matroid):
        return obj, obj
    raise InputError("this invariant needs a two-step flag matroid")


def compute_invariant(name, obj, equivariant=False, seed=0):
    """Dispatch a named invariant computation; see the CLI for names."""
    t0 = time.perf_counter()
    eq = None
    if name == "tutte":
        poly = tutte(_as_matroid(obj))
    elif name == "characteristic":
        poly = characteristic(_as_matroid(obj))
    elif name == "lvt":
        m1, m2 = _as_quotient_pair(obj)
        poly = lv_tutte(m1, m2)
        if equivariant:
            eq = lv_tutte_equivariant(m1, m2)
    elif name == "kt":
        fm = _as_flag(obj)
        poly = kt(fm)
        if equivariant:
            eq = kt_equivariant(fm)
    elif name == "h":
        poly = h_polynomial(_as_flag(obj))
    elif name == "h-lv":
        poly, in_uv = h_candidate_lv(_as_flag(obj))
    elif name == "beta":
        m1, m2 = _as_quotient_pair(obj)
        poly, _ = beta_polynomial(m1, m2)
    elif name == "beta-reduced":
        m1, m2 = _as_quotient_pair(obj)
        _, poly = beta_polynomial(m1, m2)
    elif name == "beta-invariant":
        poly = AuxPolynomial.constant(beta_invariant(_as_matroid(obj)))
    elif name == "poincare":
        m1, m2 = _as_quotient_pair(obj)
        poly = poincare(m1, m2)
    elif name == "kchar":
        poly = k_char(_as_flag(obj))
    else:
        from .errors import UnknownInvariant
        raise UnknownInvariant("no invariant named %r" % name)
    meta = {
        "invariant": name,
        "input": _input_hash(obj),
        "seconds": time.perf_counter() - t0,
    }
    return InvariantResult(poly, eq, meta)
