"""Polynomial invariants of matroids, matroid quotients, and flag matroids.

The corank-nullity family (Tutte, characteristic, Las Vergnas Tutte, beta,
Poincare) is read off each matroid's rank table (matroid.rank_table): one
bincount of the subsets per (corank, nullity, gap) into a dense int64 array
C.  Tutte and Las Vergnas Tutte open (x - 1)^a (y - 1)^b as P^T C P with a
signed Pascal matrix P (batched over the gap axis), in int64, as every
entry stays below 4^n <= 2^48; characteristic, beta and Poincare multiply C
by the (-1)^(cr + nl + gap) parity grid and sum the dropped axes.  Every
one of them reads C through _quotient_counts, which checks the quotient and
counts once per pair: C is kept on the first matroid for its latest partner.
Results are built with Python int coefficients (_poly).  The
flag-geometric family (KT, its equivariant refinement, the h-polynomial) is
computed from the localization sum over flag bases, with the flag as the
unit of work.  _flag_cells holds, per flag, the half-open triangulations of
the tangent cones at all its flag bases as int arrays (ray tails, heads,
open flags and basis per cell), the lattice frames of the class cells with
each cell's class cell and each basis's relabelling, plus each basis's slot
order and level counts.  One closed-form numerator serves every flag basis
(_numerator, memoized per mode and slot counts): each coordinate's factor
depends only on its slot type (inside B_1, inside B_k but not B_1, outside
B_k).  Both the t = 1 value and the full equivariant sum are
multiplicative over a direct sum, so both routes take a flag's blocks
and their labelled keys from one walk (_labelled_blocks: the flag's own
key() when it is connected, else _restrict's) and look each up in the
route's cache (_block_part); a miss computes on the flag its key builds
(_flag_of_key).  A t = 1 block value is one pass of genfun's
specialization core over the arrays, kept as Python ints in an object
array indexed [u, v]; the values multiply as arrays (_times, one 1-D
convolution), and kt, h and k_char read their coefficients off the product
and build their polynomial once (_poly).  A block support reads each
cell's rows off its class cell's frame, its columns permuted by its
basis's relabelling, flips them along the default direction and goes
through the support core (_flag_kernels).
Relabelling a block leaves its value and permutes its support's columns,
so a block whose labelled key misses asks one relabelling-class index, kept
in the same cache (_class_part): per degree profile and mode, the first
block met.  A block of a known profile that the colour-order map, checked
exactly, or equal canonical keys (_canonical, coloured by the colour
refinement cones._refine that also relabels exchange digraphs) carry onto
that representative takes its value as is and its support with the point
columns gathered; any other block is computed in its own labelling, and
a block whose profile is new pays the profile alone.  The supports of a
disconnected flag's blocks multiply as arrays once per multiset of
labelled block keys, and the product is kept with its decoded row
coefficients: each flag with those blocks gathers its columns from it
(_gathered_support).  Verifiers compare supports undecoded
(_flag_support), as tallies of counts per distinct (point, class image)
row (_tally).
Every `compute` invariant and `verify` identity is one entry of _INVARIANTS
or _IDENTITIES: its input kind, functions, and for an identity its default.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

from .cones import (
    _box_points, _refine, _row_ranks, _tangent_generators, _triangulate,
    tangent_cone_generators, triangulate_half_open,
)
from .corpus import matroid_corpus
from .errors import (
    GroundSetTooLarge, HasLoopOrColoop, InputError, LoopOrColoop,
    NotAQuotient, NotDivisible, NotInUV, RankGapZero, RankZeroConstituent,
    UnknownIdentity, UnknownInvariant,
)
from .genfun import (
    _SUPPORT_CELLS, EquivariantPolynomial, GenFun, GenFunTerm, _Support,
    _decode_support, _flipped_rows, _row_coefficients, _specialize_t1,
    _support_core, _support_product,
)
from .lru import LRUCache
from .matroid import (
    FlagMatroid, Matroid, _polytope_members, _relabel, _subset_sizes, flag,
    flag_dual, higgs_factorization, is_quotient, pseudo_basis_masks,
    rank_table,
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
    vector): P^T @ A @ P, batched.  int64 products stay off BLAS, and an
    object array of Python ints stays exact."""
    A = A @ _pascal(A.shape[-1]).astype(A.dtype, copy=False)
    if A.ndim > 1:
        A = _pascal(A.shape[-2]).astype(A.dtype, copy=False).T @ A
    return A


def _poly(vars, coeffs):
    """The AuxPolynomial whose coefficient of vars^e is coeffs[e], an int."""
    idx = np.nonzero(coeffs)
    return AuxPolynomial._trusted(vars, dict(zip(
        zip(*(i.tolist() for i in idx)), coeffs[idx].tolist())))


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


def _quotient_counts(m1, m2):
    """The number of subsets per (cr, nl, gap) of a quotient pair, a dense
    read-only int64 b^3 array.

    Kept on m1 with its partner, (m2, counts), or (None, counts) when m1 is
    m2, which needs no quotient check and forms no reference cycle: each
    matroid keeps the array of its latest partner only, and it dies with
    the matroid.  A pair that is no quotient raises NotAQuotient and is
    never kept.  Products with the array stay in int64: an entry or partial
    sum is at most sum_S C(cr, i) C(nl, j) <= sum_S 2^(cr + nl), and
    cr <= |E - S| (as r1 <= rk1(S) + |E - S|) and nl <= |S|, so at most
    2^n 2^n = 4^n: 2^48 at RANK_TABLE_MAX = 24.
    """
    partner = None if m1 is m2 else m2
    kept = m1._counts
    if kept is not None and kept[0] is partner:
        return kept[1]
    if partner is not None:
        _require_quotient(m1, m2)
    codes, b = _corank_nullity_codes(m1, m2)
    counts = np.bincount(codes, minlength=b ** 3).reshape(b, b, b)
    counts.setflags(write=False)
    m1._counts = (partner, counts)
    return counts


@lru_cache(maxsize=64)
def _parity(b):
    """(-1)^(cr + nl + gap) over a b^3 count array."""
    grid = (-1) ** np.indices((b, b, b)).sum(axis=0)
    grid.setflags(write=False)
    return grid


def _signed(counts, sign, drop):
    """sum (-1)^(sign + cr + nl + gap) of the counts over axes drop."""
    out = (counts * _parity(len(counts))).sum(axis=drop)
    return -out if sign & 1 else out


def tutte(m):
    """The Tutte polynomial by the corank-nullity sum, in x and y."""
    return _poly(("x", "y"), _open_shifts(_quotient_counts(m, m).sum(axis=2)))


def characteristic(m):
    """The characteristic polynomial chi(q) = (-1)^r T(1-q, 0)."""
    return _poly(("q",), _signed(_quotient_counts(m, m), m.rank_value,
                                 (1, 2)))


def lv_tutte(m1, m2):
    """The three-variable corank-nullity polynomial of a quotient, in x,y,z."""
    counts = _quotient_counts(m1, m2).transpose(2, 0, 1)
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
    return EquivariantPolynomial._trusted(n, support, ("u", "v", "w"))


# ------------------------------------------------- localization sum machinery


_CELLS_CACHE = LRUCache(1024)
_VALUE_CACHE = LRUCache(8192)
_SUPPORT_CACHE = LRUCache(2048)
_CANON_ENTRIES = 1 << 18


class _FlagCells(NamedTuple):
    """The triangulated tangent cones of all flag bases of one flag.

    Per cell (C x d, d the dimension of the base polytope): tails and heads
    of its rays (the ray e_j - e_i has tail i and head j), open flags, and
    owner, the index of its flag basis.  frames, cell and order are the
    class cells' lattice frames, per cell its class cell and per basis its
    relabelling, as cones._triangulate returns them.  Per flag basis (B x
    n): slots, its coordinates ordered by slot type (inside B_1, inside B_k
    but not B_1, outside B_k; ascending within a type), and levels, how
    many of B_1, ..., B_{k-1} hold each coordinate.  Every array is
    read-only.
    """
    tails: np.ndarray
    heads: np.ndarray
    opens: np.ndarray
    owner: np.ndarray
    frames: np.ndarray
    cell: np.ndarray
    order: np.ndarray
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
    cells = _triangulate(_tangent_generators(fm, chains))
    member = ((chains[:, :, None] >> np.arange(n, dtype=np.uint64))
              & 1).astype(np.int64)
    kind = 2 - member[:, -1] - member[:, 0]
    out = _FlagCells(*cells, np.argsort(kind * n + np.arange(n), axis=1),
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


# A digit row's (u, v, m) exponent sums, each below 2^7 as n <= 64, as one
# integer code: the codes of two sets of slots add to the code of their union
_CODE = np.array([1 << 14, 1 << 7, 1], dtype=np.int64)


class _Numerator(NamedTuple):
    """The closed-form numerator of a flag basis, from its slot counts.

    steps (R x n int8) are the t-exponents of the digit rows on the slots,
    ordered by type, and code their (u, v, m) codes (_CODE).  The Pascal
    split turns the rows into distinct monomials: split row i is digit row
    rows[i] in class cls[i] with multiplicity vals[i].  classes lists the
    (u, v) exponent pairs, sorted.
    """
    steps: np.ndarray
    code: np.ndarray
    rows: np.ndarray
    cls: np.ndarray
    vals: np.ndarray
    classes: tuple


@lru_cache(maxsize=256)
def _numerator(mode, counts):
    """The _Numerator of a flag with counts slots of each type.

    One term per slot gives one digit row per mixed-radix digit vector,
    the first slot the fastest; a row that picked (1 + uv) m times splits
    by Pascal's triangle into m + 1 rows, (u + j, v + j) with weight
    C(m, j).  The arrays are read-only.  Memoized per (mode, counts).
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
    uvm = chosen[:, :, 1:].sum(axis=1)
    U, V, M = uvm.T
    reps = M + 1
    rows = np.repeat(np.arange(len(M)), reps)
    j = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
    vstr = sum(counts) + 1
    used, cls = np.unique((U[rows] + j) * vstr + V[rows] + j,
                          return_inverse=True)
    out = _Numerator(chosen[:, :, 0].astype(np.int8), uvm @ _CODE, rows,
                     cls.reshape(-1),
                     np.abs(_pascal(int(M.max()) + 1)[M[rows], j]),
                     tuple(divmod(int(c), vstr) for c in used))
    for a in out[:-1]:
        a.setflags(write=False)
    return out


def _slot_counts(fm):
    r1, rk = fm.ranks[0], fm.ranks[-1]
    return (r1, rk - r1, fm.n - rk)


def _apex_box(cells, steps, levels):
    """The least and greatest numerator exponent of each coordinate over
    all flag bases: coordinate i of a basis takes the steps of its slot,
    plus its level."""
    rank = np.argsort(cells.slots, axis=1)
    return ((steps.min(axis=0)[rank] + levels).min(axis=0),
            (steps.max(axis=0)[rank] + levels).max(axis=0))


def _flag_kernels(fm, mode):
    """The localization sum of a flag as arrays for _support_core.

    The cells of _flag_cells, each owned by its flag basis.  How many
    coordinates each slot type of _SLOT_TERMS holds depends only on the
    ranks, so one closed-form numerator (_numerator) serves every basis,
    and its digit rows factor over any split of the slots: the slots,
    ordered by type, split at n // 2 into two half factors of digit rows
    and codes.  Basis b places slot s on coordinate cells.slots[b, s] and
    adds its levels (mode "kt"); the Pascal split maps each code to its
    classes.
    A cell's rows are its class cell's frame, columns permuted by its
    basis's relabelling, less the first component row (implied on the
    sum-zero box), flipped along cones.default_direction by _flipped_rows:
    the ray e_j - e_i pairs with it to i - j, so the rays with j > i
    reverse.  Returns ((M, thr, signs, owner), (order, levels, halves,
    codes, pascal), classes), classes the sorted (u, v) exponent pairs.
    """
    cells = _flag_cells(fm)
    counts = _slot_counts(fm)
    whole = _numerator(mode, counts)
    # digit row d0 + R0 d1 is the pair of half rows (d0, d1), R0 the rows
    # over the first n // 2 slots, and its code their sum
    h = fm.n // 2
    R0 = prod(len(_SLOT_TERMS[mode][t])
              for t in np.repeat(np.arange(3), counts)[:h].tolist())
    halves = ((whole.steps[None, :R0, :h],
               whole.code[None, :R0] - whole.code[0],
               np.ones((1, R0), dtype=np.int64)),
              (whole.steps[None, ::R0, h:], whole.code[None, ::R0],
               np.ones((1, len(whole.code) // R0), dtype=np.int64)))
    codes, at = np.unique(whole.code, return_inverse=True)
    pascal = np.zeros((len(codes), len(whole.classes)), dtype=np.int64)
    pascal[at[whole.rows], whole.cls] = whole.vals
    n, d = fm.n, cells.tails.shape[1]
    # column v of a cell's rows is column u of its class frame, where
    # order[owner, u] = v
    inv = np.argsort(cells.order, axis=1)[cells.owner]
    rows = cells.frames[cells.cell[:, None, None], np.arange(n)[:, None],
                        inv[:, None, :]]
    return (_flipped_rows(rows[:, :d], rows[:, d + 1:],
                          cells.heads > cells.tails, cells.opens,
                          np.ones(len(cells.owner), dtype=np.int64))
            + (cells.owner,),
            (cells.slots, (mode == "kt") * cells.levels, halves, codes,
             pascal), list(whole.classes))


def _whole_support(fm, mode):
    """The support of a flag's localization sum in array form, from one
    pass of the support core over the whole flag, never split.

    Raises GroundSetTooLarge before any array is built when a cost
    estimate, flag bases times split numerator rows times n, passes the
    support core's _SUPPORT_CELLS budget (no array of that size is built).
    """
    whole = _numerator(mode, _slot_counts(fm))
    cost = len(fm.flag_bases()) * len(whole.rows) * fm.n
    if cost > _SUPPORT_CELLS:
        raise GroundSetTooLarge(
            "support cost estimate of %d (flag bases x split numerator "
            "rows x n) exceeds %d" % (cost, _SUPPORT_CELLS))
    cells, numerators, classes = _flag_kernels(fm, mode)
    los, his = _apex_box(_flag_cells(fm), whole.steps, numerators[1])
    return _support_core(fm.n, tuple(los.tolist()), tuple(his.tolist()),
                         cells, numerators, classes, ("u", "v"), 1)


def _gathered_support(fm, mode):
    """A flag's support as a _Support, and one coefficient per table row
    (None for a connected flag, decoded afresh).

    A connected flag's support is its block's (_block_part over
    _SUPPORT_CACHE: on a miss, a relabelled representative's support with
    its columns gathered, else _whole_support).  The support of a direct sum
    is the product of its blocks' supports, and where the blocks sit only
    permutes the point columns.  So the product (_support_product) is
    taken once per multiset of labelled block keys (_labelled_blocks) and
    mode, on the contiguous layout of the blocks in key order, and kept in
    _SUPPORT_CACHE under the tagged key ("blocks", keys, mode) with its
    decoded row coefficients (_row_coefficients); each flag with those
    blocks gathers its columns from it, so its points pair up in C order of
    its blocks in key order.
    """
    blocks = sorted(_labelled_blocks(fm), key=lambda block: block[1])
    if len(blocks) == 1:
        return _block_part(blocks[0][1], mode, _SUPPORT_CACHE,
                           _whole_support), None
    tag = ("blocks", tuple(key for _, key in blocks), mode)
    entry = _SUPPORT_CACHE.lookup(tag)
    if entry is None:
        product = _support_product(fm.n, [
            _block_part(key, mode, _SUPPORT_CACHE, _whole_support)
            for _, key in blocks])
        entry = (product, _row_coefficients(product))
        _SUPPORT_CACHE.store(tag, entry)
    product, polys = entry
    # column c of the product is element placed[c] of the flag
    placed = [j for s, _ in blocks for j in range(fm.n) if s >> j & 1]
    return (product._replace(points=product.points[:, np.argsort(placed)]),
            polys)


def _flag_support(fm, mode="kt"):
    """The full equivariant localization sum of a flag as a _Support.

    Valid for any quotient chain, including a rank-0 first constituent
    (the sum itself makes sense verbatim there).  The mode selects the
    numerator; see _flag_kernels.  Each numerator factor depends on one
    coordinate, so the sum is multiplicative over a direct sum: a
    disconnected flag's support is its blocks' product, kept per multiset
    of blocks (_gathered_support).  Every count is over den 1, the support
    core's denominator on this route.
    """
    return _gathered_support(fm, mode)[0]


def _ktt_support(fm, mode="kt"):
    """_flag_support decoded to a Laurent polynomial.  A disconnected
    flag's coefficient objects are those kept with its product of blocks,
    shared with every flag of the same blocks; a connected flag's are
    decoded afresh."""
    return _decode_support(*_gathered_support(fm, mode))


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
    by position in s (matroid._relabel, all constituents in one call), and
    restricted to a separator a quotient chain stays one, so _flag_of_key
    builds the flag without re-validating it.
    """
    return tuple(_relabel([m.bases_masks for m in fm.constituents], s))


def _labelled_blocks(fm):
    """(mask, labelled key) per block of a flag (_flag_blocks): the
    flag's own key() when it is connected, else _restrict's."""
    blocks = _flag_blocks(fm)
    if len(blocks) == 1:
        return [(blocks[0], fm.key())]
    return [(s, _restrict(fm, s)) for s in blocks]


def _flag_of_key(key):
    return FlagMatroid(tuple(Matroid(n, bases, _trusted=True)
                             for n, bases in key), _trusted=True)


def _block_part(key, mode, cache, compute):
    """The part of one connected block, looked up in cache under (key,
    mode), and on a miss taken from the relabelling-class index
    (_class_part) and stored."""
    part = cache.lookup((key, mode))
    if part is None:
        part = _class_part(key, mode, cache, compute)
        cache.store((key, mode), part)
    return part


class _Representative(NamedTuple):
    """The first block met of one degree profile and mode (_class_part):
    its labelled key, its elements in colour order (by degree tuple, then
    label), its part, and its _canonical (key, map), None until needed."""
    key: tuple
    order: np.ndarray
    part: object
    canon: tuple = None


def _key_bits(key):
    """Per constituent of a flag key, its bases as a (B x n) uint64 0/1
    array: entry (b, i) is bit i of basis b."""
    shifts = np.arange(key[0][0], dtype=np.uint64)
    return [(np.array(bases, dtype=np.uint64)[:, None] >> shifts) & 1
            for _, bases in key]


def _profile(key, degrees):
    """The degree profile of a flag key: n, the basis count of each
    constituent and the sorted multiset of per-element degree tuples (how
    many bases of each constituent hold the element).  Relabelling keeps
    it."""
    return (key[0][0], tuple(len(bases) for _, bases in key),
            tuple(sorted(map(tuple, degrees.tolist()))))


def _class_part(key, mode, cache, compute):
    """The part of a connected block whose labelled key missed cache,
    through the relabelling-class index kept in the same cache.

    Relabelling a block permutes the torus coordinates, so its t -> 1
    value is unchanged and its support's point columns are permuted.  The
    index holds, under ("class", degree profile, mode) (_profile), the
    first block met of that profile (_Representative).  A block of a new
    profile is computed by compute(_flag_of_key(key), mode) in its own
    labelling and becomes the representative.  A block of a known profile
    that is a relabelling of the representative (_relabelling) takes the
    representative's part, moved by the map (_moved); any other block is
    computed in its own labelling and does not enter the index.
    """
    bits = _key_bits(key)
    degrees = np.stack([b.sum(axis=0) for b in bits], axis=1)
    order = np.lexsort(degrees.T[::-1])
    tag = ("class", _profile(key, degrees), mode)
    rep = cache.lookup(tag)
    if rep is not None:
        sigma = _relabelling(key, bits, order, rep, cache, tag)
        if sigma is not None:
            return _moved(rep.part, sigma)
    part = compute(_flag_of_key(key), mode)
    if rep is None:
        cache.store(tag, _Representative(key, order, part))
    return part


def _relabelling(key, bits, order, rep, cache, tag):
    """A map sigma carrying the block of key onto the representative rep,
    element i to element sigma[i], or None when there is none.

    First the colour-order map: the elements of both in colour order,
    paired by position, checked exactly against every constituent's sorted
    basis masks.  If that fails, the two _canonical keys are compared, the
    representative's computed once and kept in its entry; equal keys give
    the map through the canonical labelling.  Past _canonical's budget a
    key is its own canonical key, so a block that the colour-order map
    misses is then computed anew: correct, only not shared.
    """
    if len(order) == len(rep.order) and len(bits) == len(rep.key):
        sigma = np.empty(len(order), dtype=np.intp)
        sigma[order] = rep.order
        moved = np.uint64(1) << sigma.astype(np.uint64)
        if all(np.array_equal(np.sort(b @ moved),
                              np.array(bases, dtype=np.uint64))
               for b, (_, bases) in zip(bits, rep.key)):
            return sigma
    if rep.canon is None:
        rep = rep._replace(canon=_canonical(rep.key))
        cache.store(tag, rep)
    ckey, at = _canonical(key)
    if ckey != rep.canon[0]:
        return None
    # key under at equals rep.key under rep.canon[1]
    return np.argsort(rep.canon[1])[at]


def _moved(part, sigma):
    """A representative's part as the part of a block that sigma carries
    onto it: a t -> 1 value as is, a support with its point columns
    gathered by sigma."""
    if isinstance(part, _Support):
        return part._replace(points=part.points[:, sigma])
    return part


def _canonical(key):
    """A canonical form of a flag key under relabelling, and its position map.

    Returns (ckey, sigma): ckey is key relabelled by sigma, element i going
    to position sigma[i], and relabelled keys give the same ckey.  Each
    pair of elements is labelled by the rank of its pair counts, how many
    bases of each constituent hold both, and the elements are coloured by
    the colour refinement of that labelled graph (cones._refine), starting
    from the diagonal: how many bases of each constituent hold them.  The
    colours are ranks of these invariants, so the classes take consecutive
    positions in an order that relabelling keeps.  ckey is the least key,
    comparing the sorted basis tuples constituent by constituent, over every
    relabelling that respects the classes, found in one pass: each
    candidate's image masks, sorted per constituent, then lexsort.  When
    candidates times bases pass _CANON_ENTRIES, ckey is key itself with the
    identity map: correct, only not shared with its relabellings.
    """
    n = key[0][0]
    total = sum(len(bases) for _, bases in key)
    if n < 2 or total > _CANON_ENTRIES:
        return key, np.arange(n)
    bits = _key_bits(key)
    pairs = np.stack([b.T @ b for b in bits], axis=2)
    code = _row_ranks(pairs.reshape(n * n, -1))[0].reshape(n, n)
    colour = _refine(code[None], code.diagonal()[None, :, None])[0]
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


def _times(a, b):
    """The product of two [u, v] coefficient arrays of Python ints: one 1-D
    convolution of their rows, each padded with Python zeros (np.zeros of
    dtype object) to the product's width, so no column carries into the
    next row."""
    rows, width = len(a) + len(b) - 1, a.shape[1] + b.shape[1] - 1
    flat = []
    for x in (a, b):
        padded = np.zeros((len(x), width), dtype=object)
        padded[:, :x.shape[1]] = x
        flat.append(padded.ravel())
    return np.convolve(*flat)[:rows * width].reshape(rows, width)


def _localization_array(fm, mode):
    """The t -> 1 value of a localization sum: its coefficients, Python
    ints in an object array indexed [u, v].

    The sum is multiplicative over a direct sum, so a flag is the product
    (_times) of its blocks' values (_block_part over _VALUE_CACHE per
    labelled key of _labelled_blocks, _connected_value on a miss, unless a
    relabelling of the block was met: _class_part); the empty product is
    1.  The array may be a cached one, read-only.
    """
    parts = [_block_part(key, mode, _VALUE_CACHE, _connected_value)
             for _, key in _labelled_blocks(fm)]
    return reduce(_times, parts) if parts else np.ones((1, 1), dtype=object)


def _localization_value(fm, mode):
    """_localization_array as a polynomial in u and v."""
    return _poly(("u", "v"), _localization_array(fm, mode))


def _connected_value(fm, mode):
    """The t -> 1 value of a flag of one block, a read-only object array of
    Python ints indexed [u, v].

    One pass of _specialize_t1 over the arrays of _flag_cells with the
    weight w = (1, ..., n), which pairs every ray e_j - e_i to j - i, never
    0: the z-exponents of all flag bases' numerator rows are one product of
    the shared slot steps with w gathered in each basis's slot order.
    """
    cells = _flag_cells(fm)
    num = _numerator(mode, _slot_counts(fm))
    levels = (mode == "kt") * cells.levels
    los, his = _apex_box(cells, num.steps, levels)
    points = prod((his - los + 1).tolist())
    w = np.arange(1, fm.n + 1, dtype=np.int64)
    values = _specialize_t1(w[cells.heads] - w[cells.tails],
                            w[cells.slots] @ num.steps[num.rows].T
                            + (levels @ w)[:, None], points, cells.opens, 1,
                            cells.owner, num.cls, num.vals, len(num.classes))
    u, v = np.array(num.classes).T
    out = np.zeros((u.max() + 1, v.max() + 1), dtype=object)
    out[u, v] = values
    out.setflags(write=False)
    return out


def kt(fm):
    """The flag-geometric Tutte polynomial in x and y.

    Computed as the t = 1 value of the localization sum (which also covers
    a rank-0 first constituent) followed by u = x-1, v = y-1.
    """
    return _poly(("x", "y"), _open_shifts(_localization_array(fm, "kt")))


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
    sum c_m (uv)^m, the h-polynomial is sum c_m (1-s)^m =
    sum (-1)^m c_m (s-1)^m, the diagonal of the value's array opened.
    """
    _check_loops_coloops(fm)
    V = _localization_array(fm, "h")
    c = V.diagonal().copy()
    if np.count_nonzero(c) != np.count_nonzero(V):
        raise NotInUV("untwisted localization value has a term off the "
                      "uv-diagonal")
    c[1::2] *= -1
    return _poly(("s",), _open_shifts(c))


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
    chi = _signed(_quotient_counts(m, m), 1, (1, 2))  # (-1)^(r - 1) chi
    return Fraction(int(np.arange(len(chi)) @ chi))


def beta_polynomial(m1, m2):
    """The beta polynomial of a quotient and its (q-1)-reduced form."""
    counts = _quotient_counts(m1, m2)
    if m1.rank_value == m2.rank_value:
        raise RankGapZero("beta polynomial reduction needs r2 > r1")
    beta = _signed(counts, m2.rank_value - m1.rank_value, (0, 1))
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
    return _poly(("q", "s"), _signed(_quotient_counts(m1, m2),
                                     m2.rank_value, 1))


def k_char(fm):
    """The flag-geometric characteristic polynomial (-1)^{r_k} KT(1-q, 0).

    KT(1-q, 0) is the t -> 1 value V at u = -q, v = -1, so the coefficient
    of q^a is (-1)^(r_k + a) sum_b (-1)^b V[a, b].
    """
    V = _localization_array(fm, "kt")
    c = V[:, ::2].sum(axis=1) - V[:, 1::2].sum(axis=1)
    c[1 - fm.ranks[-1] % 2::2] *= -1
    return _poly(("q",), c)


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


def _tally(*parts):
    """Counts summed per distinct (point, class image) row over supports.

    Each part is (points, counts, images): points P x n, counts P x C and
    images C x m, each class's image under a class map.  Returns the
    distinct rows in lexicographic order (cones._row_ranks), their nonzero
    sums as a last column: equal sums of supports give equal arrays.
    """
    rows, sums = [], []
    for points, counts, images in parts:
        at, cls = np.nonzero(counts)
        rows.append(np.concatenate([points[at], images[cls]], axis=1))
        sums.append(counts[at, cls])
    rows, sums = np.concatenate(rows), np.concatenate(sums)
    rank, first = _row_ranks(rows - rows.min(axis=0, initial=0))
    total = np.zeros(len(first), dtype=np.int64)
    np.add.at(total, rank, sums)
    keep = np.flatnonzero(total)
    return np.concatenate([rows[first[keep]], total[keep, None]], axis=1)


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

    # u -> 1/q, v -> q, times q^{r1 + r2}: class (a, b) has q-degree
    # r1 + r2 - a + b
    sup = _flag_support(fm)
    a, b = sup.exponents().T
    lhs = _tally((sup.points, sup.counts, (rsum - a + b)[:, None]))
    # t^{e_S} q^{|S|} per pseudo-basis S, times (1 + t_i q) one coordinate
    # at a time, collected after each step; the q-degree is a last point
    # column under the single class
    unit = np.zeros((1, 0), dtype=np.int64)
    bits = (np.array(pbs, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    rhs = _tally((np.concatenate([bits, bits.sum(axis=1, keepdims=True)],
                                 axis=1),
                  np.ones((len(bits), 1), dtype=np.int64), unit))
    steps = np.eye(n, n + 1, dtype=np.int64)
    steps[:, n] = 1
    for step in steps:
        rows, counts = rhs[:, :-1], rhs[:, -1:]
        rhs = _tally((rows, counts, unit), (rows + step, counts, unit))
    report.check("equivariant pseudo-basis identity",
                 np.array_equal(lhs, rhs))

    phi = _localization_value(fm, "kt")
    qinv = AuxPolynomial.monomial(("q",), (-1,))
    q = AuxPolynomial.variable("q")
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


def verify_delcont(m, e, ell=2):
    """Check the l-fold equivariant deletion-contraction identity at e."""
    loops = m.loops()
    coloops = m.coloops()
    if e in loops or e in coloops:
        raise LoopOrColoop("element %d is a loop or coloop" % e)
    report = VerifyReport("delcont")
    fm = FlagMatroid((m,) * ell)
    dele, _ = m.minor(delete=(e,))
    cont, _ = m.minor(contract=(e,))
    subs = [FlagMatroid((cont,) * (ell - i) + (dele,) * i)
            for i in range(ell + 1)]
    # the i-th minor's supports sit at exponent ell - i on coordinate e
    sup = _flag_support(fm)
    lhs = _tally((sup.points, sup.counts, sup.exponents()))
    rhs = _tally(*[(np.insert(s.points, e - 1, ell - i, axis=1), s.counts,
                    s.exponents())
                   for i, s in enumerate(map(_flag_support, subs))])
    report.check("equivariant %d-fold identity at element %d" % (ell, e),
                 np.array_equal(lhs, rhs))

    lhs_v = _localization_value(fm, "kt")
    rhs_v = AuxPolynomial.zero(("u", "v"))
    for sub in subs:
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
    return len(_lattice_points(fm))


def check_duality(fm):
    """Equivariant and plain duality: reverse-dualize, swap u and v.

    Support exponents of a k-step flag live in [0, k]^n, so the dual support
    is the image under w -> k - w coordinatewise.
    """
    dual = flag_dual(fm)
    report = VerifyReport("duality")
    s, d = _flag_support(fm), _flag_support(dual)
    report.check("equivariant duality", np.array_equal(
        _tally((fm.k - s.points, s.counts, s.exponents()[:, ::-1])),
        _tally((d.points, d.counts, d.exponents()))))
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
    points = _lattice_points(fm)
    expected = len(points)
    report.data["lattice_points"] = expected
    phi = _localization_value(fm, "kt")
    value = phi.constant_term()
    report.check("kt at (1,1) equals the lattice-point count",
                 value == expected
                 and kt(fm).substitute({"x": 1, "y": 1})
                 == AuxPolynomial.constant(expected))
    # u = v = 0 keeps the class (0, 0) column alone
    s = _flag_support(fm)
    zero = [c for c, e in enumerate(s.classes) if e == (0, 0)]
    ones = np.ones((len(points), 1), dtype=np.int64)
    report.check("equivariant (1,1) value lists the lattice points",
                 np.array_equal(
                     _tally((s.points, s.counts[:, zero],
                             s.exponents()[zero])),
                     _tally((points, ones, np.zeros((1, 2), dtype=np.int64)))))
    return report


def _lattice_points(fm):
    """The points of the box [0, k]^n on the rank-sum hyperplane in the
    base polytope, by one membership test (matroid._polytope_members)."""
    box = _box_points([0] * fm.n, [fm.k] * fm.n, sum(fm.ranks))
    return box[_polytope_members(fm, box)]


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
    # one row per nonzero coefficient gamma of t^w u^a v^b
    s = _flag_support(fm)
    at, cls = np.nonzero(s.counts)
    w, gamma = s.points[at], s.counts[at, cls]
    a, b = s.exponents()[cls].T
    i, j = r2 - a, b
    ones = (w == 1).sum(axis=1)
    bound = np.abs(r1 + j - i)
    edge = ones == bound
    bits = 1 << np.arange(fm.n)
    s2, s1 = (w >= 1) @ bits, (w == 2) @ bits
    good = ((rank_table(m1)[s2] == r1)
            & (rank_table(m2)[s1] == _subset_sizes(fm.n)[s1]))
    report.check("coordinate sums match r1 + i + j",
                 (w.sum(axis=1) == r1 + i + j).all())
    report.check("0/1 coefficient rule at the few-ones boundary",
                 (ones >= bound).all() and (gamma[edge] == 1).all()
                 and good[edge].all())
    return report


def check_kchi_conjecture(m):
    """Observe whether k_char of (U_{1,n}, M) collapses to (q-1)^rank."""
    n = m.n
    if n < 1:
        raise InputError("conjecture check needs a nonempty ground set "
                         "(n >= 1, for U(1, n)), got n = 0")
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


# ------------------------------------------------------------- registry


class InvariantResult:
    """A computed invariant with its provenance metadata."""

    __slots__ = ("polynomial", "equivariant", "metadata")

    def __init__(self, polynomial, equivariant=None, metadata=None):
        self.polynomial = polynomial
        self.equivariant = equivariant
        self.metadata = metadata or {}


def _input_hash(obj):
    key = obj.key() if isinstance(obj, (FlagMatroid, Matroid)) else tuple(obj)
    import hashlib  # loads OpenSSL, which only this hash needs
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


# Input kinds: each maps a loaded input to the argument tuple of an entry's
# functions.  subject, an identity's name or None for an invariant, only
# words the error.

def _needs(subject, what):
    if subject is None:
        return InputError("this invariant needs %s" % what)
    return InputError("%s needs %s input" % (subject, what))


def _matroid_args(obj, subject):
    if isinstance(obj, Matroid):
        return (obj,)
    if isinstance(obj, FlagMatroid) and obj.k == 1:
        return obj.constituents
    raise _needs(subject, "a single matroid")


def _pair_args(obj, subject):
    if isinstance(obj, FlagMatroid) and obj.k == 2:
        return obj.constituents
    if isinstance(obj, Matroid):
        return obj, obj
    raise _needs(subject, "a two-step flag matroid")


def _flag_args(obj, subject):
    return (obj if isinstance(obj, FlagMatroid) else flag(obj),)


def _flags_args(obj, subject):
    if not (isinstance(obj, list) and len(obj) == 2):
        raise InputError("%s needs a JSON list of exactly two flag documents"
                         % subject)
    return _flag_args(obj[0], subject) + _flag_args(obj[1], subject)


class _Invariant(NamedTuple):
    kind: object  # input kind, as _matroid_args
    value: object  # *args -> AuxPolynomial
    equivariant: object = None  # *args -> EquivariantPolynomial


class _Identity(NamedTuple):
    kind: object  # input kind, as _matroid_args
    default: object  # () -> the built-in inputs, each of that kind
    check: object  # *args -> list of VerifyReport
    observational: bool = False  # reports divergences without failing


# `flagtutte compute --invariant` names, in CLI order
_INVARIANTS = {
    "tutte": _Invariant(_matroid_args, tutte),
    "characteristic": _Invariant(_matroid_args, characteristic),
    "lvt": _Invariant(_pair_args, lv_tutte, lv_tutte_equivariant),
    "kt": _Invariant(_flag_args, kt, kt_equivariant),
    "h": _Invariant(_flag_args, h_polynomial),
    "h-lv": _Invariant(_flag_args, lambda fm: h_candidate_lv(fm)[0]),
    "beta": _Invariant(_pair_args, lambda *p: beta_polynomial(*p)[0]),
    "beta-reduced": _Invariant(_pair_args, lambda *p: beta_polynomial(*p)[1]),
    "beta-invariant": _Invariant(
        _matroid_args, lambda m: AuxPolynomial.constant(beta_invariant(m))),
    "poincare": _Invariant(_pair_args, poincare),
    "kchar": _Invariant(_flag_args, k_char),
}


def _delcont_reports(m):
    """verify_delcont at each element neither a loop nor a coloop, with
    l = 2, and also l = 3 up to five elements."""
    bad = m.loops() | m.coloops()
    ells = (2, 3) if m.n <= 5 else (2,)
    reports = [verify_delcont(m, e, ell) for e in range(1, m.n + 1)
               if e not in bad for ell in ells]
    if not reports:
        raise InputError("every element is a loop or a coloop; the "
                         "three-term identity does not apply")
    return reports


def _one_step_equivariant(m):
    """KT^T of flag(M), through the tangent cones, against the rank-table
    sum lv_tutte_equivariant(M, M): both are the subset-graded sum."""
    report = VerifyReport("one-step-equivariant")
    phi = kt_equivariant(flag(m))
    report.check("kt_equivariant(flag(M)) equals lv_tutte_equivariant(M, M)",
                 phi.canonical_str()
                 == lv_tutte_equivariant(m, m).canonical_str())
    report.data["support_points"] = len(phi.support)
    return [report]


def _flags(*chains):
    """One flag of uniform matroids per chain of (r, n) tuples."""
    return [flag(*(Matroid.uniform(r, n) for r, n in chain))
            for chain in chains]


# `flagtutte verify --identity` names, in CLI order.  Each check looks its
# verifier up in this module when it runs, so a test can replace it.
_IDENTITIES = {
    "delcont": _Identity(_matroid_args, lambda: _flags([(2, 4)]),
                         _delcont_reports),
    "kt22": _Identity(_flag_args, lambda: _flags([(1, 3), (2, 3)]),
                      lambda fm: [verify_kt22(fm)]),
    "lvt-special": _Identity(_pair_args, lambda: _flags([(1, 3), (2, 3)]),
                             lambda *p: [check_lvt_special(*p)]),
    "lvt-delcont": _Identity(_pair_args, lambda: _flags([(1, 3), (2, 3)]),
                             lambda *p: [check_lvt_delcont(*p)]),
    "duality": _Identity(_flag_args, lambda: _flags([(1, 3), (2, 3)]),
                         lambda fm: [check_duality(fm)]),
    "direct-sum": _Identity(
        _flags_args,
        lambda: [_flags([(1, 2)], [(1, 3)]),
                 _flags([(1, 2), (2, 2)], [(1, 3), (2, 3)])],
        lambda *fms: [check_direct_sum(*fms)]),
    "latticepoints": _Identity(_flag_args, lambda: _flags([(1, 3), (2, 3)]),
                               lambda fm: [check_latticepoints(fm)]),
    "h-uv": _Identity(_flag_args, lambda: _flags([(2, 4), (3, 4)]),
                      lambda fm: [verify_h_uv(fm)]),
    "beta-higgs": _Identity(_pair_args, lambda: _flags([(1, 3), (2, 3)]),
                            lambda *p: [check_beta_higgs(*p)]),
    "kchi-conjecture": _Identity(
        _matroid_args,
        lambda: [m for m in matroid_corpus() if m.n <= 5 and not m.loops()],
        lambda m: [check_kchi_conjecture(m)], observational=True),
    "brion-example": _Identity(lambda obj, subject: (), lambda: [None],
                               lambda: [brion_example_report()]),
    "one-step-equivariant": _Identity(
        _matroid_args, lambda: _flags([(2, 4)]), _one_step_equivariant),
}


def compute_invariant(name, obj, equivariant=False, seed=0):
    """Compute a named invariant (_INVARIANTS) of a loaded input.

    seed is accepted for compatibility and changes no result: the flag
    routes pair every ray with one weight vector and draw no fallback.
    """
    t0 = time.perf_counter()
    entry = _INVARIANTS.get(name)
    if entry is None:
        raise UnknownInvariant("no invariant named %r" % name)
    args = entry.kind(obj, None)
    poly = entry.value(*args)
    eq = None
    if equivariant and entry.equivariant is not None:
        eq = entry.equivariant(*args)
    meta = {"invariant": name, "input": _input_hash(obj),
            "seconds": time.perf_counter() - t0}
    return InvariantResult(poly, eq, meta)


def _run_identity(name, obj):
    """The reports of a named identity (_IDENTITIES) on a loaded input, or
    on each of its built-in inputs when obj is None."""
    entry = _IDENTITIES.get(name)
    if entry is None:
        raise UnknownIdentity("no identity named %r (expected one of %s)"
                              % (name, ", ".join(_IDENTITIES)))
    inputs = entry.default() if obj is None else [obj]
    return [report for x in inputs
            for report in entry.check(*entry.kind(x, name))]
