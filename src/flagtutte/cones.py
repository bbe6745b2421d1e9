"""Half-open simplicial cones and the geometry under the localization sums.

The engine only ever meets cones whose rays are difference vectors e_j - e_i
(tangent cones of flag-matroid base polytopes) and their flips and slices.
Their ray matrices are directed-graph incidence matrices, so rank tests,
coordinates and the unimodularity check are graph computations (spanning
forests and tree flows, see `linalg`): an independent set of such rays is
automatically a lattice basis of its span.  Cones with general rays, which
only the public API can build, fall back to exact `Fraction` elimination and
the Smith-form lattice index.  Pointedness and extreme ray tests use digraph
arguments in the difference-vector case and an exact phase-1 simplex
otherwise.

Relabelling coordinates carries a half-open triangulation to a half-open
triangulation, so difference-vector cones are triangulated once per class:
the key is the generator set relabelled by colour refinement of its digraph
(McKay and Piperno, "Practical graph isomorphism, II", 2014).  Each class's
cells are validated once, when they are built, and kept as int arrays.  The
localization sums work on a whole flag at a time: _tangent_generators
builds the exchange digraphs of all its flag bases as one adjacency stack,
_triangulate relabels them (colour refinement of the whole stack in one
batch) and carries each class's cells back to every cone of the class by
one index gather, as arrays of ray tails, ray heads, open flags and owning
cone.
triangulate_half_open builds trusted cone objects from the same arrays for
the public API.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import (
    InternalAssertion, NotABasis, NotPointed, NotUnimodular, ZeroPairing,
)
from .linalg import (
    difference_vector_graph, digraph_has_cycle, digraph_reachable,
    flow_coordinates, forest_flow, forest_rank, integer_coordinates,
    lattice_index, matrix_rank, nonneg_combination_exists, primitive,
    solve_exact, vec_add, vec_dot, vec_neg, vec_sub,
)


class HalfOpenSimplicialCone:
    """apex + cone(rays) with some facets excluded and a bookkeeping sign.

    rays are primitive, Q-independent integer vectors forming a lattice basis
    of (span cap Z^n); open_flags[i] excludes the facet where the i-th ray
    coordinate vanishes (the cone keeps points with that coordinate > 0).
    The generating function is
        sign * t^apex * prod_closed 1/(1-t^v) * prod_open t^v/(1-t^v).
    """

    __slots__ = ("apex", "rays", "open_flags", "sign", "_hash")

    def __init__(self, apex, rays, open_flags, sign=1, _trusted=False):
        self._hash = None
        if _trusted:
            # apex and rays are tuples of Python ints already
            self.apex = apex
            self.rays = tuple(rays)
            self.open_flags = tuple(open_flags)
            self.sign = sign
            return
        self.apex = tuple(int(x) for x in apex)
        self.rays = tuple(tuple(int(x) for x in v) for v in rays)
        self.open_flags = tuple(bool(f) for f in open_flags)
        self.sign = int(sign)
        if len(self.open_flags) != len(self.rays):
            raise ValueError("one open flag per ray")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self._check_rays()

    def _check_rays(self):
        n = len(self.apex)
        for v in self.rays:
            if len(v) != n:
                raise ValueError("ray dimension mismatch")
            if all(x == 0 for x in v):
                raise NotPointed("zero vector offered as a ray")
            if v != primitive(v):
                raise NotUnimodular("rays must be primitive")
        if not self.rays:
            return
        edges = difference_vector_graph(self.rays, n)
        if edges is not None:
            # independent network-matrix columns always have lattice index 1
            if forest_rank(edges, n) != len(edges):
                raise NotUnimodular("rays are linearly dependent")
        else:
            idx = lattice_index(self.rays)
            if idx == 0:
                raise NotUnimodular("rays are linearly dependent")
            if idx != 1:
                raise NotUnimodular(
                    "rays span a sublattice of index %d" % idx)

    @property
    def n(self):
        return len(self.apex)

    @property
    def dim(self):
        return len(self.rays)

    def key(self):
        return (self.apex, self.rays, self.open_flags, self.sign)

    def __eq__(self, other):
        return (isinstance(other, HalfOpenSimplicialCone)
                and self.key() == other.key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return "HalfOpenSimplicialCone(apex=%s, rays=%s, open=%s, sign=%+d)" % (
            self.apex, self.rays, self.open_flags, self.sign)

    def translate(self, apex):
        return HalfOpenSimplicialCone(
            tuple(int(x) for x in apex), self.rays, self.open_flags,
            self.sign, _trusted=True)


def cone_membership(cone, point):
    """Exact membership of an integer point in a half-open simplicial cone."""
    x = vec_sub(tuple(int(p) for p in point), cone.apex)
    if not cone.rays:
        return all(v == 0 for v in x)
    a = integer_coordinates(list(cone.rays), x)
    if a is None:
        return False
    for coord, is_open in zip(a, cone.open_flags):
        if coord < (1 if is_open else 0):
            return False
    return True


# ------------------------------------------------------------------ directions


class Direction:
    """A symbolically irrational linear functional.

    Realized as zeta + eps*e_{s(1)} + eps^2*e_{s(2)} + ... with eps
    infinitesimal; pairings compare lexicographically, so no ray with integer
    entries can ever pair to zero.  zeta entries are exact rationals; sign()
    pairs with zeta scaled by its common denominator, in integers (a
    positive scale keeps every sign).
    """

    __slots__ = ("zeta", "lex_tiebreak", "_zeta_int")

    def __init__(self, zeta, lex_tiebreak=None):
        self.zeta = tuple(Fraction(z) for z in zeta)
        den = lcm(*(z.denominator for z in self.zeta))
        self._zeta_int = tuple(z.numerator * (den // z.denominator)
                               for z in self.zeta)
        n = len(self.zeta)
        if lex_tiebreak is None:
            lex_tiebreak = tuple(range(1, n + 1))
        self.lex_tiebreak = tuple(int(i) for i in lex_tiebreak)
        if sorted(self.lex_tiebreak) != list(range(1, n + 1)):
            raise ValueError("lex_tiebreak must be a permutation of 1..n")

    def key(self):
        return (self.zeta, self.lex_tiebreak)

    def pairing(self, v):
        """The symbolic pairing as a lex-comparable tuple."""
        return (vec_dot(self.zeta, v),) + tuple(
            v[i - 1] for i in self.lex_tiebreak)

    def sign(self, v):
        d = sum(z * x for z, x in zip(self._zeta_int, v))
        if d:
            return 1 if d > 0 else -1
        for i in self.lex_tiebreak:
            if v[i - 1]:
                return 1 if v[i - 1] > 0 else -1
        raise ZeroPairing("zero vector has no sign under any direction")


def default_direction(n):
    return Direction(tuple(range(n, 0, -1)))


def flip_cone(cone, direction):
    """Point the cone along the direction, Lawrence-Varchenko style.

    Rays pairing negatively are negated with their open flag toggled and the
    sign multiplied by -1; the generating function is unchanged as a rational
    function.
    """
    rays = []
    flags = []
    sign = cone.sign
    for v, is_open in zip(cone.rays, cone.open_flags):
        if direction.sign(v) < 0:
            rays.append(vec_neg(v))
            flags.append(not is_open)
            sign = -sign
        else:
            rays.append(v)
            flags.append(is_open)
    return HalfOpenSimplicialCone(cone.apex, rays, flags, sign, _trusted=True)


# --------------------------------------------------------- tangent cone rays


def tangent_cone_generators(fm, flag_basis):
    """Deduplicated exchange directions e_j - e_i at a flag basis.

    These generate the tangent cone of the base polytope at the vertex e_B:
    tangent cones of Minkowski summands add, and each constituent polytope's
    tangent cone is generated by its valid basis exchanges.
    """
    if not fm.is_flag_basis(flag_basis):
        raise NotABasis("chain is not a flag basis of this flag matroid")
    adj = _tangent_generators(fm, np.array([flag_basis], dtype=np.uint64))
    vectors = _edge_vectors(fm.n)
    return tuple(sorted(map(vectors.__getitem__,
                            np.flatnonzero(adj).tolist())))


def _tangent_generators(fm, chains):
    """The exchange digraphs of many flag bases at once, as adjacency arrays.

    chains is a (B x k) uint64 array of flag bases, one basis mask per
    constituent.  Returns a (B x n x n) bool array whose entry [b, i, j]
    marks the generator e_j - e_i of tangent_cone_generators(fm, chains[b]):
    i in some level's basis, j outside it, and the exchange a basis of that
    constituent, tested for all (i, j) of all chains by one sorted lookup
    per constituent.  The chains must be flag bases; they are not checked.
    """
    n = fm.n
    bit = np.uint64(1) << np.arange(n, dtype=np.uint64)
    swap = bit[:, None] ^ bit[None, :]
    adj = np.zeros((len(chains), n, n), dtype=bool)
    for level, m in enumerate(fm.constituents):
        masks = chains[:, level]
        inside = (masks[:, None] & bit) != 0
        bases = np.array(sorted(m.bases_masks), dtype=np.uint64)
        swapped = masks[:, None, None] ^ swap
        at = np.minimum(np.searchsorted(bases, swapped), len(bases) - 1)
        adj |= ((bases[at] == swapped)
                & inside[:, :, None] & ~inside[:, None, :])
    return adj


# ------------------------------------------------------------- triangulation


def _is_pointed(rays, edges, n):
    if edges is not None:
        return not digraph_has_cycle(edges, n)
    # pointed iff 0 is not a convex combination: append a normalizing row
    cols = [tuple(v) + (1,) for v in rays]
    target = (0,) * n + (1,)
    return not nonneg_combination_exists(cols, target)


def _in_cone_of(k, others, rays, edges, n):
    """Whether rays[k] lies in the cone over the rays indexed by others."""
    if not others:
        return False
    if edges is not None:
        i, j = edges[k]
        return digraph_reachable([edges[o] for o in others], n, i, j)
    return nonneg_combination_exists([rays[o] for o in others], rays[k])


def _placing_cells(generators):
    """Placing triangulation of Cone(generators) as cells at the origin.

    generators is a nonempty tuple of integer tuples.  The cells are built
    and validated here, and their open flags implement an exact half-open
    cover of the cone (every lattice point in exactly one cell).
    """
    n = len(generators[0])
    gens = sorted({primitive(v) for v in generators})
    for v in gens:
        if all(x == 0 for x in v):
            raise NotPointed("zero vector among the generators")
    edges = difference_vector_graph(gens, n)
    if gens and not _is_pointed(gens, edges, n):
        raise NotPointed("generators admit a nontrivial nonnegative "
                         "combination equal to zero")
    # extreme-ray reduction
    keep = list(range(len(gens)))
    for k in list(keep):
        rest = [o for o in keep if o != k]
        if _in_cone_of(k, rest, gens, edges, n):
            keep = rest
    gens = tuple(gens[k] for k in keep)

    if edges is None:
        def independent(idxs):
            return matrix_rank([gens[i] for i in idxs]) == len(idxs)

        def solver(cell):
            rays = [gens[i] for i in cell]
            return lambda v: solve_exact(rays, v)
    else:
        edges = [edges[k] for k in keep]

        def independent(idxs):
            return forest_rank([edges[i] for i in idxs], n) == len(idxs)

        def solver(cell):
            flow = forest_flow([edges[i] for i in cell], n)
            return lambda v: None if flow is None else flow_coordinates(flow, v)

    solvers = {}

    def coords_in(cell, v):
        solve = solvers.get(cell)
        if solve is None:
            solve = solvers[cell] = solver(cell)
        return solve(v)

    cells = []
    span = []
    for idx, g in enumerate(gens):
        if not cells:
            cells = [(idx,)]
            span = [idx]
            continue
        if independent(span + [idx]):
            cells = [c + (idx,) for c in cells]
            span.append(idx)
            continue
        inside = False
        for c in cells:
            a = coords_in(c, g)
            if a is not None and all(x >= 0 for x in a):
                inside = True
                break
        if inside:
            continue
        facet_count = {}
        for c in cells:
            for drop in range(len(c)):
                f = c[:drop] + c[drop + 1:]
                facet_count.setdefault(frozenset(f), []).append((c, c[drop]))
        new = []
        for f, owners in facet_count.items():
            if len(owners) != 1:
                continue
            cell, missing = owners[0]
            a = coords_in(cell, g)
            if a is None:
                raise InternalAssertion("generator left the current span")
            pos = cell.index(missing)
            if a[pos] < 0:
                new.append(tuple(sorted(f | {idx})))
        cells.extend(new)

    cells = sorted(cells)
    # half-open flags from a symbolically generic interior reference point
    rho = (0,) * n
    for v in gens:
        rho = vec_add(rho, v)
    # the placing loop's greedy basis of the span
    perturb = [gens[i] for i in span]
    origin = (0,) * n
    out = []
    for c in cells:
        seqs = [coords_in(c, rho)]
        for u in perturb:
            seqs.append(coords_in(c, u))
        if any(s is None for s in seqs):
            raise InternalAssertion("reference point outside the cone span")
        cell_flags = []
        for pos in range(len(c)):
            val = 0
            for s in seqs:
                if s[pos] != 0:
                    val = 1 if s[pos] > 0 else -1
                    break
            if val == 0:
                raise InternalAssertion("perturbed reference point on a "
                                        "facet hyperplane")
            cell_flags.append(val < 0)
        out.append(HalfOpenSimplicialCone(
            origin, tuple(gens[i] for i in c), cell_flags, 1))
    return tuple(out)


@lru_cache(maxsize=100000)
def _triangulate_cells(generators):
    """The placing triangulation of one class of exchange digraphs.

    generators is the class key: a nonempty sorted tuple of difference
    vectors e_j - e_i.  The cells are built and validated once per key by
    _placing_cells and kept as read-only arrays (tails, heads, opens): per
    cell and ray, its i, its j and its open flag.
    """
    cells = _placing_cells(generators)
    n = len(generators[0])
    rays = np.array([c.rays for c in cells], dtype=np.int64)
    rays = rays.reshape(len(cells), -1, n)
    out = (rays.argmin(axis=2).astype(np.int8),
           rays.argmax(axis=2).astype(np.int8),
           np.array([c.open_flags for c in cells], dtype=bool).reshape(
               rays.shape[:2]))
    for a in out:
        a.setflags(write=False)
    return out


def _row_ranks(rows):
    """Per row of a 2-D array of nonnegative ints, the rank of the row among
    the distinct rows in lexicographic order; and per distinct row, in that
    order, the index of one row holding it."""
    if rows.shape[1] == 0:
        return (np.zeros(len(rows), dtype=np.intp),
                np.zeros(min(len(rows), 1), dtype=np.intp))
    # rows of big-endian unsigned digits compare bytewise as they do
    big = rows.astype(np.min_scalar_type(rows.max(initial=0)).newbyteorder(
        ">"), order="C")
    keys = big.view(np.dtype((np.void, big.itemsize * rows.shape[1])))
    _, first, ranks = np.unique(keys.ravel(), return_index=True,
                                return_inverse=True)
    return ranks, first


def _colour_order(adj):
    """Per digraph of a stack, its vertices ordered by colour refinement.

    adj is a (B x n x n) bool adjacency stack.  Colours start as (out-degree,
    in-degree) and are refined by the sorted colours of out- and
    in-neighbours until no digraph's number of colour classes grows; each
    round names the colours of a digraph by rank, in the order of these
    tuples (a shorter neighbour list compares as a prefix: its digits are
    colour + 1, padded with 0).  A digraph whose classes stopped growing
    keeps its names, so refining the stack together orders each digraph as
    refining it alone does.  Returns the (B x n) vertex order by (colour,
    index).  Relabelled isomorphic digraphs usually, not always, get the
    same order.
    """
    count, n, _ = adj.shape
    both = np.stack([adj, adj.transpose(0, 2, 1)], axis=1)
    # the digraph index leads every row: each digraph's names are one range
    which = np.repeat(np.arange(count), n).reshape(count, n, 1)
    rows = np.concatenate([which, both.sum(axis=3).transpose(0, 2, 1)],
                          axis=2)
    classes = None
    while True:
        names = _row_ranks(rows.reshape(count * n, -1))[0].reshape(count, n)
        colour = names - names.min(axis=1, keepdims=True)
        grown = colour.max(axis=1)
        # a discrete partition, or one that stopped growing, is stable
        if ((grown == n - 1).all()
                or classes is not None and (grown == classes).all()):
            break
        classes = grown
        near = np.sort(np.where(both, colour[:, None, None, :], n), axis=3)
        near = ((near + 1) % (n + 1)).transpose(0, 2, 1, 3)
        rows = np.concatenate([which, colour[:, :, None],
                               near.reshape(count, n, 2 * n)], axis=2)
    return np.argsort(colour * n + np.arange(n), axis=1)


@lru_cache(maxsize=64)
def _edge_vectors(n):
    """The vector e_j - e_i at index i * n + j, as a tuple of ints."""
    return tuple(tuple(int(k == j) - int(k == i) for k in range(n))
                 for i in range(n) for j in range(n))


@lru_cache(maxsize=64)
def _edge_ranks(n):
    """(n x n) int array: at [i, j], the lexicographic rank of e_j - e_i
    among all n * n such vectors."""
    vectors = _edge_vectors(n)
    ranks = np.empty(n * n, dtype=np.int64)
    ranks[sorted(range(n * n), key=vectors.__getitem__)] = np.arange(n * n)
    ranks = ranks.reshape(n, n)
    ranks.setflags(write=False)
    return ranks


def _triangulate(adj):
    """Half-open triangulations of a stack of exchange digraphs, as arrays.

    adj is a (B x n x n) bool stack; adj[b, i, j] marks the ray e_j - e_i of
    cone b.  The whole stack is relabelled by one colour refinement
    (_colour_order, which orders each digraph as it orders that digraph
    alone), and each distinct class key, the relabelled digraph as the
    sorted generator tuple, is looked up once in the class cache
    _triangulate_cells.  Relabelling coordinates carries a half-open cover
    to a half-open cover, so the class cells are carried back by one index
    gather.  Returns (tails, heads, opens, owner): per cell, the i and j of
    its rays (int8, C x d), their open flags and the index of its cone,
    cells grouped by cone in stack order.  A stack without edges (the
    tangent cones at the one vertex of a point) has one cell without rays
    per cone.  Every cone must have the same dimension d, as the tangent
    cones of one polytope have.
    """
    count, n, _ = adj.shape
    if not adj.any():
        none = np.zeros((count, 0), dtype=np.int8)
        return none, none, none.astype(bool), np.arange(count)
    order = _colour_order(adj)
    relabelled = adj[np.arange(count)[:, None, None], order[:, :, None],
                     order[:, None, :]]
    vectors = _edge_vectors(n)
    keys = [tuple(sorted(map(vectors.__getitem__,
                             np.flatnonzero(edges).tolist())))
            for edges in relabelled.reshape(count, n * n)]
    index = {}
    kind = np.array([index.setdefault(key, len(index)) for key in keys])
    classes = [_triangulate_cells(key) for key in index if key]
    if len(classes) < len(index) or len({c[0].shape[1] for c in classes}) > 1:
        raise InternalAssertion("cones of one stack differ in dimension")
    tails, heads, opens = (np.concatenate([c[i] for c in classes])
                           for i in range(3))
    sizes = np.array([len(c[0]) for c in classes])
    per_cone = sizes[kind]
    owner = np.repeat(np.arange(count), per_cone)
    # each cone's cells: its class's run of the stacked class cells
    cell = (np.arange(len(owner))
            + np.repeat((np.cumsum(sizes) - sizes)[kind]
                        - (np.cumsum(per_cone) - per_cone), per_cone))
    return (order[owner[:, None], tails[cell]].astype(np.int8),
            order[owner[:, None], heads[cell]].astype(np.int8),
            opens[cell], owner)


def _sort_rays(n, tails, heads, opens):
    """Cell arrays as _triangulate returns them, rays within each cell
    sorted as vectors e_j - e_i."""
    by_vector = np.argsort(_edge_ranks(n)[tails, heads], axis=1)
    cell = np.arange(len(tails))[:, None]
    return (tails[cell, by_vector], heads[cell, by_vector],
            opens[cell, by_vector])


@lru_cache(maxsize=16384)
def _origin_cells(generators):
    """The cells of triangulate_half_open at the origin, per generator tuple.

    Difference-vector generators go through _triangulate, one digraph;
    other generators are triangulated directly by _placing_cells.  Rays
    within a cell and the cells themselves come out sorted.
    """
    n = len(generators[0])
    edges = difference_vector_graph(generators, n)
    if edges is None:
        return _placing_cells(generators)
    adj = np.zeros((1, n, n), dtype=bool)
    adj[0, [i for i, _ in edges], [j for _, j in edges]] = True
    tails, heads, opens = _sort_rays(n, *_triangulate(adj)[:3])
    origin = (0,) * n
    vectors = _edge_vectors(n)
    codes = tails.astype(np.intp) * n + heads
    out = [HalfOpenSimplicialCone(origin, tuple(map(vectors.__getitem__, c)),
                                  tuple(flags), 1, _trusted=True)
           for c, flags in zip(codes.tolist(), opens.tolist())]
    return tuple(sorted(out, key=HalfOpenSimplicialCone.key))


def triangulate_half_open(apex, generators):
    """Half-open unimodular triangulation of apex + Cone(generators).

    The cells partition the cone's lattice points: each cell is closed on the
    facets whose hyperplane does not separate it from a generic interior
    reference point and open on the others.  All cells carry sign +1.

    Difference-vector generators (edges of an exchange digraph) are
    triangulated once per class of digraphs equal up to a relabelling by
    colour refinement, and each class's cells are validated once; results
    are memoized per generator tuple at the origin and translated to apex.
    """
    apex = tuple(int(x) for x in apex)
    gens = tuple(tuple(int(x) for x in v) for v in generators)
    if not gens:
        return (HalfOpenSimplicialCone(apex, (), (), 1),)
    if any(len(v) != len(apex) for v in gens):
        raise ValueError("ray dimension mismatch")
    cells = _origin_cells(gens)
    if any(apex):
        return tuple(c.translate(apex) for c in cells)
    return cells


def slice_cone(cone, zeta, b):
    """Intersect a direction-pointed cone with the hyperplane <zeta, x> = b.

    Requires <zeta, ray> >= 0 for every ray (integer zeta).  Lattice points
    with positive pairing are peeled off by a bounded knapsack over the
    unimodular ray coordinates; the zero-pairing rays survive as the rays of
    the sliced cells.
    """
    zeta = tuple(int(z) for z in zeta)
    b = int(b)
    pairings = [vec_dot(zeta, v) for v in cone.rays]
    if any(d < 0 for d in pairings):
        raise ValueError("slice_cone needs a zeta-pointed cone")
    beta = b - vec_dot(zeta, cone.apex)
    if beta < 0:
        return ()
    pos = [i for i, d in enumerate(pairings) if d > 0]
    zero = [i for i, d in enumerate(pairings) if d == 0]
    solutions = []

    def rec(pos_left, remaining, chosen):
        if not pos_left:
            if remaining == 0:
                solutions.append(dict(chosen))
            return
        i = pos_left[0]
        d = pairings[i]
        lo = 1 if cone.open_flags[i] else 0
        a = lo
        while a * d <= remaining:
            chosen.append((i, a))
            rec(pos_left[1:], remaining - a * d, chosen)
            chosen.pop()
            a += 1

    rec(pos, beta, [])
    out = []
    for sol in solutions:
        apex = cone.apex
        for i, a in sol.items():
            if a:
                apex = vec_add(apex, tuple(a * x for x in cone.rays[i]))
        out.append(HalfOpenSimplicialCone(
            apex,
            tuple(cone.rays[i] for i in zero),
            tuple(cone.open_flags[i] for i in zero),
            cone.sign,
            _trusted=True))
    return tuple(sorted(out, key=lambda c: c.key()))
