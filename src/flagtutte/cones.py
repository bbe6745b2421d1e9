"""Half-open simplicial cones and the geometry under the localization sums.

The engine only ever meets cones whose rays are difference vectors e_j - e_i
(tangent cones of flag-matroid base polytopes) and their flips and slices.
Their ray matrices are directed-graph incidence matrices, so rank tests,
coordinates and the unimodularity check are graph computations (spanning
forests and tree flows, see `linalg`): an independent set of such rays is
automatically a lattice basis of its span.  Cones with general rays, which
only the public API can build, fall back to exact `Fraction` elimination for
ranks and an exact phase-1 simplex for pointedness and extreme rays.  Every
cone object keeps one lattice frame (linalg._lattice_frame): integer span
and coordinate rows, from which cone_membership reads, and whose reduction
is the unimodularity check.  _origin_cells is the one place that tells the
two ray kinds apart; both share one placing loop (_placing_cells), which
works on ray indices through a rank test and a per-cell coordinate map.

Relabelling coordinates carries a half-open triangulation to a half-open
triangulation, so difference-vector cones are triangulated once per class:
the key is the ascending edge codes i * n + j of the cone's digraph relabelled
by _refine, the one colour refinement of the package, which also colours
the elements of flag blocks for invariants._canonical.  Per class, one
boolean reachability closure finds directed cycles (the cone is not pointed)
and the redundant rays (an edge i -> k is redundant exactly when another
directed path joins i to k), and the placing loop's cells are kept as int
arrays with one lattice frame each: the tree flow the placing loop solves
with, as integer rows (signed subtree indicators, then component
indicators), checked once per class.  The localization sums work on a
whole flag at a time: _tangent_generators builds the exchange digraphs of
all its flag bases as one adjacency stack, _triangulate relabels them
(colour refinement of the whole stack in one batch) and carries each
class's cells back to every cone of the class by one index gather, as
arrays of ray tails, ray heads, open flags and owning cone, and hands on
the class frames with that gather and the relabelling; no cone object is
built on that route.  triangulate_half_open builds trusted cone objects
from the same arrays and class frames for the public API.
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
    _lattice_frame, difference_vector_graph, flow_coordinates, forest_flow,
    forest_rank, matrix_rank, nonneg_combination_exists, primitive, vec_dot,
)


class HalfOpenSimplicialCone:
    """apex + cone(rays) with some facets excluded and a bookkeeping sign.

    rays are primitive, Q-independent integer vectors forming a lattice basis
    of (span cap Z^n); open_flags[i] excludes the facet where the i-th ray
    coordinate vanishes (the cone keeps points with that coordinate > 0).
    The generating function is
        sign * t^apex * prod_closed 1/(1-t^v) * prod_open t^v/(1-t^v).
    The cone keeps its lattice frame (linalg._lattice_frame), set when the
    rays are validated and computed on first use for a trusted cone.
    """

    __slots__ = ("apex", "rays", "open_flags", "sign", "_hash", "_frame")

    def __init__(self, apex, rays, open_flags, sign=1, _trusted=False):
        self._hash = None
        self._frame = None
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
        self._frame = _lattice_frame(self.rays, n)

    def _lattice(self):
        """The lattice frame (L, S): x lies in the span of the rays exactly
        when S x = 0, and its ray coordinates are then L x."""
        if self._frame is None:
            self._frame = _lattice_frame(self.rays, self.n)
        return self._frame

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
        out = HalfOpenSimplicialCone(
            tuple(int(x) for x in apex), self.rays, self.open_flags,
            self.sign, _trusted=True)
        out._frame = self._frame
        return out


def _check_length(vector, n, what):
    if len(vector) != n:
        raise ValueError("%s of length %d in dimension %d"
                         % (what, len(vector), n))


def cone_membership(cone, point):
    """Exact membership of an integer point in a half-open simplicial cone,
    read off the cone's lattice frame."""
    _check_length(point, cone.n, "point")
    x = [int(p) - a for p, a in zip(point, cone.apex)]
    coords, span = cone._lattice()
    return (not any(vec_dot(row, x) for row in span)
            and all(vec_dot(row, x) >= is_open
                    for row, is_open in zip(coords, cone.open_flags)))


# ------------------------------------------------------------------ directions


class Direction:
    """A symbolically irrational linear functional.

    Realized as zeta + eps*e_{s(1)} + eps^2*e_{s(2)} + ... with eps
    infinitesimal; pairings compare lexicographically, so no ray with integer
    entries can ever pair to zero.  zeta entries are exact rationals; sign()
    pairs with zeta scaled by its common denominator, in integers (a
    positive scale keeps every sign).  Directions compare and hash by
    key(), the hash computed once.
    """

    __slots__ = ("zeta", "lex_tiebreak", "_zeta_int", "_hash")

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
        self._hash = hash(self.key())

    def key(self):
        return (self.zeta, self.lex_tiebreak)

    def __eq__(self, other):
        return isinstance(other, Direction) and self.key() == other.key()

    def __hash__(self):
        return self._hash

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
    _check_length(direction.zeta, cone.n, "direction")
    rays = []
    flags = []
    sign = cone.sign
    for v, is_open in zip(cone.rays, cone.open_flags):
        if direction.sign(v) < 0:
            rays.append(tuple(-x for x in v))
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


def _placing_cells(gens, independent, solver):
    """Placing triangulation of Cone(gens), as index cells at the origin.

    gens is a nonempty sequence of the extreme rays of a pointed cone,
    placed in that order.  independent(idxs) tells whether the rays indexed
    by idxs are linearly independent; solver(cell) returns, for a cell of
    ray indices, its coordinate map v -> coordinates (None off its span).
    Returns the cells, sorted tuples of ray indices in sorted order, and
    per cell its open flags, which implement an exact half-open cover of
    the cone (every lattice point in exactly one cell).
    """
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
        if any(a is not None and min(a) >= 0
               for a in (coords_in(c, g) for c in cells)):
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
    # perturbed along the placing loop's greedy basis of the span
    points = [tuple(map(sum, zip(*gens)))] + [gens[i] for i in span]
    opens = []
    for c in cells:
        seqs = [coords_in(c, v) for v in points]
        if None in seqs:
            raise InternalAssertion("reference point outside the cone span")
        # per ray, the first nonzero coordinate of the perturbed point
        first = [next((x for x in col if x), 0) for col in zip(*seqs)]
        if 0 in first:
            raise InternalAssertion("perturbed reference point on a "
                                    "facet hyperplane")
        opens.append(tuple(x < 0 for x in first))
    return cells, opens


@lru_cache(maxsize=100000)
def _triangulate_cells(n, codes):
    """The placing triangulation of one class of exchange digraphs.

    codes is the class key: the ascending edge codes i * n + j of a digraph
    on n vertices, the edge i -> j standing for the ray e_j - e_i.  The rays
    are placed in the order of their vectors.  One boolean reachability
    closure decides the rest: a directed cycle makes the cone not pointed
    (NotPointed), and in an acyclic digraph the ray of an edge i -> k lies
    in the cone of the others exactly when another directed path joins i to
    k, so those edges are dropped.  Ranks and coordinates are spanning-forest
    computations, and each cell's forest_flow is its exact check: dependent
    rays raise InternalAssertion.  The cells are kept as read-only arrays
    (tails, heads, opens, frames): per cell and ray, its i, its j and its
    open flag, and per cell its lattice frame, the tree flow as n int8 rows
    (the d signed subtree indicators in slot order, then the n - d
    component indicators).  The frames are checked once: the coordinate
    rows times the rays must give the identity, and the component rows
    vanish on every ray and partition the vertices, else InternalAssertion.
    """
    vectors = _edge_vectors(n)
    codes = np.array(sorted(codes, key=vectors.__getitem__), dtype=np.intp)
    tails, heads = np.divmod(codes, n)
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = True
    reach = adj.copy()
    for k in range(n):
        reach |= reach[:, k, None] & reach[k]
    if reach.diagonal().any():
        raise NotPointed("generators admit a nontrivial nonnegative "
                         "combination equal to zero")
    longer = (adj.astype(np.intp) @ reach) > 0
    keep = ~longer[tails, heads]
    codes, tails, heads = codes[keep], tails[keep], heads[keep]
    edges = list(zip(tails.tolist(), heads.tolist()))

    def independent(idxs):
        return forest_rank([edges[i] for i in idxs], n) == len(idxs)

    flows = {}

    def solver(cell):
        flow = flows[cell] = forest_flow([edges[i] for i in cell], n)
        if flow is None:
            raise InternalAssertion("cell rays are linearly dependent")
        return lambda v: flow_coordinates(flow, v)

    cells, opens = _placing_cells([vectors[c] for c in codes.tolist()],
                                  independent, solver)
    at = np.array(cells)
    tails, heads = tails[at], heads[at]
    # the frame rows one after another, n entries each: for the few small
    # cells of a class, one list converted once is quicker than index arrays
    flat, row = [0] * (len(cells) * n * n), 0
    for cell in cells:
        components, subtrees = flows[cell]
        for sign, verts in subtrees + [(1, comp) for comp in components]:
            for v in verts:
                flat[row + v] = sign
            row += n
    frames = np.array(flat, dtype=np.int8).reshape(len(cells), n, n)
    # dual[c, k]: the rows of cell c times its ray k
    k = np.arange(len(cells))[:, None]
    dual = frames[k, :, heads] - frames[k, :, tails]
    d = at.shape[1]
    if (dual != np.eye(d, n)).any() or (frames[:, d:].sum(axis=1) != 1).any():
        raise InternalAssertion("tree flows are no lattice frames of their "
                                "cells")
    out = (tails.astype(np.int8), heads.astype(np.int8),
           np.array(opens, dtype=bool), frames)
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


def _refine(labels, colour):
    """Colour refinement of a stack of graphs with labelled edges (McKay and
    Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 2014).

    labels is a (B x n x n) stack of nonnegative int edge labels and colour
    a (B x n x k) stack of starting rows, both invariant under relabelling.
    Each round names each vertex by the rank of its row, first its starting
    row, then (colour, colour[j] * L + labels[i, j] sorted over j) with L
    past every label, until no graph's class count grows.  The graph index
    leads every row, so each graph's names are consecutive ints, ordered as
    refining that graph alone orders them.  Returns the (B x n) colours,
    the first graph's from 0.
    """
    count, n, _ = labels.shape
    rows = np.empty((count, n, n + 2), dtype=np.intp)
    rows[..., 0] = np.arange(count)[:, None]
    width = int(labels.max(initial=0)) + 1
    names, first = _row_ranks(np.concatenate(
        [rows[..., :1], colour], axis=2).reshape(count * n, -1))
    while True:
        classes, colour = len(first), names.reshape(count, n)
        rows[..., 1] = colour
        rows[..., 2:] = np.sort(colour[:, None] * width + labels, axis=2)
        names, first = _row_ranks(rows.reshape(count * n, -1))
        if len(first) == classes:
            return colour


def _colour_order(adj):
    """Per digraph of a stack, its vertices ordered by colour refinement.

    adj is a (B x n x n) bool stack.  _refine starts from (out-degree,
    in-degree) and labels (i, j) 3, less 1 for an edge i -> j and 2 for an
    edge j -> i, so neighbours sort before the other vertices of a colour.
    Returns the (B x n) vertex order by (colour, index), the same for a
    digraph alone.  Relabelled isomorphic digraphs usually, not always, get
    the same order.
    """
    n = adj.shape[1]
    colour = _refine(3 - adj - 2 * adj.transpose(0, 2, 1),
                     np.stack([adj.sum(axis=2), adj.sum(axis=1)], axis=2))
    return np.argsort(colour * n + np.arange(n), axis=1)


@lru_cache(maxsize=64)
def _edge_vectors(n):
    """The vector e_j - e_i at index i * n + j, as a tuple of ints."""
    return tuple(tuple(int(k == j) - int(k == i) for k in range(n))
                 for i in range(n) for j in range(n))


def _triangulate(adj):
    """Half-open triangulations of a stack of exchange digraphs, as arrays.

    adj is a (B x n x n) bool stack; adj[b, i, j] marks the ray e_j - e_i of
    cone b.  The whole stack is relabelled by one colour refinement
    (_colour_order, which orders each digraph as it orders that digraph
    alone), and each distinct class key, the ascending edge codes of the
    relabelled digraph, is looked up once in the class cache
    _triangulate_cells.  Relabelling coordinates carries a half-open cover
    to a half-open cover, so the class cells are carried back by one index
    gather.  Returns (tails, heads, opens, owner, frames, cell, order): per
    cell, the i and j of its rays (int8, C x d), their open flags and the
    index of its cone, cells grouped by cone in stack order; then the
    frame rows of the stacked class cells (_triangulate_cells), per cell
    the index of its class cell, and per cone its relabelling: column u of
    a class frame is coordinate order[cone, u] of the cone.  A stack
    without edges (the tangent cones at the one vertex of a point) has one
    cell without rays per cone, all of one class cell whose frame is n
    component rows.  Every cone must have the same dimension d, as the
    tangent cones of one polytope have.
    """
    count, n, _ = adj.shape
    if not adj.any():
        none = np.zeros((count, 0), dtype=np.int8)
        return (none, none, none.astype(bool), np.arange(count),
                np.eye(n, dtype=np.int8)[None], np.zeros(count, dtype=np.intp),
                np.broadcast_to(np.arange(n), (count, n)))
    order = _colour_order(adj)
    relabelled = adj[np.arange(count)[:, None, None], order[:, :, None],
                     order[:, None, :]]
    keys = [tuple(np.flatnonzero(edges).tolist())
            for edges in relabelled.reshape(count, n * n)]
    index = {}
    kind = np.array([index.setdefault(key, len(index)) for key in keys])
    classes = [_triangulate_cells(n, key) for key in index if key]
    if len(classes) < len(index) or len({c[0].shape[1] for c in classes}) > 1:
        raise InternalAssertion("cones of one stack differ in dimension")
    tails, heads, opens, frames = (np.concatenate([c[i] for c in classes])
                                   for i in range(4))
    sizes = np.array([len(c[0]) for c in classes])
    per_cone = sizes[kind]
    owner = np.repeat(np.arange(count), per_cone)
    # each cone's cells: its class's run of the stacked class cells
    cell = (np.arange(len(owner))
            + np.repeat((np.cumsum(sizes) - sizes)[kind]
                        - (np.cumsum(per_cone) - per_cone), per_cone))
    return (order[owner[:, None], tails[cell]].astype(np.int8),
            order[owner[:, None], heads[cell]].astype(np.int8),
            opens[cell], owner, frames, cell, order)


def _general_cells(gens):
    """The cells of triangulate_half_open at the origin for general rays.

    gens is a sorted list of distinct primitive integer vectors, not all of
    them difference vectors.  Pointedness and the extreme rays are exact
    phase-1 simplex tests, ranks Fraction elimination and coordinates each
    cell's lattice frame, so a cell that is not unimodular raises as soon
    as it is placed.  Every final cell gets a frame there (its open flags
    read coordinates in it), and each cell is a trusted
    HalfOpenSimplicialCone holding that frame.
    """
    n = len(gens[0])
    if not all(any(v) for v in gens):
        raise NotPointed("zero vector among the generators")
    # pointed iff 0 is not a convex combination: append a normalizing row
    if nonneg_combination_exists([v + (1,) for v in gens], (0,) * n + (1,)):
        raise NotPointed("generators admit a nontrivial nonnegative "
                         "combination equal to zero")
    for v in gens:
        rest = [u for u in gens if u != v]
        if nonneg_combination_exists(rest, v):
            gens = rest

    def independent(idxs):
        return matrix_rank([gens[i] for i in idxs]) == len(idxs)

    frames = {}

    def solver(cell):
        coords, span = frames[cell] = _lattice_frame([gens[i] for i in cell],
                                                     n)
        return lambda v: (None if any(vec_dot(row, v) for row in span)
                          else tuple(vec_dot(row, v) for row in coords))

    cells, opens = _placing_cells(gens, independent, solver)
    origin = (0,) * n
    out = []
    for c, flags in zip(cells, opens):
        cell = HalfOpenSimplicialCone(origin, tuple(gens[i] for i in c),
                                      flags, 1, _trusted=True)
        cell._frame = frames[c]
        out.append(cell)
    return tuple(out)


@lru_cache(maxsize=16384)
def _origin_cells(generators):
    """The cells of triangulate_half_open at the origin, per generator tuple.

    The generators are made primitive and deduplicated, then triangulated
    as one digraph by _triangulate when all are difference vectors, else by
    _general_cells.  Rays within a cell and the cells themselves come out
    sorted.  A difference-vector cell holds its class cell's frame, columns
    relabelled and coordinate rows in its ray order, so neither it nor a
    translate of it computes a Hermite normal form.
    """
    n = len(generators[0])
    gens = sorted({primitive(v) for v in generators})
    edges = difference_vector_graph(gens, n)
    if edges is None:
        return _general_cells(gens)
    adj = np.zeros((1, n, n), dtype=bool)
    adj[0, [i for i, _ in edges], [j for _, j in edges]] = True
    tails, heads, opens, _, frames, cell, order = _triangulate(adj)
    # column u of a class frame is coordinate order[0, u]
    rows = frames[cell][:, :, np.argsort(order[0])].tolist()
    origin = (0,) * n
    vectors = _edge_vectors(n)
    codes = tails.astype(np.intp) * n + heads
    out = []
    for c, flags, frame in zip(codes.tolist(), opens.tolist(), rows):
        d = len(c)
        rays, flags, coords = zip(*sorted(zip(
            map(vectors.__getitem__, c), flags, map(tuple, frame[:d]))))
        cone = HalfOpenSimplicialCone(origin, rays, flags, 1, _trusted=True)
        cone._frame = coords, tuple(map(tuple, frame[d:]))
        out.append(cone)
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


def _box_points(los, his, total=None, weights=None, cone=False):
    """The integer points of the box prod_i [los[i], his[i]], as a (P x n)
    array in lexicographic order; with a total, only the points on the
    hyperplane sum_i weights[i] x_i = total (unit weights by default); with
    cone (unit weights), only the points whose prefix sums x_1 + ... + x_i
    are all >= 0, the type-A positive-root cone.

    Coordinates are added one at a time, each prefix taking only the values
    of the next from which the later ones can still reach the total (and
    keep its sum >= 0); each level keeps its values and their prefixes'
    indices for one read-back.  The array is int64, or exact Python ints
    where a sum could near 2^63.  With n = 0 the box is one empty point, on
    the hyperplane iff total = 0.
    """
    n = len(los)
    w = [1] * n if weights is None else [int(x) for x in weights]
    box = [(int(lo), int(hi)) for lo, hi in zip(los, his)]
    # every sum below is at most 3 * reach in absolute value
    reach = abs(int(total or 0)) + sum((abs(wi) + 1) * max(map(abs, b))
                                       for wi, b in zip(w, box))
    dtype = np.int64 if reach < 1 << 60 else object
    # the least and greatest weighted sum of the coordinates from i on
    ends = [sorted((wi * lo, wi * hi)) for wi, (lo, hi) in zip(w, box)]
    rest = [list(map(sum, zip(*ends[i:]))) or [0, 0] for i in range(n + 1)]
    sums, levels = np.zeros(1, dtype=dtype), []
    if total is not None and not rest[0][0] <= total <= rest[0][1]:
        sums = sums[:0]
    for i, (lo, hi) in enumerate(box):
        lo, hi = np.full(len(sums), lo, dtype), np.full(len(sums), hi, dtype)
        if total is not None and w[i]:
            # w x lies in [a, b], from where the later coordinates reach it
            a, b = (total - sums - rest[i + 1][k] for k in (1, 0))
            a, b = (a, b) if w[i] > 0 else (b, a)
            lo, hi = np.maximum(lo, -(-a // w[i])), np.minimum(hi, b // w[i])
        if cone:
            lo = np.maximum(lo, -sums)
        counts = np.maximum(hi - lo + 1, 0).astype(np.intp)
        parent = np.repeat(np.arange(len(sums)), counts)
        vals = (np.repeat(lo - np.cumsum(counts) + counts, counts)
                + np.arange(len(parent)))
        levels.append((vals, parent))
        sums = sums[parent] + vals * w[i]
    out, at = np.empty((len(sums), n), dtype=dtype), np.arange(len(sums))
    for i, (vals, parent) in reversed(list(enumerate(levels))):
        out[:, i], at = vals[at], parent[at]
    return out


def slice_cone(cone, zeta, b):
    """Intersect a direction-pointed cone with the hyperplane <zeta, x> = b.

    Requires <zeta, ray> >= 0 for every ray (integer zeta).  Lattice points
    with positive pairing are peeled off the unimodular ray coordinates by
    one _box_points call over the positive-pairing rays, weighted by their
    pairings; the zero-pairing rays survive as the rays of the sliced cells.
    """
    _check_length(zeta, cone.n, "zeta")
    zeta = tuple(int(z) for z in zeta)
    pairings = [vec_dot(zeta, v) for v in cone.rays]
    if any(d < 0 for d in pairings):
        raise ValueError("slice_cone needs a zeta-pointed cone")
    beta = int(b) - vec_dot(zeta, cone.apex)
    pos = [i for i, d in enumerate(pairings) if d > 0]
    zero = [i for i, d in enumerate(pairings) if d == 0]
    d = [pairings[i] for i in pos]
    los = [int(cone.open_flags[i]) for i in pos]
    steps = _box_points(los, [beta // di for di in d], beta, d)
    # exact Python ints: apexes and rays may lie beyond int64
    rays = np.array([cone.rays[i] for i in pos],
                    dtype=object).reshape(len(pos), cone.n)
    apexes = np.array(cone.apex, dtype=object) + steps.astype(object) @ rays
    kept = (tuple(cone.rays[i] for i in zero),
            tuple(cone.open_flags[i] for i in zero))
    return tuple(HalfOpenSimplicialCone(apex, *kept, cone.sign, _trusted=True)
                 for apex in sorted(map(tuple, apexes.tolist())))
