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
cells are validated once, when they are built; their permuted copies for
the cones of the class are built trusted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    InternalAssertion, NotABasis, NotPointed, NotUnimodular, ZeroPairing,
)
from .linalg import (
    difference_vector_graph, digraph_has_cycle, digraph_reachable,
    flow_coordinates, forest_flow, forest_rank, integer_coordinates,
    lattice_index, matrix_rank, nonneg_combination_exists, primitive,
    solve_exact, vec_add, vec_dot, vec_neg, vec_sub,
)
from .matroid import _bits


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
    n = fm.n
    out = set()
    for m, b in zip(fm.constituents, flag_basis):
        bases = m.bases_masks
        for i in _bits(b):
            stripped = b & ~(1 << i)
            for j in range(n):
                if b >> j & 1:
                    continue
                if stripped | (1 << j) in bases:
                    v = [0] * n
                    v[i] = -1
                    v[j] = 1
                    out.add(tuple(v))
    return tuple(sorted(out))


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


@lru_cache(maxsize=100000)
def _triangulate_cells(generators):
    """Placing triangulation of Cone(generators) as cells at the origin.

    generators is a nonempty tuple of integer tuples.  The cells are built
    and validated here, once per cached key, and their open flags implement
    an exact half-open cover of the cone (every lattice point in exactly one
    cell).
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


def _colour_order(edges, n):
    """Vertex positions of a digraph ordered by colour refinement.

    Colours start as (out-degree, in-degree) and are refined by the sorted
    colours of out- and in-neighbours until the number of colour classes
    stops growing; vertices are then ordered by (colour, index).  Relabelled
    isomorphic digraphs usually, not always, get the same order.
    """
    outs = [[] for _ in range(n)]
    ins = [[] for _ in range(n)]
    for i, j in edges:
        outs[i].append(j)
        ins[j].append(i)
    colour = [(len(outs[v]), len(ins[v])) for v in range(n)]
    classes = 0
    while True:
        names = {c: k for k, c in enumerate(sorted(set(colour)))}
        colour = [names[c] for c in colour]
        if len(names) == classes:
            break
        classes = len(names)
        colour = [(colour[v], tuple(sorted(colour[u] for u in outs[v])),
                   tuple(sorted(colour[u] for u in ins[v])))
                  for v in range(n)]
    pos = [0] * n
    for k, v in enumerate(sorted(range(n), key=lambda v: (colour[v], v))):
        pos[v] = k
    return pos


@lru_cache(maxsize=16384)
def _origin_cells(generators):
    """The cells of triangulate_half_open at the origin, per generator tuple.

    Difference-vector generators are relabelled by _colour_order and
    triangulated once per relabelled set (the class key of
    _triangulate_cells).  Equal keys always come from a coordinate
    permutation, which keeps rays primitive and independent and carries a
    half-open cover to a half-open cover, so the class cells are permuted
    back into trusted copies.  Rays within a cell and the cells themselves
    come out sorted.
    """
    n = len(generators[0])
    edges = difference_vector_graph(generators, n)
    if edges is None:
        return _triangulate_cells(generators)
    pos = _colour_order(set(edges), n)
    back = {}
    for (i, j), v in zip(edges, generators):
        w = [0] * n
        w[pos[i]] = -1
        w[pos[j]] = 1
        back[tuple(w)] = v
    origin = (0,) * n
    out = []
    for cell in _triangulate_cells(tuple(sorted(back))):
        rays, flags = zip(*sorted(
            (back[r], f) for r, f in zip(cell.rays, cell.open_flags)))
        out.append(HalfOpenSimplicialCone(origin, rays, flags, 1,
                                          _trusted=True))
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
