"""Exact linear algebra on small integer vectors: a graph fast path for
difference vectors and a rational fallback for everything else.

Vectors are tuples of ints, matrices lists of row tuples.  Every ray the cone
engine meets is a difference vector e_j - e_i, i.e. a column of a directed
graph's incidence matrix, which is totally unimodular.  For such columns
rank, span membership and coordinates are graph questions: the rank is the
size of a union-find spanning forest, an edge set is independent exactly
when it closes no (undirected) cycle, and the coordinates of a vector
against a forest are its tree flow, i.e. signed subtree sums
(`difference_vector_graph`, `forest_rank`, `forest_flow`,
`flow_coordinates`).  The tree flow is the placing loop's solver, and the
flow of each final cell of a class is also that cell's lattice frame, as
integer rows (`cones._triangulate_cells`).  The directed questions,
pointedness and redundant rays, are not asked here: `cones` answers them
for a whole exchange digraph by one reachability closure.  General rays
(public-API cones, matrix matroids) go through exact `Fraction` Gaussian
elimination (`matrix_rank`), one integer column reduction per cone
(`_lattice_frame`: the unimodularity check and the integer membership rows
at once) and a phase-1 simplex.
Sizes are tiny (dimensions up to the ground-set size, so <= 64 and in the
invariant pipeline <= 8), so cubic algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotUnimodular


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _echelon(rows):
    """Row-reduce a list of Fraction rows in place; return pivot column list."""
    m = [list(r) for r in rows]
    pivots = []
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1, 1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m, pivots


def matrix_rank(rows):
    """Rank over Q of a matrix given as an iterable of numeric rows."""
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def _lattice_frame(rays, n):
    """The lattice frame (L, S) of a unimodular system of integer rays in Z^n.

    Extended-gcd column operations on the rays as rows reach R U = [H | 0],
    U unimodular and H lower triangular (a Hermite normal form; Cohen, A
    Course in Computational Algebraic Number Theory, section 2.4); the
    rays' lattice has index |det H| in span cap Z^n.  A zero pivot means
    dependent rays and a pivot other than +-1 an index past 1, both
    NotUnimodular.  Else the pivots are cleared to R U = [I | 0], and an
    integer x lies in the span exactly when S x = 0, S the rows of U[:, d:]^T,
    its ray coordinates then L x, L the rows of U[:, :d]^T.
    """
    d = len(rays)
    # column j of [R; I] times U, stacked: R U[:, j] over U[:, j]
    cols = [[r[j] for r in rays] + [int(i == j) for i in range(n)]
            for j in range(n)]
    index = 1
    for i in range(d):
        for j in range(i + 1, n):
            a, b = cols[i], cols[j]
            while b[i]:
                q = a[i] // b[i]
                a, b = b, [x - q * y for x, y in zip(a, b)]
            cols[i], cols[j] = a, b
        p = cols[i][i] if i < n else 0
        if p == 0:
            raise NotUnimodular("rays are linearly dependent")
        index *= abs(p)
        if abs(p) == 1:
            cols[i] = [p * x for x in cols[i]]
            for k in range(i):
                c = cols[k][i]
                cols[k] = [x - c * y for x, y in zip(cols[k], cols[i])]
    if index != 1:
        raise NotUnimodular("rays span a sublattice of index %d" % index)
    return (tuple(tuple(c[d:]) for c in cols[:d]),
            tuple(tuple(c[d:]) for c in cols[d:]))


def nonneg_combination_exists(cols, target):
    """Exact feasibility of sum_j lam_j cols[j] = target with lam >= 0.

    Phase-1 simplex with Bland's rule over Fractions.  `cols` integer (or
    Fraction) vectors, `target` same dimension.  Returns bool.
    """
    n = len(target)
    m = len(cols)
    b = [Fraction(x) for x in target]
    rows = []
    for i in range(n):
        row = [Fraction(cols[j][i]) for j in range(m)]
        if b[i] < 0:
            row = [-x for x in row]
            b[i] = -b[i]
        rows.append(row)
    # tableau: columns = m structural + n artificial + rhs
    tab = []
    for i in range(n):
        art = [Fraction(0)] * n
        art[i] = Fraction(1)
        tab.append(rows[i] + art + [b[i]])
    basis = [m + i for i in range(n)]
    # objective: minimize sum of artificials -> row of reduced costs
    cost = [Fraction(0)] * (m + n + 1)
    for i in range(n):
        for j in range(m + n + 1):
            cost[j] -= tab[i][j]
    for i in range(n):
        cost[m + i] = Fraction(0)
    while True:
        enter = None
        for j in range(m + n):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(n):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen; treat as infeasible
            return False
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(n):
            if i != leave and tab[i][enter] != 0:
                c = tab[i][enter]
                tab[i] = [x - c * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            c = cost[enter]
            cost = [x - c * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[-1] == 0


def difference_vector_graph(rays, n):
    """If every ray is e_j - e_i, return the edge list [(i, j)]; else None.

    Coordinates are 0-based positions into vectors of length n.
    """
    edges = []
    for v in rays:
        v = list(v)
        if len(v) != n or sorted(x for x in v if x) != [-1, 1]:
            return None
        edges.append((v.index(-1), v.index(1)))
    return edges


def forest_rank(edges, n):
    """Rank of the difference vectors e_j - e_i, (i, j) in edges, on n
    vertices: the size of a union-find spanning forest."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            rank += 1
    return rank


def forest_flow(edges, n):
    """Tree-flow data of the difference vectors e_j - e_i, (i, j) in edges.

    Returns None when the edges close an undirected cycle, i.e. the vectors
    are linearly dependent.  Otherwise (components, subtrees):
    `components` lists the vertex tuples of the forest's components, root
    first, isolated vertices included, and a vector lies in the span exactly
    when it sums to 0 on each; `subtrees[k] = (sign, vertices)` with
    `vertices` the subtree below edge k, so coordinate k of a vector x in
    the span is sign * (sum of x over vertices).
    """
    adj = [[] for _ in range(n)]
    for k, (i, j) in enumerate(edges):
        adj[i].append((j, k, 1))
        adj[j].append((i, k, -1))
    seen = [False] * n
    via = [None] * n
    below = [None] * n
    components = []
    subtrees = [None] * len(edges)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for u in order:
            for v, k, sign in adj[u]:
                if via[u] is not None and k == via[u][0]:
                    continue
                if seen[v]:
                    return None
                seen[v] = True
                via[v] = (k, sign)
                order.append(v)
        for v in order:
            below[v] = [v]
        for v in reversed(order[1:]):
            k, sign = via[v]
            subtrees[k] = (sign, tuple(sorted(below[v])))
            i, j = edges[k]
            below[i if j == v else j].extend(below[v])
        components.append(tuple(order))
    return components, subtrees


def flow_coordinates(flow, target):
    """Coordinates of target against the forest of forest_flow, or None
    when target lies outside its span."""
    components, subtrees = flow
    for comp in components:
        if sum(target[v] for v in comp):
            return None
    return tuple(sign * sum(target[v] for v in verts)
                 for sign, verts in subtrees)
