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
`flow_coordinates`).  The directed questions, pointedness and redundant
rays, are not asked here: `cones` answers them for a whole exchange digraph
by one reachability closure.  General rays (public-API cones, matrix
matroids) go through exact `Fraction` Gaussian elimination (`matrix_rank`,
`solve_exact`), the Smith form and a phase-1 simplex.  Sizes are tiny
(dimensions up to the ground-set size, so <= 64 and in the invariant
pipeline <= 8), so cubic algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


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


def solve_exact(cols, target):
    """Solve sum_j a_j * cols[j] = target exactly over Q.

    `cols` is a list of integer vectors (the columns), `target` an integer
    vector of the same dimension.  Returns the unique Fraction tuple `a` when
    the columns are independent and the system is consistent, else None.
    """
    n = len(target)
    d = len(cols)
    if d == 0:
        return () if all(x == 0 for x in target) else None
    aug = [[Fraction(cols[j][i]) for j in range(d)] + [Fraction(target[i])]
           for i in range(n)]
    m, pivots = _echelon(aug)
    if d in pivots:
        return None
    if len(pivots) != d:
        return None
    sol = [Fraction(0)] * d
    for r, col in enumerate(pivots):
        sol[col] = m[r][d]
    return tuple(sol)


def integer_coordinates(cols, target):
    """Like solve_exact but demands integer coordinates; None otherwise."""
    edges = difference_vector_graph(cols, len(target))
    if edges is not None:
        flow = forest_flow(edges, len(target))
        return None if flow is None else flow_coordinates(flow, target)
    a = solve_exact(cols, target)
    if a is None:
        return None
    out = []
    for x in a:
        if x.denominator != 1:
            return None
        out.append(x.numerator)
    return tuple(out)


def smith_diagonal(rows):
    """Absolute values of the diagonal after integer diagonalization.

    Unimodular row and column operations preserve the product of invariant
    factors, which is all the callers need (lattice index = product).
    """
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return []
    nr, nc = len(a), len(a[0])
    diag = []
    top = 0
    left = 0
    while top < nr and left < nc:
        piv = None
        best = None
        for i in range(top, nr):
            for j in range(left, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[left], row[pj] = row[pj], row[left]
        # clear the pivot row and column; restart if a remainder shrinks the pivot
        again = True
        while again:
            again = False
            p = a[top][left]
            for i in range(top + 1, nr):
                if a[i][left] != 0:
                    q = a[i][left] // p
                    for j in range(left, nc):
                        a[i][j] -= q * a[top][j]
                    if a[i][left] != 0:
                        a[top], a[i] = a[i], a[top]
                        again = True
                        break
            if again:
                continue
            for j in range(left + 1, nc):
                if a[top][j] != 0:
                    q = a[top][j] // p
                    for i in range(top, nr):
                        a[i][j] -= q * a[i][left]
                    if a[top][j] != 0:
                        for row in a:
                            row[left], row[j] = row[j], row[left]
                        again = True
                        break
        diag.append(abs(a[top][left]))
        top += 1
        left += 1
    return diag


def lattice_index(rays):
    """Index of the lattice spanned by integer rays inside span cap Z^n.

    The index is the product of the Smith invariant factors and equals 1
    exactly for unimodular systems; Q-linearly dependent rays give 0.
    """
    diag = smith_diagonal(rays)
    if len(diag) != len(rays):
        return 0
    idx = 1
    for d in diag:
        idx *= d
    return idx


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
        pos = neg = None
        ok = True
        for idx, x in enumerate(v):
            if x == 1 and pos is None:
                pos = idx
            elif x == -1 and neg is None:
                neg = idx
            elif x != 0:
                ok = False
                break
        if not ok or pos is None or neg is None or len(v) != n:
            return None
        edges.append((neg, pos))
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
