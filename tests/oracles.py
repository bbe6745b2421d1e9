"""Reference oracles for the cone engine, kept beside the tests.

Each computes by the slow, direct route what the library computes by its
fast one: Fraction elimination for ray coordinates, the Smith form for the
lattice index, and a per-point crawl of coefficient_at for the support of
a GenFun.
"""

from fractions import Fraction

from flagtutte import EquivariantPolynomial, coefficient_at, default_direction
from flagtutte.cones import _box_points
from flagtutte.linalg import _echelon


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
        # clear the pivot row and column; restart if a remainder shrinks
        # the pivot
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


def support_pure(g, direction=None):
    """Reference support extraction: per-point coefficient_at over the box.

    The Newton polytope of a Laurent-polynomial GenFun lies in the convex
    hull of its apexes, so their bounding box is a sound superset.
    """
    if direction is None:
        direction = default_direction(g.n)
    if not g.terms:
        return EquivariantPolynomial(g.n)
    apexes = [t.cone.apex for t in g.terms]
    los = [min(a[c] for a in apexes) for c in range(g.n)]
    his = [max(a[c] for a in apexes) for c in range(g.n)]
    out = {}
    for w in map(tuple, _box_points(los, his).tolist()):
        poly = coefficient_at(g, w, direction)
        if poly:
            out[w] = poly
    return EquivariantPolynomial(g.n, out)
