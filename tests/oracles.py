"""Reference oracles for the cone engine, kept beside the tests.

Each computes by the slow, direct route what the library computes by its
fast one: Fraction elimination for ray coordinates, the Smith form for the
lattice index, and a per-point crawl of coefficient_at for the support of
a GenFun; per forest cell the lattice frame of its tree flow; and the
support core's scatter owner by owner over every split numerator row.
"""

from fractions import Fraction

import numpy as np

from flagtutte import EquivariantPolynomial, coefficient_at, default_direction
from flagtutte.cones import _box_points, _row_ranks
from flagtutte.genfun import _Support, _membership_passes
from flagtutte.invariants import _flag_cells, _numerator, _slot_counts
from flagtutte.linalg import _echelon, forest_flow


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


def forest_frames(tails, heads, n):
    """Per cell of rays e_heads[c, k] - e_tails[c, k], its lattice frame as
    cones._triangulate_cells keeps it, one linalg.forest_flow per cell: n
    int8 rows, the signed subtree indicators in slot order, then the
    component indicators."""
    frames = np.zeros((len(tails), n, n), dtype=np.int8)
    for c, edges in enumerate(zip(tails.tolist(), heads.tolist())):
        components, subtrees = forest_flow(list(zip(*edges)), n)
        for r, (sign, verts) in enumerate(
                subtrees + [(1, comp) for comp in components]):
            frames[c, r, list(verts)] = sign
    return frames


def flag_apexes(fm, mode):
    """The numerators of a flag's bases as one apex block each: (A, cls,
    vals), A (bases x split rows x n) int64, each basis's apexes its levels
    (mode "kt") plus the split rows' steps on its own coordinates, and cls
    and vals the split rows' classes and multiplicities, shared."""
    cells = _flag_cells(fm)
    num = _numerator(mode, _slot_counts(fm))
    A = num.steps[num.rows][:, np.argsort(cells.slots, axis=1)]
    A = A.transpose(1, 0, 2).astype(np.int64)
    if mode == "kt":
        A += cells.levels[:, None, :]
    return A, num.cls, num.vals


def support_core_per_basis(n, los, his, cells, numerators, classes,
                           aux_vars, den):
    """Reference for genfun._support_core on the flag route: numerators =
    (A, cls, vals) as flag_apexes gives them, over the whole sum-zero
    difference box, uncut.  Each owner's nonzero points that can reach the
    apex box are tested against every one of its apexes, coordinate by
    coordinate, and the incidences scattered into a dense accumulator over
    the box and the classes."""
    ranges = [hi - lo + 1 for lo, hi in zip(los, his)]
    n_cls = max(len(classes), 1)
    dkey = tuple(lo - hi for lo, hi in zip(los, his))
    X = _box_points(dkey, [-d for d in dkey], 0)
    XT = X.T.astype(np.float64)
    lo = np.array(los, dtype=np.int64)
    rng = np.array(ranges, dtype=np.int64)
    strides = np.cumprod([1] + ranges)[:-1].astype(np.int64)
    A, cls, vals = numerators
    cls, vals = (np.broadcast_to(a, A.shape[:2]) for a in (cls, vals))
    shifted = A - lo
    low, high = -shifted.max(axis=1), rng - shifted.min(axis=1)
    offsets = shifted @ strides
    acc = np.zeros(int(np.prod(ranges)) * n_cls, dtype=np.int64)
    for b0, p0, mult in _membership_passes(*cells, XT):
        for b, m in enumerate(mult, b0):
            rows = np.nonzero(m)[0] + p0
            Xr = X[rows]
            fit = ((Xr >= low[b]) & (Xr < high[b])).all(axis=1)
            rows, Xr = rows[fit], Xr[fit]
            inside = np.ones((len(rows), A.shape[1]), dtype=bool)
            for i in range(n):
                inside &= np.add.outer(Xr[:, i], shifted[b, :, i]) < rng[i]
                inside &= np.add.outer(Xr[:, i], shifted[b, :, i]) >= 0
            at, mons = np.nonzero(inside)
            np.add.at(acc, ((Xr @ strides)[at] + offsets[b, mons]) * n_cls
                      + cls[b, mons], m[rows[at] - p0] * vals[b, mons])
    acc = acc.reshape(-1, n_cls)
    at = np.flatnonzero(acc.any(axis=1))
    counts = acc[at]
    keep = np.flatnonzero(counts.any(axis=0))
    counts = counts[:, keep]
    rows, first = _row_ranks(counts - counts.min(initial=0))
    return _Support(at[:, None] // strides % rng + lo, rows, counts[first],
                    tuple(classes[c] for c in keep.tolist()), aux_vars, den)
