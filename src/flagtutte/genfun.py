"""Signed sums of half-open cone generating functions and their exact algebra.

A GenFun is a formal expression sum_i coeff_i * Hilb(C_i) with C_i half-open
unimodular simplicial cones.  When the expression happens to be a Laurent
polynomial (every pipeline in this package arranges that), coefficients are
extracted exactly by Lawrence-Varchenko flips along a symbolically irrational
direction, hyperplane slices are taken cell by cell, and the t -> 1
specialization goes through a one-variable substitution t_i = z^(c_i) with
exact division by the surviving (1 - z^d) factors.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .cones import (
    Direction, HalfOpenSimplicialCone, cone_membership, default_direction,
    flip_cone, slice_cone,
)
from .errors import (
    DegenerateWeights, HypothesisViolated, InternalAssertion, NonCancellingPole,
)
from .linalg import (
    difference_vector_graph, forest_flow, kernel_basis_int, matrix_rank,
    vec_dot,
)
from .polynomial import AuxPolynomial, _merge_vars


class GenFunTerm(NamedTuple):
    coeff: AuxPolynomial
    cone: HalfOpenSimplicialCone


class GenFun:
    """A finite signed combination of half-open simplicial cone series."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = int(n)
        self.terms = tuple(terms)
        for t in self.terms:
            if t.cone.n != self.n:
                raise ValueError("term dimension mismatch")

    def __repr__(self):
        return "GenFun(n=%d, terms=%d)" % (self.n, len(self.terms))


class EquivariantPolynomial:
    """A Laurent polynomial in t_1..t_n with auxiliary-polynomial coefficients."""

    __slots__ = ("n", "aux_vars", "support")

    def __init__(self, n, support=None, aux_vars=()):
        self.n = int(n)
        vars_ = tuple(aux_vars)
        clean = {}
        if support:
            for w, poly in support.items():
                w = tuple(int(x) for x in w)
                if len(w) != self.n:
                    raise ValueError("support vector of wrong dimension")
                if not isinstance(poly, AuxPolynomial):
                    poly = AuxPolynomial.constant(poly)
                if poly:
                    vars_ = _merge_vars(vars_, poly.vars)
                    clean[w] = poly
        self.aux_vars = vars_
        self.support = {w: p.align(vars_) for w, p in clean.items()}

    def items(self):
        """Support sorted graded-lex descending on the t-exponents."""
        keys = sorted(self.support,
                      key=lambda w: (-sum(w), tuple(-x for x in w)))
        return [(w, self.support[w]) for w in keys]

    def specialize_t1(self):
        """Set every t_i = 1: the plain auxiliary polynomial."""
        total = AuxPolynomial.zero(self.aux_vars)
        for _, poly in self.items():
            total = total + poly
        return total

    def substitute_aux(self, mapping):
        out = {}
        for w, poly in self.support.items():
            out[w] = poly.substitute(mapping)
        return EquivariantPolynomial(self.n, out)

    def map_support(self, fn):
        """Apply an exponent-vector map; collisions accumulate."""
        out = {}
        for w, poly in self.support.items():
            key = tuple(int(x) for x in fn(w))
            out[key] = out.get(key, AuxPolynomial.zero(poly.vars)) + poly
        return EquivariantPolynomial(self.n if not out else len(next(iter(out))),
                                     out)

    def insert_coordinate(self, position, value):
        """Embed into one more t-variable with a fixed exponent there."""
        def fn(w):
            return w[:position] + (int(value),) + w[position:]
        out = {fn(w): poly for w, poly in self.support.items()}
        return EquivariantPolynomial(self.n + 1, out)

    def scale(self, factor):
        out = {w: poly * factor for w, poly in self.support.items()}
        return EquivariantPolynomial(self.n, out, self.aux_vars)

    def mul_monomial(self, tvec, factor=1):
        tvec = tuple(int(x) for x in tvec)
        out = {tuple(a + b for a, b in zip(w, tvec)): poly * factor
               for w, poly in self.support.items()}
        return EquivariantPolynomial(self.n, out, self.aux_vars)

    def __add__(self, other):
        if other == 0:
            return self
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self.support)
        for w, poly in other.support.items():
            cur = out.get(w)
            out[w] = poly if cur is None else cur + poly
        return EquivariantPolynomial(self.n, out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, EquivariantPolynomial):
            if self.n != other.n:
                raise ValueError("dimension mismatch")
            out = {}
            for w1, p1 in self.support.items():
                for w2, p2 in other.support.items():
                    key = tuple(a + b for a, b in zip(w1, w2))
                    prod = p1 * p2
                    cur = out.get(key)
                    out[key] = prod if cur is None else cur + prod
            return EquivariantPolynomial(self.n, out)
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, EquivariantPolynomial):
            return NotImplemented
        if self.n != other.n:
            return False
        if set(self.support) != set(other.support):
            return False
        return all(self.support[w] == other.support[w] for w in self.support)

    __hash__ = None

    def __repr__(self):
        return "EquivariantPolynomial(n=%d, support=%d)" % (
            self.n, len(self.support))

    def canonical_str(self):
        if not self.support:
            return "0"
        lines = []
        for w, poly in self.items():
            lines.append("t^%s: %s" % (list(w), poly.canonical_str()))
        return "\n".join(lines)

    def to_json(self):
        return {
            "n": self.n,
            "terms": [{"t": list(w), "coeff": poly.to_json()}
                      for w, poly in self.items()],
        }

    @classmethod
    def from_json(cls, data):
        support = {}
        for item in data["terms"]:
            support[tuple(item["t"])] = AuxPolynomial.from_json(item["coeff"])
        return cls(data["n"], support)


# ----------------------------------------------------------------- flip cache


@lru_cache(maxsize=262144)
def _flipped_cached(cone, dir_key):
    return flip_cone(cone, Direction(dir_key[0], dir_key[1]))


def _flip(cone, direction):
    return _flipped_cached(cone, direction.key())


# ------------------------------------------------------------- coefficient_at


def coefficient_at(g, w, direction=None):
    """Exact coefficient of t^w, via flips along a fixed generic direction.

    After flipping, every cell is pointed along the symbolically irrational
    direction, so the signed membership count of w is the coefficient; the
    result does not depend on the direction (tested, not assumed).
    """
    if direction is None:
        direction = default_direction(g.n)
    w = tuple(int(x) for x in w)
    total = AuxPolynomial.zero()
    for term in g.terms:
        fc = _flip(term.cone, direction)
        if cone_membership(fc, w):
            total = total + term.coeff * fc.sign
    return total


# ------------------------------------------------------------------- support


def _box_candidates(los, his, fixed_sum=None):
    """Integer points of a coordinate box, optionally on a sum hyperplane."""
    n = len(los)
    out = []
    point = [0] * n

    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + los[i]
        suffix_max[i] = suffix_max[i + 1] + his[i]

    def rec(i, remaining):
        if i == n:
            if fixed_sum is None or remaining == 0:
                out.append(tuple(point))
            return
        lo, hi = los[i], his[i]
        if fixed_sum is not None:
            lo = max(lo, remaining - suffix_max[i + 1])
            hi = min(hi, remaining - suffix_min[i + 1])
        for v in range(lo, hi + 1):
            point[i] = v
            rec(i + 1, remaining - v)

    rec(0, fixed_sum if fixed_sum is not None else 0)
    return out


def support_pure(g, direction=None):
    """Reference support extraction: per-point coefficient_at over the box.

    Terms are grouped by apex coordinate sum (each group's box is cut by the
    sum hyperplane when every ray is a sum-zero vector, which all engine
    pipelines guarantee); the Newton polytope of each group lies in the
    convex hull of its apexes, so the box is a sound superset.
    """
    if direction is None:
        direction = default_direction(g.n)
    if not g.terms:
        return EquivariantPolynomial(g.n)
    sum_zero = all(sum(v) == 0
                   for t in g.terms for v in t.cone.rays)
    groups = {}
    if sum_zero:
        for t in g.terms:
            groups.setdefault(sum(t.cone.apex), []).append(t)
    else:
        groups[None] = list(g.terms)
    support = {}
    for s, terms in sorted(groups.items(), key=lambda kv: (kv[0] is None, kv[0])):
        sub = GenFun(g.n, terms)
        apexes = [t.cone.apex for t in terms]
        los = [min(a[c] for a in apexes) for c in range(g.n)]
        his = [max(a[c] for a in apexes) for c in range(g.n)]
        for w in _box_candidates(los, his, s):
            poly = coefficient_at(sub, w, direction)
            if poly:
                cur = support.get(w)
                support[w] = poly if cur is None else cur + poly
    return EquivariantPolynomial(g.n, support)


def _pivot_structure(rays, n):
    """Integer data deciding membership of x in cone(rays) at the origin.

    Returns (H, R, adj, det) with H the integer orthogonal complement rows
    (x in span iff H x = 0), R the pivot coordinate rows, and adj/det giving
    the unique rational coordinates a = adj . x_R / det (integer exactly when
    x is a lattice point of the span, since the rays are unimodular).  For
    difference-vector rays these are read off the spanning forest: H holds
    the component indicators, R the non-root vertices, adj the signed
    subtree matrix and det = 1.
    """
    edges = difference_vector_graph(rays, n)
    if edges is not None:
        flow = forest_flow(edges, n)
        if flow is None:
            raise InternalAssertion("rays lost rank unexpectedly")
        components, subtrees = flow
        H = [tuple(int(v in comp) for v in range(n)) for comp in components]
        roots = {comp[0] for comp in components}
        chosen = [v for v in range(n) if v not in roots]
        adj = [[sign if v in verts else 0 for v in chosen]
               for sign, verts in subtrees]
        return H, chosen, adj, 1
    d = len(rays)
    H = kernel_basis_int(list(rays))
    # choose pivot rows by Fraction elimination on the n x d ray-column matrix
    cols = [[Fraction(rays[j][i]) for j in range(d)] for i in range(n)]
    chosen = []
    basis = []
    for i in range(n):
        if len(chosen) == d:
            break
        cand = basis + [cols[i]]
        if matrix_rank(cand) > len(basis):
            basis = cand
            chosen.append(i)
    if len(chosen) != d:
        raise InternalAssertion("rays lost rank unexpectedly")
    # adjugate of the d x d matrix M with M[r][j] = rays[j][chosen[r]]
    m = [[rays[j][chosen[r]] for j in range(d)] for r in range(d)]
    det, adj = _int_adjugate(m)
    if det < 0:
        det = -det
        adj = [[-x for x in row] for row in adj]
    return H, chosen, adj, det


def _int_adjugate(m):
    """Determinant and adjugate of a small integer matrix, exactly."""
    d = len(m)
    if d == 0:
        return 1, []
    det = _int_det(m)
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[m[r][c] for c in range(d) if c != j]
                     for r in range(d) if r != i]
            adj[j][i] = (-1) ** (i + j) * _int_det(minor)
    return det, adj


def _int_det(m):
    d = len(m)
    if d == 0:
        return 1
    if d == 1:
        return m[0][0]
    if d == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    # fraction-free Gaussian elimination (Bareiss)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


_box_cache = {}
_member_cache = {}


def _members_in_box(cone_key, rays, flags, n, X, dkey):
    """Row indices of the D-box array X lying in cone(rays) at the origin."""
    key = (cone_key, dkey)
    hit = _member_cache.get(key)
    if hit is not None:
        return hit
    if not rays:
        sel = np.nonzero((X == 0).all(axis=1))[0]
        _member_cache[key] = sel
        return sel
    H, chosen, adj, det = _pivot_structure(rays, n)
    mask = np.ones(len(X), dtype=bool)
    if H:
        Hm = np.array(H, dtype=np.int64)
        mask &= (Hm @ X.T == 0).all(axis=0)
    Xr = X[:, chosen]
    A = Xr @ np.array(adj, dtype=np.int64).T
    mask &= (A % det == 0).all(axis=1)
    coords = A // det
    thr = np.array([1 if f else 0 for f in flags], dtype=np.int64)
    mask &= (coords >= thr).all(axis=1)
    sel = np.nonzero(mask)[0]
    _member_cache[key] = sel
    return sel


def _support_core(n, los, his, cone_kernels, class_polys, direction=None):
    """Shared fast support extractor over sum-zero-ray cones.

    cone_kernels: list of (rays, open_flags, sign, A, cls, vals) where
    (rays, open_flags, sign) describe an already-flipped half-open cone at
    the origin and the kernel arrays give, per numerator monomial, its apex
    row in A (int64, kappa x n), its coefficient-class index and its integer
    multiplicity.  Incidences w = apex + x with x a cone point are scattered
    into a code box enlarged so that no bounds check is needed; entries
    outside the true apex box are incomplete and discarded, which is sound
    because the result's Newton polytope lies in the convex hull of the
    apexes.  Returns the support dict, or None when the box is too large.
    """
    dlos = tuple(lo - hi for lo, hi in zip(los, his))
    dhis = tuple(hi - lo for lo, hi in zip(los, his))
    elos = tuple(lo + dlo for lo, dlo in zip(los, dlos))
    eranges = tuple((hi - lo + 1) + (dhi - dlo)
                    for lo, hi, dlo, dhi in zip(los, his, dlos, dhis))
    espace = 1
    for r in eranges:
        espace *= r
    n_cls = max(len(class_polys), 1)
    if espace > 4_000_000 or espace * n_cls > 40_000_000:
        return None

    dkey = (n, dlos, dhis)
    cached = _box_cache.get(dkey)
    if cached is None:
        pts = _box_candidates(list(dlos), list(dhis), 0)
        X = np.array(pts, dtype=np.int64).reshape(len(pts), n)
        _box_cache[dkey] = X
        cached = X
    X = cached
    estrides = []
    s = 1
    for r in eranges:
        estrides.append(s)
        s *= r
    Ev = np.array(estrides, dtype=np.int64)
    Xe = X @ Ev
    eoffset = -int(np.dot(np.array(elos, dtype=np.int64), Ev))

    acc = np.zeros((espace, n_cls), dtype=np.int64)
    for rays, flags, sign, A, cls, vals in cone_kernels:
        sel = _members_in_box((rays, flags), rays, flags, n, X, dkey)
        if len(sel) == 0:
            continue
        codes = Xe[sel][:, None] + (A @ Ev)[None, :] + eoffset
        cls2 = np.broadcast_to(cls[None, :], codes.shape)
        vals2 = np.broadcast_to(sign * vals[None, :], codes.shape)
        np.add.at(acc, (codes.ravel(), cls2.ravel()), vals2.ravel())

    support_dict = {}
    nz_codes, nz_cls = np.nonzero(acc)
    for pos in range(len(nz_codes)):
        code = int(nz_codes[pos])
        cidx = int(nz_cls[pos])
        count = int(acc[code, cidx])
        rem = code
        w = []
        inside = True
        for c in range(n):
            x = rem % eranges[c] + elos[c]
            if x < los[c] or x > his[c]:
                inside = False
                break
            w.append(x)
            rem //= eranges[c]
        if not inside:
            continue
        w = tuple(w)
        add = class_polys[cidx] * count
        cur = support_dict.get(w)
        support_dict[w] = add if cur is None else cur + add
    return support_dict


def support(g, direction=None):
    """Full support of a GenFun that is a Laurent polynomial.

    Fast path: flip every distinct cone once, intersect it with the bounded
    difference box (all integer arithmetic, int64 is exact at these sizes)
    and accumulate signed incidences per candidate exponent and coefficient
    class.  Falls back to the per-point reference path when rays are not
    sum-zero vectors or the box is too large to enumerate.
    """
    if direction is None:
        direction = default_direction(g.n)
    if not g.terms:
        return EquivariantPolynomial(g.n)
    n = g.n
    sum_zero = all(sum(v) == 0 for t in g.terms for v in t.cone.rays)
    if not sum_zero:
        return support_pure(g, direction)
    apexes = [t.cone.apex for t in g.terms]
    los = tuple(min(a[c] for a in apexes) for c in range(n))
    his = tuple(max(a[c] for a in apexes) for c in range(n))

    class_index = {}
    class_polys = []

    def cls_of(poly):
        key = (poly.vars, frozenset(poly.terms.items()))
        idx = class_index.get(key)
        if idx is None:
            idx = len(class_polys)
            class_index[key] = idx
            class_polys.append(poly)
        return idx

    by_cone = {}
    for t in g.terms:
        fc = _flip(t.cone, direction)
        counts = by_cone.setdefault((fc.rays, fc.open_flags, fc.sign), {})
        key = (fc.apex, cls_of(t.coeff))
        counts[key] = counts.get(key, 0) + 1

    kernels = []
    for (rays, flags, sign), counts in sorted(by_cone.items()):
        items = sorted(counts.items())
        A = np.array([apex for (apex, _), _ in items],
                     dtype=np.int64).reshape(len(items), n)
        cls = np.array([c for (_, c), _ in items], dtype=np.int64)
        vals = np.array([v for _, v in items], dtype=np.int64)
        kernels.append((rays, flags, sign, A, cls, vals))

    support_dict = _support_core(n, los, his, kernels, class_polys, direction)
    if support_dict is None:
        return support_pure(g, direction)
    return EquivariantPolynomial(n, support_dict)


# ---------------------------------------------------------------------- slice


def slice_genfun(g, zeta, b):
    """Restrict a Laurent-polynomial GenFun to the hyperplane <zeta, x> = b.

    Verified hypothesis: every term whose apex pairs below b must be pointed
    along zeta (all rays pairing >= 0); the returned GenFun collects the
    pointed terms intersected with the hyperplane, cell by cell.
    """
    zeta = tuple(Fraction(z) for z in zeta)
    if all(z == 0 for z in zeta):
        raise HypothesisViolated("the slicing direction must be nonzero")
    b = Fraction(b)
    scale = 1
    for z in list(zeta) + [b]:
        scale = scale * z.denominator // gcd(scale, z.denominator)
    zi = tuple(int(z * scale) for z in zeta)
    bi = int(b * scale)
    zi_g = 0
    for z in zi:
        zi_g = gcd(zi_g, z)
    lattice_empty = False
    if zi_g > 1:
        if bi % zi_g == 0:
            zi = tuple(z // zi_g for z in zi)
            bi //= zi_g
        else:
            lattice_empty = True
    pointed = []
    for t in g.terms:
        is_pointed = all(vec_dot(zi, v) >= 0 for v in t.cone.rays)
        if vec_dot(zi, t.cone.apex) < bi and not is_pointed:
            raise HypothesisViolated(
                "a term with apex below the hyperplane is not pointed "
                "along zeta")
        if is_pointed:
            pointed.append(t)
    if lattice_empty:
        return GenFun(g.n, ())
    out = []
    for t in pointed:
        for piece in slice_cone(t.cone, zi, bi):
            out.append(GenFunTerm(t.coeff, piece))
    return GenFun(g.n, out)


# ---------------------------------------------------------------- evaluate_t1


def _weight_candidates(n, seed):
    yield tuple(range(1, n + 1))
    yield tuple((n + 1) ** i for i in range(n))
    primes = []
    p = 2
    while len(primes) < n:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    yield tuple(primes)
    rng = random.Random(seed)
    for _ in range(20):
        yield tuple(rng.randrange(1, 10 * n * n + 2) for _ in range(n))


def evaluate_t1(g, seed=0):
    """The specialization t_i -> 1 of a Laurent-polynomial GenFun.

    Substitutes t_i = z^(c_i) for a deterministic generic integer weight
    vector (no ray may pair to zero), combines the per-term rational
    functions over a common denominator of (1 - z^d) factors, divides the
    numerator exactly and reads off the value at z = 1.
    """
    if not g.terms:
        return AuxPolynomial.zero()
    rays = sorted({v for t in g.terms for v in t.cone.rays})
    weights = None
    for cand in _weight_candidates(g.n, seed):
        if all(vec_dot(cand, v) != 0 for v in rays):
            weights = cand
            break
    if weights is None:
        raise DegenerateWeights("no generic weight vector found")

    groups = {}
    for t in g.terms:
        cone = t.cone
        offset = vec_dot(weights, cone.apex)
        sign = cone.sign
        dens = []
        for v, is_open in zip(cone.rays, cone.open_flags):
            d = vec_dot(weights, v)
            if d > 0:
                dens.append(d)
                if is_open:
                    offset += d
            else:
                m = -d
                dens.append(m)
                sign = -sign
                if not is_open:
                    offset += m
        key = tuple(sorted(dens))
        num = groups.setdefault(key, {})
        add = t.coeff * sign
        cur = num.get(offset)
        num[offset] = add if cur is None else cur + add

    target = {}
    for key in groups:
        counts = {}
        for d in key:
            counts[d] = counts.get(d, 0) + 1
        for d, c in counts.items():
            if target.get(d, 0) < c:
                target[d] = c

    combined = {}
    for key, num in groups.items():
        counts = {}
        for d in key:
            counts[d] = counts.get(d, 0) + 1
        cur = dict(num)
        for d, want in sorted(target.items()):
            for _ in range(want - counts.get(d, 0)):
                nxt = {}
                for e, poly in cur.items():
                    c0 = nxt.get(e)
                    nxt[e] = poly if c0 is None else c0 + poly
                    c1 = nxt.get(e + d)
                    neg = -poly
                    nxt[e + d] = neg if c1 is None else c1 + neg
                cur = {e: p for e, p in nxt.items() if p}
        for e, poly in cur.items():
            c0 = combined.get(e)
            combined[e] = poly if c0 is None else c0 + poly
    combined = {e: p for e, p in combined.items() if p}
    if not combined:
        return AuxPolynomial.zero()

    for d, mult in sorted(target.items()):
        for _ in range(mult):
            if not combined:
                break
            emin = min(combined)
            emax = max(combined)
            q = {}
            for e in range(emin, emax + 1):
                val = combined.get(e)
                prev = q.get(e - d)
                if prev is not None:
                    val = prev if val is None else val + prev
                if val:
                    q[e] = val
            for e in range(emax - d + 1, emax + 1):
                if q.get(e):
                    raise NonCancellingPole(
                        "denominator factor (1 - z^%d) does not divide the "
                        "numerator" % d)
                q.pop(e, None)
            combined = q
    total = AuxPolynomial.zero()
    for e in sorted(combined):
        total = total + combined[e]
    return total


# -------------------------------------------------------------------- brion


def brion_series(n, vertex_cones, direction=None):
    """Sum of vertex-cone Hilbert series as an explicit Laurent polynomial.

    vertex_cones: iterable of (apex, generators) or (apex, generators, coeff)
    triples; each summand is triangulated half-open and the total support is
    extracted.  For the vertex cones of a lattice polytope this returns the
    indicator sum {w -> 1} of its lattice points.
    """
    from .cones import triangulate_half_open
    terms = []
    for item in vertex_cones:
        if len(item) == 2:
            apex, gens = item
            coeff = AuxPolynomial.constant(1)
        else:
            apex, gens, coeff = item
            if not isinstance(coeff, AuxPolynomial):
                coeff = AuxPolynomial.constant(coeff)
        for cell in triangulate_half_open(apex, gens):
            terms.append(GenFunTerm(coeff, cell))
    return support(GenFun(n, terms), direction)
