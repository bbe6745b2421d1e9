"""Signed sums of half-open cone generating functions and their exact algebra.

A GenFun is a formal expression sum_i coeff_i * Hilb(C_i) with C_i half-open
unimodular simplicial cones.  When the expression happens to be a Laurent
polynomial (every pipeline in this package arranges that), coefficients are
extracted exactly by Lawrence-Varchenko flips along a symbolically irrational
direction and hyperplane slices are taken cell by cell.

Two integer cores serve both the GenFun API and the localization sums of
invariants.py.  _support_core extracts the full support of sums whose rays
are all difference vectors e_j - e_i.  It takes cell arrays: per
half-open cone at the origin the tails and heads of its rays, its open
flags, sign and owner, plus per owner int64 arrays of numerator apexes,
coefficient classes and multiplicities.  Every cell is then a forest cone,
its membership a few integer rows over x each with a threshold, built for
a chunk of cells at once (cones._forest_rows), so one batched pass per
chunk of owners tests all their cells against the sum-zero difference box
with one float product and adds the signed memberships up to one
multiplicity per owner and box point; points that cannot reach the apex
box are dropped, the rest are tested against it in the narrowest integer
dtype, and the incidences that land are scattered into one dense int64
accumulator.  Its nonzero rows are the support in array form (_Support:
points, a dense count matrix over the classes and a common denominator),
which a direct sum multiplies block by block (_support_product) and one
decode turns into an EquivariantPolynomial, one shared coefficient per
distinct row of counts (support_pure, a per-point crawl, remains for
other rays and as the test reference).  _specialize_t1 sets t -> 1 in one
array pass over all cells: it takes per-cell arrays (open flags, sign,
numerator index) and a callback pairing every ray and numerator apex with
a weight, substitutes t_i = z^(c_i) and reads the value at z = 1 off the
Laurent expansion at z = e^s modulo primes, one integer per class by CRT.
_genfun_kernels gives both cores the distinct cones of a GenFun in the
same array form, as a table of distinct rays and per-cell slots into it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, isqrt, prod
from operator import mul
from typing import NamedTuple

import numpy as np

from .cones import (
    Direction, HalfOpenSimplicialCone, _edge_vectors, _forest_rows,
    _row_ranks, cone_membership, default_direction, flip_cone, slice_cone,
)
from .errors import (
    DegenerateWeights, GroundSetTooLarge, HypothesisViolated,
    NonCancellingPole,
)
from .linalg import difference_vector_graph, vec_dot
from .lru import LRUCache
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

    @classmethod
    def _trusted(cls, n, support, aux_vars):
        """Wrap a support built by _decode_support without re-validating it.

        support maps int tuples of length n to nonzero AuxPolynomials already
        on aux_vars; an empty support carries no aux variables, as from the
        public constructor.
        """
        out = cls.__new__(cls)
        out.n = n
        out.aux_vars = tuple(aux_vars) if support else ()
        out.support = support
        return out

    def items(self):
        """Support sorted graded-lex descending on the t-exponents."""
        keys = sorted(self.support,
                      key=lambda w: (-sum(w), tuple(-x for x in w)))
        return [(w, self.support[w]) for w in keys]

    def specialize_t1(self):
        """Set every t_i = 1: the plain auxiliary polynomial.  Points of an
        extracted support share coefficient objects: each is added once,
        times the number of points holding it."""
        polys = {id(poly): poly for poly in self.support.values()}
        times = Counter(map(id, self.support.values()))
        total = AuxPolynomial.zero(self.aux_vars)
        for key, poly in polys.items():
            total = total + poly * times[key]
        return total

    def substitute_aux(self, mapping):
        """Substitute into every coefficient, once per coefficient object
        (points of an extracted support share them)."""
        done = {}
        out = {}
        for w, poly in self.support.items():
            key = id(poly)
            if key not in done:
                done[key] = poly.substitute(mapping)
            out[w] = done[key]
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


@lru_cache(maxsize=1024)
def _interned(dir_key):
    """The one Direction object per key() that flips are cached under."""
    return Direction(*dir_key)


@lru_cache(maxsize=262144)
def _flipped_cached(cone, direction):
    """The cone flipped along a direction returned by _interned.

    A Direction hashes by identity, so the interned object is an O(1) cache
    key; callers intern once per sweep, not once per cell.
    """
    return flip_cone(cone, direction)


@lru_cache(maxsize=1024)
def _reversed_edges(direction):
    """(n x n) bool: whether e_j - e_i pairs negatively at [i, j].

    direction is one returned by _interned; the diagonal is False.
    """
    n = len(direction.zeta)
    out = np.array([k // n != k % n and direction.sign(v) < 0
                    for k, v in enumerate(_edge_vectors(n))],
                   dtype=bool).reshape(n, n)
    out.setflags(write=False)
    return out


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
    direction = _interned(direction.key())
    total = AuxPolynomial.zero()
    for term in g.terms:
        fc = _flipped_cached(term.cone, direction)
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

    The Newton polytope of a Laurent-polynomial GenFun lies in the convex
    hull of its apexes, so their bounding box is a sound superset.  support()
    takes this path only when some ray is not a difference vector; tests
    use it as the reference for the dense support core.
    """
    if direction is None:
        direction = default_direction(g.n)
    if not g.terms:
        return EquivariantPolynomial(g.n)
    apexes = [t.cone.apex for t in g.terms]
    los = [min(a[c] for a in apexes) for c in range(g.n)]
    his = [max(a[c] for a in apexes) for c in range(g.n)]
    out = {}
    for w in _box_candidates(los, his):
        poly = coefficient_at(g, w, direction)
        if poly:
            out[w] = poly
    return EquivariantPolynomial(g.n, out)


class _Support(NamedTuple):
    """A support in array form: the coefficient of t^points[p] is
    sum_c counts[p, c] / den times the monomial classes[c] in aux_vars.

    points is (P x n) int64 and counts the dense (P x len(classes)) int64
    count matrix; every point holds a nonzero count.
    """
    points: np.ndarray
    counts: np.ndarray
    classes: tuple
    aux_vars: tuple
    den: int


_SUPPORT_CELLS = 40_000_000
_PASS_ENTRIES = 1 << 18
# never written; still bound because the benchmark worker reads its length
_member_cache = LRUCache(0)
_box_cache = LRUCache(256)


def _membership_passes(n, tails, heads, opens, signs, owner, XT):
    """Signed membership multiplicities of the cells per owner, pass by pass.

    The cells are arrays as _support_core takes them.  Yields (b0, p0,
    mult): mult the int64 sums of sign * [x in cell] over the cells of
    owners b0, b0 + 1, ... (one row each) for the box points p0, p0 + 1, ...
    of XT, the transposed sum-zero box in a float dtype holding every |M x|
    exactly.  Each pass takes a chunk of consecutive owners, their cells'
    rows from cones._forest_rows (built once per chunk), one product with a
    block of points, one comparison against the thresholds, one all() over
    each cell's rows and one signed sum per owner.  The product has at most
    _PASS_ENTRIES entries unless one owner alone has more rows than that.
    """
    sizes = np.bincount(owner)
    ends = np.concatenate([[0], np.cumsum(sizes)])
    # the most rows a cell of a forest on these slots can need
    dims = (tails != heads).sum(axis=1)
    height = 2 * max(n - 1 - int(dims.min(initial=n)), 0) + tails.shape[1]
    points = XT.shape[1]
    block = max(1, min(points, _PASS_ENTRIES // max(
        int(sizes.max(initial=1)) * height, 1)))
    chunks = [[0, 0, 0]]
    for c in sizes.tolist():
        b0, b1, cells = chunks[-1]
        if cells and (cells + c) * height * block > _PASS_ENTRIES:
            chunks.append([b1, b1 + 1, c])
        else:
            chunks[-1] = [b0, b1 + 1, cells + c]
    for b0, b1, _ in chunks:
        at = slice(ends[b0], ends[b1])
        M, thr = _forest_rows(tails[at], heads[at], opens[at], n)
        cells, rows = thr.shape
        R = M.reshape(cells * rows, n).astype(XT.dtype)
        thr = thr[:, :, None].astype(XT.dtype)
        sign = np.zeros((b1 - b0, cells), dtype=XT.dtype)
        sign[owner[at] - b0, np.arange(cells)] = signs[at]
        for p0 in range(0, points, block):
            Xb = XT[:, p0:p0 + block]
            prod = (R @ Xb).reshape(cells, rows, Xb.shape[1])
            hits = (prod >= thr).all(axis=1)
            yield b0, p0, (sign @ hits).astype(np.int64)


def _support_core(n, los, his, cells, numerators, classes, aux_vars, den):
    """The support extractor for cones on difference-vector rays.

    cells = (tails, heads, opens, signs, owner): per already-flipped
    half-open cone at the origin, its independent rays e_heads[c, k] -
    e_tails[c, k] on D slots (tail == head in a padding slot), open flags,
    sign and owner (ascending), the index of its numerator.  numerators =
    (A, cls, vals): per owner b and monomial r its apex A[b, r] (int64, B x
    kappa x n), class cls[b, r] and integer multiplicity vals[b, r] (cls
    and vals broadcast to B x kappa).  _membership_passes tests the cells
    against blocks of the sum-zero difference box [los - his, his - los]
    and sums the signed memberships to one multiplicity per owner and
    point, where flipped cells cancel.  Only points with nonzero
    multiplicity that can reach the apex box [los, his] are broadcast
    against the owner's monomials, in the narrowest unsigned dtype that
    holds the shifted sums, and the incidences w = apex + x inside the box
    are scattered into one dense int64 accumulator over the box and the
    classes; the result's Newton polytope lies in the convex hull of the
    apexes, so none outside counts.  Returns the nonzero rows as a _Support
    over the classes that occur (class c with count k is the monomial
    classes[c] in aux_vars with coefficient k / den).  Raises
    GroundSetTooLarge, before allocating, when the accumulator would
    exceed _SUPPORT_CELLS entries.
    """
    ranges = [hi - lo + 1 for lo, hi in zip(los, his)]
    space = prod(ranges)
    n_cls = max(len(classes), 1)
    if space * n_cls > _SUPPORT_CELLS:
        raise GroundSetTooLarge(
            "support box of %d points and %d classes exceeds %d cells"
            % (space, n_cls, _SUPPORT_CELLS))

    dkey = tuple(lo - hi for lo, hi in zip(los, his))
    X = _box_cache.lookup(dkey)
    if X is None:
        pts = _box_candidates(list(dkey), [-d for d in dkey], 0)
        # the smallest signed dtype holding -min(dkey) - 1 holds every |x|
        X = np.array(pts, dtype=np.min_scalar_type(min(dkey, default=0) - 1))
        X = X.reshape(len(pts), n)
        _box_cache.store(dkey, X)
    # |M x| <= sum(range - 1): float32 is exact below 2^24
    XT = X.T.astype(np.float32 if -sum(dkey) < 1 << 24 else np.float64)
    lo = np.array(los, dtype=np.int64)
    rng = np.array(ranges, dtype=np.int64)
    strides = np.cumprod([1] + ranges)[:-1].astype(np.int64)
    # shifted sums x + (apex - lo) lie in [-(r - 1), 2 (r - 1)]; in an
    # unsigned dtype holding 2 (r - 1) a negative sum wraps to >= r, so one
    # compare against the range tests both ends of the box
    narrow = np.min_scalar_type(2 * (max(ranges, default=1) - 1))
    rng_narrow = rng.astype(narrow)

    A, cls, vals = numerators
    cls, vals = (np.broadcast_to(a, A.shape[:2]) for a in (cls, vals))
    shifted = A - lo
    # x can land only inside [-max(B), range - 1 - min(B)]
    low, high = -shifted.max(axis=1), rng - shifted.min(axis=1)
    offsets = shifted @ strides
    shifted = shifted.astype(narrow)
    acc = np.zeros(space * n_cls, dtype=np.int64)
    for b0, p0, mult in _membership_passes(n, *cells, XT):
        codes, weights = [], []
        for b, m in enumerate(mult, b0):
            rows = np.nonzero(m)[0] + p0
            Xr = X[rows]
            fit = ((Xr >= low[b]) & (Xr < high[b])).all(axis=1)
            rows, Xr = rows[fit], Xr[fit]
            if len(rows) == 0:
                continue
            Xn, Bn = Xr.astype(narrow), shifted[b]
            inside = np.ones((len(Xn), len(Bn)), dtype=bool)
            for i in range(n):
                inside &= np.add.outer(Xn[:, i], Bn[:, i]) < rng_narrow[i]
            at, mons = np.nonzero(inside)
            codes.append(((Xr @ strides)[at] + offsets[b, mons]) * n_cls
                         + cls[b, mons])
            weights.append(m[rows[at] - p0] * vals[b, mons])
        if codes:
            np.add.at(acc, np.concatenate(codes), np.concatenate(weights))

    acc = acc.reshape(space, n_cls)
    at = np.flatnonzero(acc.any(axis=1))
    counts = acc[at]
    keep = np.flatnonzero(counts.any(axis=0))
    return _Support(at[:, None] // strides % rng + lo, counts[:, keep],
                    tuple(classes[c] for c in keep.tolist()), aux_vars, den)


def _decode_support(s):
    """The EquivariantPolynomial of a support in array form.

    The points holding one row of counts share one AuxPolynomial: the
    distinct rows come from cones._row_ranks (a void view and np.unique),
    each is built once by AuxPolynomial._trusted, and each distinct count
    is one Fraction over the denominator.  Shared coefficients are never
    mutated in place.
    """
    n = s.points.shape[1]
    if not len(s.points):
        return EquivariantPolynomial._trusted(n, {}, s.aux_vars)
    inverse, first = _row_ranks(s.counts - s.counts.min())
    rows = s.counts[first]
    at, cidx = np.nonzero(rows)
    values, which = np.unique(rows[at, cidx], return_inverse=True)
    coeffs = [Fraction(k, s.den) for k in values.tolist()]
    terms = list(zip(map(s.classes.__getitem__, cidx.tolist()),
                     map(coeffs.__getitem__, which.tolist())))
    bounds = np.searchsorted(at, np.arange(len(rows) + 1)).tolist()
    polys = [AuxPolynomial._trusted(s.aux_vars, dict(terms[a:b]))
             for a, b in zip(bounds, bounds[1:])]
    support = dict(zip(map(tuple, s.points.tolist()),
                       map(polys.__getitem__, inverse.tolist())))
    return EquivariantPolynomial._trusted(n, support, s.aux_vars)


def _support_product(n, parts):
    """The support of a direct sum, in array form, from its blocks' supports.

    parts lists (mask, support) per block, each support on its block's own
    coordinates in increasing order, all on one aux_vars and with
    nonnegative class exponents, as on the flag route.  The points
    pair up by np.repeat and np.tile, each block's columns placed at its
    mask positions, so no two pairs meet; class exponents add and counts
    multiply, and the class pairs that land on one class merge in one
    integer product with a 0/1 merge matrix.  One block covers every
    coordinate and is its own product; the product over no blocks (n = 0)
    is the unit, one point of length 0 with count 1 in class (0, 0).
    Raises GroundSetTooLarge, before allocating, when the product would
    exceed _SUPPORT_CELLS cells.
    """
    if len(parts) == 1:
        return parts[0][1]
    if not parts:
        return _Support(np.zeros((1, n), dtype=np.int64),
                        np.ones((1, 1), dtype=np.int64), ((0, 0),),
                        ("u", "v"), 1)

    def exponents(s):
        return np.array(s.classes, dtype=np.int64).reshape(
            len(s.classes), len(s.aux_vars))

    merges = []
    classes = exponents(parts[0][1])
    for _, s in parts[1:]:
        sums = (classes[:, None] + exponents(s)).reshape(
            -1, classes.shape[1])
        rank, first = _row_ranks(sums)
        merges.append((rank, len(first)))
        classes = sums[first]
    cells = prod(len(s.points) for _, s in parts) * len(classes)
    if cells > _SUPPORT_CELLS:
        raise GroundSetTooLarge("support product of %d cells exceeds %d"
                                % (cells, _SUPPORT_CELLS))

    def placed(mask, points):
        out = np.zeros((len(points), n), dtype=np.int64)
        out[:, [i for i in range(n) if mask >> i & 1]] = points
        return out

    mask, s = parts[0]
    W, D, den = placed(mask, s.points), s.counts, s.den
    for (mask, s), (rank, C) in zip(parts[1:], merges):
        (P1, C1), (P2, C2) = D.shape, s.counts.shape
        _check_width(int(np.abs(D).max(initial=0))
                     * int(np.abs(s.counts).max(initial=0)) * min(C1, C2))
        merge = np.zeros((C1 * C2, C), dtype=np.int64)
        merge[np.arange(C1 * C2), rank] = 1
        # X[i, b, c] = sum_a D[i, a] [a + b -> c]; then sum_b counts[j, b]
        X = (D @ merge.reshape(C1, C2 * C)).reshape(P1, C2, C)
        D = np.matmul(s.counts, X).reshape(P1 * P2, C)
        W = (np.repeat(W, P2, axis=0)
             + np.tile(placed(mask, s.points), (P1, 1)))
        den *= s.den
    return _Support(W, D, tuple(map(tuple, classes.tolist())),
                    parts[0][1].aux_vars, den)


def _genfun_kernels(g, direction=None):
    """A GenFun as cell arrays for _specialize_t1 and _support_core.

    One cell per distinct (rays, open_flags, sign), flipped along the
    interned direction when one is given, with its own numerator; classes
    are the coefficient monomials, multiplicities scaled by the common
    denominator (only the whole sum is a Laurent polynomial, but then so is
    its coefficient of each monomial).  Returns (rays, slots, opens, signs,
    (A, cls, vals), aux variables, class exponent tuples, denominator):
    rays the (R x n) table of distinct rays, slots (K x D) indices into it
    (R in a padding slot), A (K x rows x n), cls and vals (K x rows), whose
    padding rows repeat a cell's first apex with multiplicity 0.
    """
    vars_ = ()
    den = 1
    for t in g.terms:
        vars_ = _merge_vars(vars_, t.coeff.vars)
        for c in t.coeff.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
    class_index = {}
    by_cone = {}
    for t in g.terms:
        cone = (t.cone if direction is None
                else _flipped_cached(t.cone, direction))
        counts = by_cone.setdefault((cone.rays, cone.open_flags, cone.sign),
                                    {})
        for exps, c in t.coeff.align(vars_).terms.items():
            key = (cone.apex, class_index.setdefault(exps, len(class_index)))
            counts[key] = counts.get(key, 0) + int(c * den)
    ids = {}
    cells = []
    for (rays, flags, sign), counts in sorted(by_cone.items()):
        items = [(apex, c, v) for (apex, c), v in sorted(counts.items()) if v]
        if items:
            _check_width(max(abs(v) for _, _, v in items))
            cells.append(([ids.setdefault(v, len(ids)) for v in rays], flags,
                          sign, items))
    K = len(cells)
    dim = max((len(c[0]) for c in cells), default=0)
    # one row at least, so that an empty sum still reduces over its rows
    rows = max((len(c[3]) for c in cells), default=1)
    slots = np.full((K, dim), len(ids), dtype=np.intp)
    opens = np.zeros((K, dim), dtype=bool)
    A = np.zeros((K, rows, g.n), dtype=np.int64)
    cls = np.zeros((K, rows), dtype=np.int64)
    vals = np.zeros((K, rows), dtype=np.int64)
    for k, (at, flags, _, items) in enumerate(cells):
        slots[k, :len(at)] = at
        opens[k, :len(flags)] = flags
        apexes, cs, vs = zip(*items)
        A[k] = apexes[0]
        A[k, :len(items)] = apexes
        cls[k, :len(items)] = cs
        vals[k, :len(items)] = vs
    rays = np.array(list(ids), dtype=np.int64).reshape(len(ids), g.n)
    signs = np.array([c[2] for c in cells], dtype=np.int64)
    return (rays, slots, opens, signs, (A, cls, vals), vars_,
            list(class_index), den)


def support(g, direction=None):
    """Full support of a GenFun that is a Laurent polynomial.

    When every ray is a difference vector e_j - e_i (all engine
    pipelines), each distinct cone is flipped once, its tails and heads
    read off the ray table, and the signed incidences go through
    _support_core, in integers (int64 is exact at these sizes); it raises
    GroundSetTooLarge when the apex box is too large.  Other rays take the
    per-point reference path, support_pure.
    """
    if direction is None:
        direction = default_direction(g.n)
    if not g.terms:
        return EquivariantPolynomial(g.n)
    n = g.n
    if any(difference_vector_graph(t.cone.rays, n) is None for t in g.terms):
        return support_pure(g, direction)
    apexes = [t.cone.apex for t in g.terms]
    los = tuple(min(a[c] for a in apexes) for c in range(n))
    his = tuple(max(a[c] for a in apexes) for c in range(n))

    rays, slots, opens, signs, numerators, vars_, classes, den = \
        _genfun_kernels(g, _interned(direction.key()))
    # each ray's tail and head; the padding slot gets tail == head == 0
    ends = np.arange(n)
    cells = (np.append((rays < 0) @ ends, 0)[slots],
             np.append((rays > 0) @ ends, 0)[slots], opens, signs,
             np.arange(len(slots)))
    return _decode_support(
        _support_core(n, los, his, cells, numerators, classes, vars_, den))


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


_INT64_MAX = int(np.iinfo(np.int64).max)


def _weight_candidates(n, seed):
    yield tuple(range(1, n + 1))
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
    # last, because the dense z-arrays of _specialize_t1 span c . apex
    yield tuple((n + 1) ** i for i in range(n))


def _check_width(bound):
    if bound > _INT64_MAX:
        raise GroundSetTooLarge(
            "kernel arithmetic needs integers beyond int64 (bound %d)" % bound)


_PRIMES = []


def _prime(i):
    """The i-th largest prime below 2^21, counting from 0."""
    while len(_PRIMES) <= i:
        p = (_PRIMES[-1] if _PRIMES else 1 << 21) - 1
        while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            p -= 1
        _PRIMES.append(p)
    return _PRIMES[i]


@cache
def _prime_tables(p, order):
    """Mod p: lambda_1..lambda_order, then 1/m and 1/m! for m = 0..order.

    lambda_m is the coefficient of x^m in log(x / (e^x - 1)): lambda_1 =
    -1/2 and lambda_m = -B_m / (m m!) beyond, B_m the Bernoulli numbers.
    The keys are the few primes in use times the orders up to a flag's ray
    count, so the memo needs no bound.
    """
    bern = [Fraction(1)]
    for m in range(1, order + 1):
        bern.append(-sum(comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    lam = [Fraction(-1, 2)] + [-bern[m] / (m * factorial(m))
                               for m in range(2, order + 1)]
    inv = [1] + [pow(m, -1, p) for m in range(1, order + 1)]
    return ([f.numerator * pow(f.denominator, -1, p) % p
             for f in lam[:order]], inv,
            list(accumulate(inv, lambda a, b: a * b % p)))


def _specialize_t1(n, at_weight, opens, signs, owner, cls, vals, n_cls,
                   seed=0):
    """The t -> 1 value of a signed sum of cone kernels, one integer per class.

    C cells at the origin of D ray slots each share K numerators: cell c has
    open flags opens[c], sign signs[c] (+-1, broadcast) and numerator
    owner[c] (ascending, each numerator owning a cell), and numerator k is
    sum_r vals[k, r] t^(a_kr) in class cls[k, r] (K x R, or length R when
    shared).  at_weight(w), for an int64 weight w, returns None when a ray
    pairs to zero, else the (C x D) pairings w . ray (0 in a padding slot),
    the (K x R) exponents w . a_kr (fresh arrays, overwritten here) and the
    number of lattice points in the box of all apexes a_kr.  The first
    weight accepted substitutes t_i = z^(w_i): cell c is signs[c] z^shift
    N_k(z) / prod_j (1 - z^d_j) with d_j = |w . ray| > 0 and shift the sum
    of its open d_j (1 / (1 - z^-d) = -z^d / (1 - z^d) reverses a ray).

    At z = e^s, 1 / (1 - e^x) = -B(x) / x with B(x) = x / (e^x - 1), as in
    Barvinok (1994) and LattE (De Loera et al. 2004), so a cell of dim rays
    is signs[c] (-1)^dim / prod_j d_j s^-dim F(s) N_k(e^s), F = exp(shift s
    + sum_m lambda_m p_m s^m) with lambda_m the coefficients of log B and
    p_m = sum_j d_j^m, by m F_m = sum_k k L_k F_(m-k) once per denominator
    multiset and shift.  One np.add.reduceat sums each numerator's cells to
    a series G_k from s^-D, and N_k(e^s) = sum_m s^m sum_e N_k[e] e^m / m!
    over the dense N on the z-range.  Per class, sum_k G_k N_k(e^s) has no
    s^-j term (else NonCancellingPole) and its s^0 term is the value.

    All runs modulo primes below 2^21 dividing no d_j (lambda_m and m! have
    none above D + 1); CRT recovers the values.  The primes' product exceeds
    twice a proven bound: each class is a Laurent polynomial supported in
    the apexes' convex hull (flip every cell along any linear functional),
    so in their box, with coefficients of at most sum_k cells_k mass_k,
    mass_k = sum_r |vals[k, r]|.  A value past box points times that sum is
    no Laurent polynomial's (NonCancellingPole).  Poles are found modulo the
    primes only: a nonzero s^-j coefficient that all of them divide (about
    one chance in 2^21 per coefficient at one prime) passes, and the value
    is then caught only if it lands past the bound.  int64 needs no running
    bound: factors are residues below 2^21, and each sum of products runs
    over at most D + 1 orders, the cells of a numerator or its rows, fewer
    than 2^21 of them (else GroundSetTooLarge).
    """
    if len(opens) == 0:
        return [0] * n_cls
    for weights in _weight_candidates(n, seed):
        found = at_weight(np.array(weights, dtype=np.int64))
        if found is not None:
            break
    else:
        raise DegenerateWeights("no generic weight vector found")
    dots, z, points = found
    K, (C, D) = len(z), dots.shape
    if z.shape[1] >> 21:
        raise GroundSetTooLarge("numerators of %d rows" % z.shape[1])
    flipped = dots < 0
    dens = np.abs(dots)
    shift = (dens * (opens ^ flipped)).sum(axis=1)
    signs = np.where((flipped.sum(axis=1) + (dens > 0).sum(axis=1)) & 1,
                     -signs, signs)
    # per group of cells sharing F, slot j has the di[g, j]-th distinct d
    dens.sort(axis=1)
    group, first = _row_ranks(np.column_stack([dens, shift]))
    dens, shift = dens[first], shift[first]
    ds = np.unique(dens)
    di = np.searchsorted(ds, dens)

    rows = np.abs(np.atleast_2d(vals)).tolist()
    counts = [C] if vals.ndim == 1 else np.bincount(owner).tolist()
    bound = int(points) * sum(c * sum(r) for c, r in zip(counts, rows))
    primes, modulus, i = [], 1, 0
    while not primes or modulus <= 2 * bound:
        p = _prime(i)
        i += 1
        if all(d % p for d in ds.tolist() if d):
            primes.append(p)
            modulus *= p
    P = len(primes)
    pr = np.array(primes, dtype=np.int64)

    # per distinct d and prime: 1 / d, then lambda_m d^m (1, 0, ... at d = 0)
    tables = [_prime_tables(p, D) for p in primes]
    slot = np.empty((len(ds), P, D + 1), dtype=np.int64)
    for i, d in enumerate(ds.tolist()):
        for q, (p, t) in enumerate(zip(primes, tables)):
            slot[i, q] = [pow(d, -1, p) if d else 1] + [
                lam * pow(d, m, p) % p for m, lam in enumerate(t[0], 1)]
    F = np.ones((len(dens), P, D + 1), dtype=np.int64)
    L = np.zeros((len(dens), P, D), dtype=np.int64)
    for j in range(D):
        L += slot[di[:, j], :, 1:]
        F[..., 0] = F[..., 0] * slot[di[:, j], :, 0] % pr
    L[..., :1] += shift[:, None, None]
    L = L % pr[:, None] * np.arange(1, D + 1) % pr[:, None]
    inv = np.array([t[1] for t in tables], dtype=np.int64)
    for m in range(1, D + 1):
        F[..., m] = ((L[..., :m] * F[..., m - 1::-1]).sum(axis=-1) % pr
                     * inv[:, m] % pr)
    if D and not dens[:, 0].all():
        # a padded group of dim < D rays starts D - dim orders late
        at = np.arange(D + 1) - D + (dens > 0).sum(axis=1)[:, None]
        F = np.where(at[:, None] >= 0, np.take_along_axis(
            F, np.maximum(at, 0)[:, None], axis=2), 0)
    F = F.reshape(len(F), -1)[group]
    F *= signs[:, None]
    G = np.add.reduceat(F, np.searchsorted(owner, np.arange(K)))
    del F
    # G_k as Toeplitz matrices: order j of N_k(e^s) lands on order i
    gap = np.arange(D + 1) - np.arange(D + 1)[:, None]
    G = np.where(gap >= 0, (G.reshape(K, P, D + 1) % pr[:, None])[
        ..., np.maximum(gap, 0)], 0)

    # z becomes the flat index of each numerator row in N, K x z-range x
    # classes; the common factor z^low is 1 at z = 1 and moves no pole
    low, length = int(z.min()), int(np.ptp(z)) + 1
    z += (np.arange(K) * length - low)[:, None]
    z *= n_cls
    z += cls
    N = np.empty(K * length * n_cls, dtype=np.int64)
    E = np.empty((length, D + 1), dtype=np.int64)
    total = np.empty((P, n_cls, D + 1), dtype=np.int64)
    for q, p in enumerate(primes):
        N.fill(0)
        np.add.at(N, z.ravel(), np.broadcast_to(vals % p, z.shape).ravel())
        # S_k[m] = sum_e N_k[e] e^m / m!
        e = np.arange(length) % p
        E[:, 0] = 1
        for m in range(1, D + 1):
            E[:, m] = E[:, m - 1] * e % p
        S = (N.reshape(K, length, n_cls).transpose(0, 2, 1) @ E % p
             * tables[q][2] % p)
        total[q] = (S @ G[:, q] % p).sum(axis=0) % p
    if total[..., :D].any():
        raise NonCancellingPole("the denominator factors (1 - z^d) do not "
                                "divide the numerator")
    crt = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    out = [(sum(map(mul, res, crt)) + modulus // 2) % modulus - modulus // 2
           for res in total[..., D].T.tolist()]
    if any(abs(x) > bound for x in out):
        raise NonCancellingPole("the t -> 1 value exceeds its bound")
    return out


def evaluate_t1(g, seed=0):
    """The specialization t_i -> 1 of a Laurent-polynomial GenFun.

    Substitutes t_i = z^(c_i) for a deterministic generic integer weight
    vector and reads off the value at z = 1 from the Laurent expansion of
    the per-term rational functions at z = e^s (see _specialize_t1).  Each
    distinct cone is one cell with its own numerator; cells of fewer rays
    are padded with slots that pair to 0.  A GenFun that is no Laurent
    polynomial raises NonCancellingPole, save for the small chance, stated
    in _specialize_t1, that its pole vanishes modulo every prime in use.
    """
    rays, slots, opens, signs, (A, cls, vals), vars_, classes, den = \
        _genfun_kernels(g)
    top = int(max(np.abs(rays).max(initial=0), np.abs(A).max(initial=0)))

    def at_weight(w):
        # every pairing w . v below stays within int64
        _check_width(top * int(w.sum()))
        dots = rays @ w
        if not dots.all():
            return None
        points = prod((np.ptp(A, axis=(0, 1)) + 1).tolist())
        return np.append(dots, 0)[slots], A @ w, points

    values = _specialize_t1(g.n, at_weight, opens, signs,
                            np.arange(len(slots)), cls, vals, len(classes),
                            seed)
    return AuxPolynomial(vars_, {e: Fraction(v, den)
                                 for e, v in zip(classes, values) if v})


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
