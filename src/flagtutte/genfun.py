"""Signed sums of half-open cone generating functions and their exact algebra.

A GenFun is a formal expression sum_i coeff_i * Hilb(C_i) with C_i half-open
unimodular simplicial cones.  When the expression happens to be a Laurent
polynomial (every pipeline in this package arranges that), coefficients are
extracted exactly by Lawrence-Varchenko flips along a symbolically irrational
direction and hyperplane slices are taken cell by cell.

Two integer cores serve both the GenFun API and the localization sums of
invariants.py.  _support_core extracts the full support of a sum of
half-open unimodular cones.  It takes cell arrays: per half-open cone at
the origin its integer membership rows over x, each with a threshold, its
sign and owner, plus per owner int64 arrays of numerator apexes,
coefficient classes and multiplicities.  A cell's rows are its lattice
frame (coordinate rows, span rows as +- pairs), flipped along the default
direction by one rule (_flipped_rows): on the flag route the tree-flow
frames that cones._triangulate_cells keeps per class cell, in support()
each cone's own frame.  Cells whose rays all sum to zero are tested on
the sum-zero difference box, others on the whole one.  One batched pass
per chunk of owners tests all their cells against the box with one float
product and adds the signed memberships up to one multiplicity per owner
and box point; points that cannot reach the apex box are dropped, the rest
are tested against it in the narrowest integer dtype, and the incidences
that land are scattered into one dense int64 accumulator.  Its nonzero
rows are the support in array form (_Support: points, per point a row of
a table of distinct count rows over the classes, ranked once per pass,
and a common denominator), which a direct sum multiplies block by block,
table by table (_support_product), and one decode turns into an
EquivariantPolynomial, one shared coefficient per table row
(_row_coefficients, which the flag route keeps with a product of blocks).
_specialize_t1 sets t -> 1 in one array pass over all cells: it takes
per-cell arrays (open flags, sign, numerator index) and the pairings of
every ray and numerator apex with a weight that pairs no ray to zero,
substitutes t_i = z^(c_i) and reads the value at z = 1 off the Laurent
expansion at z = e^s modulo primes, one integer per class by CRT.
_genfun_kernels gives both cores the distinct cones of a GenFun in the
same array form, as a table of distinct rays and per-cell slots into it;
support() flips them along the default direction (_frame_rows), since
the support does not depend on it.  Every box of lattice points comes from
the one enumerator cones._box_points.
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
    Direction, HalfOpenSimplicialCone, _box_points, _check_length, _row_ranks,
    cone_membership, default_direction, flip_cone, slice_cone,
)
from .errors import (
    DegenerateWeights, GroundSetTooLarge, HypothesisViolated,
    NonCancellingPole,
)
from .linalg import vec_dot
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
        """Wrap a support built by _decode_support or
        lv_tutte_equivariant without re-validating it.

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

    def insert_coordinate(self, position, value):
        """Embed into one more t-variable with a fixed exponent there, the
        new coordinate before coordinate position (0 <= position <= n)."""
        if not 0 <= position <= self.n:
            raise ValueError("position %d outside 0..%d" % (position, self.n))

        def fn(w):
            return w[:position] + (int(value),) + w[position:]
        out = {fn(w): poly for w, poly in self.support.items()}
        return EquivariantPolynomial(self.n + 1, out)

    def scale(self, factor):
        out = {w: poly * factor for w, poly in self.support.items()}
        return EquivariantPolynomial(self.n, out, self.aux_vars)

    def mul_monomial(self, tvec, factor=1):
        tvec = tuple(int(x) for x in tvec)
        _check_length(tvec, self.n, "monomial")
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


# ------------------------------------------------------------- coefficient_at


def coefficient_at(g, w, direction=None):
    """Exact coefficient of t^w, via flips along a fixed generic direction.

    After flipping, every cell is pointed along the symbolically irrational
    direction, so the signed membership count of w is the coefficient; the
    result does not depend on the direction (tested, not assumed).
    """
    if direction is None:
        direction = default_direction(g.n)
    _check_length(w, g.n, "point")
    _check_length(direction.zeta, g.n, "direction")
    w = tuple(int(x) for x in w)
    direction = _interned(direction.key())
    total = AuxPolynomial.zero()
    for term in g.terms:
        fc = _flipped_cached(term.cone, direction)
        if cone_membership(fc, w):
            total = total + term.coeff * fc.sign
    return total


# ------------------------------------------------------------------- support


class _Support(NamedTuple):
    """A support in array form: the coefficient of t^points[p] is
    sum_c table[rows[p], c] / den times the monomial classes[c] in aux_vars.

    points is (P x n) int64, rows (P,) indexes table, the (R x C) int64
    count rows over the classes.  Every table row is nonzero and held by
    some point; the support core's rows are distinct, a product's are the
    products of its blocks' rows, which may coincide.
    """
    points: np.ndarray
    rows: np.ndarray
    table: np.ndarray
    classes: tuple
    aux_vars: tuple
    den: int

    @property
    def counts(self):
        """The (P x C) count matrix, one table row per point."""
        return self.table[self.rows]

    def exponents(self):
        """The classes as a (len(classes) x len(aux_vars)) int64 array."""
        return np.array(self.classes, dtype=np.int64).reshape(
            len(self.classes), len(self.aux_vars))


_SUPPORT_CELLS = 40_000_000
_PASS_ENTRIES = 1 << 18
# never written; still bound because the benchmark worker reads its length
_member_cache = LRUCache(0)
_box_cache = LRUCache(256)


def _membership_passes(M, thr, signs, owner, XT):
    """Signed membership multiplicities of the cells per owner, pass by pass.

    The cells are membership rows as _support_core takes them.  Yields (b0,
    p0, mult): mult the int64 sums of sign * [x in cell] over the cells of
    owners b0, b0 + 1, ... (one row each) for the box points p0, p0 + 1, ...
    of XT, the transposed box in a float dtype holding every |M x| exactly.
    Each pass takes a chunk of consecutive owners, their cells' rows, one
    product with a block of points, one comparison against the thresholds,
    one all() over each cell's rows and one signed sum per owner.  The
    product has at most _PASS_ENTRIES entries unless one owner alone has
    more rows than that.
    """
    sizes = np.bincount(owner)
    ends = np.concatenate([[0], np.cumsum(sizes)])
    _, height, n = M.shape
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
    for b0, b1, cells in chunks:
        at = slice(ends[b0], ends[b1])
        R = M[at].reshape(cells * height, n).astype(XT.dtype)
        low = thr[at, :, None].astype(XT.dtype)
        sign = np.zeros((b1 - b0, cells), dtype=XT.dtype)
        sign[owner[at] - b0, np.arange(cells)] = signs[at]
        for p0 in range(0, points, block):
            Xb = XT[:, p0:p0 + block]
            prod = (R @ Xb).reshape(cells, height, Xb.shape[1])
            hits = (prod >= low).all(axis=1)
            yield b0, p0, (sign @ hits).astype(np.int64)


def _support_core(n, los, his, cells, numerators, classes, aux_vars, den,
                  total=0):
    """The support extractor of signed sums of half-open unimodular cones.

    cells = (M, thr, signs, owner): per already-flipped half-open cone at
    the origin, its integer membership rows (C x H x n: x lies in cell c
    exactly when M[c] x >= thr[c] row by row), sign and owner (ascending),
    the index of its numerator.  numerators = (A, cls, vals): per owner b
    and monomial r its apex A[b, r] (int64, B x kappa x n), class cls[b, r]
    and integer multiplicity vals[b, r] (cls and vals broadcast to B x
    kappa).  _membership_passes tests the cells against blocks of the
    difference box [los - his, his - los], its points of coordinate sum
    total (0 when every ray sums to zero, so every cell lies in the
    sum-zero hyperplane and may leave out one span row that the sum
    implies, as on the flag route; None for the whole box),
    in float32 or float64 as a bound on |M x| allows, and sums the signed
    memberships to one multiplicity per owner and point, where flipped
    cells cancel.  Only points with nonzero multiplicity that can reach the
    apex box [los, his] are broadcast against the owner's monomials, in the
    narrowest unsigned dtype that holds the shifted sums, and the
    incidences w = apex + x inside the box are scattered into one dense
    int64 accumulator over the box and the classes; the result's Newton
    polytope lies in the convex hull of the apexes, so none outside
    counts.  Returns the nonzero rows as a _Support over the classes that
    occur (class c with count k is the monomial classes[c] in aux_vars with
    coefficient k / den), its table the distinct rows in lexicographic
    order (cones._row_ranks).  Raises
    GroundSetTooLarge, before allocating, when the accumulator, or the
    whole difference box times n, would exceed _SUPPORT_CELLS entries, and
    when |M x| may reach 2^53.
    """
    ranges = [hi - lo + 1 for lo, hi in zip(los, his)]
    space = prod(ranges)
    n_cls = max(len(classes), 1)
    if space * n_cls > _SUPPORT_CELLS:
        raise GroundSetTooLarge(
            "support box of %d points and %d classes exceeds %d cells"
            % (space, n_cls, _SUPPORT_CELLS))

    dkey = tuple(lo - hi for lo, hi in zip(los, his))
    whole = prod(1 - 2 * d for d in dkey)
    if total is None and whole * n > _SUPPORT_CELLS:
        raise GroundSetTooLarge(
            "difference box of %d points in dimension %d exceeds %d cells"
            % (whole, n, _SUPPORT_CELLS))
    # |M x| <= (largest absolute row sum) * max |x|: exact in float32 below
    # 2^24 and in float64 below 2^53
    bound = (int(np.abs(cells[0]).sum(axis=2).max(initial=0))
             * -min(dkey, default=0))
    if bound >> 53:
        raise GroundSetTooLarge("membership rows reach %d" % bound)
    X = _box_cache.lookup((total, dkey))
    if X is None:
        # the smallest signed dtype holding -min(dkey) - 1 holds every |x|
        X = _box_points(dkey, [-d for d in dkey], total).astype(
            np.min_scalar_type(min(dkey, default=0) - 1))
        _box_cache.store((total, dkey), X)
    XT = X.T.astype(np.float32 if bound < 1 << 24 else np.float64)
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
    for b0, p0, mult in _membership_passes(*cells, XT):
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
    counts = counts[:, keep]
    rows, first = _row_ranks(counts - counts.min(initial=0))
    return _Support(at[:, None] // strides % rng + lo, rows, counts[first],
                    tuple(classes[c] for c in keep.tolist()), aux_vars, den)


def _row_coefficients(s):
    """One AuxPolynomial per table row of a support in array form.

    Each is built by AuxPolynomial._trusted, and each distinct count is one
    Fraction over the denominator.
    """
    at, cidx = np.nonzero(s.table)
    counts = s.table[at, cidx].tolist()
    coeffs = {k: Fraction(k, s.den) for k in set(counts)}
    terms = list(zip(map(s.classes.__getitem__, cidx.tolist()),
                     map(coeffs.__getitem__, counts)))
    bounds = np.searchsorted(at, np.arange(len(s.table) + 1)).tolist()
    return [AuxPolynomial._trusted(s.aux_vars, dict(terms[a:b]))
            for a, b in zip(bounds, bounds[1:])]


def _decode_support(s, polys=None):
    """The EquivariantPolynomial of a support in array form.

    polys holds one coefficient per table row, _row_coefficients(s) when
    omitted; the points holding one row share its object.  The flag route
    passes the ones kept with a product of blocks, so results of flags with
    the same blocks share them too.  Shared coefficients are never mutated
    in place.
    """
    n = s.points.shape[1]
    if not len(s.points):
        return EquivariantPolynomial._trusted(n, {}, s.aux_vars)
    if polys is None:
        polys = _row_coefficients(s)
    support = dict(zip(map(tuple, s.points.tolist()),
                       map(polys.__getitem__, s.rows.tolist())))
    return EquivariantPolynomial._trusted(n, support, s.aux_vars)


def _support_product(n, parts):
    """The support of a direct sum, in array form, from its blocks' supports.

    parts lists the blocks' supports, all on one aux_vars and with
    nonnegative class exponents, as on the flag route; n is the sum of
    their widths.  Each block takes the next columns, so the product lies
    on the contiguous layout of the blocks in the order given (a flag
    gathers its own columns from it), and the points pair up in C order.
    The tables multiply instead of the points: the pair of rows r1, r2 is
    row r1 * R2 + r2 of the product table, its counts the products of the
    two rows' counts, with class exponents added.  A class (u, v) is the
    code u * V + v, V past every sum of v exponents, so codes add as
    exponents do; the product's classes are the code sums taken, in (u, v)
    order, and each block's step scatters the table so far into one array
    per class of the block, then sums them weighted by the block's table in
    one integer product.  One block is its own product; the product over no
    blocks (n = 0) is the unit, one point of length 0 with count 1 in class
    (0, 0).  Raises GroundSetTooLarge, before allocating, when the product
    would exceed _SUPPORT_CELLS cells of points times classes.
    """
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return _Support(np.zeros((1, n), dtype=np.int64),
                        np.zeros(1, dtype=np.intp),
                        np.ones((1, 1), dtype=np.int64), ((0, 0),),
                        ("u", "v"), 1)

    V = 1 + sum(max((v for _, v in s.classes), default=0) for s in parts)
    codes = [[u * V + v for u, v in s.classes] for s in parts]
    top = sum(max(c, default=0) for c in codes) + 1
    code, merges = np.array(codes[0], dtype=np.int64), []
    for c in codes[1:]:
        # rank[b, a]: the product class of the next block's class b and
        # class a so far, the rank of their code sum among those taken
        sums = np.add.outer(np.array(c, dtype=np.int64), code)
        taken = np.zeros(top, dtype=bool)
        taken[sums] = True
        code = np.flatnonzero(taken)
        merges.append((np.searchsorted(code, sums), len(code)))
    sizes = [len(s.points) for s in parts]
    cells = prod(sizes) * len(code)
    if cells > _SUPPORT_CELLS:
        raise GroundSetTooLarge("support product of %d cells exceeds %d"
                                % (cells, _SUPPORT_CELLS))

    T, rows, den = parts[0].table, parts[0].rows, parts[0].den
    for s, (rank, C) in zip(parts[1:], merges):
        (R1, C1), (R2, C2) = T.shape, s.table.shape
        _check_width(int(np.abs(T).max(initial=0))
                     * int(np.abs(s.table).max(initial=0)) * min(C1, C2))
        # X[i, b, rank[b, a]] = T[i, a], one scatter since the sums with
        # one b are distinct; then sum_b table[j, b] X[i, b]
        X = np.zeros((R1, C2, C), dtype=np.int64)
        X[:, np.arange(C2)[:, None], rank] = T[:, None, :]
        T = np.matmul(s.table, X).reshape(R1 * R2, C)
        rows = np.add.outer(rows * R2, s.rows).ravel()
        den *= s.den
    W = np.zeros(sizes + [n], dtype=np.int64)
    at = 0
    for i, s in enumerate(parts):
        shape = [1] * len(parts) + [s.points.shape[1]]
        shape[i] = sizes[i]
        W[..., at:at + shape[-1]] = s.points.reshape(shape)
        at += shape[-1]
    return _Support(W.reshape(-1, n), rows, T,
                    tuple(divmod(c, V) for c in code.tolist()),
                    parts[0].aux_vars, den)


def _genfun_kernels(g):
    """A GenFun as cell arrays for _specialize_t1 and _support_core.

    One cell per distinct (rays, open_flags, sign), with its own numerator;
    classes are the coefficient monomials, multiplicities scaled by the common
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
        counts = by_cone.setdefault(
            (t.cone.rays, t.cone.open_flags, t.cone.sign), {})
        for exps, c in t.coeff.align(vars_).terms.items():
            key = (t.cone.apex, class_index.setdefault(exps, len(class_index)))
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


def _flipped_rows(coords, span, back, opens, signs):
    """Membership rows of cells flipped along a direction, from their frames.

    Per cell, coords (C x D x n) are its coordinate rows in slot order and
    span (C x h x n) its span rows, zero in padding; back (C x D) marks the
    rays that pair negatively with the direction.  A reversed ray's
    coordinate row is negated, its open flag toggled and its cell's sign
    flipped, and the span rows enter as +- pairs.  Returns (M, thr, signs):
    M the rows [coords; span; -span] in their dtype, at thresholds [opens;
    0; 0].
    """
    M = np.concatenate([np.where(back[:, :, None], -coords, coords), span,
                        -span], axis=1)
    thr = np.zeros(M.shape[:2], dtype=M.dtype)
    thr[:, :back.shape[1]] = opens ^ back
    return M, thr, np.where(back.sum(axis=1) & 1, -signs, signs)


def _frame_rows(g, rays, slots, opens, signs):
    """Membership rows of the cells of _genfun_kernels, each flipped along
    default_direction (_flipped_rows).

    A cell's coordinate and span rows are those of its cone's lattice frame
    (HalfOpenSimplicialCone._lattice), int64 and padded with zero rows.
    Returns (M, thr, signs).
    """
    n, D = g.n, slots.shape[1]
    cones = {t.cone.rays: t.cone for t in g.terms}
    table = list(map(tuple, rays.tolist()))
    frames = [cones[tuple(table[k] for k in at if k < len(table))]._lattice()
              for at in slots.tolist()]
    h = max((len(span) for _, span in frames), default=0)
    coords = np.zeros((len(frames), D, n), dtype=np.int64)
    span = np.zeros((len(frames), h, n), dtype=np.int64)
    for c, (L, S) in enumerate(frames):
        _check_width(max(map(abs, sum(L + S, ())), default=0))
        coords[c, :len(L)] = np.reshape(L, (len(L), n))
        span[c, :len(S)] = np.reshape(S, (len(S), n))
    direction = default_direction(n)
    back = np.array([direction.sign(v) < 0 for v in table] + [False])[slots]
    return _flipped_rows(coords, span, back, opens, signs)


def support(g, direction=None):
    """Full support of a GenFun that is a Laurent polynomial.

    The support does not depend on the direction, so the one given is not
    used: every distinct cone is flipped along the default direction and
    the rows of its lattice frame (_frame_rows) go to _support_core, over
    the sum-zero difference box when every ray sums to zero and over the
    whole one otherwise.  Raises GroundSetTooLarge when a box is too large.
    """
    if not g.terms:
        return EquivariantPolynomial(g.n)
    n = g.n
    apexes = [t.cone.apex for t in g.terms]
    los = tuple(min(a[c] for a in apexes) for c in range(n))
    his = tuple(max(a[c] for a in apexes) for c in range(n))

    rays, slots, opens, signs, numerators, vars_, classes, den = \
        _genfun_kernels(g)
    return _decode_support(_support_core(
        n, los, his, _frame_rows(g, rays, slots, opens, signs)
        + (np.arange(len(slots)),), numerators, classes, vars_, den,
        None if rays.sum(axis=1).any() else 0))


# ---------------------------------------------------------------------- slice


def slice_genfun(g, zeta, b):
    """Restrict a Laurent-polynomial GenFun to the hyperplane <zeta, x> = b.

    Verified hypothesis: every term whose apex pairs below b must be pointed
    along zeta (all rays pairing >= 0); the returned GenFun collects the
    pointed terms intersected with the hyperplane, cell by cell.
    """
    _check_length(zeta, g.n, "zeta")
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


def _specialize_t1(dots, z, points, opens, signs, owner, cls, vals, n_cls):
    """The t -> 1 value of a signed sum of cone kernels, one integer per class.

    C cells at the origin of D ray slots each share K numerators: cell c has
    open flags opens[c], sign signs[c] (+-1, broadcast) and numerator
    owner[c] (ascending, each numerator owning a cell), and numerator k is
    sum_r vals[k, r] t^(a_kr) in class cls[k, r] (K x R, or length R when
    shared).  An integer weight w pairing no ray to zero gives the rest:
    the (C x D) pairings dots = w . ray (0 in a padding slot), the (K x R)
    exponents z = w . a_kr (a fresh array, overwritten here) and points, the
    number of lattice points in the box of all apexes a_kr.  Substituting
    t_i = z^(w_i), cell c is signs[c] z^shift N_k(z) / prod_j (1 - z^d_j)
    with d_j = |w . ray| > 0 and shift the sum of its open d_j
    (1 / (1 - z^-d) = -z^d / (1 - z^d) reverses a ray).

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
    ds, di = np.unique(dens, return_inverse=True)
    di = di.reshape(dens.shape)

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

    Substitutes t_i = z^(c_i) for the first integer weight vector of
    _weight_candidates that pairs no ray to zero (else DegenerateWeights)
    and reads off the value at z = 1 from the Laurent expansion of the
    per-term rational functions at z = e^s (see _specialize_t1).  Each
    distinct cone is one cell with its own numerator; cells of fewer rays
    are padded with slots that pair to 0, and a sum whose kernels all
    cancel is 0.  A GenFun that is no Laurent polynomial raises
    NonCancellingPole, save for the small chance, stated in _specialize_t1,
    that its pole vanishes modulo every prime in use.
    """
    rays, slots, opens, signs, (A, cls, vals), vars_, classes, den = \
        _genfun_kernels(g)
    if not len(slots):
        return AuxPolynomial(vars_, {})
    top = int(max(np.abs(rays).max(initial=0), np.abs(A).max(initial=0)))
    for w in _weight_candidates(g.n, seed):
        w = np.array(w, dtype=np.int64)
        # every pairing w . v below stays within int64
        _check_width(top * int(w.sum()))
        dots = rays @ w
        if dots.all():
            break
    else:
        raise DegenerateWeights("no generic weight vector found")
    points = prod((np.ptp(A, axis=(0, 1)) + 1).tolist())
    values = _specialize_t1(np.append(dots, 0)[slots], A @ w, points, opens,
                            signs, np.arange(len(slots)), cls, vals,
                            len(classes))
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
