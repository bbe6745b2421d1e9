"""Cone generating functions: support extraction, slicing, evaluation.

The independent oracle maps each signed half-open cone series to a univariate
rational function via an injective integer weight and compares against the
claimed polynomial support with sympy's exact rational arithmetic.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy

from flagtutte import (AuxPolynomial, Direction, EquivariantPolynomial,
                       GenFun, GenFunTerm, HalfOpenSimplicialCone, Matroid,
                       brion_series, coefficient_at, cone_membership,
                       default_direction, evaluate_t1, flag, flag_corpus,
                       flip_cone, kt_equivariant, slice_cone, slice_genfun,
                       support, tangent_cone_generators,
                       triangulate_half_open)
from flagtutte import clear_caches, genfun, invariants
from flagtutte import cones as cones_module
from flagtutte.errors import (GroundSetTooLarge, HypothesisViolated,
                              NonCancellingPole)
from flagtutte.cones import _box_points
from flagtutte.genfun import (_decode_support, _flipped_rows, _specialize_t1,
                              _support_core)
from flagtutte.invariants import _flag_cells, _flag_kernels
from flagtutte.linalg import difference_vector_graph
from oracles import support_pure

U = Matroid.uniform

ONE = AuxPolynomial.constant(1)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def sympy_support_check(g, phi, weight, aux_syms=()):
    """Oracle: Σ term series == Σ claimed support, as rational functions.

    weight must separate the candidate exponents (injective on the support
    box), e.g. base-B digits with B exceeding the coordinate spread.
    """
    z = sympy.Symbol("z")
    syms = {name: sympy.Symbol(name) for name in aux_syms}

    def aux_expr(poly):
        total = sympy.Integer(0)
        for exps, c in poly.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for name, e in zip(poly.vars, exps):
                term *= syms[name] ** e
            total += term
        return total

    total = sympy.Integer(0)
    for t in g.terms:
        cone = t.cone
        expr = sympy.Integer(cone.sign) * z ** _dot(weight, cone.apex)
        for v, is_open in zip(cone.rays, cone.open_flags):
            d = _dot(weight, v)
            assert d != 0, "weight fails to separate a ray"
            expr *= (z ** d if is_open else 1) / (1 - z ** d)
        total += aux_expr(t.coeff) * expr
    claimed = sympy.Integer(0)
    for w, poly in phi.items():
        claimed += aux_expr(poly) * z ** _dot(weight, w)
    diff = sympy.cancel(sympy.together(total - claimed))
    assert diff == 0, diff


# ------------------------------------------------- the worked trapezoid sum


def _vertex_cone_genfun():
    """Six flag-basis cones whose signed sum is the trapezoid polynomial."""
    fm = flag(U(1, 3), U(2, 3))
    pairs = [
        ((1, 1, 0), (0b001, 0b011)),
        ((1, 0, 1), (0b001, 0b101)),
        ((0, 2, 0), (0b010, 0b011)),
        ((0, 0, 2), (0b100, 0b101)),
        ((0, 2, 0), (0b010, 0b110)),
        ((0, 0, 2), (0b100, 0b110)),
    ]
    terms = []
    for apex, fb in pairs:
        for cell in triangulate_half_open(apex,
                                          tangent_cone_generators(fm, fb)):
            terms.append(GenFunTerm(ONE, cell))
    return GenFun(3, terms)


FIVE_TERMS = EquivariantPolynomial(3, {
    (1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1})


def test_vertex_cone_sum_support():
    g = _vertex_cone_genfun()
    assert support(g) == FIVE_TERMS
    assert support_pure(g) == FIVE_TERMS


def test_vertex_cone_sum_against_sympy():
    g = _vertex_cone_genfun()
    # support box is [0,2]^3, so base-8 digits separate exponents
    sympy_support_check(g, FIVE_TERMS, (1, 8, 64))
    sympy_support_check(g, FIVE_TERMS, (1, 9, 81))


def test_support_equals_support_pure_under_other_directions():
    # u + 1 times the vertex cones of Delta(2, 3) plus v times those of
    # the simplex Delta(1, 3): the support core flips along the default
    # direction whatever direction it is given, the reference path along
    # the one given, and both find the same Laurent polynomial
    u = AuxPolynomial.variable("u")
    v = AuxPolynomial.variable("v")
    fm = flag(U(1, 3))
    terms = [GenFunTerm(u + 1, t.cone) for t in _vertex_cone_genfun().terms]
    for e in range(3):
        apex = tuple(int(i == e) for i in range(3))
        for cell in triangulate_half_open(
                apex, tangent_cone_generators(fm, (1 << e,))):
            terms.append(GenFunTerm(v, cell))
    g = GenFun(3, terms)
    want = EquivariantPolynomial(3, {
        **{w: u + 1 for w in FIVE_TERMS.support},
        **{w: v for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}})
    for d in (Direction((1, 2, 3)), Direction((2, 7, 3), (3, 1, 2))):
        assert support(g, d) == support_pure(g, d) == want


def test_coefficient_examples():
    g = _vertex_cone_genfun()
    assert coefficient_at(g, (1, 1, 0)) == ONE
    assert coefficient_at(g, (2, 0, 0)).is_zero()
    assert coefficient_at(g, (0, 2, 0)) == ONE


def test_coefficient_direction_independence():
    g = _vertex_cone_genfun()
    dirs = [default_direction(3), Direction((1, 2, 3)),
            Direction((5, 1, 2)), Direction((2, 7, 3), (3, 1, 2))]
    for w in [(1, 1, 0), (2, 0, 0), (0, 2, 0), (0, 1, 1), (1, 0, 1),
              (0, 0, 2), (2, 1, -1), (0, 3, -1)]:
        vals = [coefficient_at(g, w, d) for d in dirs]
        assert all(v == vals[0] for v in vals), w


def test_slice_example():
    g = _vertex_cone_genfun()
    sl = support(slice_genfun(g, (1, 0, 0), 0))
    assert sl == EquivariantPolynomial(
        3, {(0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1})


def test_slice_zero_direction_rejected():
    g = _vertex_cone_genfun()
    try:
        slice_genfun(g, (0, 0, 0), 1)
    except HypothesisViolated:
        pass
    else:
        raise AssertionError("zero slicing direction must be rejected")


def test_slice_below_pointed_cone_is_zero():
    cone = HalfOpenSimplicialCone((0, 0), ((1, 0),), (False,))
    g = GenFun(2, (GenFunTerm(ONE, cone),))
    sl = slice_genfun(g, (1, 0), -1)
    assert sl.terms == ()
    assert support(sl) == EquivariantPolynomial(2)


def test_evaluate_t1_examples():
    g = _vertex_cone_genfun()
    assert evaluate_t1(g) == AuxPolynomial.constant(5)
    # consistency: equals the coefficient sum over the support
    total = AuxPolynomial.zero()
    for w, _ in FIVE_TERMS.items():
        total = total + coefficient_at(g, w)
    assert evaluate_t1(g) == total


def test_evaluate_t1_flip_cancellation():
    d = default_direction(2)
    cone = HalfOpenSimplicialCone((0, 0), ((1, -1),), (False,))
    flipped = flip_cone(cone, d)
    g = GenFun(2, (GenFunTerm(ONE, cone),
                   GenFunTerm(AuxPolynomial.constant(-1), flipped)))
    assert evaluate_t1(g).is_zero()
    assert support(g) == EquivariantPolynomial(2)
    # the cancellation holds per coefficient monomial, not per coefficient
    u = AuxPolynomial.variable("u")
    v = AuxPolynomial.variable("v")
    g = GenFun(2, (GenFunTerm(u + v, cone), GenFunTerm(-u, flipped),
                   GenFunTerm(-v, flipped)))
    assert evaluate_t1(g).is_zero()
    assert support(g) == EquivariantPolynomial(2)
    half = AuxPolynomial.constant(Fraction(1, 2))
    for terms in [(GenFunTerm(ONE, cone), GenFunTerm(-half, flipped),
                   GenFunTerm(-half, flipped)),
                  (GenFunTerm(half, cone), GenFunTerm(-half, flipped),
                   GenFunTerm(u, cone), GenFunTerm(-u, flipped))]:
        g = GenFun(2, terms)
        assert evaluate_t1(g).is_zero()
        assert support(g) == EquivariantPolynomial(2)


def test_evaluate_t1_half_coefficients():
    ray = ((1,),)
    g = GenFun(1, (
        GenFunTerm(AuxPolynomial.constant(Fraction(1, 2)),
                   HalfOpenSimplicialCone((0,), ray, (False,))),
        GenFunTerm(AuxPolynomial.constant(Fraction(-1, 2)),
                   HalfOpenSimplicialCone((3,), ray, (False,))),
    ))
    assert evaluate_t1(g) == AuxPolynomial.constant(Fraction(3, 2))


def test_evaluate_t1_open_ray_is_a_pole():
    # a lone ray is a series, not a Laurent polynomial
    cone = HalfOpenSimplicialCone((0, 0), ((1, -1),), (True,))
    with pytest.raises(NonCancellingPole):
        evaluate_t1(GenFun(2, (GenFunTerm(ONE, cone),)))


def test_newton_polytope_bound():
    # every support point lies in the convex hull of the apexes: here the
    # trapezoid {sum = 2, 0 <= x1 <= 1, x2 >= 0, x3 >= 0}
    for w, _ in support(_vertex_cone_genfun()).items():
        assert sum(w) == 2
        assert 0 <= w[0] <= 1 and w[1] >= 0 and w[2] >= 0


def _one_ray_cells(cells):
    """_specialize_t1 of one-dimensional cells, each given as (apex, ray,
    open, val): one single-ray cell with its own one-row numerator each."""
    apex, ray, is_open, val = (np.array(c, dtype=np.int64)
                               for c in zip(*cells))
    return _specialize_t1(ray[:, None], apex[:, None], int(np.ptp(apex)) + 1,
                          is_open[:, None].astype(bool), 1,
                          np.arange(len(cells)), 0, val[:, None], 1)


def test_specialize_t1_is_exact_beyond_int64():
    # [x >= 0] - [x in 2N] - [x in 1 + 2N] = 0 at every scale
    def parity_split(m):
        return [(0, 1, False, m), (0, 2, False, -m), (1, 2, False, -m)]

    assert _one_ray_cells(parity_split(1)) == [0]
    assert _one_ray_cells(parity_split(2 ** 62)) == [0]
    # [x >= 0] - [x >= 1] = [x = 0]
    def point(m):
        return [(0, 1, False, m), (0, 1, True, -m)]

    assert _one_ray_cells(point(0)) == [0]
    assert _one_ray_cells(point(3)) == [3]
    assert _one_ray_cells(point(2 ** 52)) == [2 ** 52]
    assert _one_ray_cells(point(2 ** 53 + 1)) == [2 ** 53 + 1]
    assert _one_ray_cells(point(2 ** 62)) == [2 ** 62]
    # cells whose values sum past int64, both ways
    assert _one_ray_cells(point(2 ** 62) * 2) == [2 ** 63]
    assert _one_ray_cells(point(-(2 ** 63 - 1)) * 3) == [-3 * (2 ** 63 - 1)]


def test_specialize_t1_rejects_poles():
    # m [x >= 0] is a series, not a Laurent polynomial
    with pytest.raises(NonCancellingPole):
        _one_ray_cells([(0, 1, False, 5)])
    # 2 / (1 - z^2) - 1 / (1 - z) = 1 / (1 + z): no pole at z = 1, but its
    # "value" 1/2 lands far beyond the bound of 3
    with pytest.raises(NonCancellingPole):
        _one_ray_cells([(0, 2, False, 2), (0, 1, False, -1)])


# ----------------------------------------------------------- Brion series


def test_brion_series_trapezoid():
    # Conv(2e2, 2e3, e1+e2, e1+e3) with hand-computed edge directions
    cones = [
        ((0, 2, 0), ((1, -1, 0), (0, -1, 1))),
        ((0, 0, 2), ((1, 0, -1), (0, 1, -1))),
        ((1, 1, 0), ((-1, 1, 0), (0, -1, 1))),
        ((1, 0, 1), ((-1, 0, 1), (0, 1, -1))),
    ]
    assert brion_series(3, cones) == FIVE_TERMS


def test_brion_series_point_and_segment():
    assert brion_series(2, [((3, 4), ())]) == EquivariantPolynomial(
        2, {(3, 4): 1})
    seg = brion_series(2, [((1, 0), ((-1, 1),)), ((0, 1), ((1, -1),))])
    assert seg == EquivariantPolynomial(2, {(1, 0): 1, (0, 1): 1})


def test_brion_series_matches_polytope_membership():
    # lattice-point indicator of the base polytope, flag by flag
    for fm in [flag(U(1, 3)), flag(U(2, 4)), flag(U(1, 3), U(2, 3)),
               flag(U(1, 4), U(3, 4))]:
        cones = []
        for fb in fm.flag_bases():
            apex = [0] * fm.n
            for b in fb:
                for i in range(fm.n):
                    apex[i] += b >> i & 1
            cones.append((tuple(apex), tangent_cone_generators(fm, fb)))
        phi = brion_series(fm.n, cones)
        for w, poly in phi.items():
            assert poly == ONE
            assert fm.polytope_membership(w)
        count = sum(1 for _ in phi.items())
        box = [range(0, fm.k + 1)] * fm.n
        from itertools import product
        expect = sum(1 for w in product(*box) if fm.polytope_membership(w))
        assert count == expect


def test_brion_series_reduces_no_difference_cone_to_hermite_form(
        monkeypatch):
    # the six vertex cones of U(2, 4): each memoized cell holds its class
    # cell's frame and every translate keeps it, so neither sweep calls
    # _lattice_frame, the Hermite normal form of a cell's rays
    calls = []
    frame = cones_module._lattice_frame

    def counted(rays, n):
        calls.append(rays)
        return frame(rays, n)

    monkeypatch.setattr(cones_module, "_lattice_frame", counted)
    fm = flag(U(2, 4))
    vertex_cones = [(tuple(b >> i & 1 for i in range(4)),
                     tangent_cone_generators(fm, (b,)))
                    for (b,) in fm.flag_bases()]
    clear_caches()
    try:
        first = brion_series(4, vertex_cones)
        second = brion_series(4, vertex_cones)
    finally:
        clear_caches()
    assert calls == []
    assert first == second
    assert sorted(w for w, _ in first.items()) == sorted(
        tuple(b >> i & 1 for i in range(4)) for (b,) in fm.flag_bases())


# ------------------------------------------- aux coefficients and fallback


def test_support_with_aux_coefficients():
    # u*[x >= 0] - u*[x >= 3] leaves u*(1 + t + t^2); rays do not sum to
    # zero, exercising the per-point reference path
    u = AuxPolynomial.variable("u")
    ray = ((1,),)
    g = GenFun(1, (
        GenFunTerm(u, HalfOpenSimplicialCone((0,), ray, (False,))),
        GenFunTerm(-u, HalfOpenSimplicialCone((3,), ray, (False,))),
    ))
    phi = support(g)
    assert phi == EquivariantPolynomial(1, {(0,): u, (1,): u, (2,): u})
    sympy_support_check(g, phi, (1,), aux_syms=("u",))
    assert evaluate_t1(g) == 3 * u


def test_support_of_sum_zero_rays_off_the_graph(monkeypatch):
    # rays that sum to zero but are not difference vectors: u times the
    # ray-wise differences of one closed cone leave the 3 x 2 parallelogram
    # {i r1 + j r2}, extracted by one pass of the core over the sum-zero
    # box, as every cone lies in the sum-zero hyperplane
    calls = []
    core = genfun._support_core

    def counted(*args):
        calls.append(args[-1])
        return core(*args)

    monkeypatch.setattr(genfun, "_support_core", counted)
    u = AuxPolynomial.variable("u")
    r1, r2 = (1, 1, -2), (0, 1, -1)
    cone = HalfOpenSimplicialCone((0, 0, 0), (r1, r2), (False, False))
    terms = []
    for a, b in [(0, 0), (3, 0), (0, 2), (3, 2)]:
        apex = tuple(a * x + b * y for x, y in zip(r1, r2))
        sign = -1 if (a > 0) != (b > 0) else 1
        terms.append(GenFunTerm(u * sign, cone.translate(apex)))
    g = GenFun(3, terms)
    phi = support(g)
    assert calls == [0]
    assert phi == EquivariantPolynomial(3, {
        (i, i + j, -2 * i - j): u for i in range(3) for j in range(2)})
    sympy_support_check(g, phi, (1, 16, 256), aux_syms=("u",))


def _unimodular_columns(rng, n):
    """The columns of a product of elementary integer matrices."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 2 * n)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in U:
            row[j] += c * row[i]
    for j in rng.sample(range(n), rng.randint(0, n)):
        for row in U:
            row[j] = -row[j]
    return [tuple(row[j] for row in U) for j in range(n)]


def _general_ray_genfun(rng):
    """A seeded Laurent-polynomial GenFun on general unimodular rays, and
    its support computed directly.

    Each summand is c times the cone apex + cone(rays) (open flags and
    sign at random) times prod_i (1 - t^(m_i v_i)), one term per subset of
    the rays: the lattice points apex + sum_i k_i v_i, o_i <= k_i < o_i +
    m_i, each with coefficient c * sign.
    """
    n = rng.randint(2, 4)
    u = AuxPolynomial.variable("u")
    want = {}
    terms = []
    for _ in range(rng.randint(1, 3)):
        rays = rng.sample(_unimodular_columns(rng, n), rng.randint(1, n))
        flags = [rng.random() < 0.5 for _ in rays]
        cone = HalfOpenSimplicialCone((0,) * n, rays, flags,
                                      rng.choice((1, -1)))
        coeff = rng.choice((ONE, u, Fraction(1, 2) * ONE, u - Fraction(2, 3)))
        apex = tuple(rng.randint(-2, 2) for _ in range(n))
        steps = [rng.randint(1, 2) for _ in rays]
        for subset in range(1 << len(rays)):
            at = [k for k in range(len(rays)) if subset >> k & 1]
            shift = [sum(steps[k] * rays[k][i] for k in at) for i in range(n)]
            terms.append(GenFunTerm(
                coeff * (-1) ** len(at),
                cone.translate(tuple(map(sum, zip(apex, shift))))))
        for ks in np.ndindex(*steps):
            w = tuple(apex[i] + sum((k + f) * v[i] for k, f, v in
                                    zip(ks, flags, rays)) for i in range(n))
            want[w] = want.get(w, 0) + coeff * cone.sign
    return GenFun(n, terms), EquivariantPolynomial(n, want)


def test_support_on_general_unimodular_rays():
    # seeded sums of half-open cones on rays from products of elementary
    # matrices, n = 2..4, with open flags, both signs, fractional and aux
    # coefficients; their rays pair both ways with the default direction,
    # so cells flip.  support() reads the cones' lattice frames in one
    # pass of the core and matches the per-point crawl and the direct sum
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(16):
        g, want = _general_ray_genfun(rng)
        rays = {v for t in g.terms for v in t.cone.rays}
        seen["flipped"] += any(default_direction(g.n).sign(v) < 0
                               for v in rays)
        seen["open"] += any(f for t in g.terms for f in t.cone.open_flags)
        seen["negative"] += any(t.cone.sign < 0 for t in g.terms)
        seen["lower"] += any(t.cone.dim < g.n for t in g.terms)
        seen["full"] += any(t.cone.dim == g.n for t in g.terms)
        seen["aux"] += bool(want.aux_vars)
        seen["general"] += difference_vector_graph(rays, g.n) is None
        seen["points"] += len(want.support)
        got = support(g)
        assert got == want
        assert got == support_pure(g)
    assert min(seen.values()) >= 3, seen


_CONE3 = HalfOpenSimplicialCone((0, 0, 0), ((1, 1, -2),), (False,))
_GENFUN3 = GenFun(3, (GenFunTerm(ONE, _CONE3),))


@pytest.mark.parametrize("call", [
    lambda: cone_membership(_CONE3, (1, 1)),
    lambda: cone_membership(_CONE3, (1, 1, -2, 5)),
    lambda: coefficient_at(_GENFUN3, (0, 0)),
    lambda: coefficient_at(_GENFUN3, (0, 0, 0), Direction((1, 2))),
    lambda: flip_cone(_CONE3, Direction((-1, 0))),
    lambda: slice_cone(_CONE3, (1, 0), 0),
    lambda: slice_genfun(_GENFUN3, (1, 0), 0),
], ids=["membership-short", "membership-long", "coefficient-point",
        "coefficient-direction", "flip", "slice-cone", "slice-genfun"])
def test_vectors_of_the_wrong_length_are_rejected(call):
    with pytest.raises(ValueError, match="length"):
        call()


def test_support_rejects_box_beyond_cell_cap():
    # two point cones span a 101^4 ~ 1.04e8-point apex box: over the
    # 4e7-cell accumulator cap, so the core refuses before allocating
    g = GenFun(4, (
        GenFunTerm(ONE, HalfOpenSimplicialCone((0,) * 4, (), ())),
        GenFunTerm(ONE, HalfOpenSimplicialCone((100,) * 4, (), ())),
    ))
    with pytest.raises(GroundSetTooLarge):
        support(g)


def _kernel_genfun(n, cells, numerators, classes, aux_vars, den):
    """The GenFun cell arrays stand for: one term per cell and monomial."""
    A, cls, vals = numerators
    cls, vals = (np.broadcast_to(a, A.shape[:2]) for a in (cls, vals))
    terms = []
    for tails, heads, flags, sign, b in zip(*(a.tolist() for a in cells)):
        slots = [k for k, (i, j) in enumerate(zip(tails, heads)) if i != j]
        rays = [tuple((v == heads[k]) - (v == tails[k]) for v in range(n))
                for k in slots]
        cone = HalfOpenSimplicialCone((0,) * n, rays,
                                      [flags[k] for k in slots], sign)
        for apex, c, k in zip(A[b].tolist(), cls[b].tolist(),
                              vals[b].tolist()):
            coeff = AuxPolynomial.monomial(aux_vars, classes[c],
                                           Fraction(k, den))
            terms.append(GenFunTerm(coeff, cone.translate(apex)))
    return GenFun(n, terms)


def test_support_core_merges_cells_sharing_a_kernel():
    fm = flag(U(2, 4))
    cells, numerators, classes = _flag_kernels(fm, "kt")
    assert np.bincount(cells[3]).max() > 1
    # a cell and its negative on one kernel: their memberships cancel
    pair = tuple(np.repeat(a[:1], 2, axis=0) for a in cells)
    pair[2][:] = 1, -1
    both = tuple(map(np.concatenate, zip(pair, cells)))
    los, his = (0,) * 4, (2,) * 4
    aux = ("u", "v")
    got = _decode_support(
        _support_core(4, los, his, both, numerators, classes, aux, 1))
    # the unflipped cells stand for the same rational function
    assert got == support_pure(_kernel_genfun(
        4, (*_flag_cells(fm)[:3], np.ones(len(cells[3]), dtype=np.int64),
            cells[3]), numerators, classes, aux, 1))
    assert got == kt_equivariant(fm)
    A, cls, vals = numerators
    empty = _decode_support(_support_core(4, los, his, pair,
                                          (A[:1], cls, vals), classes, aux, 1))
    assert empty == EquivariantPolynomial(4) and empty.aux_vars == ()


@pytest.mark.parametrize("length", [126, 127, 128, 300])
@pytest.mark.parametrize("mirror", [False, True])
def test_support_core_wide_ranges(length, mirror):
    # one kernel, closed rays along (1, -1): the segment from (0, L) to
    # (L, 0) plus the point (0, 0), each as a ray minus its shift by one
    # step.  The box [0, L + 1] x [-1, L] has ranges L + 2, so the shifted
    # sums lie in [-(L + 1), 2 (L + 1)]: uint8 holds them up to L = 126 and
    # the dtype widens from L = 127 on; kept in uint8, members far along the
    # ray would wrap into the box at L = 128 and 300.
    def pt(a, b):
        return (b, a) if mirror else (a, b)

    ray = pt(1, -1)
    g = GenFun(2, [
        GenFunTerm(c * ONE, HalfOpenSimplicialCone(pt(*apex), (ray,),
                                                   (False,)))
        for c, apex in [(1, (0, length)), (-1, (length + 1, -1)),
                        (1, (0, 0)), (-1, (1, -1))]])
    want = {pt(k, length - k): 1 for k in range(length + 1)}
    want[0, 0] = 1
    assert support(g) == EquivariantPolynomial(2, want)


def test_support_core_common_denominator():
    # 1/2 of the trapezoid sum minus u/3 of its shift by (1, -1, 0): the
    # coefficients share denominator 6, and two support points carry both
    u = AuxPolynomial.variable("u")
    g = _vertex_cone_genfun()
    shift = (1, -1, 0)
    terms = [GenFunTerm(t.coeff * Fraction(1, 2), t.cone) for t in g.terms]
    terms += [GenFunTerm(u * Fraction(-1, 3), t.cone.translate(
        tuple(a + b for a, b in zip(t.cone.apex, shift)))) for t in g.terms]
    h = GenFun(3, terms)
    phi = support(h)
    assert phi == FIVE_TERMS.scale(Fraction(1, 2)) + \
        FIVE_TERMS.mul_monomial(shift, u * Fraction(-1, 3))
    assert phi.support[(1, 1, 0)] == Fraction(1, 2) - u * Fraction(1, 3)
    assert phi == support_pure(h)
    sympy_support_check(h, phi, (1, 8, 64), aux_syms=("u",))


def test_support_empty_genfun():
    g = GenFun(2, ())
    assert support(g) == EquivariantPolynomial(2)
    assert coefficient_at(g, (0, 0)).is_zero()
    # zero dimensions: the one lattice point of Z^0
    point = HalfOpenSimplicialCone((), (), ())
    g = GenFun(0, (GenFunTerm(3 * ONE, point),))
    assert support(g) == EquivariantPolynomial(0, {(): 3})


# --------------------------------------------- batched membership passes


def _random_forest_cell(rng, n, seen):
    """A random half-open cone at the origin on a forest of difference
    vectors (possibly no edge, isolated vertices, several components)."""
    comp = list(range(n))
    rays = []
    for _ in range(rng.randint(0, n - 1)):
        i, j = rng.sample(range(n), 2)
        if comp[i] != comp[j]:
            old = comp[i]
            comp = [comp[j] if c == old else c for c in comp]
            rays.append(tuple((v == j) - (v == i) for v in range(n)))
    flags = tuple(rng.random() < 0.5 for _ in rays)
    touched = {v for ray in rays for v, x in enumerate(ray) if x}
    seen["rayless"] += not rays
    seen["open"] += any(flags)
    seen["isolated"] += bool(rays) and len(touched) < n
    seen["components"] += len(touched) > len(rays) + 1
    return HalfOpenSimplicialCone((0,) * n, tuple(rays), flags,
                                  rng.choice((1, -1)))


@pytest.mark.parametrize("cap", [None, 1, 300])
def test_membership_passes_match_cone_membership(monkeypatch, cap):
    # per kernel and box point, the batched multiplicity is the signed sum
    # of cone_membership over the kernel's cells flipped along the default
    # direction, for every chunking; each cell's rows are its lattice frame
    # through the flip rule, and cells of fewer than n - 1 rays take
    # padding rows
    if cap is not None:
        monkeypatch.setattr(genfun, "_PASS_ENTRIES", cap)
    rng = random.Random(20261018)
    seen = Counter()
    for n in list(range(1, 8)) * 3:
        reach = 2 if n <= 5 else 1
        X = _box_points([-reach] * n, [reach] * n, 0)
        kernels = []
        for b in range(4):
            for _ in range(rng.randint(1, 4)):
                kernels.append((b, _random_forest_cell(rng, n, seen)))
        rng.shuffle(kernels)
        kernels.sort(key=lambda k: k[0])
        owner = np.array([b for b, _ in kernels], dtype=np.intp)
        coords = np.zeros((len(kernels), n - 1, n), dtype=np.int64)
        span = np.zeros((len(kernels), n, n), dtype=np.int64)
        back = np.zeros(coords.shape[:2], dtype=bool)
        opens = np.zeros_like(back)
        direction = default_direction(n)
        for c, (_, cell) in enumerate(kernels):
            L, S = cell._lattice()
            coords[c, :len(L)] = np.reshape(L, (len(L), n))
            span[c, :len(S)] = S
            for k, (ray, flag_) in enumerate(zip(cell.rays, cell.open_flags)):
                back[c, k], opens[c, k] = direction.sign(ray) < 0, flag_
        signs = np.array([cell.sign for _, cell in kernels], dtype=np.int64)
        want = np.zeros((4, len(X)), dtype=np.int64)
        for b, cell in kernels:
            flipped = flip_cone(cell, direction)
            cone = HalfOpenSimplicialCone((0,) * n, flipped.rays,
                                          flipped.open_flags)
            want[b] += [flipped.sign * cone_membership(cone, x)
                        for x in X.tolist()]
        got = np.zeros_like(want)
        for b0, p0, mult in genfun._membership_passes(
                *_flipped_rows(coords, span, back, opens, signs), owner,
                X.T.astype(np.float32)):
            got[b0:b0 + len(mult), p0:p0 + mult.shape[1]] = mult
        assert np.array_equal(got, want)
        seen["members"] += int(np.abs(want).sum())
        seen["reversed"] += int(back.sum())
    assert min(seen.values()) >= 10, seen


def test_one_basis_per_pass_is_byte_identical(monkeypatch):
    flags = [flag(U(2, 5), U(3, 5))] + [
        fm for fm in flag_corpus() if fm.ranks[0] >= 1][::150]
    invariants._SUPPORT_CACHE.clear()
    want = [kt_equivariant(fm).canonical_str() for fm in flags]
    invariants._SUPPORT_CACHE.clear()
    monkeypatch.setattr(genfun, "_PASS_ENTRIES", 1)
    try:
        assert [kt_equivariant(fm).canonical_str() for fm in flags] == want
    finally:
        invariants._SUPPORT_CACHE.clear()


# ------------------------------------------- equivariant polynomial algebra


def test_equivariant_polynomial_roundtrip():
    u = AuxPolynomial.variable("u")
    v = AuxPolynomial.variable("v")
    phi = EquivariantPolynomial(2, {(1, 0): 2 * u, (0, 1): u * v + 1})
    data = phi.to_json()
    back = EquivariantPolynomial.from_json(data)
    assert back == phi
    import json
    json.dumps(data)  # must be JSON-serializable as-is


def test_equivariant_polynomial_ops():
    u = AuxPolynomial.variable("u")
    phi = EquivariantPolynomial(2, {(1, 0): 1, (0, 1): u})
    wide = phi.insert_coordinate(1, 5)
    assert wide == EquivariantPolynomial(3, {(1, 5, 0): 1, (0, 5, 1): u})
    assert phi.scale(u) == EquivariantPolynomial(2, {(1, 0): u, (0, 1): u * u})
    shifted = phi.mul_monomial((2, 2))
    assert shifted == EquivariantPolynomial(2, {(3, 2): 1, (2, 3): u})
    assert phi + phi == phi.scale(AuxPolynomial.constant(2))
    assert phi.specialize_t1() == 1 + u


def test_mul_monomial_refuses_a_vector_of_another_length():
    # zip would drop the extra entry, or pad nothing for a short vector
    phi = EquivariantPolynomial(2, {(1, 0): 1})
    for tvec in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match="length %d in dimension 2"
                           % len(tvec)):
            phi.mul_monomial(tvec)
    with pytest.raises(ValueError, match="dimension"):
        EquivariantPolynomial(2).mul_monomial((1, 2, 3))


def test_insert_coordinate_refuses_a_position_outside_the_range():
    # slicing would append the coordinate at the end, or insert it from
    # the back for a negative position
    phi = EquivariantPolynomial(2, {(1, 0): 1})
    assert phi.insert_coordinate(0, 7) == EquivariantPolynomial(
        3, {(7, 1, 0): 1})
    assert phi.insert_coordinate(2, 7) == EquivariantPolynomial(
        3, {(1, 0, 7): 1})
    for position in (3, -1):
        with pytest.raises(ValueError, match="outside 0..2"):
            phi.insert_coordinate(position, 7)


def test_decode_shares_one_coefficient_per_distinct_row():
    # points with equal rows of counts share one AuxPolynomial, and each
    # distinct count is one Fraction object
    fm = flag(U(2, 4), U(3, 4))
    cells, numerators, classes = _flag_kernels(fm, "kt")
    arrays = _support_core(4, (0,) * 4, (2,) * 4, cells, numerators, classes,
                           ("u", "v"), 1)
    phi = _decode_support(arrays)
    assert phi == kt_equivariant(fm)
    rows = {tuple(r) for r in arrays.counts.tolist()}
    coeffs = list(phi.support.values())
    assert len({id(c) for c in coeffs}) == len(rows) < len(coeffs)
    values = [c for poly in coeffs for c in poly.terms.values()]
    assert len({id(c) for c in values}) == len(set(values))


def _operations(a, b):
    yield a + b
    yield b + a
    yield a + 3
    yield 3 + a
    yield a - a
    yield a - b
    yield 2 - a
    yield -a
    yield a * b
    yield b * a
    yield a * 1
    yield a * 0
    yield a ** 0
    yield a ** 1
    yield a ** 3
    yield a.align(("w", "u", "v"))
    yield a.align(a.vars)
    yield a.substitute({"u": b, "v": 1})
    yield a.substitute({"u": AuxPolynomial.monomial(("q",), (-1,))})
    yield a.substitute({})


def test_aux_polynomial_operations_never_mutate_an_operand():
    # extracted supports share coefficient objects between points, so no
    # arithmetic may write into an operand's terms
    u = AuxPolynomial.variable("u", ("u", "v"))
    v = AuxPolynomial.variable("v", ("u", "v"))
    a = u * u * v + 2 * u - Fraction(1, 3)
    b = AuxPolynomial.variable("w") + 1
    snapshot = [(p.vars, p.terms, dict(p.terms)) for p in (a, b)]
    for out in _operations(a, b):
        assert out.terms is not a.terms or out is a
        for p, (vars_, terms, copy) in zip((a, b), snapshot):
            assert p.vars == vars_ and p.terms is terms and p.terms == copy


def test_aux_polynomial_total_degree():
    # the largest exponent sum over the terms; 0 for the zero polynomial
    u = AuxPolynomial.variable("u", ("u", "v"))
    v = AuxPolynomial.variable("v", ("u", "v"))
    assert AuxPolynomial.zero(("u", "v")).total_degree() == 0
    assert AuxPolynomial.constant(Fraction(-3, 2)).total_degree() == 0
    assert (u * u * v - 3 * v + 7).total_degree() == 3
    assert (u * v - u * v + v).total_degree() == 1


def test_equivariant_polynomial_drops_zeros():
    phi = EquivariantPolynomial(1, {(0,): 0, (1,): 1})
    assert list(phi.items()) == [((1,), ONE)]


def test_kt_leaves_numpy_ma_unimported():
    # np.unique without indices asks np.ma whether its input is masked,
    # which imports numpy.ma (about 1.3 MB) into the t -> 1 route
    code = ("import sys\n"
            "from flagtutte import flag_corpus, kt\n"
            "fm = next(f for f in flag_corpus() if f.k == 2)\n"
            "kt(fm)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "False\n"
