"""Half-open cones: tangent cones, triangulation, flips, slices.

Exact-cover oracles describe specific cones by explicit inequalities that
were verified by hand, so the partition tests do not rely on any library
feasibility code.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest

from flagtutte import cones, invariants, linalg
from flagtutte import (Direction, HalfOpenSimplicialCone, Matroid,
                       cone_membership, default_direction, flag,
                       flag_corpus, flip_cone, slice_cone,
                       tangent_cone_generators,
                       triangulate_half_open)
from flagtutte.errors import (InternalAssertion, NotABasis, NotPointed,
                              NotUnimodular, ZeroPairing)
from flagtutte.genfun import _flipped_rows
from flagtutte.invariants import _flag_kernels
from flagtutte.linalg import forest_flow, nonneg_combination_exists
from oracles import forest_frames

U = Matroid.uniform

E21 = (-1, 1, 0)   # e2 - e1
E31 = (-1, 0, 1)   # e3 - e1
E32 = (0, -1, 1)   # e3 - e2


# ----------------------------------------------------------- tangent cones


def test_tangent_cone_generators_two_step():
    fm = flag(U(1, 3), U(2, 3))
    gens = tangent_cone_generators(fm, (0b001, 0b011))
    assert set(gens) == {E21, E31, E32}


def test_tangent_cone_generators_single_basis():
    fm = flag(U(1, 1))
    assert tangent_cone_generators(fm, (0b1,)) == ()


def test_tangent_cone_generators_one_step():
    fm = flag(U(2, 4))
    gens = tangent_cone_generators(fm, (0b0011,))
    assert set(gens) == {(-1, 0, 1, 0), (-1, 0, 0, 1),
                        (0, -1, 1, 0), (0, -1, 0, 1)}


def test_tangent_cone_rejects_non_basis():
    fm = flag(U(1, 3), U(2, 3))
    with pytest.raises(NotABasis):
        tangent_cone_generators(fm, (0b011, 0b011))


def test_tangent_cone_contains_vertex_differences():
    # e_{B'} - e_B lies in the tangent cone at B for every other flag basis B'
    fm = flag(U(1, 4), U(3, 4))
    for fb in fm.flag_bases():
        gens = tangent_cone_generators(fm, fb)
        cells = triangulate_half_open((0,) * fm.n, gens)
        for fb2 in fm.flag_bases():
            diff = [0] * fm.n
            for b, b2 in zip(fb, fb2):
                for i in range(fm.n):
                    diff[i] += (b2 >> i & 1) - (b >> i & 1)
            hits = sum(cone_membership(c, diff) for c in cells)
            assert hits == 1


# ----------------------------------------------------------- triangulation


def test_triangulate_collapses_dependent_ray():
    cells = triangulate_half_open((0, 0, 0), (E21, E31, E32))
    assert len(cells) == 1
    cell = cells[0]
    assert set(cell.rays) == {E21, E32}
    assert cell.open_flags == (False, False)
    assert cell.sign == 1


def test_triangulate_single_ray():
    cells = triangulate_half_open((0, 0, 0), (E21,))
    assert len(cells) == 1
    assert cells[0].rays == (E21,)
    assert cells[0].open_flags == (False,)


def test_triangulate_two_by_two():
    gens = ((-1, 0, 1, 0), (-1, 0, 0, 1), (0, -1, 1, 0), (0, -1, 0, 1))
    cells = triangulate_half_open((0, 0, 0, 0), gens)
    assert len(cells) == 2
    assert all(len(c.rays) == 3 for c in cells)
    open_counts = sorted(sum(c.open_flags) for c in cells)
    assert open_counts == [0, 1]
    # partition of the cone's lattice points; the full cone is exactly
    # {x : x1 <= 0, x2 <= 0, x3 >= 0, x4 >= 0, sum(x) = 0} (transportation
    # problems with integer margins have integer solutions)
    for x in product(range(-3, 4), repeat=4):
        if sum(x) != 0:
            continue
        inside = x[0] <= 0 and x[1] <= 0 and x[2] >= 0 and x[3] >= 0
        hits = sum(cone_membership(c, x) for c in cells)
        assert hits == (1 if inside else 0), x


def _assert_exact_cover(generators, inside, box, n):
    """Triangulation cells partition the cone described by `inside`."""
    cells = triangulate_half_open((0,) * n, generators)
    for cell in cells:
        assert len(cell.rays) == len(cells[0].rays)
        assert cell.sign == 1
    for x in product(range(-box, box + 1), repeat=n):
        hits = sum(cone_membership(c, x) for c in cells)
        assert hits == (1 if inside(x) else 0), x
    return cells


def test_exact_cover_difference_fan():
    # (1,0,-1) = (1,-1,0) + (0,1,-1) is interior, so the cone collapses to
    # a unimodular pair; points are exactly {sum 0, x1 >= 0, x3 <= 0}
    _assert_exact_cover(
        ((1, -1, 0), (0, 1, -1), (1, 0, -1)),
        lambda x: sum(x) == 0 and x[0] >= 0 and x[2] <= 0, 3, 3)


def test_exact_cover_redundant_interior_generator():
    # (2,1) lies inside cone((1,0),(0,1)); the quadrant must still be
    # covered exactly once
    _assert_exact_cover(((1, 0), (2, 1), (0, 1)),
                        lambda x: x[0] >= 0 and x[1] >= 0, 3, 2)


def test_exact_cover_octant_with_diagonal():
    _assert_exact_cover(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
        lambda x: all(v >= 0 for v in x), 2, 3)


def test_exact_cover_square_cone():
    # cone over the unit square at height one
    _assert_exact_cover(
        ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)),
        lambda x: x[0] >= 0 and 0 <= x[1] <= x[0] and 0 <= x[2] <= x[0],
        2, 3)


def test_exact_cover_seeded_octant_fans():
    # random interior generators never change the octant or the partition
    import random
    rng = random.Random(20240)
    for _ in range(4):
        extra = [tuple(rng.randrange(0, 3) for _ in range(3))
                 for _ in range(2)]
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        gens += [g for g in extra if any(g)]
        _assert_exact_cover(tuple(gens),
                            lambda x: all(v >= 0 for v in x), 2, 3)


# ------------------------------------------------------ relabelled classes


def _random_dag(rng, n, path=False):
    """Difference vectors e_j - e_i of random forward edges i -> j of a
    random vertex order; with path, the order's Hamiltonian path too."""
    order = rng.sample(range(n), n)
    edges = {(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
             if (path and b == a + 1) or rng.random() < 0.4}
    if not edges:
        edges = {(order[0], order[1])}
    gens = []
    for i, j in sorted(edges):
        v = [0] * n
        v[i] = -1
        v[j] = 1
        gens.append(tuple(v))
    return gens


def _permuted(vectors, perm):
    return [tuple(v[perm[k]] for k in range(len(v))) for v in vectors]


def test_relabelled_triangulation_is_exact():
    # every lattice point of the cone lies in exactly one cell, for a
    # generator set and for a relabelled copy of it (whose cells come from
    # the class triangulation mapped back through a permutation)
    rng = random.Random(20261018)
    for n in range(2, 8):
        box = 2 if n <= 4 else 1
        for _ in range(3):
            gens = _random_dag(rng, n)
            points = {x for x in product(range(-box, box + 1), repeat=n)
                      if sum(x) == 0}
            for _ in range(20):
                x = [0] * n
                for v in gens:
                    c = rng.randint(0, 2)
                    x = [a + c * b for a, b in zip(x, v)]
                points.add(tuple(x))
            # difference vectors are totally unimodular, so an integer
            # point of the real cone is a lattice point of it
            inside = {x: nonneg_combination_exists(gens, x) for x in points}
            assert any(inside.values()) and not all(inside.values())
            perm = rng.sample(range(n), n)
            for copy, relabel in ((gens, list(range(n))),
                                  (_permuted(gens, perm), perm)):
                cells = triangulate_half_open((0,) * n, copy)
                for x, want in inside.items():
                    y = tuple(x[relabel[k]] for k in range(n))
                    hits = sum(cone_membership(c, y) for c in cells)
                    assert hits == (1 if want else 0), (gens, perm, x)


def test_permuted_copies_make_no_triangulation_miss():
    # a Hamiltonian path in a digraph's topological order makes colour
    # refinement split every vertex apart, so every relabelling of it
    # reaches the same class key
    rng = random.Random(4242)
    for n in range(2, 8):
        for _ in range(4):
            gens = _random_dag(rng, n, path=True)
            triangulate_half_open((0,) * n, gens)
            misses = cones._triangulate_cells.cache_info().misses
            for _ in range(3):
                perm = rng.sample(range(n), n)
                triangulate_half_open((0,) * n, _permuted(gens, perm))
            assert cones._triangulate_cells.cache_info().misses == misses
    # the tangent cones at the 30 flag bases of a uniform flag are
    # relabelled copies of one digraph: at most one new class
    fm = flag(U(2, 5), U(3, 5))
    misses = cones._triangulate_cells.cache_info().misses
    for fb in fm.flag_bases():
        triangulate_half_open((0,) * 5, tangent_cone_generators(fm, fb))
    assert cones._triangulate_cells.cache_info().misses - misses <= 1


def _extreme_by_simplex(gens):
    """The generators left by dropping, one at a time, each one that lies in
    the cone of the others still kept (exact phase-1 simplex)."""
    keep = list(gens)
    for v in gens:
        rest = [u for u in keep if u != v]
        if nonneg_combination_exists(rest, v):
            keep = rest
    return keep


def test_closure_keeps_the_rays_of_the_simplex_reduction():
    # an edge i -> k is dropped exactly when another directed path joins i
    # to k; some of the dropped edges have no detour of two steps
    rng = random.Random(20261020)
    only_long = 0
    for n in range(2, 9):
        for trial in range(6):
            gens = _random_dag(rng, n, path=trial % 2 == 0)
            edges = {(v.index(-1), v.index(1)) for v in gens}
            tails, heads = cones._triangulate_cells(
                n, tuple(sorted(i * n + j for i, j in edges)))[:2]
            kept = set(zip(tails.ravel().tolist(), heads.ravel().tolist()))
            assert kept == {(v.index(-1), v.index(1))
                            for v in _extreme_by_simplex(gens)}, (n, edges)
            only_long += sum(
                not any((i, j) in edges and (j, k) in edges
                        for j in range(n))
                for i, k in edges - kept)
    assert only_long > 0


def test_cones_that_are_not_pointed():
    # a directed cycle of difference vectors (the graph route)
    with pytest.raises(NotPointed):
        triangulate_half_open((0, 0, 0), (E21, E32, (1, 0, -1)))
    # opposite general rays, and a zero generator (the general route)
    with pytest.raises(NotPointed):
        triangulate_half_open((0, 0), ((1, 0), (-1, 0), (0, 1)))
    with pytest.raises(NotPointed, match="zero"):
        triangulate_half_open((0, 0, 0), (E21, (0, 0, 0)))


def test_scaled_difference_vectors_take_the_graph_route(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_echelon", calls.append)
    scaled = triangulate_half_open((0, 0, 0), ((-2, 2, 0), E32, (0, -3, 3)))
    assert scaled == triangulate_half_open((0, 0, 0), (E21, E32))
    assert calls == []


def test_dependent_cell_rays_raise(monkeypatch):
    # K_{2,2} has four extreme rays spanning three dimensions: a rank test
    # that over-reports independence puts all four into one cell, whose
    # tree flow then meets the cycle
    monkeypatch.setattr(cones, "forest_rank", lambda edges, n: len(edges))
    with pytest.raises(InternalAssertion, match="dependent"):
        cones._triangulate_cells.__wrapped__(4, (2, 3, 6, 7))


def _stacks():
    """Exchange-digraph stacks of every 10th corpus flag with an edge, then
    seeded random digraph stacks with n = 2..7."""
    for fm in flag_corpus()[::10]:
        chains = np.array(fm.flag_bases(), dtype=np.uint64).reshape(-1, fm.k)
        adj = cones._tangent_generators(fm, chains)
        if adj.any():
            yield adj
    rng = np.random.default_rng(20261019)
    for n in range(2, 8):
        for _ in range(5):
            adj = rng.random((8, n, n)) < 0.35
            adj[:, np.arange(n), np.arange(n)] = False
            yield adj


def test_colour_order_of_a_stack_is_each_digraph_alone():
    # _triangulate refines a whole stack in one call: each digraph must be
    # ordered as it is ordered alone, so its class key cannot depend on
    # the stack it arrives in
    count = 0
    for adj in _stacks():
        together = cones._colour_order(adj)
        for b in range(len(adj)):
            alone = cones._colour_order(adj[b:b + 1])[0]
            assert together[b].tolist() == alone.tolist(), (adj[b], b)
        count += 1
    assert count > 100


def test_triangulate_translates_cached_cells():
    gens = ((-1, 0, 1, 0), (-1, 0, 0, 1), (0, -1, 1, 0), (0, -1, 0, 1))
    at_origin = triangulate_half_open((0, 0, 0, 0), gens)
    moved = triangulate_half_open((1, 2, -3, 0), gens)
    assert [c.translate((1, 2, -3, 0)) for c in at_origin] == list(moved)
    with pytest.raises(ValueError, match="dimension"):
        triangulate_half_open((0, 0, 0), gens)
    empty = triangulate_half_open((5, 6), ())
    assert len(empty) == 1 and empty[0].apex == (5, 6) and not empty[0].rays


def test_general_cells_keep_the_frames_of_the_placing_solver(monkeypatch):
    # seven generators in Z^4, one of them not extreme, give three cells:
    # one frame per cell, each the placing solver's, where building every
    # cell validated computed the frame a second time
    gens = [(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 0),
            (1, 0, 0, 1), (1, 1, 1, 0), (2, 1, 0, 0)]
    calls = []

    def counted(rays, n, _frame=cones._lattice_frame):
        calls.append(tuple(rays))
        return _frame(rays, n)

    monkeypatch.setattr(cones, "_lattice_frame", counted)
    cells = cones._general_cells(gens)
    assert len(cells) == 3 and len(calls) == 3
    assert sorted(calls) == sorted(c.rays for c in cells)
    for c in cells:
        assert c == HalfOpenSimplicialCone(c.apex, c.rays, c.open_flags)
        assert c._lattice() == linalg._lattice_frame(c.rays, 4)
    # every final cell still passes through the solver: a cell of index 2
    # raises
    with pytest.raises(NotUnimodular, match="index 2"):
        cones._general_cells([(1, 0), (1, 2)])


def _plain_python(cell):
    return (all(type(x) is int for x in cell.apex)
            and all(type(x) is int for v in cell.rays for x in v)
            and all(type(f) is bool for f in cell.open_flags)
            and type(cell.sign) is int)


def test_trusted_cells_hold_python_ints():
    # numpy scalars must not leak into cell keys and hashes
    gens = np.array([(-1, 0, 1, 0), (-1, 0, 0, 1), (0, -1, 1, 0),
                     (0, -1, 0, 1)], dtype=np.int64)
    d = default_direction(4)
    for apex in ((0, 0, 0, 0), (1, 2, -3, 0)):
        cells = triangulate_half_open(np.array(apex, dtype=np.int64), gens)
        for cell in cells:
            moved = cell.translate(np.array((4, -1, 0, 2), dtype=np.int64))
            for c in (cell, moved, flip_cone(cell, d), flip_cone(moved, d)):
                assert _plain_python(c)
            assert moved.apex == (4, -1, 0, 2)


# -------------------------------------------------------------- membership


def test_cone_membership_examples():
    closed = HalfOpenSimplicialCone((0, 0, 0), (E21, E31), (False, False))
    assert cone_membership(closed, (-2, 1, 1))
    assert not cone_membership(closed, (1, 0, 0))
    assert cone_membership(closed, (0, 0, 0))
    open_ray = HalfOpenSimplicialCone((0, 0, 0), (E21,), (True,))
    assert not cone_membership(open_ray, (0, 0, 0))
    assert cone_membership(open_ray, E21)


def test_cone_membership_respects_apex():
    c = HalfOpenSimplicialCone((1, 0, 0), (E21,), (False,))
    assert cone_membership(c, (1, 0, 0))
    assert cone_membership(c, (0, 1, 0))
    assert not cone_membership(c, (0, 0, 0))


def test_zero_dimensional_cone():
    c = HalfOpenSimplicialCone((2, 3), (), ())
    assert cone_membership(c, (2, 3))
    assert not cone_membership(c, (2, 4))


# ------------------------------------------------------------------- flips


def test_flip_cone_examples():
    ray = HalfOpenSimplicialCone((0, 0, 0), (E21,), (False,))
    zeta_e1 = Direction((1, 0, 0))
    flipped = flip_cone(ray, zeta_e1)
    assert flipped.sign == -1
    assert flipped.rays == ((1, -1, 0),)
    assert flipped.open_flags == (True,)
    zeta_e2 = Direction((0, 1, 0))
    same = flip_cone(ray, zeta_e2)
    assert same == ray


def test_flip_idempotent():
    cone = HalfOpenSimplicialCone(
        (0, 0, 0), (E21, E32), (False, True), sign=1)
    d = default_direction(3)
    once = flip_cone(cone, d)
    twice = flip_cone(once, d)
    assert once == twice
    # every ray of a flipped cone pairs positively with the direction
    assert all(d.sign(v) > 0 for v in once.rays)


def test_direction_symbolic_tiebreak():
    d = Direction((1, 1))
    # zeta pairing is zero; the lexicographic perturbation decides
    assert d.sign((1, -1)) > 0
    assert d.sign((-1, 1)) < 0
    with pytest.raises(ZeroPairing):
        d.sign((0, 0))
    assert default_direction(3).zeta == (3, 2, 1)


def _fraction_sign(zeta, tiebreak, v):
    """Reference sign: exact rational pairing, then the lex perturbation."""
    for x in (sum(Fraction(z) * x for z, x in zip(zeta, v)),) + tuple(
            v[i - 1] for i in tiebreak):
        if x:
            return 1 if x > 0 else -1
    raise ZeroPairing("zero vector")


def test_direction_rational_zeta_matches_fraction_pairing():
    zeta = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), 0)
    tiebreak = (3, 1, 4, 2)
    d = Direction(zeta, tiebreak)
    assert d.zeta == (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
                      Fraction(0))
    assert all(type(z) is Fraction for z in d.zeta)
    assert d.key() == (d.zeta, tiebreak)
    rng = random.Random(5)
    vectors = []
    for _ in range(300):
        # difference vectors e_j - e_i
        i, j = rng.sample(range(4), 2)
        v = [0] * 4
        v[i], v[j] = -1, 1
        vectors.append(tuple(v))
        vectors.append(tuple(rng.randint(-3, 3) for _ in range(4)))
        # on the zeta hyperplane, where each tie-break coordinate decides
        k = rng.choice((1, -1, 2))
        vectors.append((5 * k, 0, -2 * k, rng.randint(-2, 2)))
        vectors.append((4 * k, 3 * k, 0, rng.randint(-2, 2)))
        vectors.append((0, 0, 0, k))
    for v in vectors:
        if not any(v):
            with pytest.raises(ZeroPairing):
                d.sign(v)
            continue
        ref = _fraction_sign(zeta, tiebreak, v)
        assert d.sign(v) == ref, v
        assert d.pairing(v)[0] == sum(Fraction(z) * x
                                      for z, x in zip(zeta, v))
    assert d.sign((5, 0, -2, 0)) == -1
    assert d.sign((-4, -3, 0, 1)) == -1
    assert d.sign((0, 0, 0, 1)) == 1
    for _ in range(200):
        rays = [v for v in (rng.choice(vectors) for _ in range(3)) if any(v)]
        flags = [rng.random() < 0.5 for _ in rays]
        cone = HalfOpenSimplicialCone((0, 0, 0, 0), rays, flags,
                                      rng.choice((1, -1)), _trusted=True)
        flipped = flip_cone(cone, d)
        sign = cone.sign
        want_rays, want_flags = [], []
        for v, is_open in zip(rays, flags):
            if _fraction_sign(zeta, tiebreak, v) < 0:
                v, is_open, sign = tuple(-x for x in v), not is_open, -sign
            want_rays.append(tuple(v))
            want_flags.append(is_open)
        assert flipped.rays == tuple(want_rays)
        assert flipped.open_flags == tuple(want_flags)
        assert flipped.sign == sign


def test_flip_preserves_series_on_a_line():
    # the ray at 0 along +e1, flipped along -e1, enumerates the complement:
    # closed nonneg ray vs open negated ray partition nothing in common
    ray = HalfOpenSimplicialCone((0,), ((1,),), (False,))
    flipped = flip_cone(ray, Direction((-1,)))
    assert flipped.sign == -1
    assert flipped.rays == ((-1,),)
    assert flipped.open_flags == (True,)
    # as signed indicator functions on Z: [x >= 0] = -(-[x <= -1]) + [all x]
    # so membership sets are complementary
    for x in range(-4, 5):
        assert cone_membership(ray, (x,)) != cone_membership(flipped, (x,))


# ------------------------------------------------------------------ slices


def test_slice_cone_basic():
    quad = HalfOpenSimplicialCone((0, 0), ((1, 0), (0, 1)), (False, False))
    cells = slice_cone(quad, (1, 0), 2)
    assert len(cells) == 1
    assert cells[0].apex == (2, 0)
    assert cells[0].rays == ((0, 1),)
    assert cells[0].open_flags == (False,)


def test_slice_cone_open_facet():
    quad = HalfOpenSimplicialCone((0, 0), ((1, 0), (0, 1)), (True, False))
    assert slice_cone(quad, (1, 0), 0) == ()
    cells = slice_cone(quad, (1, 0), 1)
    assert len(cells) == 1
    assert cells[0].apex == (1, 0)


def test_slice_cone_counts_points():
    # slicing cone((1,0),(1,1)) by x1 = b leaves the b+1 points (b, 0..b)
    cone = HalfOpenSimplicialCone((0, 0), ((1, 0), (1, 1)), (False, False))
    for b in range(4):
        cells = slice_cone(cone, (1, 0), b)
        pts = set()
        for c in cells:
            assert c.rays == ()
            pts.add(c.apex)
        assert pts == {(b, y) for y in range(b + 1)}

    with pytest.raises(ValueError):
        slice_cone(cone, (-1, 0), 0)


def _pointed_cones(rng, count):
    """(zeta, cone) pairs: seeded unimodular cones in dimension 2 or 3 of 1
    to n rays, each ray pairing negatively with the nonzero zeta negated."""
    for _ in range(count):
        n = rng.choice((2, 3))
        zeta = (0,) * n
        while not any(zeta):
            zeta = tuple(rng.randint(-2, 2) for _ in range(n))
        dim = rng.randint(1, n)
        while True:
            rays = [tuple(rng.randint(-1, 1) for _ in range(n))
                    for _ in range(dim)]
            rays = [tuple(-x for x in v)
                    if sum(map(int.__mul__, zeta, v)) < 0 else v
                    for v in rays]
            try:
                cone = HalfOpenSimplicialCone(
                    tuple(rng.randint(-2, 2) for _ in range(n)), rays,
                    [rng.random() < 0.5 for _ in rays], rng.choice((1, -1)))
            except (NotPointed, NotUnimodular):
                continue
            yield zeta, cone
            break


def test_slice_cone_matches_brute_force_points():
    # the slice cells cover each lattice point of the cone on the
    # hyperplane exactly once and no other point of a window around the
    # apex, every cell on the hyperplane with the cone's sign
    rng = random.Random(20261020)
    seen = Counter()
    cases = list(_pointed_cones(rng, 60)) + [
        ((1, 0), HalfOpenSimplicialCone((0, 0), ((0, 1),), (True,)))]
    for zeta, cone in cases:
        dot = lambda x: sum(map(int.__mul__, zeta, x))  # noqa: E731
        pairings = [dot(v) for v in cone.rays]
        for beta in range(-1, 5):
            b = dot(cone.apex) + beta
            cells = slice_cone(cone, zeta, b)
            seen["open"] += any(cone.open_flags)
            seen["zero pairing"] += 0 in pairings
            seen["beta < 0"] += beta < 0
            seen["no positive ray, beta != 0"] += (
                beta != 0 and not any(pairings))
            seen["cells"] += len(cells)
            for c in cells:
                assert dot(c.apex) == b and c.sign == cone.sign
                assert all(dot(v) == 0 for v in c.rays)
            for x in product(*(range(a - 5, a + 6) for a in cone.apex)):
                if dot(x) != b:
                    continue
                hits = sum(cone_membership(c, x) for c in cells)
                assert hits == cone_membership(cone, x), (cone, zeta, b, x)
    assert min(seen.values()) > 0, seen


def test_slice_cone_apexes_stay_exact_past_int64():
    big = 2 ** 70
    quad = HalfOpenSimplicialCone((big, 0), ((1, 0), (0, 1)), (False, True))
    cells = slice_cone(quad, (1, 0), big + 2)
    assert [c.apex for c in cells] == [(big + 2, 0)]
    assert slice_cone(quad, (1, 0), 0) == ()
    steep = HalfOpenSimplicialCone((0, 0), ((1, big),), (False,))
    assert [c.apex for c in slice_cone(steep, (1, 0), 3)] == [(3, 3 * big)]


def test_slice_cone_stays_exact_when_pairings_pass_int64():
    # weighted sums of 2^61-sized pairings pass int64: the cells stay exact
    quad = HalfOpenSimplicialCone((0, 0), ((1, 0), (0, 1)), (False, False))
    cells = slice_cone(quad, (2 ** 61, 2 ** 61), 2 ** 62)
    assert [c.apex for c in cells] == [(0, 2), (1, 1), (2, 0)]
    big = 2 ** 70
    ray = HalfOpenSimplicialCone((0, 0), ((big, 1),), (False,))
    assert [c.apex for c in slice_cone(ray, (1, 0), big)] == [(big, 1)]
    assert slice_cone(ray, (1, 0), big - 1) == ()


def test_slice_cone_of_a_large_beta():
    # two rays of pairing 1: the beta + 1 cells of the segment
    quad = HalfOpenSimplicialCone((0, 0), ((1, 0), (0, 1)), (False, True))
    beta = 10 ** 4
    cells = slice_cone(quad, (1, 1), beta)
    assert [c.apex for c in cells] == [(i, beta - i) for i in range(beta)]


def test_box_points_memory_follows_the_output():
    # a level holds only the prefixes that can still reach the total, so
    # the 2001 points of this 2001 x 2001 box take no 2001^2 array
    tracemalloc.start()
    try:
        got = cones._box_points([0, 0], [2000, 2000], 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [[i, 2000 - i] for i in range(2001)]
    assert peak < 1 << 20, peak


def test_box_points_past_int64_match_the_small_box():
    # seeded boxes shifted by 2^62 or weighted by 2^61 have the same points
    # as the unshifted, unit-scale ones, held as exact Python ints
    rng = random.Random(20261021)
    for _ in range(100):
        n = rng.randint(1, 3)
        los = [rng.randint(-3, 2) for _ in range(n)]
        his = [lo + rng.randint(0, 3) for lo in los]
        weights = [rng.randint(-3, 3) for _ in range(n)]
        total = rng.randint(-4, 4)
        want = cones._box_points(los, his, total, weights).tolist()
        shift = [rng.choice((-1, 1)) * 2 ** 62 for _ in range(n)]
        got = cones._box_points(
            [lo + c for lo, c in zip(los, shift)],
            [hi + c for hi, c in zip(his, shift)],
            total + sum(map(int.__mul__, weights, shift)), weights)
        assert got.dtype == object
        assert [[x - c for x, c in zip(p, shift)] for p in got.tolist()] \
            == want
        scaled = cones._box_points(los, his, total * 2 ** 61,
                                   [wi * 2 ** 61 for wi in weights])
        assert scaled.tolist() == want


@pytest.mark.parametrize("hyperplane", [None, "unit", "weighted", "cone"])
def test_box_points_match_product(hyperplane):
    # seeded boxes with negative bounds and empty ranges, against a
    # brute-force filter of itertools.product in its (lexicographic) order;
    # "cone" keeps the points of unit sum whose prefix sums are all >= 0
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        los = [rng.randint(-3, 2) for _ in range(n)]
        his = [lo + rng.randint(-1, 3) for lo in los]
        weights = ([rng.randint(-3, 3) for _ in range(n)]
                   if hyperplane == "weighted" else None)
        total = None if hyperplane is None else rng.randint(-4, 4)
        w = weights or [1] * n
        want = [x for x in product(*(range(lo, hi + 1)
                                     for lo, hi in zip(los, his)))
                if (total is None or sum(map(int.__mul__, w, x)) == total)
                and (hyperplane != "cone" or min(accumulate(x)) >= 0)]
        got = cones._box_points(los, his, total, weights,
                                cone=hyperplane == "cone")
        assert got.dtype == np.int64 and got.shape == (len(want), n)
        assert list(map(tuple, got.tolist())) == want
        seen["empty range"] += any(hi < lo for lo, hi in zip(los, his))
        if hyperplane == "cone":
            seen["cut"] += sum(
                sum(x) == total and min(accumulate(x)) < 0
                for x in product(*(range(lo, hi + 1)
                                   for lo, hi in zip(los, his))))
        seen["negative bound"] += min(los) < 0
        seen["points"] += len(want)
    assert min(seen.values()) > 0, seen


def test_box_points_of_no_coordinates():
    # the box of no coordinates is one empty point, on a hyperplane
    # exactly when its total is 0
    for total, weights, count in ((None, None, 1), (0, None, 1),
                                  (0, [], 1), (2, None, 0), (-1, [], 0)):
        got = cones._box_points([], [], total, weights)
        assert got.dtype == np.int64 and got.shape == (count, 0)


def test_cone_key_and_equality():
    a = HalfOpenSimplicialCone((0, 0), ((1, 0),), (False,))
    b = HalfOpenSimplicialCone((0, 0), ((1, 0),), (False,))
    c = HalfOpenSimplicialCone((0, 0), ((1, 0),), (True,))
    assert a == b and hash(a) == hash(b)
    assert a != c


# ------------------------------------------------------ forest cell rows


def _flow_members(tails, heads, opens, X):
    """Per point of X, whether it lies in the half-open forest cone, from
    linalg.forest_flow: zero sums on every component and subtree
    coordinates at least the open flags.  Slots with tail == head are
    padding."""
    n = X.shape[1]
    slots = [k for k, (i, j) in enumerate(zip(tails, heads)) if i != j]
    components, subtrees = forest_flow([(tails[k], heads[k]) for k in slots],
                                       n)
    H = np.array([[v in comp for v in range(n)] for comp in components],
                 dtype=np.int64).reshape(-1, n)
    S = np.array([[sign * (v in verts) for v in range(n)]
                  for sign, verts in subtrees], dtype=np.int64).reshape(-1, n)
    low = np.array([opens[k] for k in slots], dtype=np.int64)
    return ((H @ X.T == 0).all(axis=0)
            & (S @ X.T >= low[:, None]).all(axis=0))


def _row_members(M, thr, X):
    return (M.astype(np.int64) @ X.T >= thr[:, :, None]).all(axis=1)


def _sum_zero_box(n, reach):
    return cones._box_points([-reach] * n, [reach] * n, 0)


def _flipped(tails, heads, opens):
    """Cells of difference-vector rays flipped along default_direction: a
    ray e_j - e_i pairs with it to i - j, so the rays with j > i reverse
    and toggle their open flags, and each reversal flips the cell's sign.
    A padding slot (tail == head) stays as it is."""
    back = heads > tails
    return (np.where(back, heads, tails), np.where(back, tails, heads),
            opens ^ back, np.where(back.sum(axis=1) & 1, -1, 1))


def _flipped_flag_cells(fm):
    """The tails, heads, open flags and signs of a flag's cells, flipped
    along the default direction as _flag_kernels flips them."""
    cells = invariants._flag_cells(fm)
    return _flipped(cells.tails, cells.heads, cells.opens)


def test_forest_rows_match_forest_flow_on_corpus_cells():
    # every flipped cell of the rank >= 1 corpus flags, one call per flag:
    # the rows _flag_kernels builds from the class frames the
    # triangulation carries, and forest_flow, agree on the sum-zero box
    boxes, oracle = {}, {}
    for fm in flag_corpus():
        if fm.ranks[0] < 1:
            continue
        n = fm.n
        tails, heads, opens, _ = _flipped_flag_cells(fm)
        M, thr = _flag_kernels(fm, "kt")[0][:2]
        X = boxes.setdefault(n, _sum_zero_box(n, 2 if n <= 5 else 1))
        got = _row_members(M, thr, X)
        for row, cell in zip(got, zip(tails.tolist(), heads.tolist(),
                                      opens.tolist())):
            key = (n,) + tuple(map(tuple, cell))
            if key not in oracle:
                oracle[key] = _flow_members(*cell, X)
            assert np.array_equal(row, oracle[key]), key
    # 8,400 distinct cells, 5,858 with a member in their box
    assert len(oracle) == 8400
    assert sum(m.any() for m in oracle.values()) == 5858


def test_flag_kernels_flip_as_flip_cone_along_the_default_direction():
    # the kernels reverse the rays e_j - e_i with j > i of the flag's
    # cells, cell by cell what flip_cone does along default_direction(n):
    # the same signs and open flags, coordinate rows dual to the flipped
    # rays and span rows vanishing on them
    for fm in flag_corpus()[::40]:
        n = fm.n
        tails, heads, opens = invariants._flag_cells(fm)[:3]
        M, thr, signs = _flag_kernels(fm, "kt")[0][:3]
        d = tails.shape[1]
        flipped = zip(*_flipped_flag_cells(fm))
        for c, (cell, got) in enumerate(zip(zip(
                tails.tolist(), heads.tolist(), opens.tolist()), flipped)):
            rays = [tuple((v == j) - (v == i) for v in range(n))
                    for i, j in zip(*cell[:2])]
            want = flip_cone(HalfOpenSimplicialCone((0,) * n, rays, cell[2]),
                             default_direction(n))
            t, h, o, sign = (np.asarray(a).tolist() for a in got)
            assert [tuple((v == j) - (v == i) for v in range(n))
                    for i, j in zip(t, h)] == list(want.rays), fm
            assert (o, sign) == (list(want.open_flags), want.sign), fm
            R = np.array(want.rays, dtype=np.int64).reshape(d, n)
            assert np.array_equal(M[c].astype(np.int64) @ R.T,
                                  np.eye(len(M[c]), d)), fm
            assert thr[c].tolist() == list(want.open_flags) + [0] * (
                len(M[c]) - d), fm
            assert signs[c] == want.sign, fm


def test_forest_rows_pad_cells_of_fewer_rays():
    # cells of 3, 2, 1 and no rays on n = 4 through the flip rule, their
    # padding slots (tail == head, closed) zero coordinate rows and their
    # frames' span rows padded by zero rows; then cells on n = 0
    tails = np.array([[0, 1, 3], [2, 2, 0], [1, 3, 1], [0, 2, 2]])
    heads = np.array([[1, 2, 2], [0, 3, 0], [3, 3, 1], [0, 2, 2]])
    opens = np.array([[True, False, True], [False, True, False],
                      [True, False, False], [False, False, False]])
    coords = np.zeros((4, 3, 4), dtype=np.int8)
    span = np.zeros((4, 4, 4), dtype=np.int8)
    for c in range(4):
        real = np.flatnonzero(tails[c] != heads[c])
        frame = forest_frames(tails[c:c + 1, real], heads[c:c + 1, real],
                              4)[0]
        coords[c, real] = frame[:len(real)]
        span[c, :4 - len(real)] = frame[len(real):]
    M, thr, signs = _flipped_rows(coords, span, heads > tails, opens,
                                  np.ones(4, dtype=np.int64))
    assert M.shape == (4, 3 + 2 * 4, 4) and M.dtype == np.int8
    X = _sum_zero_box(4, 2)
    got = _row_members(M, thr, X)
    flipped = _flipped(tails, heads, opens)
    assert signs.tolist() == flipped[3].tolist()
    for row, cell in zip(got, zip(*(a.tolist() for a in flipped[:3]))):
        assert np.array_equal(row, _flow_members(*cell, X))
    assert got.sum(axis=1).tolist()[-1] == 1
    none = np.zeros((2, 0), dtype=bool)
    M, thr, signs = _flipped_rows(np.zeros((2, 0, 0), dtype=np.int8),
                                  np.zeros((2, 0, 0), dtype=np.int8), none,
                                  none, np.ones(2, dtype=np.int64))
    assert M.shape == (2, 0, 0) and thr.shape == (2, 0)
    assert _row_members(M, thr, np.zeros((1, 0), dtype=np.int64)).all()


def test_class_frames_are_checked_once_per_class(monkeypatch):
    # the tree flow the placing loop solves a class cell with is its frame:
    # the subtree below each ray in slot order, then the components.  A
    # negated coordinate row, or a component row that misses its vertex,
    # raises
    tails, heads, _, frames = cones._triangulate_cells.__wrapped__(4, (1, 6))
    assert (tails.tolist(), heads.tolist()) == ([[0, 1]], [[1, 2]])
    assert frames.tolist() == [[[0, 1, 1, 0], [0, 0, 1, 0], [1, 1, 1, 0],
                                [0, 0, 0, 1]]]
    flow = cones.forest_flow

    def negated(edges, n):
        components, subtrees = flow(edges, n)
        return components, [(-subtrees[0][0], subtrees[0][1])] + subtrees[1:]

    def missing(edges, n):
        components, subtrees = flow(edges, n)
        return components[:-1] + [()], subtrees

    for corrupt in (negated, missing):
        monkeypatch.setattr(cones, "forest_flow", corrupt)
        with pytest.raises(InternalAssertion, match="lattice frames"):
            cones._triangulate_cells.__wrapped__(4, (1, 6))
