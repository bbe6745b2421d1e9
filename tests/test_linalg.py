"""Graph linear algebra for difference vectors and lattice frames for any
rays, against Fraction elimination and the Smith form.

Columns e_j - e_i form a directed-graph incidence matrix.  The forest
helpers (union-find rank, tree-flow coordinates) must agree exactly with
Fraction Gaussian elimination on every such system, and the engine routes
must never fall back to elimination.  The lattice frame of general rays
must agree with the oracles of tests/oracles.py on its index, its span
test and its coordinates.
"""

import random
from collections import Counter

import numpy as np
import pytest

import flagtutte.linalg as linalg
from flagtutte import (AuxPolynomial, EquivariantPolynomial, GenFun,
                       GenFunTerm, HalfOpenSimplicialCone, clear_caches,
                       cone_membership, flag_corpus, kt, kt_equivariant,
                       support, tangent_cone_generators,
                       triangulate_half_open)
from flagtutte import cones
from flagtutte.cones import _forest_rows
from flagtutte.errors import InternalAssertion, NotUnimodular
from flagtutte.linalg import (_lattice_frame, difference_vector_graph,
                              flow_coordinates, forest_flow, forest_rank,
                              matrix_rank)
from oracles import lattice_index, solve_exact


def _ray(n, i, j):
    v = [0] * n
    v[i] = -1
    v[j] = 1
    return tuple(v)


def _random_system(rng):
    """Random edges (some cyclic, some vertices isolated) and targets
    inside the span, on the sum hyperplanes only, or anywhere."""
    n = rng.randint(2, 8)
    d = rng.randint(0, n + 1)
    edges = []
    for _ in range(d):
        i, j = rng.sample(range(n), 2)
        edges.append((i, j))
    cols = [_ray(n, i, j) for i, j in edges]
    targets = []
    inside = [0] * n
    for v in cols:
        c = rng.randint(-3, 3)
        inside = [x + c * y for x, y in zip(inside, v)]
    targets.append(tuple(inside))
    loose = [rng.randint(-3, 3) for _ in range(n)]
    loose[0] -= sum(loose)
    targets.append(tuple(loose))
    targets.append(tuple(rng.randint(-3, 3) for _ in range(n)))
    return n, edges, cols, targets


def _edge_arrays(edges):
    """One cell's (1 x d) tails and heads, closed, for _forest_rows."""
    return (np.array([[i for i, _ in edges]], dtype=np.int8).reshape(1, -1),
            np.array([[j for _, j in edges]], dtype=np.int8).reshape(1, -1),
            np.zeros((1, len(edges)), dtype=bool))


def _frame_coordinates(frame, x):
    """Coordinates of x from a lattice frame, or None off its span."""
    coords, span = frame
    if any(sum(a * b for a, b in zip(row, x)) for row in span):
        return None
    return tuple(sum(a * b for a, b in zip(row, x)) for row in coords)


def _row_coordinates(M, d, x):
    """Coordinates of x from the rows _forest_rows gives a cell of d rays,
    or None off the span.  The first component's row is implied by
    sum(x) = 0."""
    count = (len(M) - d) // 2
    y = M.astype(np.int64) @ np.array(x, dtype=np.int64)
    if sum(x) or y[:count].any():
        return None
    return tuple(y[2 * count:].tolist())


def test_forest_helpers_match_fraction_elimination():
    rng = random.Random(20240417)
    seen = {"cyclic": 0, "outside": 0, "isolated": 0}
    for _ in range(5000):
        n, edges, cols, targets = _random_system(rng)
        assert difference_vector_graph(cols, n) == edges
        rank = matrix_rank(cols) if cols else 0
        assert forest_rank(edges, n) == rank
        flow = forest_flow(edges, n)
        independent = rank == len(cols)
        assert (flow is not None) == independent
        seen["cyclic"] += not independent
        touched = {v for e in edges for v in e}
        seen["isolated"] += len(touched) < n
        if independent:
            frame = _lattice_frame(cols, n)
            M = _forest_rows(*_edge_arrays(edges), n)[0][0]
            assert len(M) == 2 * (n - len(cols) - 1) + len(cols)
        else:
            with pytest.raises(InternalAssertion):
                _forest_rows(*_edge_arrays(edges), n)
            with pytest.raises(NotUnimodular, match="dependent"):
                _lattice_frame(cols, n)
        for t in targets:
            want = solve_exact(cols, t)
            seen["outside"] += want is None
            got = None if flow is None else flow_coordinates(flow, t)
            assert got == want
            if independent:
                assert _frame_coordinates(frame, t) == want
                assert _row_coordinates(M, len(cols), t) == want
    assert min(seen.values()) > 500


def test_mixed_rays_take_the_fraction_fallback(monkeypatch):
    # membership and support on general rays read the cones' lattice
    # frames: no Fraction elimination; only the triangulation's rank test
    # still eliminates
    calls = []
    echelon = linalg._echelon

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    rays = ((0, 1, -1), (1, 1, -2))
    assert difference_vector_graph(rays, 3) is None
    frame = _lattice_frame(rays, 3)
    assert _frame_coordinates(frame, (1, 0, -1)) == (-1, 1)
    assert _frame_coordinates(frame, (1, 1, 1)) is None
    cone = HalfOpenSimplicialCone((0, 0, 0), rays, (False, False))
    assert cone_membership(cone, (1, 2, -3))
    assert not cone_membership(cone, (1, 0, -1))
    # the same rays in a GenFun: support() reads the rows of the frames;
    # the ray-wise differences leave {0, (0, 1, -1)}
    one = AuxPolynomial.constant(1)
    g = GenFun(3, [GenFunTerm(c * one, cone.translate(apex))
                   for c, apex in [(1, (0, 0, 0)), (-1, (0, 2, -2)),
                                   (-1, (1, 1, -2)), (1, (1, 3, -4))]])
    assert support(g) == EquivariantPolynomial(3, {(0, 0, 0): 1,
                                                   (0, 1, -1): 1})
    assert calls == []
    # forest rows take tails and heads, so no ray off the graph reaches
    # them; dependent difference rays (a cycle, a repeated ray) are
    # rejected there
    for tails, heads in [([2, 2, 0], [1, 0, 1]), ([0, 0], [1, 1])]:
        with pytest.raises(InternalAssertion):
            _forest_rows(np.array([tails]), np.array([heads]),
                         np.zeros((1, len(tails)), dtype=bool), 3)
    cells = triangulate_half_open((0, 0, 0), [(0, 1, -1), (1, 1, -2),
                                              (1, 0, -1)])
    assert len(cells) == 1 and calls
    with pytest.raises(NotUnimodular, match="index 2"):
        HalfOpenSimplicialCone((0, 0, 0), ((1, -1, 0), (1, 1, -2)),
                               (False, False))


def test_lattice_frame_matches_the_smith_form_and_elimination():
    # seeded sets of up to n + 1 rays, n <= 6, entries in [-3, 3]:
    # dependent ones, of index 1 and of index > 1.  The frame raises with
    # the Smith-form index and, on index 1, its span test and coordinates
    # are those of Fraction elimination, for points inside the span and
    # anywhere
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(1, 6)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, n + 1))]
        index = lattice_index(rays) if rays else 1
        seen[min(index, 2)] += 1
        if index == 0:
            with pytest.raises(NotUnimodular,
                               match="^rays are linearly dependent$"):
                _lattice_frame(rays, n)
            continue
        if index > 1:
            with pytest.raises(NotUnimodular, match="^rays span a sublattice "
                               "of index %d$" % index):
                _lattice_frame(rays, n)
            continue
        frame = _lattice_frame(rays, n)
        inside = [sum(rng.randint(-3, 3) * v[i] for v in rays)
                  for i in range(n)]
        for x in (inside, [rng.randint(-4, 4) for _ in range(n)]):
            want = solve_exact(rays, x)
            seen["outside"] += want is None
            assert _frame_coordinates(frame, x) == want, (rays, x)
    assert min(seen.values()) > 100, seen


def test_dependent_rays_are_rejected_on_both_paths():
    with pytest.raises(NotUnimodular, match="dependent"):
        HalfOpenSimplicialCone((0, 0, 0), ((-1, 1, 0), (0, -1, 1),
                                           (-1, 0, 1)), (False,) * 3)
    with pytest.raises(NotUnimodular, match="dependent"):
        HalfOpenSimplicialCone((0, 0, 0), ((1, 1, -2), (-1, -1, 2)),
                               (False, False))
    assert lattice_index(((1, 1, -2), (2, 2, -4))) == 0
    assert lattice_index(((1, -1, 0), (1, 1, -2))) == 2


def test_engine_routes_make_no_elimination_calls(monkeypatch):
    flags = flag_corpus()[5::97]
    equivariant = [fm for fm in flags if fm.ranks[0] >= 1]
    assert len(flags) >= 10 and len(equivariant) >= 5
    calls = []
    echelon = linalg._echelon

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    matrix_rank([(1, 2), (3, 4)])
    assert len(calls) == 1
    calls.clear()
    clear_caches()
    try:
        for fm in flags:
            kt(fm)
        for fm in equivariant:
            kt_equivariant(fm)
    finally:
        clear_caches()
    assert calls == []


def test_corpus_triangulates_once_per_relabelled_class():
    # 4,158 distinct nonempty tangent-cone generator sets over the corpus
    # fall into 151 colour-refinement classes, each triangulated once
    clear_caches()
    try:
        for fm in flag_corpus():
            origin = (0,) * fm.n
            for fb in fm.flag_bases():
                triangulate_half_open(origin,
                                      tangent_cone_generators(fm, fb))
        assert cones._triangulate_cells.cache_info().misses == 151
        assert cones._origin_cells.cache_info().currsize == 4158
    finally:
        clear_caches()


def test_forest_flow_isolated_vertices_and_empty_edge_set():
    assert forest_rank([], 3) == 0
    components, subtrees = forest_flow([], 3)
    assert components == [(0,), (1,), (2,)] and subtrees == []
    flow = forest_flow([(0, 2)], 4)
    assert flow_coordinates(flow, (-2, 0, 2, 0)) == (2,)
    assert flow_coordinates(flow, (-2, 0, 2, 1)) is None
    assert flow_coordinates(flow, (-2, 1, 1, 0)) is None
    assert forest_flow([(0, 1), (1, 0)], 2) is None
    # rows without the first component {0, 2}: +-[1], +-[3], then the
    # head side of the ray e_2 - e_0
    M, thr = _forest_rows(*_edge_arrays([(0, 2)]), 4)
    assert M[0, 4:].tolist() == [[0, 0, 1, 0]]
    assert M[0, :2].sum(axis=0).tolist() == [0, 1, 0, 1]
    assert np.array_equal(M[0, 2:4], -M[0, :2]) and not thr.any()
    M, thr = _forest_rows(*_edge_arrays([]), 3)
    assert M[0].tolist() == [[0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]]
