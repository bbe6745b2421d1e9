"""Graph linear algebra for difference vectors against the Fraction fallback.

Columns e_j - e_i form a directed-graph incidence matrix.  The forest
helpers (union-find rank, tree-flow coordinates) must agree exactly with
Fraction Gaussian elimination on every such system, and the engine routes
must never fall back to elimination.
"""

import random

import numpy as np
import pytest

import flagtutte.linalg as linalg
from flagtutte import (AuxPolynomial, EquivariantPolynomial, GenFun,
                       GenFunTerm, HalfOpenSimplicialCone, clear_caches,
                       cone_membership, flag_corpus, kt, kt_equivariant,
                       support, tangent_cone_generators,
                       triangulate_half_open)
from flagtutte import cones
from flagtutte.errors import InternalAssertion, NotUnimodular
from flagtutte.genfun import _pivot_structure
from flagtutte.linalg import (difference_vector_graph, flow_coordinates,
                              forest_flow, forest_rank, integer_coordinates,
                              lattice_index, matrix_rank, solve_exact)


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


def _pivot_coordinates(structure, x):
    """Coordinates of x from _pivot_structure data, or None off the span."""
    H, S = structure
    if any(sum(h * c for h, c in zip(row, x)) for row in H):
        return None
    return tuple(sum(a * b for a, b in zip(row, x)) for row in S)


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
        structure = _pivot_structure(cols, n) if independent else None
        for t in targets:
            want = solve_exact(cols, t)
            seen["outside"] += want is None
            got = None if flow is None else flow_coordinates(flow, t)
            assert got == want
            assert integer_coordinates(cols, t) == want
            if structure is not None:
                assert len(structure[1]) == len(cols)
                assert _pivot_coordinates(structure, t) == want
    assert min(seen.values()) > 500


def test_mixed_rays_take_the_fraction_fallback(monkeypatch):
    calls = []
    echelon = linalg._echelon

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    rays = ((0, 1, -1), (1, 1, -2))
    assert difference_vector_graph(rays, 3) is None
    assert integer_coordinates(list(rays), (1, 0, -1)) == (-1, 1)
    assert integer_coordinates(list(rays), (1, 1, 1)) is None
    assert calls
    calls.clear()
    cone = HalfOpenSimplicialCone((0, 0, 0), rays, (False, False))
    assert cone_membership(cone, (1, 2, -3))
    assert not cone_membership(cone, (1, 0, -1))
    assert calls
    calls.clear()
    # the same rays in a GenFun: support() takes the reference path, whose
    # memberships eliminate; the ray-wise differences leave {0, (0, 1, -1)}
    one = AuxPolynomial.constant(1)
    g = GenFun(3, [GenFunTerm(c * one, cone.translate(apex))
                   for c, apex in [(1, (0, 0, 0)), (-1, (0, 2, -2)),
                                   (-1, (1, 1, -2)), (1, (1, 3, -4))]])
    assert support(g) == EquivariantPolynomial(3, {(0, 0, 0): 1,
                                                   (0, 1, -1): 1})
    assert calls
    with pytest.raises(InternalAssertion):
        _pivot_structure(rays, 3)
    calls.clear()
    cells = triangulate_half_open((0, 0, 0), [(0, 1, -1), (1, 1, -2),
                                              (1, 0, -1)])
    assert len(cells) == 1 and calls
    with pytest.raises(NotUnimodular, match="index 2"):
        HalfOpenSimplicialCone((0, 0, 0), ((1, -1, 0), (1, 1, -2)),
                               (False, False))


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
    H, S = _pivot_structure([(-1, 0, 1, 0)], 4)
    assert S == [(0, 0, 1, 0)]
    assert np.array(H).sum(axis=0).tolist() == [1, 1, 1, 1]
