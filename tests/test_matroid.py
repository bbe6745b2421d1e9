"""Matroid, quotient, and flag-matroid construction and queries.

Oracle helpers recompute ranks, exchange validity, and quotient relations by
brute force, independently of the library code paths under test.
"""

import hashlib
import random
import time
from itertools import combinations

import numpy as np
import pytest

from flagtutte import (FlagMatroid, GroundSetTooLarge, InvalidRank, Matroid,
                       NotAMatroid, NotAQuotientChain, face_basis, flag,
                       flag_direct_sum, flag_dual, higgs_factorization,
                       is_quotient, pseudo_basis_masks, pseudo_bases)
from flagtutte.errors import (EmptyBases, EmptyMatrix, GroundSetExhausted,
                              GroundSetMismatch, InputError)
from flagtutte.corpus import _K4_EDGES, _cycle_edges, matroid_corpus
from flagtutte.matroid import RANK_TABLE_MAX, _mask_of, _set_of, rank_table

U = Matroid.uniform


# ---------------------------------------------------------------- oracles


def oracle_rank(bases, mask):
    """Rank of a subset directly from the basis family."""
    return max(bin(b & mask).count("1") for b in bases)


def oracle_exchange_ok(bases):
    """Brute-force basis exchange axiom over all ordered pairs."""
    bases = list(bases)
    for b1 in bases:
        for b2 in bases:
            over = b1 & ~b2
            i = over & -over
            while over:
                i = over & -over
                found = False
                cand = b2 & ~b1
                while cand:
                    j = cand & -cand
                    if (b1 & ~i) | j in set(bases):
                        found = True
                        break
                    cand &= cand - 1
                if not found:
                    return False
                over &= over - 1
    return True


def oracle_is_quotient(m1, m2):
    """Rank-difference monotonicity over every nested pair of subsets.

    Ranks come from oracle_rank's basis scan, not from Matroid.rank, which
    reads the library's rank table once one is built.
    """
    if m1.n != m2.n:
        return False
    n = m1.n
    rk1 = [oracle_rank(m1.bases_masks, s) for s in range(1 << n)]
    rk2 = [oracle_rank(m2.bases_masks, s) for s in range(1 << n)]
    for a in range(1 << n):
        b = a
        while True:
            # b runs over all subsets of a
            if rk1[a] - rk1[b] > rk2[a] - rk2[b]:
                return False
            if b == 0:
                break
            b = (b - 1) & a
    return True


# ------------------------------------------------------------ constructors


def test_uniform_examples():
    m = U(1, 3)
    assert m.bases == [frozenset({1}), frozenset({2}), frozenset({3})]
    m = U(0, 4)
    assert m.bases == [frozenset()]
    assert m.loops() == frozenset({1, 2, 3, 4})
    m = U(2, 3)
    assert sorted(tuple(sorted(b)) for b in m.bases) == [
        (1, 2), (1, 3), (2, 3)]
    with pytest.raises(InvalidRank):
        U(4, 3)
    with pytest.raises(InvalidRank):
        U(-1, 3)


def test_uniform_masks_match_combinations():
    # the increasing-mask construction against one mask per r-subset
    for n in range(13):
        for r in range(n + 1):
            want = sorted(sum(1 << i for i in c)
                          for c in combinations(range(n), r))
            assert U(r, n).key() == (n, tuple(want)), (r, n)


def test_from_bases_examples():
    m = Matroid.from_bases(2, [{1}, {2}])
    assert m == U(1, 2)
    m = Matroid.from_bases(3, [{1, 2}, {1, 3}])
    assert m.rank_value == 2
    assert m.rank({2, 3}) == 1
    assert m.rank({1}) == 1
    # {1},{3} satisfies exchange; element 2 is a loop
    m = Matroid.from_bases(3, [{1}, {3}])
    assert m.loops() == frozenset({2})
    with pytest.raises(NotAMatroid):
        Matroid.from_bases(3, [{1, 2}, {3}])  # mixed cardinalities
    with pytest.raises(NotAMatroid):
        Matroid.from_bases(4, [{1, 2}, {3, 4}])  # exchange fails
    with pytest.raises(EmptyBases):
        Matroid.from_bases(3, [])


def test_from_matrix_examples():
    m = Matroid.from_matrix([[1, 0, 1], [0, 1, 1]])
    assert m == U(2, 3)
    m = Matroid.from_matrix([[1, 1, 1]])
    assert m == U(1, 3)
    m = Matroid.from_matrix([[1, 0, 0], [0, 1, 0]])
    assert m.bases == [frozenset({1, 2})]
    assert m.loops() == frozenset({3})
    with pytest.raises(EmptyMatrix):
        Matroid.from_matrix([])
    with pytest.raises(EmptyMatrix):
        Matroid.from_matrix([[1, 0], [1]])


def test_graphic_examples():
    tri = Matroid.graphic([(1, 2), (2, 3), (1, 3)])
    assert tri == U(2, 3)
    k4 = Matroid.graphic([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert k4.rank_value == 3
    assert len(k4.bases_masks) == 16  # spanning trees of K4
    path = Matroid.graphic([(1, 2), (1, 3)])
    assert path == U(2, 2)


def test_graphic_refuses_negative_vertex_labels():
    # parent[-1] in the union-find would alias the highest vertex: the
    # triangle on -1, 2, 3 read as a multigraph with a loop
    with pytest.raises(InputError, match="vertex label -1 is negative"):
        Matroid.graphic([(-1, 2), (2, 3), (3, -1)])
    assert Matroid.graphic([(0, 2), (2, 3), (3, 0)]) == U(2, 3)


def test_elements_that_are_no_integers_are_refused():
    with pytest.raises(GroundSetMismatch, match="element 1.9 is not an"):
        Matroid.from_bases(3, [[1.9, 2]])
    assert Matroid.from_bases(3, [[1.0, 2]]) == Matroid.from_bases(3, [[1, 2]])


def test_from_bases_refuses_a_size_that_is_no_integer():
    # int() would build a 3-element matroid from 3.5 and a 1-element one
    # from True
    for n in (3.5, True, "three"):
        with pytest.raises(GroundSetMismatch, match="is not an integer"):
            Matroid.from_bases(n, [[1]])
    assert Matroid.from_bases(3.0, [[1, 2]]) == Matroid.from_bases(3, [[1, 2]])


def test_uniform_refuses_numbers_that_are_no_integers():
    # U(2.5, 4) used to raise a bare TypeError from a shift
    with pytest.raises(InvalidRank, match="rank 2.5 is not an integer"):
        U(2.5, 4)
    with pytest.raises(InvalidRank, match="rank True is not an integer"):
        U(True, 4)
    with pytest.raises(GroundSetMismatch, match="size 4.5 is not an integer"):
        U(2, 4.5)
    assert U(2.0, 4.0) == U(2, 4)


def test_graphic_refuses_labels_that_are_no_integers():
    # int() would read the edge (1, 2.7) as (1, 2) and 3.5 vertices as 3
    with pytest.raises(GroundSetMismatch, match="label 2.7 is not an"):
        Matroid.graphic([(1, 2.7), (2, 3)])
    with pytest.raises(GroundSetMismatch, match="label True is not an"):
        Matroid.graphic([(True, 2), (2, 3)])
    with pytest.raises(GroundSetMismatch, match="count 3.5 is not an"):
        Matroid.graphic([(1, 2), (2, 3)], n_vertices=3.5)
    assert (Matroid.graphic([(1.0, 2), (2, 3)], n_vertices=4.0)
            == Matroid.graphic([(1, 2), (2, 3)], n_vertices=4))


def test_graphic_keys_of_the_corpus_graphs():
    # every edge subset of K4 and the 5- and 6-cycles: the keys match the
    # signed incidence matrix's matroid and a digest of the keys of the
    # former constructor, which ran its own union-finds
    graphs = [([e for i, e in enumerate(_K4_EDGES) if mask >> i & 1], 4)
              for mask in range(1, 1 << len(_K4_EDGES))]
    graphs += [(_cycle_edges(5), None), (_cycle_edges(6), None)]
    h = hashlib.sha256()
    for edges, nv in graphs:
        m = Matroid.graphic(edges, n_vertices=nv)
        rows = [[(v == b) - (v == a) for a, b in edges]
                for v in range(1, (nv or len(edges)) + 1)]
        assert m.key() == Matroid.from_matrix(rows).key(), edges
        h.update(repr(m.key()).encode())
    assert h.hexdigest() == (
        "f076fca75a977f4334617bb6dfbdbcfb8bddddd53d74ec886b1ecb7f72c86478")


def test_ground_set_limits():
    with pytest.raises(GroundSetTooLarge):
        U(1, 65)


def test_exchange_axiom_oracle_agreement():
    # families that pass construction must pass the brute-force oracle
    for m in [U(2, 4), Matroid.from_bases(4, [{1, 2}, {1, 3}, {1, 4}]),
              Matroid.graphic([(1, 2), (1, 3), (2, 3), (3, 4)])]:
        assert oracle_exchange_ok(m.bases_masks)
    assert not oracle_exchange_ok(
        [_mask_of({1, 2}, 4), _mask_of({3, 4}, 4)])


def test_rank_function_against_oracle():
    for m in [U(2, 4), U(3, 5), Matroid.graphic([(1, 2), (1, 3), (2, 3)]),
              Matroid.from_bases(4, [{1, 2}, {1, 3}, {1, 4}]),
              U(1, 2).direct_sum(U(2, 3))]:
        for mask in range(1 << m.n):
            assert m.rank(mask) == oracle_rank(m.bases_masks, mask)


def test_rank_table_against_basis_scan():
    cases = list(matroid_corpus())
    cases += [U(2, 5).direct_sum(U(3, 7)), U(0, 3).direct_sum(U(4, 4)),
              Matroid.graphic([(1, 2), (2, 3), (1, 3), (3, 4)]).direct_sum(
                  U(3, 8))]
    assert max(m.n for m in cases) == 12
    for m in cases:
        table = rank_table(m)
        assert table.dtype == np.int8 and len(table) == 1 << m.n
        assert table.tolist() == [oracle_rank(m.bases_masks, s)
                                  for s in range(1 << m.n)]


def test_rank_table_of_uniform_matroids():
    # rk(S) = min(r, |S|) in U(r, n)
    for n in range(13):
        sizes = [bin(s).count("1") for s in range(1 << n)]
        for r in range(n + 1):
            assert rank_table(U(r, n)).tolist() == [min(r, k) for k in sizes]


def test_rank_reads_table_once_built():
    m = Matroid.from_bases(4, [{1, 2}, {1, 3}, {1, 4}])
    before = [m.rank(s) for s in range(16)]
    rank_table(m)
    assert [m.rank(s) for s in range(16)] == before
    assert m.rank({2, 3, 4}) == 1


def test_rank_table_admission_guard():
    m = U(1, RANK_TABLE_MAX + 1)
    fm = FlagMatroid((m,), _trusted=True)
    point = (1,) + (0,) * RANK_TABLE_MAX
    t0 = time.perf_counter()
    for call in (lambda: rank_table(m), lambda: is_quotient(m, m),
                 lambda: pseudo_basis_masks(m, m),
                 lambda: fm.polytope_membership(point)):
        with pytest.raises(GroundSetTooLarge):
            call()
    assert time.perf_counter() - t0 < 1.0
    # point queries never need the table
    assert m.rank(range(1, RANK_TABLE_MAX + 2)) == 1


def test_is_basis_takes_element_lists_and_masks():
    m = Matroid.from_bases(4, [{1, 2}, {1, 3}])
    assert m.is_basis([1, 2]) and m.is_basis((3, 1)) and m.is_basis({1, 3})
    assert not m.is_basis([2, 3]) and not m.is_basis([1])
    assert m.is_basis(0b0011) and m.is_basis(0b0101)
    assert not m.is_basis(0b0110) and not m.is_basis(0)
    for outside in ([1, 5], [0, 1], 1 << 4, -1):
        with pytest.raises(GroundSetMismatch):
            m.is_basis(outside)


def test_loops_coloops():
    m = Matroid.from_bases(4, [{1, 2}, {1, 3}])
    assert m.loops() == frozenset({4})
    assert m.coloops() == frozenset({1})


# ------------------------------------------------------- derived matroids


def test_dual():
    assert U(1, 3).dual() == U(2, 3)
    m = Matroid.graphic([(1, 2), (1, 3), (2, 3), (3, 4)])
    assert m.dual().dual() == m
    # dual rank complements
    assert m.dual().rank_value == m.n - m.rank_value


def test_direct_sum():
    m = U(1, 2).direct_sum(U(1, 2))
    assert m.n == 4
    assert m.rank_value == 2
    assert m.rank({1, 2}) == 1
    assert len(m.bases_masks) == 4


def test_minor_and_relabel():
    m = U(2, 4)
    d, relabel = m.minor(delete=(2,))
    assert d == U(2, 3)
    assert relabel == {1: 1, 3: 2, 4: 3}
    c, relabel = m.minor(contract=(2,))
    assert c == U(1, 3)
    both, relabel = m.minor(delete=(1,), contract=(4,))
    assert both == U(1, 2)
    assert relabel == {2: 1, 3: 2}
    with pytest.raises(GroundSetExhausted):
        U(1, 2).minor(delete=(1, 2))


def _minor_by_scan(m, d, c):
    """The bases of M / c with d deleted, relabelled, by a rank test of
    every subset of the kept elements of the minor's rank."""
    kept = [i for i in range(m.n) if not (d | c) >> i & 1]
    keep = sum(1 << i for i in kept)
    rc = oracle_rank(m.bases_masks, c)
    r = oracle_rank(m.bases_masks, keep | c) - rc
    return sorted(sum(1 << p for p in combo)
                  for combo in combinations(range(len(kept)), r)
                  if oracle_rank(m.bases_masks,
                                 sum(1 << kept[p] for p in combo) | c)
                  == r + rc)


def test_minor_matches_a_rank_scan_over_the_corpus():
    # every corpus matroid, each with seeded disjoint (delete, contract)
    # pairs that keep at least one element
    rng = random.Random(20261020)
    for m in matroid_corpus():
        for _ in range(6):
            roles = [rng.randrange(3) for _ in range(m.n)]
            if 0 not in roles:
                roles[rng.randrange(m.n)] = 0
            d = {i + 1 for i, role in enumerate(roles) if role == 1}
            c = {i + 1 for i, role in enumerate(roles) if role == 2}
            got, relabel = m.minor(delete=d, contract=c)
            want = _minor_by_scan(m, _mask_of(d, m.n), _mask_of(c, m.n))
            assert got.key() == (len(relabel), tuple(want)), (m, d, c)


def test_truncation():
    assert U(2, 3).truncation() == U(1, 3)
    m = Matroid.graphic([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    t = m.truncation()
    assert t.rank_value == 2
    assert is_quotient(t, m)
    with pytest.raises(InvalidRank):
        U(0, 2).truncation()


# ------------------------------------------------------------- quotients


def test_is_quotient_examples():
    assert is_quotient(U(1, 3), U(2, 3))
    assert not is_quotient(U(2, 3), U(1, 3))
    assert is_quotient(U(0, 4), U(2, 4))
    # equal ranks force equality
    m = Matroid.from_bases(2, [{1}])
    assert not is_quotient(m, U(1, 2))
    assert is_quotient(m, m)


def test_is_quotient_against_oracle():
    mats = [U(0, 3), U(1, 3), U(2, 3), U(3, 3),
            Matroid.from_bases(3, [{1, 2}, {1, 3}]),
            Matroid.from_bases(3, [{1}, {3}])]
    for m1 in mats:
        for m2 in mats:
            assert is_quotient(m1, m2) == oracle_is_quotient(m1, m2)


def test_is_quotient_on_edges_along_high_bits():
    # d = rk2 - rk1 drops only when the last element joins, an edge past
    # the low bits that the one comparison covers
    for n in (7, 9, 12):
        coloop = U(2, n - 1).direct_sum(U(1, 1))
        loop = U(2, n - 1).direct_sum(U(0, 1))
        assert not is_quotient(coloop, loop)
        assert is_quotient(loop, coloop)
        assert is_quotient(loop, coloop) == oracle_is_quotient(loop, coloop)


def test_flag_validation():
    fm = flag(U(1, 3), U(2, 3))
    assert fm.ranks == (1, 2)
    assert fm.k == 2
    with pytest.raises(NotAQuotientChain):
        flag(U(2, 3), U(1, 3))
    with pytest.raises(GroundSetMismatch):
        FlagMatroid((U(1, 3), U(1, 4)))


def test_flag_bases_enumeration():
    fm = flag(U(1, 3), U(2, 3))
    fbs = fm.flag_bases()
    assert len(fbs) == 6
    for fb in fbs:
        assert fb[0] & ~fb[1] == 0  # nested masks
        assert fm.is_flag_basis(fb)
    # repetition allowed: (M, M) flags are the diagonal
    fm = flag(U(2, 3), U(2, 3))
    assert len(fm.flag_bases()) == 3


def test_is_quotient_against_oracle_on_corpus():
    by_n = {}
    for m in matroid_corpus():
        if m.n <= 4:
            by_n.setdefault(m.n, []).append(m)
    pairs = [(m1, m2) for ms in by_n.values() for m1 in ms for m2 in ms]
    assert len(pairs) == 1073
    verdicts = [is_quotient(m1, m2) for m1, m2 in pairs]
    assert sum(verdicts) == 259
    assert verdicts == [oracle_is_quotient(m1, m2) for m1, m2 in pairs]


def test_polytope_membership():
    # points of the Minkowski sum have coordinate sum r1 + ... + rk
    fm = flag(U(1, 3), U(2, 3))
    assert fm.polytope_membership((2, 1, 0))
    assert fm.polytope_membership((1, 1, 1))
    assert fm.polytope_membership((3, 0, 0)) is False
    assert fm.polytope_membership((1, 1, 0)) is False
    one_step = flag(U(2, 4))
    assert one_step.polytope_membership((1, 1, 0, 0))
    assert one_step.polytope_membership((2, 0, 0, 0)) is False


def test_pseudo_bases_sizes():
    # spanning in the first constituent, independent in the second
    masks = pseudo_basis_masks(U(1, 3), U(2, 3))
    sizes = {}
    for m in masks:
        sizes[bin(m).count("1")] = sizes.get(bin(m).count("1"), 0) + 1
    assert sizes == {1: 3, 2: 3}
    # (M, M): exactly the bases of M
    masks = pseudo_basis_masks(U(2, 4), U(2, 4))
    assert sorted(masks) == sorted(U(2, 4).bases_masks)
    # brute-force oracle on (U_{1,4}, U_{3,4})
    m1, m2 = U(1, 4), U(3, 4)
    expect = set()
    for s in range(1, 1 << 4):
        if (oracle_rank(m1.bases_masks, s) == 1
                and oracle_rank(m2.bases_masks, s) == bin(s).count("1")):
            expect.add(s)
    assert set(pseudo_basis_masks(m1, m2)) == expect
    assert {frozenset(b) for b in pseudo_bases(m1, m2)} == {
        frozenset(_set_of(s)) for s in expect}


def test_higgs_factorization():
    layers = higgs_factorization(U(1, 4), U(3, 4))
    assert len(layers) == 3
    assert layers[0] == U(3, 4)
    assert layers[-1] == U(1, 4)
    assert layers[1] == U(2, 4)
    for lower, upper in zip(layers[1:], layers[:-1]):
        assert is_quotient(lower, upper)
        assert upper.rank_value - lower.rank_value == 1
    # non-uniform: elementary steps stay quotients
    m2 = Matroid.graphic([(1, 2), (1, 3), (2, 3), (1, 4)])
    layers = higgs_factorization(U(1, 4), m2)
    assert layers[0] == m2 and layers[-1] == U(1, 4)
    for lower, upper in zip(layers[1:], layers[:-1]):
        assert is_quotient(lower, upper)


def test_face_basis_nested():
    fm = flag(U(1, 3), U(2, 3))
    fb = face_basis(fm, [{2}, {1, 2, 3}])
    assert fm.is_flag_basis(fb)
    assert fb[0] & ~fb[1] == 0
    # the greedy favors the chain: first block first, ascending labels
    assert _set_of(fb[0]) == frozenset({2})


def test_flag_dual_and_direct_sum():
    fm = flag(U(1, 3), U(2, 3))
    d = flag_dual(fm)
    assert d.ranks == (1, 2)
    assert d.constituents[0] == U(2, 3).dual()
    assert d.constituents[1] == U(1, 3).dual()
    s = flag_direct_sum(flag(U(1, 2)), flag(U(1, 3)))
    assert s.n == 5
    assert s.ranks == (2,)
    assert flag_dual(flag_dual(fm)) == fm


def test_keys_deterministic():
    assert U(2, 4).key() == U(2, 4).key()
    assert flag(U(1, 3), U(2, 3)).key() == flag(U(1, 3), U(2, 3)).key()
    assert U(1, 3).key() != U(1, 3).dual().key()
    assert U(2, 4).key() == U(2, 4).dual().key()  # self-dual
