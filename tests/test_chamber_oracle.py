"""A triangulation-free oracle for the flag routes: braid-fan chambers.

The polytope of a flag matroid is a generalized permutohedron, so the braid
fan refines its normal fan (Postnikov, Reiner and Williams, "Faces of
generalized permutohedra", 2008).  Modulo cones that contain lines, polarity
is a valuation, so the tangent cone at a vertex has the generating function
of the sum, over the permutations pi whose chamber lies in the vertex's
normal cone, of the closed unimodular cone on the rays e_pi(i+1) - e_pi(i).
The vertex of chamber pi is the greedy flag basis along pi.  For a connected
flag, whose polytope spans the sum-zero hyperplane, these cells replace the
whole triangulation layer (tangent generators, extreme rays, the placing
loop, half-open flags, relabelling and the map-back) while the numerators
and both cores stay; kt and kt_equivariant must not change.
"""

from functools import cache
from itertools import permutations

import numpy as np

from flagtutte import clear_caches, flag_corpus, invariants, kt, kt_equivariant
from flagtutte.invariants import _FlagCells
from flagtutte.matroid import rank_table
from oracles import forest_frames


@cache
def _path_frames(n):
    """The tree-flow frames of the chamber cells of every permutation of
    range(n), in the order of itertools.permutations."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    return forest_frames(perms[:, :-1], perms[:, 1:], n)


def _chamber_cells(fm, flag_cells):
    """_FlagCells of a connected flag with one closed cell per chamber.

    Cell pi has the rays e_pi(i+1) - e_pi(i) and is owned by the greedy flag
    basis along pi: per constituent, pi's element at step i joins the basis
    when the rank of pi's first i + 1 elements grows.  Each chamber is its
    own class cell, with its tree-flow frame (_path_frames) and no
    relabelling; slots and levels are those of flag_cells(fm).
    """
    n = fm.n
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    bits = np.int64(1) << perms
    prefix = np.cumsum(bits, axis=1)
    # the chain of masks as one number, ordered as flag_bases() orders them
    chain = np.zeros(len(perms), dtype=np.int64)
    for m in fm.constituents:
        grew = np.diff(rank_table(m)[prefix], axis=1, prepend=0) > 0
        chain = (chain << n) | (bits * grew).sum(axis=1)
    bases = np.zeros(len(fm.flag_bases()), dtype=np.int64)
    for level in range(fm.k):
        masks = np.array([fb[level] for fb in fm.flag_bases()], dtype=np.int64)
        bases = (bases << n) | masks
    owner = np.searchsorted(bases, chain)
    assert (bases[owner] == chain).all()
    order = np.argsort(owner, kind="stable")
    perms, owner = perms[order], owner[order]
    real = flag_cells(fm)
    return _FlagCells(perms[:, :-1].astype(np.int8),
                      perms[:, 1:].astype(np.int8),
                      np.zeros((len(perms), n - 1), dtype=bool), owner,
                      _path_frames(n), order,
                      np.broadcast_to(np.arange(n), real.slots.shape),
                      real.slots, real.levels)


def test_chamber_cells_give_the_flag_route_values(monkeypatch):
    flags = [fm for fm in flag_corpus()
             if len(invariants._flag_blocks(fm)) == 1]
    assert len(flags) == 375
    # every third n = 6 flag keeps the equivariant run short
    equivariant = [fm for i, fm in enumerate(flags)
                   if fm.ranks[0] >= 1 and (fm.n < 6 or i % 3 == 0)]
    clear_caches()
    try:
        want = ([kt(fm).canonical_str() for fm in flags],
                [kt_equivariant(fm).canonical_str() for fm in equivariant])
        flag_cells = invariants._flag_cells
        monkeypatch.setattr(invariants, "_flag_cells",
                            lambda fm: _chamber_cells(fm, flag_cells))
        clear_caches()
        got = ([kt(fm).canonical_str() for fm in flags],
               [kt_equivariant(fm).canonical_str() for fm in equivariant])
    finally:
        clear_caches()
    assert len(equivariant) > 200
    assert got[0] == want[0]
    assert got[1] == want[1]
