"""Deterministic families of small matroids and quotients used by tests and the CLI.

Everything here is generated in a fixed order with no randomness, so repeated
runs (and the golden CLI output) see byte-identical corpora.  The matroid
family approximates "all matroids on at most six elements" by closing a seed
list (uniforms, graphic matroids of every simple graph on at most four
vertices plus a few larger cycles, matrix-realized extensions) under duality
and small direct sums, then deduplicating by labeled basis family.
"""

from fractions import Fraction

from .errors import InternalAssertion
from .matroid import FlagMatroid, Matroid, flag, is_quotient

MAX_GROUND = 6

_K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Fixed realizations over Q: parallel elements, a loop, generic extensions,
# and rank-3 configurations that are neither uniform nor graphic-labeled.
_MATRICES = (
    [[1, 0, 1, 1], [0, 1, 1, 2]],
    [[1, 0, 1, 1], [0, 1, 1, 1]],
    [[1, 0, 1, 0], [0, 1, 1, 0]],
    [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 3]],
    [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]],
    [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]],
    [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 4], [0, 0, 1, 1, 3, 9]],
    [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 2, 1], [0, 0, 1, 1, 3, 1]],
    [[1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 2], [0, 0, 1, 0, 1, 3], [0, 0, 0, 1, 1, 4]],
    [[1, 0, 1, 2, 1, 0], [0, 1, 1, 1, 0, 1]],
    [[1, 1, 1, 1, 1, 1]],
    [[1, 0, 0, Fraction(1, 2), 1], [0, 1, 0, 1, Fraction(1, 3)], [0, 0, 1, 1, 1]],
)


def _cycle_edges(length):
    return tuple((i, i % length + 1) for i in range(1, length + 1))


def _seed_matroids():
    out = []
    for n in range(1, MAX_GROUND + 1):
        for r in range(0, n + 1):
            out.append(Matroid.uniform(r, n))
    # every nonempty edge subset of K4, edges relabeled 1..|subset| in order
    for mask in range(1, 1 << len(_K4_EDGES)):
        edges = [e for i, e in enumerate(_K4_EDGES) if mask >> i & 1]
        out.append(Matroid.graphic(edges, n_vertices=4))
    out.append(Matroid.graphic(_cycle_edges(5)))
    out.append(Matroid.graphic(_cycle_edges(6)))
    for rows in _MATRICES:
        out.append(Matroid.from_matrix(rows))
    return out


def matroid_corpus():
    """The deterministic matroid family (ground sets of at most six elements).

    Seeds, their duals, and pairwise direct sums of small uniforms, in a fixed
    construction order, deduplicated by labeled basis family.
    """
    return _matroids()[1]


def _matroids():
    """(the seed list, matroid_corpus() closed from it)."""
    seeds = _seed_matroids()
    out = {}

    def add(m):
        if m.n <= MAX_GROUND:
            out.setdefault(m.key(), m)

    for m in seeds:
        add(m)
    for m in seeds:
        add(m.dual())
    uniforms = [Matroid.uniform(r, n)
                for n in range(1, MAX_GROUND) for r in range(0, n + 1)]
    for m1 in uniforms:
        for m2 in uniforms:
            if m1.n + m2.n <= MAX_GROUND:
                add(m1.direct_sum(m2))
    small = [u for u in uniforms if u.n <= 2]
    for s in seeds:
        if s.n < 2 or s.n > 4:
            continue
        for u in small:
            if s.n + u.n <= MAX_GROUND:
                add(s.direct_sum(u))
                add(u.direct_sum(s))
    for m in list(out.values()):
        add(m.dual())
    return seeds, list(out.values())


def quotient_corpus():
    """Deterministic two-step quotient pairs (m1, m2) with m1 a quotient of m2.

    Composition: identity pairs (M, M); truncation pairs (T(M), M); all nested
    uniform pairs on a common ground set; rank-zero and rank-one bottoms
    (U_{0,n}, M) and (U_{1,n}, M) for loopless M; and elementary pairs
    (N/e, N\\e) from deleting/contracting one element of a seed matroid.
    Deduplicated by the pair of labeled basis families.
    """
    return _quotients(*_matroids())


def _quotients(seeds, corpus):
    """quotient_corpus() from _matroids(), each pair checked once."""
    out = {}

    def add(m1, m2):
        out.setdefault((m1.key(), m2.key()), (m1, m2))

    for m in corpus:
        add(m, m)
    for m in corpus:
        full = (1 << m.n) - 1
        if m.rank(full) >= 1:
            add(m.truncation(), m)
    for n in range(1, MAX_GROUND + 1):
        for a in range(0, n + 1):
            for b in range(a, n + 1):
                add(Matroid.uniform(a, n), Matroid.uniform(b, n))
    for m in corpus:
        add(Matroid.uniform(0, m.n), m)
        if not m.loops():
            add(Matroid.uniform(1, m.n), m)
    for m in seeds:
        if m.n > MAX_GROUND or m.n < 2:
            continue
        full = (1 << m.n) - 1
        for e in range(1, m.n + 1):
            bit = 1 << (e - 1)
            if m.rank(full ^ bit) < m.rank(full) or m.rank(bit) == 0:
                continue  # e is a coloop or a loop
            contracted, _ = m.minor(contract=(e,))
            deleted, _ = m.minor(delete=(e,))
            add(contracted, deleted)
    for m1, m2 in out.values():
        if not is_quotient(m1, m2):
            raise InternalAssertion("a corpus pair is not a quotient")
    return list(out.values())


def flag_corpus():
    """Flag matroids for identity sweeps: every corpus matroid as a one-step
    flag, plus every quotient-corpus pair as a two-step flag."""
    seeds, corpus = _matroids()
    return [flag(m) for m in corpus] + [
        FlagMatroid(pair, _trusted=True) for pair in _quotients(seeds, corpus)]


def corpus_summary():
    """Counts by ground-set size, for the CLI corpus verb."""
    seeds, ms = _matroids()
    qs = _quotients(seeds, ms)
    by_n = {}
    for m in ms:
        by_n[m.n] = by_n.get(m.n, 0) + 1
    q_by_n = {}
    for _, m2 in qs:
        q_by_n[m2.n] = q_by_n.get(m2.n, 0) + 1
    return {
        "matroids": len(ms),
        "matroids_by_n": by_n,
        "quotients": len(qs),
        "quotients_by_n": q_by_n,
    }
