"""Polynomial invariants: frozen values, classical oracles, error paths.

The deletion-contraction oracle recomputes Tutte polynomials recursively,
independently of the corank-nullity sum used by the library.
"""

import hashlib
import json
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from flagtutte import (AuxPolynomial, EquivariantPolynomial, FlagMatroid,
                       Matroid, beta_invariant, beta_polynomial,
                       characteristic, clear_caches, compute_invariant,
                       count_lattice_points, flag, flag_corpus,
                       h_candidate_lv, h_polynomial, h_value_uv, k_char, kt,
                       kt_equivariant, lv_tutte, lv_tutte_equivariant,
                       poincare, quotient_corpus, reduced_beta_via_higgs,
                       tutte)
from flagtutte import cones, genfun, invariants
from flagtutte.errors import (GroundSetTooLarge, HasLoopOrColoop,
                              InputError, NotAQuotient, RankGapZero,
                              RankZeroConstituent, UnknownInvariant)
from flagtutte.invariants import _flag_kernels, _ktt_support
from flagtutte.corpus import matroid_corpus
from flagtutte.matroid import RANK_TABLE_MAX, pseudo_basis_masks

U = Matroid.uniform

X = AuxPolynomial.variable("x")
Y = AuxPolynomial.variable("y")
Z = AuxPolynomial.variable("z")
Q = AuxPolynomial.variable("q")
S = AuxPolynomial.variable("s")


def binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ----------------------------------------------------------------- oracles


def tutte_delcont_oracle(m):
    """Recursive deletion-contraction evaluation of the Tutte polynomial."""
    if m.n == 0:
        return AuxPolynomial.constant(1)
    e = m.n  # elements are labelled 1..n
    if e in m.loops():
        sub, _ = m.minor(delete=(e,)) if m.n > 1 else (None, None)
        base = tutte_delcont_oracle(sub) if sub else AuxPolynomial.constant(1)
        return Y * base
    if e in m.coloops():
        sub, _ = m.minor(contract=(e,)) if m.n > 1 else (None, None)
        base = tutte_delcont_oracle(sub) if sub else AuxPolynomial.constant(1)
        return X * base
    d, _ = m.minor(delete=(e,))
    c, _ = m.minor(contract=(e,))
    return tutte_delcont_oracle(d) + tutte_delcont_oracle(c)


def whitney_characteristic_oracle(m):
    """chi(q) = sum over subsets of (-1)^|S| q^{r - rk(S)}."""
    total = AuxPolynomial.zero(("q",))
    for s in range(1 << m.n):
        sign = -1 if bin(s).count("1") % 2 else 1
        total = total + sign * Q ** (m.rank_value - m.rank(s))
    return total


ORACLE_MATROIDS = [
    U(0, 1), U(1, 1), U(0, 3), U(1, 2), U(1, 3), U(2, 3), U(2, 4), U(3, 4),
    U(2, 5), U(3, 5), U(5, 5),
    Matroid.graphic([(1, 2), (2, 3), (1, 3)]),
    Matroid.graphic([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    Matroid.graphic([(1, 2), (1, 2), (2, 3)]),
    Matroid.from_bases(3, [{1, 2}, {1, 3}]),
    Matroid.from_bases(3, [{1}, {3}]),
    Matroid.from_bases(4, [{1, 2}, {1, 3}, {1, 4}]),
    Matroid.from_matrix([[1, 0, 1, Fraction(1, 2)], [0, 1, 1, 0]]),
    U(1, 2).direct_sum(U(1, 2)),
    U(1, 3).direct_sum(U(2, 3)),
    U(2, 4).dual(),
    Matroid.graphic([(1, 2), (1, 3), (2, 3), (3, 4)]).dual(),
]


# ------------------------------------------------------------------- tutte


def test_tutte_frozen_examples():
    assert tutte(U(1, 2)).canonical_str() == "x + y"
    assert tutte(U(2, 3)).canonical_str() == "x^2 + x + y"


def test_tutte_against_deletion_contraction():
    for m in ORACLE_MATROIDS:
        assert tutte(m) == tutte_delcont_oracle(m), m


def test_tutte_classical_specializations():
    for m in ORACLE_MATROIDS:
        t = tutte(m)
        n_indep = sum(1 for s in range(1 << m.n)
                      if m.rank(s) == bin(s).count("1"))
        n_span = sum(1 for s in range(1 << m.n)
                     if m.rank(s) == m.rank_value)
        assert t.evaluate({"x": 1, "y": 1}) == len(m.bases_masks)
        assert t.evaluate({"x": 2, "y": 2}) == 2 ** m.n
        assert t.evaluate({"x": 2, "y": 1}) == n_indep
        assert t.evaluate({"x": 1, "y": 2}) == n_span


def test_characteristic_against_whitney_sum():
    for m in ORACLE_MATROIDS:
        assert characteristic(m) == whitney_characteristic_oracle(m), m


def test_characteristic_vanishes_with_loop():
    m = Matroid.from_bases(3, [{1}, {3}])
    assert characteristic(m).is_zero()
    assert characteristic(U(2, 3)) == Q ** 2 - 3 * Q + 2


# ---------------------------------------------------------------- lv_tutte


def test_lv_tutte_frozen_example():
    assert lv_tutte(U(1, 3), U(2, 3)).canonical_str() == "x*z + y + 2*z + 2"


def test_lv_tutte_collapses_to_tutte():
    for m in [U(2, 3), U(2, 4), Matroid.graphic([(1, 2), (2, 3), (1, 3)])]:
        assert lv_tutte(m, m) == tutte(m)


def test_lv_tutte_rank_zero_bottom():
    for m in [U(1, 3), U(2, 4)]:
        zero = U(0, m.n)
        expect = tutte(m).substitute({"x": Z + 1})
        assert lv_tutte(zero, m) == expect


def test_lv_tutte_at_2_2_1():
    for m1, m2 in [(U(1, 3), U(2, 3)), (U(1, 4), U(3, 4)),
                   (U(0, 5), U(2, 5))]:
        val = lv_tutte(m1, m2).evaluate({"x": 2, "y": 2, "z": 1})
        assert val == 2 ** m1.n


def test_lv_tutte_rejects_non_quotient():
    with pytest.raises(NotAQuotient):
        lv_tutte(U(2, 3), U(1, 3))


def test_lv_tutte_equivariant_examples():
    u = AuxPolynomial.variable("u")
    phi = lv_tutte_equivariant(U(1, 1), U(1, 1))
    assert phi == EquivariantPolynomial(1, {(0,): u, (1,): 1})
    phi = lv_tutte_equivariant(U(1, 3), U(2, 3))
    vals = dict(phi.items())
    assert vals[(1, 1, 0)] == AuxPolynomial.constant(1)
    # collapsing the grading reproduces the three-variable polynomial
    collapsed = phi.specialize_t1().substitute(
        {"u": X - 1, "v": Y - 1, "w": Z})
    assert collapsed == lv_tutte(U(1, 3), U(2, 3))


# ---------------------------------------------------------------------- kt


def test_kt_frozen_two_step():
    fm = flag(U(1, 3), U(2, 3))
    assert kt(fm).canonical_str() == (
        "x^2*y^2 + x^2*y + x*y^2 + x^2 + 2*x*y + y^2")


def test_kt_frozen_slices():
    assert kt(flag(U(0, 2), U(1, 2))) == X * Y ** 2 + Y ** 2
    assert kt(flag(U(1, 2), U(1, 2))) == X * Y + X + Y
    assert kt(flag(U(1, 2), U(2, 2))) == X ** 2 * Y + X ** 2
    assert kt(flag(U(0, 3), U(1, 3))) == X * Y ** 3 + 2 * Y ** 3


def test_kt_single_step_is_tutte():
    for m in [U(1, 2), U(2, 3), U(2, 4),
              Matroid.graphic([(1, 2), (2, 3), (1, 3)]),
              Matroid.from_bases(3, [{1, 2}, {1, 3}])]:
        assert kt(flag(m)) == tutte(m), m


def test_kt_at_2_2():
    fm = flag(U(1, 3), U(2, 3))
    assert kt(fm).evaluate({"x": 2, "y": 2}) == 48


def test_kt_equivariant_singleton():
    u = AuxPolynomial.variable("u")
    phi = kt_equivariant(flag(U(1, 1)))
    assert phi.specialize_t1().substitute({"u": X - 1, "v": Y - 1}) == \
        tutte(U(1, 1))
    assert phi == EquivariantPolynomial(1, {(0,): u, (1,): 1})


def test_kt_equivariant_scales_to_eight_elements(monkeypatch):
    # apex boxes too large for a per-point crawl: the support core must
    # handle them alone, and the t = 1 value must still be kt
    def crawl(*args, **kwargs):
        raise AssertionError("per-point support path reached")

    monkeypatch.setattr(genfun, "coefficient_at", crawl)
    for fm in [flag(U(1, 8), U(2, 8)), flag(U(2, 7), U(3, 7))]:
        phi = kt_equivariant(fm)
        assert phi.specialize_t1().substitute(
            {"u": X - 1, "v": Y - 1}) == kt(fm)


def test_kt_equivariant_rejects_rank_zero():
    with pytest.raises(RankZeroConstituent):
        kt_equivariant(flag(U(0, 3), U(1, 3)))
    # the plain polynomial still covers that case
    assert kt(flag(U(0, 3), U(1, 3))) == X * Y ** 3 + 2 * Y ** 3


def test_count_lattice_points():
    fm = flag(U(1, 3), U(2, 3))
    assert count_lattice_points(fm) == 7
    assert kt(fm).evaluate({"x": 1, "y": 1}) == 7


# ---------------------------------------------------------------- h family


def test_h_frozen_values():
    assert h_polynomial(flag(U(1, 2))) == S
    assert h_polynomial(flag(U(1, 3), U(2, 3))) == S ** 2
    assert h_polynomial(flag(U(2, 4), U(3, 4))) == S ** 2


def test_h_value_uv():
    u = AuxPolynomial.variable("u")
    v = AuxPolynomial.variable("v")
    assert h_value_uv(flag(U(1, 2))) == 1 - u * v


def test_h_rejects_loops_and_coloops():
    with pytest.raises(HasLoopOrColoop):
        h_polynomial(flag(U(1, 1)))  # coloop
    with pytest.raises(HasLoopOrColoop):
        h_polynomial(flag(Matroid.from_bases(3, [{1}, {3}])))  # loop


def test_h_candidate_frozen_values():
    u = AuxPolynomial.variable("u")
    v = AuxPolynomial.variable("v")
    poly, in_uv = h_candidate_lv(flag(U(1, 2)))
    assert poly == 1 - u * v and in_uv
    poly, in_uv = h_candidate_lv(flag(U(1, 3), U(2, 3)))
    assert poly == -2 * u and not in_uv
    poly, in_uv = h_candidate_lv(flag(U(2, 4), U(3, 4)))
    assert poly == -(u ** 2) * v - 2 * u and not in_uv
    poly, in_uv = h_candidate_lv(flag(U(2, 4), U(2, 4)))
    assert poly == 1 - u ** 2 * v ** 2 and in_uv


# -------------------------------------------------------------- beta family


def test_beta_polynomial_frozen():
    beta, reduced = beta_polynomial(U(1, 3), U(2, 3))
    assert beta == 2 * Q - 2
    assert reduced == AuxPolynomial.constant(2)
    assert reduced_beta_via_higgs(U(1, 3), U(2, 3)) == \
        AuxPolynomial.constant(2)


def test_beta_polynomial_rank_zero_bottom_is_characteristic():
    for m in [U(1, 3), U(2, 4), Matroid.graphic([(1, 2), (2, 3), (1, 3)])]:
        beta, _ = beta_polynomial(U(0, m.n), m)
        assert beta == characteristic(m), m


def test_beta_errors():
    with pytest.raises(RankGapZero):
        beta_polynomial(U(2, 3), U(2, 3))
    with pytest.raises(NotAQuotient):
        beta_polynomial(U(2, 3), U(1, 3))
    with pytest.raises(RankGapZero):
        reduced_beta_via_higgs(U(2, 3), U(2, 3))


def test_beta_invariant_uniform_binomial():
    for n in range(2, 7):
        for r in range(1, n):
            assert beta_invariant(U(r, n)) == binom(n - 2, r - 1), (r, n)


def test_beta_invariant_is_x_coefficient():
    # for a connected matroid on >= 2 elements, beta is the coefficient
    # of x in the Tutte polynomial
    for m in [U(1, 2), U(2, 3), U(2, 4), U(3, 5),
              Matroid.graphic([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                               (3, 4)])]:
        t = tutte(m)
        assert beta_invariant(m) == t.coefficient(x=1, y=0), m


def test_beta_invariant_loops():
    assert beta_invariant(Matroid.from_bases(3, [{1}, {3}])) == 0
    assert beta_invariant(U(0, 2)) == 0


# --------------------------------------------------- derived specializations


def test_poincare_frozen():
    p = poincare(U(1, 3), U(2, 3))
    assert p == Q * S - 3 * S + 2
    assert p.canonical_str() == "q*s - 3*s + 2"


def test_k_char_frozen():
    assert k_char(flag(U(1, 3), U(2, 3))) == Q ** 2 - 2 * Q + 1
    # single step: matches the classical characteristic polynomial
    assert k_char(flag(U(2, 3))) == characteristic(U(2, 3))


# --------------------------------------------------------- dispatch surface


def test_compute_invariant_all_names():
    fm = flag(U(1, 3), U(2, 3))
    m = U(2, 3)
    cases = {
        "tutte": (m, tutte(m)),
        "characteristic": (m, characteristic(m)),
        "lvt": (fm, lv_tutte(U(1, 3), U(2, 3))),
        "kt": (fm, kt(fm)),
        "h": (fm, S ** 2),
        "h-lv": (fm, h_candidate_lv(fm)[0]),
        "beta": (fm, 2 * Q - 2),
        "beta-reduced": (fm, AuxPolynomial.constant(2)),
        "beta-invariant": (m, AuxPolynomial.constant(1)),
        "poincare": (fm, Q * S - 3 * S + 2),
        "kchar": (fm, Q ** 2 - 2 * Q + 1),
    }
    for name, (obj, expect) in cases.items():
        res = compute_invariant(name, obj)
        assert res.polynomial == expect, name
        assert res.metadata["invariant"] == name
        assert res.equivariant is None
    assert compute_invariant("kt", fm, equivariant=True).equivariant \
        is not None
    assert compute_invariant("lvt", fm, equivariant=True).equivariant \
        is not None


def test_compute_invariant_errors():
    with pytest.raises(UnknownInvariant):
        compute_invariant("nope", U(1, 2))
    with pytest.raises(InputError):
        compute_invariant("tutte", flag(U(1, 3), U(2, 3)))
    with pytest.raises(RankGapZero):
        compute_invariant("beta", U(2, 3))


def test_compute_invariant_equivariant_only_where_registered():
    fm = flag(U(1, 3), U(2, 3))
    expect = {"kt": kt_equivariant(fm),
              "lvt": lv_tutte_equivariant(U(1, 3), U(2, 3))}
    for name, entry in invariants._INVARIANTS.items():
        obj = U(2, 3) if entry.kind is invariants._matroid_args else fm
        res = compute_invariant(name, obj, equivariant=True)
        assert res.equivariant == expect.get(name), name
        assert (entry.equivariant is not None) == (name in expect), name


def test_matroid_invariants_accept_one_step_flags():
    assert compute_invariant("tutte", flag(U(1, 2))).polynomial == X + Y
    # a single matroid works anywhere a quotient pair is expected
    assert compute_invariant("lvt", U(2, 3)).polynomial == tutte(U(2, 3))


# ----------------------------------------------------------- golden digests


def _digest(polys):
    h = hashlib.sha256()
    for p in polys:
        h.update(p.canonical_str().encode())
        h.update(b"\n")
    return h.hexdigest()


def test_kt_golden_digest_over_corpus():
    flags = flag_corpus()[::6]
    assert len(flags) == 200
    assert _digest(kt(fm) for fm in flags) == (
        "320b5138b95e5e766666417ee9e472324557e35d1ead399c98b53f2723a43e3c")


def test_kt_golden_digest_over_full_corpus():
    flags = flag_corpus()
    assert len(flags) == 1200
    assert _digest(kt(fm) for fm in flags) == (
        "e4a52fce4ade6cd9a494b53a426e9d3e0b26fef9c9677589bfc87ee9941ef6e9")


def _digest_or_error(fn, flags):
    """_digest of fn over flags, a raising flag recorded by error class."""
    h = hashlib.sha256()
    for fm in flags:
        try:
            line = fn(fm).canonical_str()
        except Exception as exc:
            line = type(exc).__name__
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_h_polynomial_golden_digest_over_full_corpus():
    # 996 of the 1,200 flags raise HasLoopOrColoop
    assert _digest_or_error(h_polynomial, flag_corpus()) == (
        "b070767ec06bda1f2be8a7e2e426934b772a53c5d3fff617cb31e32e0730b2ca")


def test_k_char_golden_digest_over_full_corpus():
    assert _digest_or_error(k_char, flag_corpus()) == (
        "dcf4d1b31c413e515fc78165a68fdf9e4515ee3fa0d00084425380bcbeaf793c")


def test_kt_equivariant_golden_digest_over_corpus():
    flags = [fm for fm in flag_corpus() if fm.ranks[0] >= 1][::12]
    assert len(flags) == 77
    assert _digest(kt_equivariant(fm) for fm in flags) == (
        "7690e34985e67eb72ee8d97f762c0802b1e334c3c2859786d68e9e1cc620d00a")


def test_kt_equivariant_golden_digest_over_every_third_flag():
    # support-core scatter over 305 flags, one in three with ranks[0] >= 1
    flags = [fm for fm in flag_corpus() if fm.ranks[0] >= 1][::3]
    assert len(flags) == 305
    assert _digest(kt_equivariant(fm) for fm in flags) == (
        "f755f5ac9536b0c33399220d2354dd4075a2cab8728346afb9b37939d12bceec")


def test_kt_equivariant_golden_digest_over_full_corpus():
    flags = [fm for fm in flag_corpus() if fm.ranks[0] >= 1]
    assert len(flags) == 914
    assert _digest(kt_equivariant(fm) for fm in flags) == (
        "eb01973dc40e385ef9082e2e3680ac7f50abbee3802c384f64de18e3410b3c9d")


def test_kt_golden_digests_of_larger_flags():
    cases = [
        (flag(U(4, 9)),
         "296fe0f8be31ad2b595499e7614951733fa33491bb84a243cb65349de83a9da6"),
        (flag(U(2, 7), U(4, 7)),
         "f604e858e26b601408d0f6a37c77d60d4045e2d1488ed65b85de29a3abb165cc"),
        (flag(U(1, 5), U(2, 5), U(3, 5)),
         "a34089c19794f699d6a92a8515c09846b95fe6d087e717dff8e281c8fd60dcf8"),
    ]
    for fm, want in cases:
        got = hashlib.sha256(kt(fm).canonical_str().encode()).hexdigest()
        assert got == want, fm


def test_kt_of_a_flag_past_the_former_int64_ceiling():
    # the z-domain core needed integers past int64 here and raised
    # GroundSetTooLarge; the expansion at z = e^s modulo primes does not
    m = U(5, 12)
    assert kt(flag(m)) == tutte(m)


def test_t1_values_match_the_support_route():
    # the specialization core against the full equivariant support summed
    # over t, an independent route, in all three numerator modes
    flags = [fm for fm in flag_corpus() if fm.ranks[0] >= 1][::10]
    assert len(flags) == 92
    for fm in flags:
        for mode in ("kt", "h", "h_lv"):
            want = _ktt_support(fm, mode=mode).specialize_t1()
            assert invariants._localization_value(fm, mode) == want, (fm, mode)


# ------------------------------------------------------------- flag blocks


def _exchange_partition(fm):
    """The blocks of a flag from every exchange edge of every basis."""
    n = fm.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in fm.constituents:
        for b in m.bases_masks:
            for i in range(n):
                for j in range(n):
                    if (b >> i & 1 and not b >> j & 1
                            and b ^ 1 << i | 1 << j in m.bases_masks):
                        parent[find(i)] = find(j)
    blocks = Counter()
    for e in range(n):
        blocks[find(e)] |= 1 << e
    return sorted(blocks.values())


def test_fundamental_graph_blocks_match_all_exchange_edges():
    flags = flag_corpus()
    split = 0
    for fm in flags:
        blocks = invariants._flag_blocks(fm)
        assert sorted(blocks) == _exchange_partition(fm), fm
        split += len(blocks) > 1
    assert split == 825


def test_split_values_equal_whole_values(monkeypatch):
    # every disconnected corpus flag, in all three numerator modes, against
    # the same flag computed whole by a split that never splits
    flags = [fm for fm in flag_corpus()
             if len(invariants._flag_blocks(fm)) > 1]
    assert len(flags) == 825
    modes = ("kt", "h", "h_lv")
    invariants._VALUE_CACHE.clear()
    try:
        split = [invariants._localization_value(fm, mode)
                 for fm in flags for mode in modes]
        invariants._VALUE_CACHE.clear()
        monkeypatch.setattr(invariants, "_flag_blocks",
                            lambda fm: [(1 << fm.n) - 1])
        whole = [invariants._localization_value(fm, mode)
                 for fm in flags for mode in modes]
    finally:
        invariants._VALUE_CACHE.clear()
    labels = [(fm, mode) for fm in flags for mode in modes]
    for label, a, b in zip(labels, split, whole):
        assert a == b, label


def test_value_cache_holds_block_entries_only():
    # the t -> 1 route caches blocks, never a whole disconnected flag: one
    # entry per distinct (labelled block key, mode) over the corpus
    flags = flag_corpus()
    modes = ("kt", "h", "h_lv")
    clear_caches()
    try:
        for mode in modes:
            for fm in flags:
                invariants._localization_value(fm, mode)
        held = set(invariants._VALUE_CACHE)
        assert invariants._VALUE_CACHE.evictions == 0
    finally:
        clear_caches()
    assert held == {(key, mode) for key in _block_keys(flags)
                    for mode in modes}


def test_split_supports_equal_whole_supports(monkeypatch):
    # every disconnected rank >= 1 corpus flag, in all three numerator
    # modes: the product of its blocks' supports against one pass of the
    # support core over the whole flag, by a split that never splits
    flags = [fm for fm in flag_corpus()
             if fm.ranks[0] >= 1 and len(invariants._flag_blocks(fm)) > 1]
    assert len(flags) == 577
    modes = ("kt", "h", "h_lv")
    invariants._SUPPORT_CACHE.clear()
    try:
        split = [_ktt_support(fm, mode) for fm in flags for mode in modes]
        invariants._SUPPORT_CACHE.clear()
        monkeypatch.setattr(invariants, "_flag_blocks",
                            lambda fm: [(1 << fm.n) - 1])
        whole = [_ktt_support(fm, mode) for fm in flags for mode in modes]
    finally:
        invariants._SUPPORT_CACHE.clear()
    labels = [(fm, mode) for fm in flags for mode in modes]
    for label, a, b in zip(labels, split, whole):
        assert a == b, label


def _pairwise_product(n, parts):
    """A direct sum's support as every pair of points with dense counts:
    the points (P x n) and one count column per sum of block classes."""
    points = np.zeros((1, n), dtype=np.int64)
    columns = {(0, 0): np.ones(1, dtype=np.int64)}
    for mask, s in parts:
        placed = np.zeros((len(s.points), n), dtype=np.int64)
        placed[:, [i for i in range(n) if mask >> i & 1]] = s.points
        points = (points[:, None] + placed).reshape(-1, n)
        product = {}
        for (a, b), left in columns.items():
            for (c, d), right in zip(s.classes, s.counts.T):
                column = np.outer(left, right).ravel()
                key = (a + c, b + d)
                product[key] = (product[key] + column if key in product
                                else column)
        columns = product
    return points, columns


def test_factored_supports_hold_their_invariants():
    # every rank >= 1 corpus flag in all three numerator modes: each table
    # row is nonzero and held by some point, the decode makes one
    # coefficient object per table row, a product's counts are those of
    # every pair of points, and a single block's rows (one support core
    # pass) are distinct
    flags = [fm for fm in flag_corpus() if fm.ranks[0] >= 1]
    split = 0
    for mode in ("kt", "h", "h_lv"):
        for fm in flags:
            s = invariants._flag_support(fm, mode)
            assert s.table.any(axis=1).all(), (fm, mode)
            assert np.array_equal(np.unique(s.rows),
                                  np.arange(len(s.table))), (fm, mode)
            phi = genfun._decode_support(s)
            assert len({id(c) for c in phi.support.values()}) == len(s.table)
            parts = invariants._block_parts(
                fm, mode, invariants._SUPPORT_CACHE, invariants._class_support)
            if len(parts) == 1:
                assert len(np.unique(s.table, axis=0)) == len(s.table)
                continue
            split += 1
            points, columns = _pairwise_product(fm.n, parts)
            assert np.array_equal(s.points, points), (fm, mode)
            assert list(s.classes) == sorted(columns), (fm, mode)
            assert np.array_equal(s.counts, np.column_stack(
                [columns[c] for c in s.classes])), (fm, mode)
    assert split == 3 * 577


@pytest.mark.parametrize("summands", [
    (U(3, 6),),
    (U(1, 5), U(3, 5)),
])
def test_kt_equivariant_of_larger_direct_sums(summands):
    # triangulated whole, these took 26 s and over 140 s on a 2-vCPU VM;
    # by blocks, each has one distinct block
    fm = flag(*(m.direct_sum(m) for m in summands))
    invariants._SUPPORT_CACHE.clear()
    try:
        t0 = time.perf_counter()
        phi = kt_equivariant(fm)
        assert time.perf_counter() - t0 < 2.0
    finally:
        invariants._SUPPORT_CACHE.clear()
    at_t1 = phi.specialize_t1()
    assert at_t1 == invariants._localization_value(fm, "kt")
    if fm.k == 1:
        # one step: kt is the Tutte polynomial, and T(2, 2) = 2^n
        assert kt(fm) == tutte(fm.constituents[0])
        want = 2 ** fm.n
    else:
        want = 2 ** fm.n * len(pseudo_basis_masks(*fm.constituents))
    assert at_t1.evaluate({"u": 1, "v": 1}) == want


def test_support_product_guard():
    # six blocks of 16 points each: 16^6 points times 85 classes is past
    # the 4e7-cell budget, refused before the product is allocated
    m = U(2, 4)
    for _ in range(5):
        m = m.direct_sum(U(2, 4))
    fm = flag(m)
    t0 = time.perf_counter()
    with pytest.raises(GroundSetTooLarge, match="support product"):
        kt_equivariant(fm)
    assert time.perf_counter() - t0 < 1.0


def test_support_apex_guard():
    # 2,520 flag bases times 6,912 numerator rows times 10 coordinates of
    # apexes are past the 4e7-cell budget, refused before they are built
    # (unguarded, the apex array alone needs 1.4 GB)
    fm = flag(U(2, 10), U(5, 10))
    t0 = time.perf_counter()
    with pytest.raises(GroundSetTooLarge, match="support apexes"):
        kt_equivariant(fm)
    assert time.perf_counter() - t0 < 1.0


def test_kt_of_larger_direct_sums():
    invariants._VALUE_CACHE.clear()
    m = U(2, 5).direct_sum(U(2, 5)).direct_sum(U(2, 5))
    t0 = time.perf_counter()
    got = kt(flag(m))
    assert time.perf_counter() - t0 < 1.0
    assert got == tutte(m)
    m1 = U(1, 5).direct_sum(U(1, 5))
    m2 = U(3, 5).direct_sum(U(3, 5))
    t0 = time.perf_counter()
    got = kt(flag(m1, m2))
    assert time.perf_counter() - t0 < 1.0
    assert got.evaluate({"x": 2, "y": 2}) == 2 ** 10 * len(
        pseudo_basis_masks(m1, m2))


# ------------------------------------------------- relabelling and canonical keys


def _relabel_mask(b, sigma):
    return sum(1 << p for i, p in enumerate(sigma) if b >> i & 1)


def _relabel_key(key, sigma):
    """A flag key with element i renamed sigma[i]."""
    return tuple((n, tuple(sorted(_relabel_mask(b, sigma) for b in bases)))
                 for n, bases in key)


def _block_keys(flags):
    """Every distinct block key of the flags, as _block_parts forms them."""
    keys = set()
    for fm in flags:
        blocks = invariants._flag_blocks(fm)
        for s in blocks:
            keys.add(fm.key() if len(blocks) == 1
                     else invariants._restrict(fm, s))
    return keys


def test_kt_equivariant_is_relabelling_equivariant():
    # sigma F against sigma applied to the support of F, each computed
    # with every cache cleared, so neither run reads the other's entries
    rng = random.Random(19)
    flags = rng.sample([fm for fm in flag_corpus() if fm.ranks[0] >= 1], 48)
    split = sum(len(invariants._flag_blocks(fm)) > 1 for fm in flags)
    assert split == 32
    try:
        for fm in flags:
            sigma = list(range(fm.n))
            rng.shuffle(sigma)
            clear_caches()
            want = kt_equivariant(fm)
            clear_caches()
            moved = FlagMatroid(
                [Matroid(fm.n, [_relabel_mask(b, sigma) for b in m.bases_masks])
                 for m in fm.constituents])
            got = kt_equivariant(moved)
            permuted = {}
            for w, c in want.support.items():
                image = [0] * fm.n
                for i, p in enumerate(sigma):
                    image[p] = w[i]
                permuted[tuple(image)] = c
            assert got == EquivariantPolynomial(fm.n, permuted), (fm, sigma)
    finally:
        clear_caches()


def test_relabelled_blocks_share_one_support_pass(monkeypatch):
    calls = []
    whole = invariants._whole_support

    def counted(fm, mode):
        calls.append(fm.key())
        return whole(fm, mode)

    monkeypatch.setattr(invariants, "_whole_support", counted)
    m = Matroid.from_bases(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}])
    moved = Matroid(4, [_relabel_mask(b, (2, 0, 3, 1)) for b in m.bases_masks])
    assert moved.key() != m.key()
    clear_caches()
    try:
        a = kt_equivariant(flag(m))
        b = kt_equivariant(flag(moved))
        assert len(calls) == 1
        # the direct sum's two blocks are both met already
        kt_equivariant(flag(m.direct_sum(moved)))
        assert len(calls) == 1
    finally:
        clear_caches()
    assert len(a.support) == len(b.support)


def test_canonical_keys_match_a_brute_force_minimum():
    # every block key met on the equivariant corpus: _canonical must
    # classify them as the least key over all n! relabellings does, and
    # return the input relabelled by its map
    keys = _block_keys(fm for fm in flag_corpus() if fm.ranks[0] >= 1)
    assert len(keys) == 339
    tables = {}

    def brute(key):
        n = key[0][0]
        if n not in tables:
            tables[n] = [[_relabel_mask(b, p) for b in range(1 << n)]
                         for p in permutations(range(n))]
        return min(tuple((n, tuple(sorted(t[b] for b in bases)))
                         for n, bases in key) for t in tables[n])

    classes = {}
    for key in keys:
        ckey, sigma = invariants._canonical(key)
        assert ckey == _relabel_key(key, sigma.tolist()), key
        classes.setdefault(ckey, set()).add(brute(key))
    assert all(len(v) == 1 for v in classes.values())
    assert len({b for v in classes.values() for b in v}) == len(classes)
    assert len(classes) == 161


def test_relabelling_golden_digests():
    # the two users of the one colour refinement (cones._refine), pinned
    # over the corpus: the vertex order of every exchange-digraph stack
    # with an edge, and the canonical key and map of every flag key
    flags = flag_corpus()
    orders, canon = hashlib.sha256(), hashlib.sha256()
    count = 0
    for fm in flags:
        chains = np.array(fm.flag_bases(), dtype=np.uint64).reshape(-1, fm.k)
        adj = cones._tangent_generators(fm, chains)
        if adj.any():
            orders.update(repr(cones._colour_order(adj).tolist()).encode())
            count += 1
        ckey, sigma = invariants._canonical(fm.key())
        canon.update(repr((ckey, sigma.tolist())).encode())
    assert (count, len(flags)) == (1080, 1200)
    assert orders.hexdigest() == (
        "a0e9eb1c51e9df66462e849842dbb1ad4066ffe4a9d231a8068fa5a60bed7313")
    assert canon.hexdigest() == (
        "d4f73c9cb76f38fc963be2675592609299c8f3375d010a39916c243030baf461")


def test_one_step_kt_equivariant_is_lv_tutte_equivariant():
    # for one step, kt_equivariant(flag(M)) is the subset-graded
    # corank-nullity sum over S of u^(r - rk S) v^(|S| - rk S) t^(e_S),
    # which lv_tutte_equivariant(M, M) computes from the rank table: a
    # full-polynomial check of the whole equivariant route
    mats = [m for m in matroid_corpus() if m.rank_value >= 1]
    assert len(mats) == 274
    edges = random.Random(1).sample(list(combinations(range(1, 7), 2)), 9)
    graph = Matroid.graphic(edges, n_vertices=6)
    assert len(invariants._flag_blocks(flag(graph))) == 1
    for m in mats + [U(3, 8), U(4, 8), graph]:
        assert (kt_equivariant(flag(m)).canonical_str()
                == lv_tutte_equivariant(m, m).canonical_str()), m.key()


def test_canonical_falls_back_past_its_budget():
    # all ten elements of U(5, 10) share one colour: 10! candidates times
    # 252 bases is past the budget, so the labelled key comes back as is
    key = flag(U(5, 10)).key()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        ckey, sigma = invariants._canonical(key)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ckey == key and sigma.tolist() == list(range(10))
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_flags_whose_cells_have_no_rays():
    assert kt(flag(U(0, 0))).canonical_str() == "1"
    # no blocks at all: the empty product of supports is the unit
    assert _ktt_support(flag(U(0, 0))).canonical_str() == "t^[]: 1"
    assert kt(flag(U(0, 1))).canonical_str() == "y"
    assert kt(flag(U(1, 1))).canonical_str() == "x"
    assert kt(flag(U(0, 2), U(1, 2))).canonical_str() == "x*y^2 + y^2"
    phi, in_uv = h_candidate_lv(flag(U(1, 2)))
    assert phi.canonical_str() == "-u*v + 1" and in_uv
    eq = kt_equivariant(flag(U(1, 1)))
    assert eq.canonical_str() == "t^[1]: 1\nt^[0]: u"
    assert eq.aux_vars == ("u", "v")


def test_flag_routes_build_no_per_basis_cones(monkeypatch):
    calls = Counter()
    for module, name in ((cones, "tangent_cone_generators"),
                         (cones, "triangulate_half_open"),
                         (invariants, "tangent_cone_generators"),
                         (invariants, "triangulate_half_open"),
                         (genfun, "_flipped_cached")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    flags = flag_corpus()
    caches = (invariants._CELLS_CACHE, invariants._VALUE_CACHE,
              invariants._SUPPORT_CACHE)
    for cache in caches:
        cache.clear()
    try:
        for fm in flags:
            kt(fm)
        for fm in [fm for fm in flags if fm.ranks[0] >= 1][::10]:
            kt_equivariant(fm)
    finally:
        for cache in caches:
            cache.clear()
    assert calls == Counter()


def _loopless_coloopless_flags():
    flags = [fm for fm in flag_corpus()
             if not fm.constituents[0].loops()
             and not fm.constituents[-1].coloops()]
    return flags[::2]


def test_h_value_uv_golden_digest_over_corpus():
    flags = _loopless_coloopless_flags()
    assert len(flags) == 102
    assert _digest(h_value_uv(fm) for fm in flags) == (
        "74d3d659f037e0556fe914b6cc9e4038ad34616c0a60c9f4c0f46a3b6a6a3d92")


def test_h_candidate_lv_golden_digest_over_corpus():
    flags = _loopless_coloopless_flags()
    assert _digest(h_candidate_lv(fm)[0] for fm in flags) == (
        "87459a257383e71893a006c8084abc22d85407a9636696d7234d75bc94d0479f")


def test_h_support_golden_digest_over_corpus():
    flags = _loopless_coloopless_flags()
    assert _digest(_ktt_support(fm, mode="h") for fm in flags) == (
        "e436b5154401aba8fc10e6a46c3608fef00265b8336b0c71f1b47220037c7c3b")


def test_h_lv_support_golden_digest_over_corpus():
    flags = _loopless_coloopless_flags()
    assert _digest(_ktt_support(fm, mode="h_lv") for fm in flags) == (
        "1f3333e62637c9afa5d4e92b374ac07c695b09a9c58b295afd2bfd8399511e16")


def _json_digest(polys):
    """sha256 over the sorted JSON of each polynomial's to_json(), one per
    line: integer and Fraction coefficients must serialize alike."""
    h = hashlib.sha256()
    for p in polys:
        h.update(json.dumps(p.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_tutte_golden_digest_over_quotient_corpus():
    pairs = quotient_corpus()
    assert len(pairs) == 920
    polys = [tutte(m) for pair in pairs for m in pair]
    assert _digest(polys) == (
        "ba90a0e45329dde318a07708d8680c5b135fd5872962ae312d8e9f9644b197cd")
    assert _json_digest(polys) == (
        "22dbcf7d0eea2af7c56265c2bd1d506b4500deec77f34a8ea41bd13f96f6fcf4")


def test_lv_tutte_golden_digest_over_quotient_corpus():
    polys = [lv_tutte(m1, m2) for m1, m2 in quotient_corpus()]
    assert _digest(polys) == (
        "e5bbb1511179168b549199357e11fbcef97f658704f77d3c6791083210b7998a")
    assert _json_digest(polys) == (
        "9eab2c43879527cfdcf25aee60013e18579bbeec69e661ab1cd61ec5100c6332")


def test_poincare_golden_digest_over_quotient_corpus():
    polys = [poincare(m1, m2) for m1, m2 in quotient_corpus()]
    assert _digest(polys) == (
        "6c651e3584ab98b2c5e38d1b8f476b1812419ceedc41e91cc4dd538b4a093202")
    assert _json_digest(polys) == (
        "0b0b077a781581a7ef42a6b9a709e5a6c0eff3d90a592f740927c88e86ee092a")


def test_beta_polynomial_golden_digest_over_quotient_corpus():
    pairs = [(m1, m2) for m1, m2 in quotient_corpus()
             if m2.rank_value > m1.rank_value]
    assert len(pairs) == 640
    polys = [p for m1, m2 in pairs for p in beta_polynomial(m1, m2)]
    assert _digest(polys) == (
        "c5b147075262d8c1b8f44e1c2f4be2322501690c0cefc59a1b7150d5b44d217b")
    assert _json_digest(polys) == (
        "53344c2b200838d34a3707e738976c5e8afda88292c56afc3afd4a667edc774e")


def test_lv_tutte_equivariant_golden_digest_over_quotient_corpus():
    polys = [lv_tutte_equivariant(m1, m2) for m1, m2 in quotient_corpus()]
    assert _digest(polys) == (
        "d7d815264ed7867efff741c764a671d65363359cc7ad6a78c6fe111ca5dee763")
    assert _json_digest(polys) == (
        "d80afa94f23f501bea7554dd9001284274c23cc78a04c09b888bd4a6eb37ed15")


def test_characteristic_golden_digest_over_quotient_corpus():
    polys = [characteristic(m) for pair in quotient_corpus() for m in pair]
    assert _digest(polys) == (
        "82439db9e3e69d4a277a110a82d49e2827df53c670af4d9c86bd6992f9edead1")
    assert _json_digest(polys) == (
        "a611874f80f2e20f8573815ce2f26d82829c6449f7b21435e4ba2fa61337904c")


# ------------------------------------------------------ corank-nullity route


def test_corank_nullity_route_reads_rank_tables(monkeypatch):
    # cold copies, so no table exists before the calls under test
    pairs = [(Matroid(m1.n, m1.bases_masks, _trusted=True),
              Matroid(m2.n, m2.bases_masks, _trusted=True))
             for m1, m2 in quotient_corpus()]
    calls = {"rank": 0, "substitute": 0}
    rank, substitute = Matroid.rank, AuxPolynomial.substitute

    def counted_rank(self, subset):
        calls["rank"] += 1
        return rank(self, subset)

    def counted_substitute(self, mapping):
        calls["substitute"] += 1
        return substitute(self, mapping)

    monkeypatch.setattr(Matroid, "rank", counted_rank)
    monkeypatch.setattr(AuxPolynomial, "substitute", counted_substitute)
    for m1, m2 in pairs:
        lv_tutte(m1, m2)
        tutte(m2)
        if m2.rank_value > m1.rank_value:
            beta_polynomial(m1, m2)
        poincare(m1, m2)
    assert calls == {"rank": 0, "substitute": 0}


def test_tutte_of_uniform_matroid_on_sixteen_elements():
    t0 = time.perf_counter()
    poly = tutte(U(8, 16))
    assert time.perf_counter() - t0 < 1.0
    assert poly.evaluate({"x": 2, "y": 2}) == 2 ** 16


def test_corank_nullity_admission_guard():
    m = U(1, RANK_TABLE_MAX + 1)
    t0 = time.perf_counter()
    with pytest.raises(GroundSetTooLarge):
        tutte(m)
    with pytest.raises(GroundSetTooLarge):
        lv_tutte(m, m)
    assert time.perf_counter() - t0 < 1.0


def test_quotient_counts_follow_the_latest_partner():
    # the count array kept on m1 serves only the partner it was built for:
    # interleaved partners, a refused one among them, each give what newly
    # built matroids give, and a non-quotient partner is never kept
    def fresh(m):
        return Matroid(m.n, m.bases_masks, _trusted=True)

    def family(m1, m2):
        out = [lv_tutte(m1, m2), poincare(m1, m2)]
        if m2.rank_value > m1.rank_value:
            out += beta_polynomial(m1, m2)
        return out

    m1, m2, other = U(1, 4), U(2, 4), U(4, 4)
    loop = Matroid.from_bases(4, [[1], [2], [3]])  # element 4 is a loop
    twin = U(2, 4)
    for m in (m2, loop, other, m1, twin, m2):
        if m is loop:
            for _ in range(2):
                for fn in (lv_tutte, poincare, beta_polynomial):
                    with pytest.raises(NotAQuotient):
                        fn(m1, loop)
            assert m1._counts[0] is not loop
        elif m is m1:
            assert tutte(m1) == tutte(fresh(m1))
            assert characteristic(m1) == characteristic(fresh(m1))
            assert m1._counts[0] is None
        else:
            assert family(m1, m) == family(fresh(m1), fresh(m)), m
            assert m1._counts[0] is m
    with pytest.raises(RankGapZero):
        beta_polynomial(m1, m1)


def test_integer_coefficients_invert_exactly():
    assert AuxPolynomial._trusted(("x",), {(1,): 2})._monomial_inverse(
        ).canonical_str() == "1/2*x^-1"
    assert all(type(c) is int for c in tutte(U(2, 4)).terms.values())
    two_y = invariants._poly(("y",), np.array([0, 2]))
    assert type(two_y.terms[(1,)]) is int
    # a negative power substitutes the value's monomial inverse
    assert AuxPolynomial.monomial(("x",), (-1,)).substitute(
        {"x": two_y}).canonical_str() == "1/2*y^-1"


def _truncations(m):
    """m and its truncations down to rank 0, each a quotient of the last."""
    chain = [m]
    while chain[-1].rank_value:
        chain.append(chain[-1].truncation())
    return chain


def _corank_nullity_oracle(m1, m2):
    """LVT(m1, m2) and T(m2) summed over all 2^n subsets through
    Matroid.rank on copies that never build a rank table, with the
    (x - 1)- and (y - 1)-powers expanded by AuxPolynomial arithmetic, and
    Whitney's chi(m2) = sum (-1)^|S| q^(r2 - rk2(S))."""
    c1, c2 = (Matroid(m.n, m.bases_masks, _trusted=True) for m in (m1, m2))
    counts, whitney = Counter(), Counter()
    for s in range(1 << m1.n):
        rk1, rk2 = c1.rank(s), c2.rank(s)
        cr, nl = m1.rank_value - rk1, s.bit_count() - rk2
        counts[cr, nl, m2.rank_value - rk2 - cr] += 1
        whitney[m2.rank_value - rk2] += (-1) ** s.bit_count()
    assert c1._table is None and c2._table is None
    lvt = AuxPolynomial.zero(("x", "y", "z"))
    tut = AuxPolynomial.zero(("x", "y"))
    for (cr, nl, gap), c in counts.items():
        lvt = lvt + Fraction(c) * (X - 1) ** cr * (Y - 1) ** nl * Z ** gap
        if not gap and m1.rank_value == m2.rank_value:
            tut = tut + Fraction(c) * (X - 1) ** cr * (Y - 1) ** nl
    chi = AuxPolynomial.zero(("q",))
    for e, c in whitney.items():
        chi = chi + c * Q ** e
    return lvt, tut, chi


def test_corank_nullity_family_against_a_subset_oracle():
    # quotient pairs on 7 and 8 elements, past the corpus's 6: truncation
    # chains of uniform matroids and of direct sums of corpus matroids
    rng = random.Random(21)
    corpus = matroid_corpus()
    sources = [U(rng.randint(2, n), n) for n in (7, 7, 8, 8)]
    while len(sources) < 10:
        a, b = rng.sample(corpus, 2)
        if a.n + b.n in (7, 8) and a.rank_value + b.rank_value:
            sources.append(a.direct_sum(b))
    for m in sources:
        chain = _truncations(m)
        i = rng.randrange(len(chain) - 1)
        for m1, m2 in ((chain[rng.randrange(i + 1, len(chain))], chain[i]),
                       (chain[i], chain[i])):
            lvt, tut, chi = _corank_nullity_oracle(m1, m2)
            r1, r2 = m1.rank_value, m2.rank_value
            assert lv_tutte(m1, m2) == lvt, (m1, m2)
            assert poincare(m1, m2) == (-1) ** r2 * lvt.substitute(
                {"x": 1 - Q, "y": 0, "z": -S}), (m1, m2)
            assert characteristic(m2) == chi, m2
            if r1 == r2:
                assert tutte(m2) == tut, m2
                continue
            beta, reduced = beta_polynomial(m1, m2)
            assert beta == (-1) ** (r2 - r1) * lvt.substitute(
                {"x": 0, "y": 0, "z": -Q}), (m1, m2)
            assert reduced * (Q - 1) == beta, (m1, m2)


def test_corank_nullity_on_twenty_two_elements():
    # every Pascal product stays in int64 (its entries are at most 4^n)
    m, below = U(11, 22), U(10, 22)
    t0 = time.perf_counter()
    poly = tutte(m)
    lvt = lv_tutte(below, m)
    assert time.perf_counter() - t0 < 10.0
    n, r = 22, 11
    closed = (sum(binom(n - i - 1, r - i) * X ** i for i in range(1, r + 1))
              + sum(binom(n - j - 1, r - 1) * Y ** j
                    for j in range(1, n - r + 1)))
    assert poly == closed
    assert lvt.evaluate({"x": 2, "y": 2, "z": 1}) == 2 ** n


def test_shift_stays_exact_past_int64():
    # t -> 1 values are Python ints in object arrays: the block product and
    # the kt and h expansions stay exact past int64, and every entry stays
    # a Python int (a numpy zero would overflow silently)
    U_, V_ = AuxPolynomial.variable("u"), AuxPolynomial.variable("v")

    def array(terms):
        out = np.zeros((3, 4), dtype=object)
        for (a, b), c in terms.items():
            out[a, b] = c
        return out

    for e in range(40, 71):
        a = {(2, 3): 2 ** e - 1, (0, 1): -2 ** e, (1, 0): 3}
        b = {(0, 0): -2 ** e, (1, 2): 2 ** e + 1}
        product = invariants._times(array(a), array(b))
        assert all(type(c) is int for c in product.flat), e
        want = (sum(c * U_ ** i * V_ ** j for (i, j), c in a.items())
                * sum(c * U_ ** i * V_ ** j for (i, j), c in b.items()))
        assert invariants._poly(("u", "v"), product) == want, e
        shifted = invariants._open_shifts(product)
        assert all(type(c) is int for c in shifted.flat), e
        assert invariants._poly(("x", "y"), shifted) == want.substitute(
            {"u": X - 1, "v": Y - 1}), e
        line = np.array([0, 0, 0, 0, 2 ** e], dtype=object)
        assert invariants._poly(("s",), invariants._open_shifts(line)) == (
            2 ** e * (S - 1) ** 4), e


# ------------------------------------------------------ numerator kernels


def _numerator_oracle(fm, fb, mode):
    """Numerator monomials of one flag basis from all 2^m (P, Q) subsets.

    Mode "kt": apex e_{B_1}+...+e_{B_{k-1}}+e_P+e_Q over all P inside B_k
    and Q outside B_1, u-exponent r_k - |P|, v-exponent |Q|.  Mode "h":
    apex -e_P+e_Q over the same ranges, u-exponent |P|.  Mode "h_lv": P
    inside B_1 and Q outside B_k, apex -e_P+e_Q shifted by the indicator of
    B_k minus B_1, u-exponent |P|.  Returns a Counter of (apex, u, v).
    """
    n = fm.n
    full = (1 << n) - 1
    base = [0] * n
    if mode == "kt":
        shifts = fb[:-1]
        pmask, sign, qmask = fb[-1], 1, full & ~fb[0]
    elif mode == "h":
        shifts = ()
        pmask, sign, qmask = fb[-1], -1, full & ~fb[0]
    else:
        shifts = (fb[-1] & ~fb[0],)
        pmask, sign, qmask = fb[0], -1, full & ~fb[-1]
    for bmask in shifts:
        for i in range(n):
            base[i] += bmask >> i & 1
    ps = [i for i in range(n) if pmask >> i & 1]
    qs = [i for i in range(n) if qmask >> i & 1]
    out = Counter()
    for p in range(1 << len(ps)):
        for q in range(1 << len(qs)):
            apex = list(base)
            for j, i in enumerate(ps):
                apex[i] += sign * (p >> j & 1)
            for j, i in enumerate(qs):
                apex[i] += q >> j & 1
            size = p.bit_count()
            u = len(ps) - size if mode == "kt" else size
            out[(tuple(apex), u, q.bit_count())] += 1
    return out


def test_flag_numerator_matches_subset_oracle():
    flags = flag_corpus()[::10] + [flag(U(4, 9)), flag(U(2, 7), U(4, 7)),
                                   flag(U(1, 5), U(2, 5), U(3, 5))]
    for fm in flags:
        bases = fm.flag_bases()
        for mode in ("kt", "h", "h_lv"):
            _, (A, cls, vals), classes = _flag_kernels(fm, mode)
            # one apex block per basis, in flag-basis order
            assert len(A) == len(bases), (fm, mode)
            for fb, block in zip(bases, A):
                rows = Counter()
                for apex, c, k in zip(block.tolist(), cls.tolist(),
                                      vals.tolist()):
                    key = (tuple(apex),) + tuple(classes[c])
                    assert key not in rows, (fm, mode, fb)
                    rows[key] = k
                assert rows == _numerator_oracle(fm, fb, mode), (fm, mode, fb)


def test_numerator_is_built_once_per_flag():
    # the numerator depends only on (mode, r1, rk - r1, n - rk): kt builds
    # it only for connected flags and the blocks of disconnected ones, 68
    # builds over the 1,200 corpus flags, and the 914 equivariant ones split
    # into the same blocks, so they add none
    flags = flag_corpus()
    equivariant = [fm for fm in flags if fm.ranks[0] >= 1]
    assert len(flags) == 1200 and len(equivariant) == 914
    caches = (invariants._VALUE_CACHE, invariants._SUPPORT_CACHE)
    for cache in caches:
        cache.clear()
    invariants._numerator.cache_clear()
    try:
        for fm in flags:
            kt(fm)
        info = invariants._numerator.cache_info()
        assert info.misses == info.currsize == 68
        for fm in equivariant:
            kt_equivariant(fm)
        info = invariants._numerator.cache_info()
        assert info.misses == info.currsize == 68
        steps, cls, vals, _ = invariants._numerator("kt", (2, 1, 3))
        assert not (steps.flags.writeable or cls.flags.writeable
                    or vals.flags.writeable)
    finally:
        for cache in caches:
            cache.clear()
