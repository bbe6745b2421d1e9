"""Identity verifiers on small fast inputs.

The full-corpus sweeps live in the acceptance tests; these exercise each
verifier on a handful of hand-picked cases, including the error paths.
"""

import numpy as np
import pytest

from flagtutte import (Matroid, brion_example_report, check_beta_higgs,
                       check_coefficient_theorem, check_direct_sum,
                       check_duality, check_kchi_conjecture,
                       check_latticepoints, check_loop_coloop_divisibility,
                       check_lvt_delcont, check_lvt_special, flag,
                       verify_delcont, verify_h_uv, verify_kt22)
from flagtutte import FlagMatroid, clear_caches, invariants, matroid
from flagtutte.errors import InputError, LoopOrColoop

U = Matroid.uniform

PENDANT = Matroid.from_bases(3, [{1, 2}, {1, 3}])  # coloop 1
LOOPY = Matroid.from_bases(3, [{1}, {3}])          # loop 2
K4 = Matroid.graphic([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])

SMALL_FLAGS = [
    flag(U(1, 2)), flag(U(2, 3)), flag(PENDANT), flag(LOOPY),
    flag(U(1, 3), U(2, 3)), flag(U(0, 3), U(1, 3)), flag(U(2, 4), U(2, 4)),
    flag(U(1, 4), U(3, 4)), flag(U(1, 3), U(3, 3)),
    flag(U(1, 4), U(2, 4)),
    flag(PENDANT.truncation(), PENDANT),
]

QUOTIENT_PAIRS = [
    (U(1, 3), U(2, 3)), (U(0, 3), U(1, 3)), (U(2, 4), U(2, 4)),
    (U(1, 4), U(3, 4)), (U(0, 2), U(2, 2)), (PENDANT.truncation(), PENDANT),
    (K4.truncation(), K4), (U(1, 6), K4),
]


def test_brion_example_report():
    report = brion_example_report()
    assert report.passed
    assert len(report.details) == 4
    assert all(ok for _, ok in report.details)


def test_verify_kt22_spots():
    for m1, m2 in QUOTIENT_PAIRS:
        report = verify_kt22(flag(m1, m2))
        assert report.passed, (m1, m2)
    report = verify_kt22(flag(U(1, 3), U(2, 3)))
    assert report.data["pseudo_bases"] == 6
    assert report.data["kt_at_2_2"] == 48


def test_verify_kt22_rank_zero_bottom():
    # the localization sum covers a rank-zero first constituent
    for m1, m2 in [(U(0, 3), U(1, 3)), (U(0, 4), U(2, 4)),
                   (U(0, 2), U(0, 2))]:
        assert verify_kt22(flag(m1, m2)).passed, (m1, m2)


def test_verify_kt22_needs_two_steps():
    with pytest.raises(InputError):
        verify_kt22(flag(U(1, 3)))


def test_verify_delcont_spots():
    m = U(2, 4)
    for e in range(1, 5):
        assert verify_delcont(m, e, ell=2).passed, e
    assert verify_delcont(m, 1, ell=3).passed
    assert verify_delcont(K4, 6, ell=2).passed
    # loops and coloops are ineligible
    with pytest.raises(LoopOrColoop):
        verify_delcont(LOOPY, 2)
    with pytest.raises(LoopOrColoop):
        verify_delcont(PENDANT, 1)


def test_check_duality_spots():
    for fm in SMALL_FLAGS:
        assert check_duality(fm).passed, fm


def test_check_latticepoints_spots():
    for fm in SMALL_FLAGS:
        assert check_latticepoints(fm).passed, fm
    report = check_latticepoints(flag(U(1, 3), U(2, 3)))
    assert report.data["lattice_points"] == 7


def test_check_direct_sum_spots():
    pairs = [
        (flag(U(1, 2)), flag(U(1, 3))),
        (flag(U(1, 2), U(2, 2)), flag(U(1, 3), U(2, 3))),
        (flag(LOOPY), flag(PENDANT)),
    ]
    for a, b in pairs:
        assert check_direct_sum(a, b).passed, (a, b)


def test_check_direct_sum_catches_a_wrong_block_product(monkeypatch):
    # kt multiplies the values of a flag's blocks; the plain check reads the
    # whole sum by another route, so a wrong product must fail it
    def corrupted(a, b):
        out = multiply(a, b)
        out[0, 0] += 1
        return out

    multiply = invariants._times
    a = flag(U(1, 2).direct_sum(U(1, 2)))
    b = flag(U(1, 3))
    invariants._VALUE_CACHE.clear()
    try:
        monkeypatch.setattr(invariants, "_times", corrupted)
        report = check_direct_sum(a, b)
    finally:
        invariants._VALUE_CACHE.clear()
    assert not report.passed
    assert report.details == [("equivariant direct-sum multiplicativity",
                               True),
                              ("plain direct-sum multiplicativity", False)]


def test_check_direct_sum_catches_a_wrong_support_product(monkeypatch):
    # kt_equivariant multiplies the supports of a flag's blocks; the
    # equivariant check reads the whole sum by one unsplit pass of the
    # support core, so a wrong product must fail it.  The product is kept
    # per multiset of blocks, so the cache starts empty and is emptied of
    # the wrong one
    def corrupted(n, parts):
        out = product(n, parts)
        return out._replace(table=out.table * 2)

    product = invariants._support_product
    a = flag(U(1, 2).direct_sum(U(1, 2)))
    b = flag(U(1, 3))
    invariants._SUPPORT_CACHE.clear()
    try:
        monkeypatch.setattr(invariants, "_support_product", corrupted)
        report = check_direct_sum(a, b)
    finally:
        invariants._SUPPORT_CACHE.clear()
    assert not report.passed
    assert report.details == [("equivariant direct-sum multiplicativity",
                               False),
                              ("plain direct-sum multiplicativity", True)]


def test_tally_sums_counts_per_distinct_row():
    # both classes of a point share an image, so their counts add; rows
    # from different parts meet; a zero sum drops; negative images are fine
    first = (np.array([[0, 1], [1, 0]]), np.array([[2, 3], [1, 0]]),
             np.array([[5], [5]]))
    second = (np.array([[1, 0]]), np.array([[-1]]), np.array([[-2]]))
    third = (np.array([[0, 1]]), np.array([[-5]]), np.array([[5]]))
    assert invariants._tally(first).tolist() == [[0, 1, 5, 5], [1, 0, 5, 1]]
    assert invariants._tally(first, second, third).tolist() == [
        [1, 0, -2, -1], [1, 0, 5, 1]]


@pytest.fixture
def planted(monkeypatch):
    """Plant a mutant in the equivariant support of one connected flag.

    Calling planted(fm) adds 1 to one count of the kt support block of fm
    alone (class (0, 0) at its first point); its dual, its minors and every
    other flag keep their supports.  The t = 1 route is untouched, so only
    the equivariant checks may see it.  Caches are emptied before and after,
    so no planted support outlives the test.
    """
    def plant(fm):
        def mutated(block, mode):
            s = compute(block, mode)
            if mode != "kt" or block.key() != fm.key():
                return s
            # a fresh table row, so no other point holding the first
            # point's row changes with it
            row = s.table[s.rows[0]].copy()
            row[s.classes.index((0, 0))] += 1
            rows = s.rows.copy()
            rows[0] = len(s.table)
            return s._replace(rows=rows, table=np.vstack([s.table, row]))

        compute = invariants._whole_support
        monkeypatch.setattr(invariants, "_whole_support", mutated)

    clear_caches()
    yield plant
    monkeypatch.undo()
    clear_caches()


def test_verify_kt22_catches_a_planted_count(planted):
    fm = flag(U(1, 4), U(2, 4))
    planted(fm)
    assert verify_kt22(fm).details == [
        ("equivariant pseudo-basis identity", False),
        ("one-variable pseudo-basis identity", True),
        ("value at (2,2) equals 2^n times the pseudo-basis count", True)]


def test_check_duality_catches_a_planted_count(planted):
    fm = flag(U(1, 4), U(2, 4))  # its dual is flag(U(2, 4), U(3, 4))
    planted(fm)
    assert check_duality(fm).details == [("equivariant duality", False),
                                         ("plain duality", True)]


def test_check_latticepoints_catches_a_planted_count(planted):
    fm = flag(U(1, 3), U(2, 3))
    planted(fm)
    report = check_latticepoints(fm)
    assert report.details == [
        ("kt at (1,1) equals the lattice-point count", True),
        ("equivariant (1,1) value lists the lattice points", False)]
    assert report.data["lattice_points"] == 7


def test_verify_delcont_catches_a_planted_count(planted):
    m = U(2, 4)
    planted(FlagMatroid((m, m)))
    assert verify_delcont(m, 1, ell=2).details == [
        ("equivariant 2-fold identity at element 1", False),
        ("value identity at t = 1", True)]


def test_check_coefficient_theorem_catches_a_planted_count(planted):
    fm = flag(U(1, 3), U(2, 3))
    planted(fm)
    # the planted class (0, 0) needs coordinate sum r1 + r2 at its point
    assert check_coefficient_theorem(fm).details == [
        ("coordinate sums match r1 + i + j", False),
        ("0/1 coefficient rule at the few-ones boundary", True)]


def test_check_latticepoints_catches_a_lowered_rank_bound(monkeypatch):
    # the lattice points come from the rank tables; rank 0 for {1} in U(1, 3)
    # drops the two points with w_1 = 2, which the kt value still counts
    def lowered(m):
        out = table(m)
        if m is bottom:
            out = out.copy()
            out[0b001] -= 1
        return out

    table = matroid.rank_table
    fm = flag(U(1, 3), U(2, 3))
    bottom = fm.constituents[0]
    monkeypatch.setattr(matroid, "rank_table", lowered)
    report = check_latticepoints(fm)
    assert report.data["lattice_points"] == 5
    assert report.details == [
        ("kt at (1,1) equals the lattice-point count", False),
        ("equivariant (1,1) value lists the lattice points", False)]


def test_check_divisibility_spots():
    report = check_loop_coloop_divisibility(flag(LOOPY))
    assert report.passed
    assert report.data["loops"] == 1
    report = check_loop_coloop_divisibility(flag(PENDANT))
    assert report.passed
    assert report.data["coloops"] == 1
    both = LOOPY.direct_sum(U(1, 1))
    report = check_loop_coloop_divisibility(flag(both))
    assert report.passed
    assert report.data["loops"] == 1 and report.data["coloops"] == 1
    assert check_loop_coloop_divisibility(flag(U(1, 3), U(2, 3))).passed


def test_check_coefficient_theorem_spots():
    for m1, m2 in QUOTIENT_PAIRS[:5]:
        assert check_coefficient_theorem(flag(m1, m2)).passed, (m1, m2)
    with pytest.raises(InputError):
        check_coefficient_theorem(flag(U(1, 2)))


def test_check_lvt_special_spots():
    for m1, m2 in QUOTIENT_PAIRS:
        report = check_lvt_special(m1, m2)
        assert report.passed, (m1, m2)
        assert report.data["value_2_2_1"] == 2 ** m1.n


def test_check_lvt_delcont_spots():
    for m1, m2 in QUOTIENT_PAIRS:
        bad = m2.loops() | m2.coloops()
        eligible = [e for e in range(1, m2.n + 1) if e not in bad]
        for e in eligible[:2]:
            assert check_lvt_delcont(m1, m2, e).passed, (m1, m2, e)
    with pytest.raises(LoopOrColoop):
        check_lvt_delcont(U(0, 3), LOOPY, 2)


def test_check_beta_higgs_spots():
    gapped = [(m1, m2) for m1, m2 in QUOTIENT_PAIRS
              if m1.rank_value < m2.rank_value]
    assert gapped
    for m1, m2 in gapped:
        report = check_beta_higgs(m1, m2)
        assert report.passed, (m1, m2)
    report = check_beta_higgs(U(1, 3), U(2, 3))
    assert report.data["reduced"].canonical_str() == "2"


def test_verify_h_uv_spots():
    cases = {
        flag(U(1, 2)): True,
        flag(U(1, 3), U(2, 3)): False,
        flag(U(2, 4), U(3, 4)): False,
        flag(U(2, 4), U(2, 4)): True,
    }
    for fm, expect_in_uv in cases.items():
        report = verify_h_uv(fm)
        assert report.passed, fm
        assert report.data["candidate_in_uv"] == expect_in_uv, fm


def test_check_kchi_spots():
    for m in [U(1, 2), U(2, 3), U(2, 4), K4, PENDANT]:
        report = check_kchi_conjecture(m)
        assert report.passed  # observational: never fails
        assert "matches" in report.data and "value" in report.data
    with pytest.raises(InputError):
        check_kchi_conjecture(LOOPY)


def test_check_kchi_rejects_the_empty_ground_set():
    # U(1, n) needs n >= 1; the error names that, not an internal U(1, 0)
    with pytest.raises(InputError, match=r"nonempty ground set \(n >= 1"):
        check_kchi_conjecture(U(0, 0))
