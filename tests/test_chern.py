import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnbundles.chern import (ChernVector, SurfaceInvariants, chi_line,
                             double_point, dual_chern, gg_constraints,
                             line_sum_chern, p_chern, rr_chi,
                             schwarzenberger_ok, surface_bundle_data,
                             twist_chern, whitney_div, whitney_mul)


def test_chi_line_conventions():
    assert chi_line(3, 0) == 1
    assert chi_line(3, 2) == 10
    assert chi_line(3, -1) == 0
    assert chi_line(3, -4) == -1
    assert chi_line(2, -3) == 1


def test_line_sum_and_whitney():
    c = line_sum_chern(3, (1, 1, 1, 1))
    assert (c.rank, c.c) == (4, (4, 6, 4))
    a = line_sum_chern(3, (2, 2, 2, 1))
    b = line_sum_chern(3, (3,))
    k = whitney_div(a, b)
    assert (k.rank, k.c) == (3, (4, 6, 2))
    assert whitney_mul(k, b).c == a.c


def test_kernel_of_two_rows():
    a = line_sum_chern(3, (2,) * 5)
    b = line_sum_chern(3, (3, 3))
    k = whitney_div(a, b)
    assert (k.rank, k.c) == (3, (4, 7, 2))


def test_twist_formula():
    k = whitney_div(line_sum_chern(3, (0,) * 4), line_sum_chern(3, (2,)))
    e = twist_chern(k, 2)
    assert (e.rank, e.c) == (3, (4, 8, 0))


def test_dual_chern_signs():
    c = ChernVector.make(4, 5, (4, 8, 8, 0))
    d = dual_chern(c)
    assert d.c == (-4, 8, -8, 0)


def test_p_chern_examples():
    assert p_chern(ChernVector.make(3, 3, (4, 8, 8))).c == (4, 8, 8)
    assert p_chern(ChernVector.make(3, 2, (4, 5, 0))).c == (4, 11, 24)
    assert p_chern(ChernVector.make(3, 1, (4, 0, 0))).c == (4, 16, 64)
    # p4-wedge2-cotangent-3 goes to p4-cotangent-2's data; then p5-cotangent-2
    assert p_chern(ChernVector.make(4, 6, (3, 5, 5, 0))).c == (3, 4, 2, 1)
    assert p_chern(ChernVector.make(5, 5, (4, 7, 6, 3, 0))).c == (4, 9, 14, 14, 0)


@given(st.sampled_from((3, 4, 5)), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_p_chern_involution(n, c):
    cv = ChernVector.make(n, 3, c)
    assert p_chern(p_chern(cv)).c == cv.c


def test_rr_p3_values():
    assert rr_chi(ChernVector.make(3, 1, (2, 0, 0)), 0) == 10
    # rank-2 normalized sheaf data with only middle cohomology
    assert rr_chi(ChernVector.make(3, 2, (0, 2, 2)), 0) == -1
    # dual-side bookkeeping: chi(E*) = 0 forces r = c3/2 + 2
    for r, c2, c3 in [(3, 6, 2), (4, 6, 4), (5, 7, 6)]:
        dual = ChernVector.make(3, r, (-4, c2, -c3))
        assert rr_chi(dual, 0) == r - 2 - c3 // 2


def test_rr_parity_guard():
    with pytest.raises(ValueError):
        rr_chi(ChernVector.make(3, 2, (0, 2, 1)), 0)


def test_rr_p2():
    assert rr_chi(ChernVector.make(2, 1, (5, 0)), 0) == 21 - 0
    assert rr_chi(ChernVector.make(2, 2, (0, 2)), 0) == 0


def test_rr_p4_via_schwarzenberger():
    cv = ChernVector.make(4, 5, (4, 8, 8, 0))
    assert schwarzenberger_ok(cv) == (True, 0)
    assert rr_chi(cv, 0) == 10  # matches the verified table
    with pytest.raises(ValueError):
        rr_chi(ChernVector.make(4, 2, (5, 8, 0, 0)), 0)


def test_rr_range():
    assert rr_chi(ChernVector.make(1, 2, (3,)), 0) == 5
    assert rr_chi(ChernVector.make(5, 5, (4, 7, 6, 3, 0)), 0) == 15
    for n in (0, 6, 7):
        with pytest.raises(ValueError, match="P\\^1..P\\^5"):
            rr_chi(ChernVector.make(n, 1, ()), 0)


def _rr_chi_closed_form(cv, l):
    """The hand-derived chi(E(l)) on P^2, P^3 and P^4, with the parity and
    Schwarzenberger guards; the reference for the general formula."""
    n, r = cv.n, cv.rank
    c1, c2, c3, c4 = cv[1], cv[2], cv[3], cv[4]
    base = (r - 1) * chi_line(n, l) + chi_line(n, c1 + l)
    if n == 2:
        return base - c2
    if n == 3:
        if (c3 - c1 * c2) % 2:
            raise ValueError(f"parity violation: c3 - c1*c2 odd for {cv}")
        return base - (l + 2) * c2 + (c3 - c1 * c2) // 2
    assert n == 4
    ok, res = schwarzenberger_ok(cv)
    if not ok:
        raise ValueError(f"Schwarzenberger violation (residue {res}) for {cv}")
    # assemble over 12 so the two half-integral terms combine exactly
    num = (6 * (l + 2) * (l + 3) * (-c2)
           + 6 * (l + 2) * (c3 - c1 * c2)
           + (2 * c1 + 3) * (c3 - c1 * c2) + c2 * c2 + c2 - 2 * c4)
    if num % 12:
        raise ValueError(f"non-integral chi for {cv} at l={l}")
    return base + num // 12


def _chi_or_none(f, cv, l):
    try:
        return f(cv, l)
    except ValueError:
        return None


def test_rr_matches_closed_forms():
    rng = random.Random(20131)
    outcomes = set()
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        cv = ChernVector.make(n, rng.randint(1, 7), [rng.randint(-9, 9) for _ in range(n)])
        for l in range(-8, 9):
            want = _chi_or_none(_rr_chi_closed_form, cv, l)
            assert _chi_or_none(rr_chi, cv, l) == want, (cv, l)
            outcomes.add((n, want is None))
    # both accepted and rejected vectors occur on P^3 and P^4
    assert {(3, True), (3, False), (4, True), (4, False)} <= outcomes


def test_rr_line_sums_match_chi_line():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(40):
            twists = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
            cv = line_sum_chern(n, twists)
            for l in range(-n - 3, 4):
                assert rr_chi(cv, l) == sum(chi_line(n, a + l) for a in twists)


def test_schwarzenberger_residues():
    ok, res = schwarzenberger_ok(ChernVector.make(4, 2, (5, 8, 0, 0)))
    assert (ok, res) == (False, 8)
    assert schwarzenberger_ok(ChernVector.make(4, 3, (0, 0, 0, 0))) == (True, 0)
    # twisted cotangent data on the fourfold passes
    assert schwarzenberger_ok(ChernVector.make(4, 4, (3, 4, 2, 1)))[0]


def test_double_point_values():
    assert double_point(SurfaceInvariants(8, 5, 1, 0)) == 0
    assert double_point(SurfaceInvariants(8, 4, 1, 0)) == 1
    assert double_point(SurfaceInvariants(7, 2, 0, 0)) == 5


def test_surface_bundle_data():
    r, c2, c3, c4 = surface_bundle_data(SurfaceInvariants(8, 5, 1, 0))
    assert (r, c2, c3, c4) == (5, 8, 8, 0)
    assert surface_bundle_data(SurfaceInvariants(1, 0, 0, 0))[0] == 1
    assert surface_bundle_data(SurfaceInvariants(8, 5, 1, 0))[2] == 8
    # hyperplane-section bookkeeping accepted when consistent
    surface_bundle_data(SurfaceInvariants(8, 5, 1, 0), h1_hyperplane=1)
    with pytest.raises(ValueError):
        surface_bundle_data(SurfaceInvariants(8, 5, 1, 0), h1_hyperplane=0)


def test_surface_invariants_validation():
    with pytest.raises(ValueError):
        SurfaceInvariants(0, 0, 0, 0)


def test_gg_constraints():
    v = gg_constraints(ChernVector.make(3, 2, (4, 9, 0)))
    assert any("rank-2" in s for s in v)
    v = gg_constraints(ChernVector.make(4, 4, (4, 5, 0, 0)))
    assert any("2*c2 - 8" in s for s in v)
    assert gg_constraints(ChernVector.make(4, 3, (0, 0, 0, 0))) == []
    v = gg_constraints(ChernVector.make(3, 2, (4, 2, 0)))
    assert any("c1 - 1" in s for s in v)
