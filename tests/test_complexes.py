import random

import pytest

from pnbundles.complexes import (FreeComplex, LiftNotFound, cone,
                                 ferrand_liaison, ideal_member_lift, koszul,
                                 scheme_degree_from_resolution, tensor, trim,
                                 verify_exact)
from pnbundles.forms import Form, monomial_basis
from pnbundles.graded import GradedMatrix, identity_matrix

P = 32003
X = [Form.variable(4, i) for i in range(4)]
Y = [Form.variable(5, i) for i in range(5)]
Z = [Form.variable(3, i) for i in range(3)]


def test_koszul_single_form():
    cx = koszul([X[0]])
    assert [cx.term(k) for k in cx.positions()] == [(0,), (-1,)]


def test_koszul_mixed_terms():
    cx = koszul([X[0], X[1], X[2], X[3] * X[3]])
    assert cx.term(1) == (-1, -1, -1, -2)
    assert sorted(cx.term(2)) == [-3, -3, -3, -2, -2, -2]
    assert sorted(cx.term(3)) == [-4, -4, -4, -3]
    assert cx.term(4) == (-5,)


def test_koszul_p4_twisted_terms():
    cx = koszul([Y[0], Y[1], Y[2], Y[3], Y[4] * Y[4]])
    assert sorted(a + 4 for a in cx.term(4)) == [-1, -1, -1, -1, 0]
    assert sorted(a + 4 for a in cx.term(3)) == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1]


def test_koszul_regular_sequence_exact():
    rep = verify_exact(koszul(X), range(0, 7))
    assert rep.is_exact()
    rep2 = verify_exact(koszul([X[0], X[1], X[2], X[3] * X[3]]), range(0, 7))
    assert rep2.is_exact()


def test_corrupted_differential_detected():
    cx = koszul([X[0], X[1]])
    bad = GradedMatrix.make(4, cx.term(1), cx.term(0), [[X[0], X[1].scale(2)]])
    with pytest.raises(ValueError):
        FreeComplex.make(4, 0, cx.terms, (bad, cx.diff(2)))
    # a complex that is d∘d = 0 but not exact is flagged by the report
    flat = FreeComplex.make(4, 0, ((0,), (-1,), (-2,)),
                            (GradedMatrix.make(4, (-1,), (0,), [[X[0]]]),
                             GradedMatrix.make(4, (-2,), (-1,), [["0"]])))
    rep = verify_exact(flat, range(0, 4), positions=[2])
    assert not rep.is_exact()
    assert rep.failures()


def test_tensor_reproduces_combined_koszul():
    t = tensor(koszul([X[0], X[1]]), koszul([X[2] * X[2], X[3] * X[3]]))
    k = koszul([X[0], X[1], X[2] * X[2], X[3] * X[3]])
    for pos in t.positions():
        assert sorted(t.term(pos)) == sorted(k.term(pos))
    assert verify_exact(t, range(0, 7)).is_exact()


def test_dual_involution_entrywise():
    cx = koszul([X[0], X[1], X[2] * X[2]])
    dd = cx.dual().dual()
    assert dd.terms == cx.terms
    assert all(a.entries == b.entries for a, b in zip(dd.diffs, cx.diffs))


def test_twist_end_term():
    cx = koszul(X).twist(4)
    assert cx.term(0) == (4,)
    assert cx.term(4) == (0,)


def test_shift_moves_positions_and_flips_signs():
    cx = koszul([X[0], X[1]])
    sh = cx.shift(1)
    assert sh.lo == 1 and sh.term(1) == cx.term(0)
    ent = sh.diff(2).entry(0, 0)
    assert ent == cx.diff(1).entry(0, 0).scale(-1)
    assert sh.shift(-1).terms == cx.terms


def test_cone_and_twist_commute():
    cx = koszul([X[0], X[1]])
    ident = {k: identity_matrix(4, cx.term(k)) for k in cx.positions()}
    c1 = cone(ident, cx, cx).twist(2)
    ident2 = {k: identity_matrix(4, cx.twist(2).term(k)) for k in cx.positions()}
    c2 = cone(ident2, cx.twist(2), cx.twist(2))
    assert c1.terms == c2.terms
    assert all(a.entries == b.entries for a, b in zip(c1.diffs, c2.diffs))
    # cone of the identity is exact everywhere
    assert verify_exact(c1, range(0, 5),
                        positions=range(c1.lo, c1.hi + 1)).is_exact()


def test_cone_rejects_non_chain_map():
    cx = koszul([X[0], X[1]])
    bad = {k: identity_matrix(4, cx.term(k)) for k in cx.positions()}
    bad[1] = GradedMatrix.make(4, cx.term(1), cx.term(1),
                               [["1", "0"], ["0", "2"]])
    with pytest.raises(ValueError):
        cone(bad, cx, cx)


def test_euler_equals_homology_alternating_sum():
    cx = koszul([X[0], X[1], X[2] * X[2]])
    for l in range(0, 6):
        rep = verify_exact(cx, [l], positions=list(cx.positions()))
        hom_sum = sum((-1) ** k * rep.homology[(k, l)] for k in cx.positions())
        assert hom_sum == cx.euler_piece(l)


def test_trim_cancels_unit():
    # pad a Koszul complex with a trivially split O = O pair, then trim it
    cx = koszul([X[0], X[1]])
    d1, d2 = cx.diff(1), cx.diff(2)
    padded_d1 = GradedMatrix.make(
        4, tuple(d1.src) + (0,), tuple(d1.tgt) + (0,),
        [[d1.entry(0, 0), d1.entry(0, 1), "0"], ["0", "0", "1"]])
    padded_d2 = GradedMatrix.make(4, d2.src, padded_d1.src,
                                  [[d2.entry(0, 0)], [d2.entry(1, 0)], ["0"]])
    padded = FreeComplex.make(4, 0, ((0, 0), padded_d1.src, (-2,)),
                              (padded_d1, padded_d2))
    slim = trim(padded)
    assert slim.terms == cx.terms
    assert verify_exact(slim, range(0, 5)).is_exact()


def _random_form(rng, nvars, d):
    basis = monomial_basis(nvars, d)
    coeffs = {m: rng.randrange(3) for m in basis}
    coeffs[rng.choice(basis)] = 1
    return Form.make(nvars, d, coeffs, P)


def _mix(cx, rng):
    """cx after a random change of basis e_b -> e_b + c·e_a of each term,
    a and b two summands of one twist: an isomorphic complex whose units
    are no longer split off."""
    diffs = list(cx.diffs)
    for k in cx.positions():
        tw = cx.term(k)
        pairs = [(a, b) for a in range(len(tw)) for b in range(len(tw))
                 if a != b and tw[a] == tw[b]]
        if not pairs:
            continue
        (a, b), c = rng.choice(pairs), rng.randrange(1, P)
        phi, phi_inv = ([list(row) for row in identity_matrix(cx.nvars, tw).entries]
                        for _ in range(2))
        phi[a][b], phi_inv[a][b] = Form.constant(cx.nvars, c), Form.constant(cx.nvars, -c)
        if k > cx.lo:
            diffs[k - cx.lo - 1] = diffs[k - cx.lo - 1].compose(
                GradedMatrix.make(cx.nvars, tw, tw, phi_inv))
        if k < cx.hi:
            diffs[k - cx.lo] = GradedMatrix.make(cx.nvars, tw, tw, phi).compose(
                diffs[k - cx.lo])
    return FreeComplex.make(cx.nvars, cx.lo, cx.terms, diffs, cx.p)


def _units_left(cx):
    return [f for d in cx.diffs for row in d.entries for f in row
            if f.degree == 0 and not f.is_zero()]


def _homology(cx, window):
    return verify_exact(cx, window, positions=range(cx.lo, cx.hi + 1)).homology


@pytest.mark.parametrize("seed", range(4))
def test_trim_koszul_tensor_with_unit_form(seed):
    # a Koszul complex on a unit form is contractible, and so is its tensor
    # product with any complex: trimming it, after a change of basis,
    # leaves no unit entry and no term, and homology and Euler
    # characteristic do not change
    rng = random.Random(seed)
    nv = rng.choice([3, 4])
    unit = Form.constant(nv, rng.randrange(1, P))
    factors = [koszul([unit] + [_random_form(rng, nv, rng.randint(0, 2))
                                for _ in range(rng.randint(0, 1))])]
    factors += [koszul([_random_form(rng, nv, rng.randint(0, 2))
                        for _ in range(rng.randint(1, 2))]) for _ in range(2)]
    cx = _mix(tensor(tensor(factors[0], factors[1]), factors[2]), rng)
    slim = trim(cx)
    assert _units_left(cx) and not _units_left(slim)
    assert not any(slim.terms)
    window = range(-2, 5)
    assert _homology(slim, window) == _homology(cx, window)
    assert [slim.euler_piece(l) for l in window] == [cx.euler_piece(l) for l in window]


@pytest.mark.parametrize("seed", range(4))
def test_trim_keeps_homology_of_padded_koszul_tensor(seed):
    # K(x0, x1) padded with O --1--> O, tensored with Koszul complexes on
    # forms that include x0, so homology survives: trimming cancels the
    # units, most with a differential on both sides, and keeps the homology
    rng = random.Random(seed)
    cx = koszul([X[0], X[1]])
    d1, d2 = cx.diff(1), cx.diff(2)
    padded = FreeComplex.make(4, 0, ((0, 0), d1.src + (0,), d2.src), (
        GradedMatrix.make(4, d1.src + (0,), (0, 0),
                          [[d1.entry(0, 0), d1.entry(0, 1), "0"], ["0", "0", "1"]]),
        GradedMatrix.make(4, d2.src, d1.src + (0,),
                          [[d2.entry(0, 0)], [d2.entry(1, 0)], ["0"]])))
    other = koszul([X[0]] + [_random_form(rng, 4, rng.randint(1, 2))
                             for _ in range(rng.randint(1, 2))])
    big = _mix(tensor(padded, other), rng)
    slim = trim(big)
    assert not _units_left(slim)
    assert slim.terms == trim(tensor(cx, other)).terms
    window = range(-1, 5)
    assert _homology(slim, window) == _homology(big, window)
    assert any(_homology(big, window).values())
    assert [slim.euler_piece(l) for l in window] == [big.euler_piece(l) for l in window]


def point_resolution_p2():
    gens = GradedMatrix.row(3, (-1, -1), 0, [Z[1], Z[2]])
    syz = GradedMatrix.column(3, -2, (-1, -1), [Z[2].scale(-1), Z[1]])
    return FreeComplex.make(3, 0, ((0,), (-1, -1), (-2,)), (gens, syz))


def test_ferrand_point_linked_by_conics():
    res = point_resolution_p2()
    out = ferrand_liaison(res, Z[1] * Z[2], Z[1] * Z[1] - Z[0] * Z[2])
    assert sorted(out.term(2)) == [1, 1]
    assert sorted(out.term(1)) == [2, 2, 2]
    assert verify_exact(out, range(0, 7), positions=[1]).is_exact()
    assert scheme_degree_from_resolution(res) == 1
    assert scheme_degree_from_resolution(out) == 3


def test_ferrand_line_linked_by_quadrics():
    gens = GradedMatrix.row(4, (-1, -1), 0, [X[2], X[3]])
    syz = GradedMatrix.column(4, -2, (-1, -1), [X[3].scale(-1), X[2]])
    res = FreeComplex.make(4, 0, ((0,), (-1, -1), (-2,)), (gens, syz))
    out = ferrand_liaison(res, X[2] * X[2], X[3] * X[3])
    assert sorted(out.term(2)) == [1, 1]
    assert sorted(out.term(1)) == [2, 2, 2]
    assert verify_exact(out, range(0, 7), positions=[1]).is_exact()
    # degree bookkeeping: deg Y + deg Y' = 2*2
    assert (scheme_degree_from_resolution(res)
            + scheme_degree_from_resolution(out)) == 4


def test_ferrand_rejects_forms_outside_ideal():
    res = point_resolution_p2()
    with pytest.raises(LiftNotFound):
        ferrand_liaison(res, Z[0] * Z[0], Z[1] * Z[1])


def test_ideal_member_lift_roundtrip():
    gens = GradedMatrix.row(3, (-1, -1), 0, [Z[1], Z[2]])
    f = Z[1] * Z[0] + Z[2] * Z[2]
    lift = ideal_member_lift(gens, f)
    assert gens.compose(lift).entry(0, 0) == f
