import time
from itertools import product

import numpy as np
import pytest

from pnbundles.forms import Form, monomial_basis, random_points, space_dim
from pnbundles.graded import GradedMatrix, hn_matrix, identity_matrix, piece_values
from pnbundles.idealtests import epi_certificate, ideal_piece_rows
from pnbundles.modp import MAX_PRIME, batched_rank, kernel_basis, rank
from pnbundles.sheaves import _vanishes_somewhere

P = 32003
X = [Form.variable(4, i) for i in range(4)]


def mixed_row():
    return GradedMatrix.row(4, (2, 2, 2, 1), 3, [X[0], X[1], X[2], X[3] * X[3]])


def test_entry_degree_validation():
    with pytest.raises(ValueError):
        GradedMatrix.make(4, (2,), (3,), [[X[0] * X[0]]])  # degree 2, needs 1


def test_graded_piece_mixed_row():
    g = mixed_row().graded_piece(0)
    assert g.shape == (20, 34)
    assert rank(g, P) == 20
    assert kernel_basis(g, P).shape[0] == 14


def test_graded_piece_identity():
    ident = identity_matrix(4, (0, 0))
    for l in range(0, 3):
        g = ident.graded_piece(l)
        assert (g == np.eye(g.shape[0], dtype=np.int64)).all()


def test_graded_piece_euler():
    e = GradedMatrix.row(4, (0,) * 4, 1, X)
    g = e.graded_piece(1)
    assert g.shape == (10, 16)
    assert rank(g, P) == 10


def test_composition_matches_pieces():
    a = GradedMatrix.make(4, (1, 0), (2,), [[X[0], X[1] * X[2]]])
    b = GradedMatrix.make(4, (0, 0), (1, 0), [[X[3], X[1]], ["0", "1"]])
    c = a.compose(b)
    for l in range(-1, 4):
        assert (c.graded_piece(l) ==
                a.graded_piece(l) @ b.graded_piece(l) % P).all()


def test_dual_involution_and_twist():
    m = mixed_row()
    assert m.dual().dual().entries == m.entries
    assert m.twist(2).src == (4, 4, 4, 3)
    assert m.twist(2).dual().src == (-5,)


def test_hash_is_stored_once_and_agrees_with_equality():
    from dataclasses import fields

    from pnbundles.sheaves import LineSum, ker_node
    a, b = mixed_row(), mixed_row()
    assert a is not b and a == b and hash(a) == hash(b)
    # the stored value is the dataclass hash of the fields, and no field
    assert hash(a) == hash((a.nvars, a.src, a.tgt, a.entries, a.p))
    assert [f.name for f in fields(a)] == ["nvars", "src", "tgt", "entries", "p"]
    assert repr(a) == repr(b) and "_hash" not in repr(a)
    # a stored hash does not make unequal matrices equal
    assert a != a.twist(1) and a.twist(1) == b.twist(1)
    assert hash(a.twist(1)) == hash(b.twist(1))
    # nodes built separately hash and compare equal, and find each other
    n1 = ker_node(a, LineSum.make(4, a.tgt))
    n2 = ker_node(b, LineSum.make(4, b.tgt))
    assert n1 == n2 and hash(n1) == hash(n2) and {n1: 1}[n2] == 1


def test_evaluate_and_minor_locus():
    m = GradedMatrix.make(4, (0,) * 4, (1, 1),
                          [[X[0], X[1], X[2], "0"], ["0", X[0], X[1], X[2]]])
    minors = m.maximal_minors()
    assert len(minors) == 6
    # rank drops exactly where all maximal minors vanish
    pts = np.vstack([random_points(4, 200, 11), [(0, 0, 0, 1)]])
    assert pts.shape == (201, 4) and pts[-1].tolist() == [0, 0, 0, 1]
    for q, ev in zip(pts, m.evaluate(pts)):
        ev_rank = rank(ev, P)
        vanish = all(f.evaluate(q) == 0 for f in minors)
        assert ev_rank <= 2
        assert (ev_rank < 2) == vanish
    # every entry involves only the first three coordinates, so the matrix
    # vanishes outright at the degeneracy point
    assert list(batched_rank(m.evaluate([(0, 0, 0, 1), (1, 0, 0, 0)]), P)) == [0, 2]


def test_zero_matrix_evaluate():
    z = GradedMatrix.make(4, (1,), (1,), [["0"]])
    assert rank(z.evaluate([(1, 2, 3, 4)])[0], P) == 0


def _random_points_with_zeros(rng, nvars, p):
    pts = rng.integers(0, p, size=(12, nvars))
    pts[3:9] *= rng.integers(0, 2, size=(6, nvars))  # some coordinates zero
    pts[9] = np.eye(nvars, dtype=np.int64)[0]
    pts[10, 1:] = 0
    pts[11] = rng.integers(-2**62, 2**62, size=nvars)  # outside [0, p)
    return pts


@pytest.mark.parametrize("p", [5, 32003, MAX_PRIME])
def test_evaluate_matches_form_evaluate(p):
    rng = np.random.default_rng(p % 1000)
    for nvars in range(3, 7):
        for _ in range(3):
            tgt = rng.integers(0, 3, size=int(rng.integers(1, 4)))
            src = rng.integers(-2, 2, size=int(rng.integers(1, 4)))  # some degrees < 0
            rows = []
            for b in tgt:
                row = []
                for a in src:
                    monos = monomial_basis(nvars, int(b - a))
                    keep = rng.random(len(monos)) < rng.choice([0.0, 0.3, 1.0])
                    row.append(Form.make(nvars, int(b - a), {
                        e: int(c) for e, c, k in
                        zip(monos, rng.integers(1, p, size=len(monos)), keep) if k}, p))
                rows.append(row)
            m = GradedMatrix.make(nvars, src, tgt, rows, p)
            pts = _random_points_with_zeros(rng, nvars, p)
            got = m.evaluate(pts)
            assert got.shape == (len(pts), m.nrows, m.ncols) and got.dtype == np.int64
            for x, ev in zip(pts, got):
                assert ev.tolist() == [[f.evaluate(x) for f in row] for row in m.entries]
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        m.evaluate(pts[:, 1:])
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        m.evaluate(pts[0])
    # no nonzero entry of positive degree: one read-only matrix broadcast
    # over the points, equal to the scalar values at each of 0, 1 or many
    for nvars in (3, 5):
        pts = _random_points_with_zeros(rng, nvars, p)
        for m in _constant_matrices(rng, nvars, p):
            for x in (pts[:0], pts[:1], pts):
                got = m.evaluate(x)
                assert got.shape == (len(x), m.nrows, m.ncols) and got.dtype == np.int64
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[...] = 0
                for y, ev in zip(x, got):
                    assert ev.tolist() == [[f.evaluate(y) for f in row] for row in m.entries]


def _constant_matrices(rng, nvars, p):
    """An all-constant matrix, a constant one with zero entries of negative,
    zero and positive degree, and an all-zero one."""
    consts = rng.integers(1, p, size=(3, 4))
    yield GradedMatrix.make(nvars, (1,) * 4, (1,) * 3, [
        [Form.constant(nvars, int(c), p) for c in row] for row in consts])
    tgt, src = (0, 1, 1), (1, 0, 1, -1)
    yield GradedMatrix.make(nvars, src, tgt, [
        [Form.constant(nvars, int(consts[i, j]), p) if b == a and (i + j) % 2
         else Form.zero(nvars, max(b - a, 0), p) for j, a in enumerate(src)]
        for i, b in enumerate(tgt)])
    yield GradedMatrix.make(nvars, src, tgt, [["0"] * len(src)] * len(tgt), p)


@pytest.mark.parametrize("p", [5, 32003, MAX_PRIME])
def test_from_piece_inverts_graded_piece(p):
    rng = np.random.default_rng(p % 997)
    for nvars in range(2, 7):
        for l in range(-1, 3):
            random_tgt = tuple(int(b) for b in rng.integers(-2, 4, size=int(rng.integers(1, 4))))
            for k, tgt in product((0, 1, 3), ((-2, -2), random_tgt)):  # (-2, -2): empty for l < 2
                total = sum(len(monomial_basis(nvars, b + l)) for b in tgt)
                rows = rng.integers(-3 * p, 3 * p, size=(k, total))  # >= p and < 0
                if rows.size:
                    rows.flat[0] = -2**62
                m = GradedMatrix.from_piece(nvars, tgt, l, rows, p)
                assert (m.src, m.tgt, m.nvars, m.p) == ((-l,) * k, tgt, nvars, p)
                piece = m.graded_piece(l)
                assert piece.shape == (total, k)
                assert (piece.T == rows % p).all()
                # and back: a matrix is rebuilt from its degree-l piece
                assert GradedMatrix.from_piece(nvars, tgt, l, piece.T, p) == m


def test_minors_of_maximal_size_are_maximal_minors():
    wide = GradedMatrix.make(4, (0,) * 4, (1, 1),
                             [[X[0], X[1], X[2], X[3]], [X[3], "0", X[0], X[2]]])
    tall = wide.dual().twist(1)
    for m in (wide, tall):
        assert m.minors(2) == m.maximal_minors()
        assert len(m.maximal_minors()) == 6
    assert tall.maximal_minors() == wide.maximal_minors()


def test_hn_matrix_shapes_and_functoriality():
    # map O(-5) -> O(-4) on P^3 by x0: H^3 sides have dims 4 and 1
    m = GradedMatrix.make(4, (-5,), (-4,), [[X[0]]])
    h = hn_matrix(m, 0)
    assert h.shape == (1, 4)
    # composite functoriality on H^n
    a = GradedMatrix.make(4, (-6,), (-5,), [[X[1]]])
    comp = m.compose(a)
    assert (hn_matrix(comp, 0) == hn_matrix(m, 0) @ hn_matrix(a, 0) % P).all()


def test_epi_certificates():
    # degrees are cokernel degrees d >= -min(tgt): piece S_{a+d} -> S_{b+d}
    ok, d = epi_certificate(mixed_row())
    assert ok and d == -1
    euler = GradedMatrix.row(4, (1,) * 4, 2, X)
    assert epi_certificate(euler) == (True, -1)
    squares = GradedMatrix.row(4, (0,) * 4, 2, [x * x for x in X])
    ok, d = epi_certificate(squares)
    assert ok and d == 3  # x0*x1*x2*x3 is missed in S_4, not in S_5
    degenerate = GradedMatrix.make(
        4, (0,) * 4, (1, 1), [[X[0], X[1], X[2], "0"], ["0", X[0], X[1], X[2]]])
    assert epi_certificate(degenerate, max_degree=6) == (False, None)


# -- the onto-certificate against exhaustive points and the minor ideal -------

def _minor_ideal_certificate(m):
    """The maximal-minor ideal search that graded pieces replaced: (True, e)
    for the smallest e <= max(2 (max src - min tgt) + 2, 8) such that the
    ideal holds every form of degree e.  Sound only for wide matrices:
    on a tall one it certifies maps that are never onto."""
    minors = [f for f in m.maximal_minors() if not f.is_zero()]
    if not minors:
        return False, None
    bound = max(2 * (max(m.src) - min(m.tgt)) + 2, 8)
    for e in range(min(f.degree for f in minors), bound + 1):
        if rank(ideal_piece_rows(minors, e), m.p) == space_dim(m.nvars, e):
            return True, e
    return False, None


def _plane_points(q):
    """Every F_q-point of P^2, normalized."""
    return np.array([(1, a, b) for a in range(q) for b in range(q)]
                    + [(0, 1, b) for b in range(q)] + [(0, 0, 1)], dtype=np.int64)


def _random_map(rng, q, nrows, ncols):
    """Twists a_j in {0, 1} -> b_i in {1, 2}; each entry is zero with
    probability 0.3, else a form with random coefficients (maybe zero)."""
    src = rng.integers(0, 2, ncols)
    tgt = rng.integers(1, 3, nrows)
    rows = []
    for b in tgt:
        row = []
        for a in src:
            d = int(b - a)
            coeffs = {} if rng.random() < 0.3 else {
                e: int(rng.integers(0, q)) for e in monomial_basis(3, d)}
            row.append(Form.make(3, d, coeffs, q))
        rows.append(row)
    return GradedMatrix.make(3, src, tgt, rows, q)


@pytest.mark.parametrize("q", [5, 7])
def test_epi_certificate_against_every_point(q):
    # a certificate while some F_q-point drops rank is a bug; so is a wide
    # map that the minor ideal certifies and graded pieces do not
    rng = np.random.default_rng(q)
    pts = _plane_points(q)
    counts = {"onto": 0, "minors": 0, "mono": 0}
    for trial in range(80):
        nrows = int(rng.integers(1, 3))
        tall = trial % 4 == 3
        m = _random_map(rng, q, nrows, nrows + int(rng.integers(tall, 3)))
        if tall:
            m = m.dual()
        ranks = batched_rank(m.evaluate(pts), q)
        ok, d = epi_certificate(m)
        assert not ok or (ranks == m.nrows).all(), (m, d)
        if tall:
            assert not ok
            # the dual is onto exactly when m is injective on every fiber
            ok_dual, _ = epi_certificate(m.dual())
            counts["mono"] += ok_dual
            assert not ok_dual or (ranks == m.ncols).all(), m
            continue
        counts["onto"] += ok
        ref_ok, e = _minor_ideal_certificate(m)
        counts["minors"] += ref_ok
        if ref_ok:
            assert ok and d <= -min(m.tgt) + e, (m, d, e)
    # both verdicts occur among the 60 wide and the 20 tall maps
    assert 0 < counts["onto"] < 60 and counts["minors"] > 0, counts
    assert 0 < counts["mono"] < 20, counts


def test_minor_ideal_reference_certifies_tall_maps():
    # the bug the graded pieces remove: the 1x1 minors x0..x3 of the
    # column O(-1) -> O^4 fill S_1, but its image has rank 1 on every fiber
    col = GradedMatrix.column(4, -1, (0,) * 4, X)
    assert _minor_ideal_certificate(col) == (True, 1)
    assert epi_certificate(col) == (False, None)


def test_epi_certificate_starts_at_top_generator_degree():
    # rows (x0..x3) and 0 from O(-1)^4 to O + O(-10): the degree-1 piece
    # S_0^4 -> S_1 + S_{-9} has full row rank, but the O(-10) summand is
    # never hit; a search starting below g = 10 would certify this map
    # (the bound 12 keeps the pieces small: the default runs to degree 30)
    m = GradedMatrix.make(4, (-1,) * 4, (0, -10), [X, ["0"] * 4])
    piece = m.graded_piece(1)
    assert rank(piece, P) == piece.shape[0] > 0
    assert epi_certificate(m, max_degree=12) == (False, None)


def test_epi_certificate_rejects_zero_row_before_any_piece(monkeypatch):
    # the zero row leaves O(-10) in the cokernel; the default bound would
    # search to degree 30 (a 7227 x 19840 piece) before saying so
    m = GradedMatrix.make(4, (-1,) * 4, (0, -10), [X, ["0"] * 4])
    built = []
    real = GradedMatrix.graded_piece
    monkeypatch.setattr(GradedMatrix, "graded_piece",
                        lambda self, d: built.append(d) or real(self, d))
    assert epi_certificate(m) == (False, None)
    assert built == []
    # a map from the zero sheaf has only zero rows; the empty target has none
    assert epi_certificate(GradedMatrix.make(4, (), (0,), [[]])) == (False, None)
    assert epi_certificate(GradedMatrix.make(4, (1,), (), [])) == (True, 0)


def test_epi_certificate_starts_at_top_generator_degree_without_zero_rows():
    # O(-1)^4 + O(-12)^4 -> O + O(-10), rows (x0..x3, 0) and
    # (0, x0 x1, x0 x2, x1 x2, x1 x3): no row is zero, each has more than
    # n = 3 nonzero entries and no variable divides a whole row (so no
    # early reject applies), and the degree-1 piece has full row rank, but
    # the second row vanishes on the line x0 = x1 = 0; a search below
    # g = 10 would certify it (the bound 12 keeps the pieces small)
    m = GradedMatrix.make(4, (-1,) * 4 + (-12,) * 4, (0, -10),
                          [X + ["0"] * 4, ["0"] * 4 + [X[0] * X[1], X[0] * X[2],
                                                      X[1] * X[2], X[1] * X[3]]])
    assert not any(_vanishes_somewhere(r, 3) for r in m.entries)
    piece = m.graded_piece(1)
    assert rank(piece, P) == piece.shape[0] > 0
    assert epi_certificate(m, max_degree=12) == (False, None)


def test_epi_certificate_rejects_a_row_with_a_common_zero(monkeypatch):
    # O(-1)^4 + O(-12) -> O + O(-10), rows (x0..x3, 0) and (0, 0, 0, 0, x0^2):
    # the second row vanishes on x0 = 0, so the map is not onto; at the
    # default bound a search would run to degree 30 (about 4 s) to say so
    m = GradedMatrix.make(4, (-1,) * 4 + (-12,), (0, -10),
                          [X + [Form.zero(4, 11)], ["0"] * 4 + [X[0] * X[0]]])
    built = []
    real = GradedMatrix.graded_piece
    monkeypatch.setattr(GradedMatrix, "graded_piece",
                        lambda self, d: built.append(d) or real(self, d))
    start = time.perf_counter()
    assert epi_certificate(m) == (False, None)
    assert time.perf_counter() - start < 1.0
    assert built == []
    # at most n nonzero entries of positive degree have a common zero: on
    # P^3 (x0, x1 x2, x3^3), and on P^2 (x0, x1)
    three = GradedMatrix.row(4, (0, -1, -2), 1,
                             [X[0], X[1] * X[2], X[3] * X[3] * X[3]])
    assert epi_certificate(three) == (False, None)
    y = [Form.variable(3, i) for i in range(3)]
    assert epi_certificate(GradedMatrix.row(3, (0, 0), 1, y[:2])) == (False, None)
    # more than n entries, all divisible by x0, vanish on x0 = 0: the map
    # O(-1)^4 + O(-12)^4 -> O + O(-10) with rows (x0..x3, 0) and
    # (0, x0 x0..x3) walked to degree 30 (5.7 s) before this rule
    start = time.perf_counter()
    m = GradedMatrix.make(4, (-1,) * 4 + (-12,) * 4, (0, -10),
                          [X + ["0"] * 4, ["0"] * 4 + [X[0] * x for x in X]])
    assert epi_certificate(m) == (False, None)
    assert time.perf_counter() - start < 1.0
    assert built == []
    # the rules keep their hands off n + 1 entries and off a constant
    # entry: both maps are onto, and certified by a piece
    assert epi_certificate(GradedMatrix.row(3, (0,) * 3, 1, y)) == (True, 0)
    unit = GradedMatrix.row(4, (0, -1), 0, [Form.make(4, 0, {(0,) * 4: 3}), X[0]])
    assert epi_certificate(unit) == (True, 0)
    assert built


def test_ideal_piece_rows():
    gens = [X[0], X[1]]
    # degree-2 piece of (x0, x1) on P^3: x0*S1 + x1*S1 has dimension 7
    assert rank(ideal_piece_rows(gens, 2), P) == 7


def _catalog_section_models():
    """(id, nvars, ambient twists, l, rows) of every catalog section model
    at l = 0 and 1."""
    from pathlib import Path

    from pnbundles.catalog import load_catalog, parse_node
    from pnbundles.sheaves import Cohomology, ambient_twists, nvars_of

    cat = load_catalog(Path(__file__).resolve().parents[1] / "catalog" / "catalog.json")
    eng = Cohomology(cat["prime"])
    for e in cat["entries"]:
        if "construction" in e:
            node = parse_node(e["construction"], e["n"] + 1, cat["prime"])
            for l in (0, 1):
                yield (e["id"], nvars_of(node), ambient_twists(node), l,
                       eng.h0_presented(node, l).space_rows())


def test_piece_values_match_from_piece_on_catalog_sections():
    # the sections' values read off their coefficient rows equal those of
    # the section matrix, the constant ones as one read-only broadcast view;
    # rows outside [0, p) give the same values
    rng = np.random.default_rng(5)
    seen = {"broadcast": 0, "full": 0}
    for eid, nvars, tgt, l, rows in _catalog_section_models():
        pts = _random_points_with_zeros(rng, nvars, P)
        want = GradedMatrix.from_piece(nvars, tgt, l, rows, P).evaluate(pts)
        got = piece_values(nvars, tgt, l, rows - P * (rng.random(rows.shape) < 0.5), pts, P)
        assert got.shape == want.shape and np.array_equal(got, want), (eid, l)
        broadcast = want.strides[0] == 0
        assert (got.strides[0] == 0) == broadcast and got.flags.writeable != broadcast, eid
        seen["broadcast" if broadcast else "full"] += 1
    assert seen["broadcast"] and seen["full"] > 40, seen
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        piece_values(nvars, tgt, l, rows, pts[:, 1:], P)
