import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnbundles.forms import (Form, format_form, monomial_basis,
                             monomial_index, monomial_values,
                             normalize_point, normalize_points, parse_form,
                             random_points, space_dim)
from pnbundles.graded import GradedMatrix
from pnbundles.modp import MAX_PRIME

P = 32003


def test_monomial_basis_sizes():
    assert len(monomial_basis(4, 2)) == 10
    assert monomial_basis(4, 0) == ((0, 0, 0, 0),)
    assert len(monomial_basis(5, 3)) == 35
    assert monomial_basis(3, -1) == ()


def test_monomial_basis_order_is_fixed():
    # degree-2 basis on three variables in the standard graded order
    assert monomial_basis(3, 2) == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    assert monomial_basis(3, 2) is monomial_basis(3, 2)  # cached, identical


@pytest.mark.parametrize("p", [5, 32003, MAX_PRIME])
def test_monomial_values_match_monomials(p):
    rng = np.random.default_rng(p % 1000)
    for nvars in range(3, 7):
        pts = rng.integers(0, p, size=(6, nvars))
        pts[1:4] *= rng.integers(0, 2, size=(3, nvars))  # some coordinates zero
        pts[4] = 0
        pts[4, nvars - 1] = 1
        pts[5] = rng.integers(-2**62, 2**62, size=nvars)  # outside [0, p)
        for d in range(-1, 6):
            got = monomial_values(nvars, d, pts, p)
            assert got.shape == (len(pts), space_dim(nvars, d))
            assert got.dtype == np.int64
            for j, e in enumerate(monomial_basis(nvars, d)):
                mono = Form.monomial(nvars, e, 1, p)
                assert got[:, j].tolist() == [mono.evaluate(x) for x in pts]


def test_space_dim():
    assert space_dim(4, 3) == 20
    assert space_dim(4, -2) == 0


def test_parse_and_format_roundtrip():
    f = parse_form("x0^2*x1 - 3*x3^2*x2 + 7*x1*x2*x3", 4)
    g = parse_form(format_form(f), 4)
    assert f == g
    assert f.degree == 3


@pytest.mark.parametrize("p", [5, 7, 32003, MAX_PRIME])
def test_format_prints_symmetric_residues(p):
    half = p // 2
    for c in (1, 2, half, half + 1, p - 2, p - 1):
        f = Form.make(3, 2, {(2, 0, 0): c, (1, 1, 0): p - c, (0, 0, 2): 3}, p)
        text = format_form(f)
        assert parse_form(text, 3, p) == f
        # no printed coefficient exceeds p // 2
        assert all(int(t) <= half for t in re.findall(r"(?<![x^\d])\d+", text))
    assert format_form(Form.make(3, 1, {(1, 0, 0): p - 1, (0, 0, 1): p - 2}, p)) \
        == "-2*x2 - x0"
    assert format_form(Form.constant(2, half + 1, p)) == f"-{half}"


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_form("x0 + x1*x2", 3)


def test_parse_zero_summands_keep_their_degree():
    # a sum that cancels still has a degree, and 0 absorbs a product
    for text in ("x0*x1 - x0*x1 + x2", "(x0 - x0)*x1 + x2"):
        with pytest.raises(ValueError, match="inhomogeneous"):
            parse_form(text, 3)
    assert parse_form("0*x0 + x1", 3) == Form.variable(3, 1)
    assert parse_form("x0^0", 3) == Form.constant(3, 1)


def _random_expression(rng, depth, p):
    """A form string in x0, x1, x2 built from sums, differences, products,
    powers ^0..^3, unary minus and the constants 0, 2, p and p + 3."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["x0", "x1", "x2", "0", str(p), "2", str(p + 3)])
    kind = rng.choice("+-*^n")
    if kind == "^":
        return f"({_random_expression(rng, depth - 1, p)})^{rng.randint(0, 3)}"
    if kind == "n":
        return f"-({_random_expression(rng, depth - 1, p)})"
    left, right = (_random_expression(rng, depth - 1, p) for _ in range(2))
    return f"({left}) {kind} ({right})"


@pytest.mark.parametrize("p", [101, 32003])
def test_parse_form_matches_integer_evaluation(p):
    # oracle: Python evaluates the same string over the integers; a parsed
    # form takes that value mod p, and scaling the point by 2 scales it by
    # 2^degree.  A string that parses to 0 needs a degree, and any will do.
    rng = random.Random(p)
    pts = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    parsed = 0
    for _ in range(1000):
        text = _random_expression(rng, 3, p)
        try:
            f = parse_form(text, 3, p)
        except ValueError as exc:
            if "explicit degree" not in str(exc):
                continue
            f = parse_form(text, 3, p, degree=0)
        parsed += 1
        for pt in pts:
            value = eval(text.replace("^", "**"), dict(zip(("x0", "x1", "x2"), pt)))
            assert f.evaluate(pt) == value % p, text
            assert f.evaluate([2 * c for c in pt]) == pow(2, f.degree, p) * value % p, text
    assert parsed >= 500


def test_parse_zero_needs_degree():
    with pytest.raises(ValueError):
        parse_form("0", 3)
    z = parse_form("0", 3, degree=2)
    assert z.is_zero() and z.degree == 2


def test_arithmetic_and_evaluation():
    x = [Form.variable(3, i) for i in range(3)]
    f = x[0] * x[1] + x[2] * x[2]
    assert f.evaluate((1, 2, 3)) == (2 + 9) % P
    assert (f - f).is_zero()
    assert f.scale(2).coeff((1, 1, 0)) == 2


def test_substitute_restricts_to_line():
    x = [Form.variable(3, i) for i in range(3)]
    f = x[0] * x[2] - x[1] * x[1]
    images = [Form.make(2, 1, {(1, 0): 1, (0, 1): 0}),   # x0 -> u
              Form.make(2, 1, {(1, 0): 0, (0, 1): 1}),   # x1 -> v
              Form.make(2, 1, {(1, 0): 1, (0, 1): 1})]   # x2 -> u + v
    g = f.substitute(images)
    # u(u+v) - v^2 = u^2 + uv - v^2
    assert g.coeff((2, 0)) == 1 and g.coeff((1, 1)) == 1
    assert g.coeff((0, 2)) == P - 1


def multiplication_matrix(f, d_src):
    """g -> f*g from degree d_src: the graded piece of the 1x1 matrix
    O → O(deg f) with entry f."""
    return GradedMatrix.make(f.nvars, (0,), (f.degree,), [[f]], f.p).graded_piece(d_src)


def test_multiplication_matrix_shape_and_content():
    x = [Form.variable(4, i) for i in range(4)]
    m = multiplication_matrix(x[0], 1)
    assert m.shape == (10, 4)
    f = Form.from_coeff_vector(4, 2, m @ x[1].coeff_vector() % P)
    assert f == x[0] * x[1]


# -- the scattered assembly against the per-monomial loop it replaced ----------

def _ref_multiplication_matrix(f, d_src):
    """g -> f*g with one dict lookup per (source monomial, term) pair."""
    nv = f.nvars
    src = monomial_basis(nv, d_src)
    tgt_idx = monomial_index(nv, d_src + f.degree)
    mat = np.zeros((len(tgt_idx), len(src)), dtype=np.int64)
    if d_src < 0 or f.is_zero():
        return mat
    for j, m in enumerate(src):
        for e, c in f.terms:
            mat[tgt_idx[tuple(a + b for a, b in zip(e, m))], j] = c
    return mat


def _ref_graded_piece(m, l):
    """GradedMatrix.graded_piece, one reference block per entry."""
    nv = m.nvars
    col_dims = [space_dim(nv, a + l) for a in m.src]
    return np.block([
        [np.zeros((space_dim(nv, b + l), cd), dtype=np.int64) if f.is_zero()
         else _ref_multiplication_matrix(f, a + l)
         for f, a, cd in zip(row, m.src, col_dims)]
        for row, b in zip(m.entries, m.tgt)])


def _forms_of_degree(nvars, d, rng):
    """The zero form, a monomial, and forms with 3 and with 30 terms (every
    monomial of degree d, when there are fewer)."""
    basis = monomial_basis(nvars, d)

    def some_terms(k):
        pick = rng.choice(len(basis), min(k, len(basis)), replace=False)
        return Form.make(nvars, d, {basis[i]: int(rng.integers(1, P)) for i in pick}, P)

    return [Form.zero(nvars, d, P), Form.monomial(nvars, basis[-1], 1, P),
            some_terms(3), some_terms(30)]


def _assert_same(got, want):
    assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("nvars", range(1, 7))
def test_multiplication_matrix_matches_reference(nvars):
    rng = np.random.default_rng(nvars)
    for deg in range(5):
        for f in _forms_of_degree(nvars, deg, rng):
            for d_src in range(-1, 7):
                _assert_same(multiplication_matrix(f, d_src),
                             _ref_multiplication_matrix(f, d_src))


@pytest.mark.parametrize("nvars", range(1, 7))
def test_graded_piece_matches_reference(nvars):
    # entry degrees tgt - src run from -5 to 4; the negative ones are zero
    # blocks, and low twists l give blocks of negative source degree
    rng = np.random.default_rng([nvars, 7])
    src, tgt = (-1, 0, 2, 3), (3, 1, 0, -2)
    entries = [[_forms_of_degree(nvars, b - a, rng)[rng.integers(4)] if b >= a
                else Form.zero(nvars, 0, P) for a in src] for b in tgt]
    m = GradedMatrix.make(nvars, src, tgt, entries, P)
    for g in (m, m.dual()):
        for l in range(-4, 4):
            _assert_same(g.graded_piece(l), _ref_graded_piece(g, l))


def test_normalize_point():
    assert normalize_point((0, 4, 2), 5) == (0, 2, 1)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0), 5)


def _ref_normalize_point(coords, p):
    """Scale by the inverse of the last nonzero coordinate, found by a
    forward search and Python's own modular inverse."""
    vec = [int(c) % p for c in coords]
    last = max(i for i, c in enumerate(vec) if c)
    inv = pow(vec[last], -1, p)
    return tuple(c * inv % p for c in vec)


@pytest.mark.parametrize("p", [5, 101, P, MAX_PRIME])
def test_normalize_point_matches_scalar_reference(p):
    # every position of the last nonzero coordinate, zeros after it,
    # negative entries, entries >= p, and numpy integers
    rng = np.random.default_rng([p, 11])
    for nvars in (1, 3, 4):
        for last in range(nvars):
            for _ in range(20):
                vec = rng.integers(-3 * p, 3 * p, size=nvars)
                vec[last + 1:] = rng.choice([0, p, -p], size=nvars - last - 1)
                vec[last] = int(rng.integers(1, p)) + p * int(rng.integers(-2, 3))
                want = _ref_normalize_point(vec.tolist(), p)
                for coords in (vec.tolist(), tuple(vec), vec,
                               [np.int32(c % p) for c in vec]):
                    got = normalize_point(coords, p)
                    assert got == want and got[last] == 1
                    assert all(type(c) is int for c in got)
    for zero in ((0, 0, 0), (p, -p, 2 * p), np.zeros(4, dtype=np.int64), ()):
        with pytest.raises(ValueError):
            normalize_point(zero, p)


@pytest.mark.parametrize("p", [3, 5, P, MAX_PRIME])
def test_normalize_points_matches_normalize_point(p):
    # every last-nonzero position, zero coordinates, entries outside [0, p)
    rng = np.random.default_rng(p)
    pts = rng.integers(-2 * p, 2 * p, size=(400, 4))
    pts[rng.random(pts.shape) < 0.4] = 0
    pts[np.arange(4) * 7, :] = np.eye(4, dtype=np.int64) * (p - 1)
    pts = pts[(pts % p).any(axis=1)]
    got = normalize_points(pts, p)
    assert got.dtype == np.int64
    assert [tuple(r) for r in got.tolist()] == [normalize_point(r, p) for r in pts]
    assert normalize_points(np.zeros((0, 3), dtype=np.int64), p).shape == (0, 3)
    with pytest.raises(ValueError):
        normalize_points([(1, 2, 3), (0, p, 0)], p)


def test_random_points_deterministic():
    a = random_points(4, 20, 7)
    b = random_points(4, 20, 7)
    assert a.shape == (20, 4) and a.dtype == np.int64
    assert np.array_equal(a, b)
    assert all(any(c for c in q) for q in a)


@pytest.mark.parametrize("nvars,count,seed,p", [
    (3, 500, 90021, P), (4, 2000, 165521390, P), (6, 24, 7, P),
    (3, 200, 3, 5), (2, 50, 9, 3), (1, 7, 2, 3), (2, 0, 1, 5)])
def test_random_points_match_scalar_normalization(nvars, count, seed, p):
    # reference: the same blocks of draws, zero rows skipped, each point
    # scaled one at a time by normalize_point
    rng = np.random.default_rng(seed)
    ref = []
    while len(ref) < count:
        ref += [normalize_point(row, p)
                for row in rng.integers(0, p, size=(count, nvars)) if row.any()]
    got = random_points(nvars, count, seed, p)
    assert got.shape == (count, nvars) and got.dtype == np.int64
    assert [tuple(q) for q in got.tolist()] == ref[:count]


def test_random_points_are_shared_and_read_only():
    # a repeated sample is the same array, so no caller may write into it;
    # an empty sample (a witness re-check) does not replace the kept one
    a = random_points(3, 50, 11, 101)
    assert random_points(3, 50, 11, 101) is a and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 7
    assert random_points(3, 0, 11, 101).shape == (0, 3)
    assert random_points(3, 50, 11, 101) is a
    b = random_points(3, 50, 12, 101)
    assert b is not a and not np.array_equal(a, b) and not b.flags.writeable


def test_random_points_rejects_negative_count():
    with pytest.raises(ValueError, match="cannot sample -1 points"):
        random_points(3, -1, 1)


@given(st.integers(0, 4), st.integers(0, 5))
def test_basis_deterministic_property(nv_off, d):
    nv = nv_off + 2
    assert monomial_basis(nv, d) == monomial_basis(nv, d)
    assert len(monomial_basis(nv, d)) == space_dim(nv, d)
