import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnbundles import modp
from pnbundles.forms import Form
from pnbundles.geometry import LineParam
from pnbundles.graded import GradedMatrix
from pnbundles.modp import (DEFAULT_PRIME, MAX_PRIME, _reduce, batched_rank,
                            check_prime, extend_to_complement, inv_mod,
                            is_probable_prime, kernel_basis, matmul_mod,
                            pivot_row_sizes, rank, relative_rank, rref, solve,
                            zeros)
from pnbundles.sheaves import LineSum

P = DEFAULT_PRIME


def test_default_prime_is_prime():
    assert is_probable_prime(P)


@given(st.integers(1, P - 1))
def test_inverse(a):
    assert a * inv_mod(a, P) % P == 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_field_axioms(a, b, c):
    # associativity / distributivity survive reduction mod p
    assert ((a % P) * (b % P) % P * (c % P)) % P == (a * b * c) % P
    assert ((a + b) % P * (c % P)) % P == (a * c + b * c) % P


def test_rank_identity():
    assert rank(np.eye(3, dtype=np.int64), P) == 3


def test_zero_matrix_kernel_full():
    k = kernel_basis(np.zeros((4, 5), dtype=np.int64), P)
    assert k.shape == (5, 5)
    assert (k == np.eye(5, dtype=np.int64)).all()


def test_kernel_dimension_known_case():
    rng = np.random.default_rng(3)
    m = rng.integers(0, P, size=(20, 34))
    r = rank(m, P)
    assert kernel_basis(m, P).shape[0] == 34 - r


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(4)
    m = rng.integers(0, P, size=(6, 10))
    k = kernel_basis(m, P)
    assert not (m @ k.T % P).any()


def test_kernel_deterministic():
    rng = np.random.default_rng(5)
    m = rng.integers(0, P, size=(7, 12))
    k1 = kernel_basis(m, P)
    k2 = kernel_basis(m.copy(), P)
    assert (k1 == k2).all()


def test_solve_consistent_and_inconsistent():
    m = np.array([[1, 2], [3, 4], [4, 6]], dtype=np.int64)
    x = solve(m, m @ np.array([5, 7]) % P, P)
    assert x is not None and (m @ x % P == m @ np.array([5, 7]) % P).all()
    bad = np.array([1, 0, 0], dtype=np.int64)
    assert solve(np.array([[1, 1], [1, 1], [0, 0]], dtype=np.int64), bad, P) is None


def test_rref_pivots_normalized():
    m = np.array([[2, 4, 6], [1, 2, 4]], dtype=np.int64)
    r, piv = rref(m, P)
    for i, c in enumerate(piv):
        assert r[i, c] == 1
        col = r[:, c].copy()
        col[i] = 0
        assert not col.any()


def test_batched_rank_matches_scalar():
    rng = np.random.default_rng(6)
    stack = rng.integers(0, P, size=(50, 5, 7))
    stack[3] = 0
    stack[7, 2:] = stack[7, :3]  # force dependent rows somewhere
    br = batched_rank(stack, P)
    for i in range(50):
        assert br[i] == rank(stack[i], P), i


def test_extend_to_complement_full_space():
    img = np.array([[1, 1, 0, 0]], dtype=np.int64)
    reps = extend_to_complement(img, None, P, ncols=4)
    assert reps.shape == (3, 4)
    assert rank(np.concatenate([img, reps]), P) == 4


def test_extend_to_complement_subspace():
    space = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.int64)
    img = np.array([[1, 1, 0]], dtype=np.int64)
    reps = extend_to_complement(img, space, P)
    assert reps.shape[0] == 1
    assert rank(np.concatenate([img, reps]), P) == 2


def test_check_prime_bound():
    assert check_prime(MAX_PRIME) == MAX_PRIME
    assert MAX_PRIME < 2**25 and is_probable_prime(MAX_PRIME)
    assert all(not is_probable_prime(q) for q in range(MAX_PRIME + 2, 2**25, 2))
    for q in (33554467, 2**31 - 1, 4294967311):  # primes above the bound
        with pytest.raises(ValueError, match="largest supported prime"):
            check_prime(q)
    # the sums the bound allows stay inside int64
    assert modp.MAX_TERMS * (MAX_PRIME - 1) ** 2 + MAX_PRIME < 2**63


@pytest.mark.parametrize("q", [4294967311, 32004, 2, 1, 9])
@pytest.mark.parametrize("make", [
    lambda q: Form.make(3, 1, {(1, 0, 0): 1}, q),
    lambda q: GradedMatrix.make(3, (0,), (1,), [["x0"]], q),
    lambda q: LineSum.make(3, (0, 1), q),
    lambda q: LineParam.make((1, 0, 0), (0, 1, 0), q),
], ids=["Form", "GradedMatrix", "LineSum", "LineParam"])
def test_constructors_reject_bad_moduli(make, q):
    with pytest.raises(ValueError, match="modulus"):
        make(q)
    assert make(101).p == 101


# -- differential tests against a pure-Python exact elimination ---------------

def _ref_rref(rows, ncols, p):
    """Gauss-Jordan on lists of Python ints, first usable pivot each column."""
    r = [[x % p for x in row] for row in rows]
    pivots, top = [], 0
    for c in range(ncols):
        pr = next((i for i in range(top, len(r)) if r[i][c]), None)
        if pr is None:
            continue
        r[top], r[pr] = r[pr], r[top]
        inv = pow(r[top][c], p - 2, p)
        r[top] = [x * inv % p for x in r[top]]
        for i in range(len(r)):
            if i != top and r[i][c]:
                f = r[i][c]
                r[i] = [(x - f * y) % p for x, y in zip(r[i], r[top])]
        pivots.append(c)
        top += 1
    return r, pivots


def _ref_kernel(rows, ncols, p):
    r, piv = _ref_rref(rows, ncols, p)
    out = []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(piv):
            v[pc] = -r[i][fc] % p
        out.append(v)
    return out


def _ref_complement(image, space, ncols, p):
    """Unit vectors at the non-pivot columns of the image for the full
    space; otherwise the space rows that enlarge the span, in order."""
    if space is None:
        piv = _ref_rref(image, ncols, p)[1]
        return [[int(c == j) for j in range(ncols)]
                for c in range(ncols) if c not in piv]
    acc = [list(v) for v in image]
    picked = []
    for v in space:
        if len(_ref_rref(acc + [v], ncols, p)[1]) > len(_ref_rref(acc, ncols, p)[1]):
            acc.append(v)
            picked.append(v)
    return picked


def _as_array(rows, ncols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


def _rank_deficient(rng, m, n, p):
    """An m x n matrix of rank at most min(m, n) - 1, with a repeated row
    and a zero column when the shape allows."""
    k = max(min(m, n) - 1, 0)
    a = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n)) % p
    if m > 1:
        a[-1] = a[0]
    if n > 1:
        a[:, int(rng.integers(n))] = 0
    return a


DIFF_SHAPES = [(0, 0), (0, 5), (4, 0), (1, 1), (3, 4), (6, 6), (7, 5),
               (5, 9), (12, 10)]


def _assert_same(got, want):
    """Equal int64 arrays, byte for byte."""
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_against_reference(a, space, p):
    """rref, rank, pivot_row_sizes, kernel_basis and both branches of
    extend_to_complement on `a` equal the pure-Python references; space = None skips the
    subspace branch."""
    m, n = a.shape
    rows = a.tolist()
    r, piv = rref(a, p)
    ref_r, ref_piv = _ref_rref(rows, n, p)
    assert piv == ref_piv
    _assert_same(r, _as_array(ref_r, n))
    assert rank(a, p) == len(ref_piv)
    assert pivot_row_sizes(a, p) == [sum(map(bool, row)) for row in ref_r[:len(ref_piv)]]
    if n:
        _assert_same(kernel_basis(a, p), _as_array(_ref_kernel(rows, n, p), n))
    _assert_same(extend_to_complement(a, None, p, ncols=n),
                 _as_array(_ref_complement(rows, None, n, p), n))
    if space is not None:
        sub = extend_to_complement(a, space, p)
        assert (sub == _as_array(_ref_complement(rows, space.tolist(), n, p), n)).all()


@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME])
@pytest.mark.parametrize("m,n", DIFF_SHAPES)
def test_elimination_matches_reference(p, m, n):
    rng = np.random.default_rng([p, m, n])
    cases = [np.zeros((m, n), dtype=np.int64),
             rng.integers(0, p, size=(m, n))]
    cases += [_rank_deficient(rng, m, n, p) for _ in range(3)]
    for a in cases:
        _check_against_reference(a, _rank_deficient(rng, n + 1, n, p), p)


# -- the sparse stage of rref and its hand-off to the dense loop ---------------

def _block_diagonal(rng, p, nblocks=16):
    """Random blocks of 1..5 rows and columns, some rank-deficient, on the
    diagonal, then rows and columns permuted at random."""
    blocks = []
    for b in range(nblocks):
        h, w = (int(x) for x in rng.integers(1, 6, size=2))
        blocks.append(_rank_deficient(rng, h, w, p) if b % 3 == 0
                      else rng.integers(0, p, size=(h, w)))
    a = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                 dtype=np.int64)
    i = j = 0
    for b in blocks:
        a[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]


def _graded_pieces(p):
    """Multiplication matrices of sparse forms on P^3, and their transposes."""
    m = GradedMatrix.make(4, (2, 2, 2, 1), (3, 3),
                          [["x0", "x1", "0", "x3^2"], ["0", "-x2", "x3", "x0*x1"]], p)
    for l in (0, 1):
        g = m.graded_piece(l)
        yield g
        yield g.T


def _sparse_inputs(p):
    """Inputs below DENSE_FILL, so that rref starts on the sparse stage."""
    rng = np.random.default_rng([p, 17])
    for _ in range(3):
        yield _block_diagonal(rng, p)
    # entries outside [0, p), some of them nonzero but zero mod p
    a = _block_diagonal(rng, p)
    yield a - p * (rng.random(a.shape) < 0.02)
    yield from _graded_pieces(p)
    # a sparse random matrix whose fill-in crosses DENSE_FILL partway
    yield _handoff_input(p)


def _handoff_input(p):
    rng = np.random.default_rng([p, 23])
    return rng.integers(1, p, size=(40, 44)) * (rng.random((40, 44)) < 0.06)


def _tall_sparse(rng, p, m=5775, n=35, per_col=35):
    """Shaped like the tallest catalog input: each of n columns nonzero in
    per_col random rows of m, and the last three columns combinations of
    others, so that the kernel has dimension 3."""
    a = np.zeros((m, n), dtype=np.int64)
    for c in range(n - 3):
        a[rng.choice(m, per_col, replace=False), c] = rng.integers(1, p, size=per_col)
    a[:, n - 3] = (a[:, 0] + 3 * a[:, 5]) % p
    a[:, n - 2] = 2 * a[:, 7] % p
    a[:, n - 1] = (a[:, 1] - a[:, 2] + a[:, n - 2]) % p
    return a


def _elimination_kind(a, p):
    """How `rref` eliminates a: 'sparse' to the end, 'handoff' to the dense
    loop partway, or 'dense' from the start."""
    starts = []
    with pytest.MonkeyPatch.context() as mp:
        dense = modp._dense_rref
        mp.setattr(modp, "_dense_rref",
                   lambda r, q, col, piv: starts.append(col) or dense(r, q, col, piv))
        rref(a, p)
    if not starts:
        return "sparse"
    return "handoff" if starts[0] else "dense"


@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME, MAX_PRIME])
def test_sparse_elimination_matches_reference(p):
    rng = np.random.default_rng([p, 29])
    sparse = list(_sparse_inputs(p)) + [np.zeros((30, 40), dtype=np.int64)]
    assert all(np.count_nonzero(a) < modp.DENSE_FILL * a.size for a in sparse)
    dense = [rng.integers(1, p, size=(14, 17)), _rank_deficient(rng, 17, 14, p),
             zeros(0, 7), zeros(9, 0), zeros(0, 0)]
    kinds = []
    for a in sparse + dense:
        kinds.append(_elimination_kind(a, p))
        n = a.shape[1]
        space = rng.integers(0, p, size=(6, n)) * (rng.random((6, n)) < 0.2)
        space[3] = (space[0] + 2 * space[1]) % p  # a dependent space row
        _check_against_reference(a, space, p)
    assert set(kinds) == {"sparse", "handoff", "dense"}
    # the tall input finishes sparse; its subspace branch is left out, as
    # the reference reduces all 5775 rows once per space row
    tall = _tall_sparse(rng, p)
    assert _elimination_kind(tall, p) == "sparse"
    assert rank(tall, p) == 32
    _check_against_reference(tall, None, p)


def _shape_of(cells):
    """The squarest shape with this many cells."""
    m = max(d for d in range(1, math.isqrt(cells) + 1) if cells % d == 0)
    return m, cells // m


def _diagonal_with_zero_rows(rng, p, n, zeros_rows):
    """n nonzero diagonal entries and `zeros_rows` zero rows, rows permuted.
    After the pivot whose column leaves j later columns, the rows not yet
    pivot rows hold j nonzeros in a block of (j + zeros_rows) * j cells:
    at least DENSE_FILL of it first when j = 10 - zeros_rows."""
    a = np.zeros((n + zeros_rows, n), dtype=np.int64)
    a[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n)
    return a[rng.permutation(len(a))]


@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME, MAX_PRIME])
def test_tiny_inputs_stay_on_the_sparse_stage(p, monkeypatch):
    # inputs, and remaining blocks at a hand-off, of at most TINY_CELLS
    # cells finish on the sparse stage, whatever their fill
    assert modp.DENSE_FILL == 0.1  # the diagonal inputs below rely on it
    rng = np.random.default_rng([p, 37])
    t = modp.TINY_CELLS
    for cells in (t - 1, t, t + 1):
        m, n = _shape_of(cells)
        for a in (rng.integers(1, p, size=(m, n)), _rank_deficient(rng, m, n, p),
                  _rank_deficient(rng, n, m, p)):
            assert _elimination_kind(a, p) == ("dense" if cells > t else "sparse")
            _check_against_reference(a, _rank_deficient(rng, 4, a.shape[1], p), p)
        sparse = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < 0.05)
        assert _elimination_kind(sparse, p) == "sparse"
        _check_against_reference(sparse, rng.integers(0, p, size=(3, n)), p)
    # the first block that reaches DENSE_FILL has 10 * (10 - z) cells
    for z in range(10):
        a = _diagonal_with_zero_rows(rng, p, 12, z)
        handoff = 10 * (10 - z) > t
        assert _elimination_kind(a, p) == ("handoff" if handoff else "sparse")
        _check_against_reference(a, rng.integers(0, p, size=(3, 12)), p)
        with monkeypatch.context() as mp:  # with no tiny rule: every one
            mp.setattr(modp, "TINY_CELLS", 0)
            assert _elimination_kind(a, p) == "handoff"


def test_sparse_finish_is_not_densified(monkeypatch):
    # rank, kernel_basis and the full-space complement read the finished
    # sparse rows; only rref builds the dense form
    a = _tall_sparse(np.random.default_rng(31), P, m=600, n=12, per_col=6)
    assert _elimination_kind(a, P) == "sparse"
    calls = []
    dense = modp._SparseRows.dense

    def spy(self):
        calls.append(1)
        return dense(self)

    monkeypatch.setattr(modp._SparseRows, "dense", spy)
    assert rank(a, P) == 9
    assert kernel_basis(a, P).shape == (3, 12)
    assert extend_to_complement(a, None, P, ncols=12).shape == (3, 12)
    assert calls == []
    rref(a, P)
    assert calls == [1]


@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME])
def test_dense_handoff_happens_partway(p, monkeypatch):
    starts = []
    dense = modp._dense_rref

    def spy(r, p, col, pivots):
        starts.append((col, len(pivots)))
        return dense(r, p, col, pivots)

    monkeypatch.setattr(modp, "_dense_rref", spy)
    a = _handoff_input(p)
    assert np.count_nonzero(a) < modp.DENSE_FILL * a.size
    rref(a, p)
    assert len(starts) == 1 and 0 < starts[0][0] < a.shape[1] and starts[0][1] > 0


def test_fewest_nonzeros_pivot(monkeypatch):
    # column 0 is nonzero in rows 2, 5 and 9; row 9 has the fewest nonzeros
    a = np.zeros((12, 20), dtype=np.int64)
    a[2, [0, 3, 4, 7]] = [3, 1, 4, 1]
    a[5, [0, 6, 8]] = [5, 9, 2]
    a[9, [0, 11]] = [6, 5]
    a[10, [3, 11, 19]] = [3, 5, 8]
    picked = []
    make_pivot = modp._SparseRows.make_pivot

    def spy(self, i, c):
        picked.append((c, i))
        return make_pivot(self, i, c)

    monkeypatch.setattr(modp._SparseRows, "make_pivot", spy)
    _check_against_reference(a, _rank_deficient(np.random.default_rng(1), 5, 20, P), P)
    assert (0, 9) in picked


BATCH_SHAPES = [(0, 3, 4), (6, 0, 4), (6, 4, 0), (8, 1, 1), (8, 3, 7),
                (8, 7, 3), (8, 5, 5), (4, 12, 10)]


def _check_batched_rank(stack, p):
    """batched_rank equals the reference rank of every matrix and leaves
    the stack intact; returns the ranks."""
    before = stack.copy()
    want = [len(_ref_rref(a.tolist(), stack.shape[2], p)[1]) for a in stack]
    got = batched_rank(stack, p)
    assert got.shape == (len(stack),) and got.tolist() == want
    assert (stack == before).all()
    return want


def _shared_blocks(rng, m, n, p):
    """Blocks of rows to share across a stack: random, dependent, zero,
    entries outside [0, p), and (when m > n) n rows of rank n, which leave
    the residual no free column."""
    for k in sorted({1, m // 2, m} & set(range(1, m + 1))):
        yield rng.integers(0, p, size=(k, n))
        yield _rank_deficient(rng, k, n, p)
        yield np.zeros((k, n), dtype=np.int64)
        yield rng.integers(-p * p, p * p, size=(k, n))
    if m > n:
        yield (np.diag(rng.integers(1, p, size=n))
               + np.triu(rng.integers(0, p, size=(n, n)), 1))


# the kernel of batched_rank computes in the smallest signed word that
# holds +-p (p - 1): the last prime of each word, then the next prime
WORD_PRIMES = [11, 13, 181, 191, 46337, 46349, MAX_PRIME]


@pytest.mark.parametrize("p", [3, 5, 101, DEFAULT_PRIME] + WORD_PRIMES)
@pytest.mark.parametrize("nbatch,m,n", BATCH_SHAPES)
def test_batched_rank_matches_reference(p, nbatch, m, n):
    rng = np.random.default_rng([p, nbatch, m, n])
    # all-zero, rank-deficient, random entries outside [0, p), every
    # entry p - 1, then entries 1 and p - 1: the largest products
    stack = np.zeros((5 * nbatch, m, n), dtype=np.int64)
    for i in range(nbatch, 2 * nbatch):
        stack[i] = _rank_deficient(rng, m, n, p)
    stack[2 * nbatch:3 * nbatch] = rng.integers(-p * p, p * p, size=(nbatch, m, n))
    stack[3 * nbatch:4 * nbatch] = p - 1
    stack[4 * nbatch:] = rng.choice([1, p - 1], size=(nbatch, m, n))
    want = _check_batched_rank(stack, p)
    before = stack.copy()
    # a sliced sub-stack of a shared array: ranks of the slice, array intact
    assert _check_batched_rank(stack[1::2], p) == want[1::2]
    # one matrix: every row is shared by the whole stack
    assert _check_batched_rank(stack[-1:], p) == want[-1:]
    assert (stack == before).all()
    # some or all rows shared by every matrix, at leading or scattered rows
    for block in _shared_blocks(rng, m, n, p):
        k = block.shape[0]
        for rows in (np.arange(k), np.sort(rng.permutation(m)[:k])):
            v = stack.copy()
            v[:, rows] = block
            _check_batched_rank(v, p)
            if len(v) > 1 and n:
                assert modp._shared_rows(v)[rows].all()
                # equal mod p but not as integers: not shared, same ranks
                v[-1, rows] += p
                _check_batched_rank(v, p)
    # every matrix equal, passed as a read-only broadcast view
    if m and n:
        a = rng.integers(0, p, size=(m, n))
        ranks = batched_rank(np.broadcast_to(a, (5, m, n)), p)
        assert ranks.tolist() == [len(_ref_rref(a.tolist(), n, p)[1])] * 5


@pytest.mark.parametrize("p", [5, DEFAULT_PRIME] + WORD_PRIMES)
def test_batched_rank_kernel_word_and_layout(monkeypatch, p):
    # the kernel reduces C-contiguous (columns, rows, batch) blocks of
    # int8 up to p = 11, int16 up to 181, int32 up to 46337, int64 above
    rng = np.random.default_rng(p)
    stack = rng.integers(-p, 2 * p, size=(9, 4, 6))
    seen = []
    reduce = modp._reduce

    def spy(x, q):
        seen.append((x.dtype, x.flags.c_contiguous, x.shape[1:]))
        return reduce(x, q)

    monkeypatch.setattr(modp, "_reduce", spy)
    ranks = modp._batched_rank(stack, p)
    word = np.dtype(np.int8 if p <= 11 else np.int16 if p <= 181
                    else np.int32 if p <= 46337 else np.int64)
    assert seen and set(seen) == {(word, True, (6, 9))}
    assert ranks.tolist() == [len(_ref_rref(a.tolist(), 6, p)[1]) for a in stack]


def test_batched_rank_kernel_many_rows():
    # more than 255 rows: each row its own pivot weight; one nonzero row
    # per matrix, then two equal nonzero rows 256 apart
    m = 300
    stack = np.zeros((m + m - 256, m, 2), dtype=np.int64)
    stack[np.arange(m), np.arange(m), 0] = 1
    pairs = np.arange(m - 256)
    stack[m + pairs, pairs] = stack[m + pairs, pairs + 256] = (3, 4)
    assert modp._batched_rank(stack, P).tolist() == [1] * len(stack)


def _plane_stacks(rng, k, p, nbatch=40):
    """(N, k, 3) stacks of points of P^2 as the Cayley-Bacharach sweep
    builds them: random points, rank-deficient ones (a repeated point,
    points on one line, a multiple of a point), an all-zero column, and
    entries outside [0, p)."""
    pts = rng.integers(0, p, size=(nbatch, k, 3))
    yield pts
    deficient = pts.copy()
    for a in deficient:
        a[:] = _rank_deficient(rng, k, 3, p)
    yield deficient
    if k >= 2:
        line = rng.integers(0, p, size=(nbatch, k, 2)) @ rng.integers(0, p, size=(2, 3))
        yield line % p
        multiple = pts.copy()
        multiple[:, -1] = pts[:, 0] * rng.integers(1, p, size=(nbatch, 1)) % p
        yield multiple
    for c in range(3):
        zero_col = pts.copy()
        zero_col[:, :, c] = 0
        yield zero_col
    yield pts + p * rng.integers(0, 2, size=pts.shape)  # in [0, 2p)
    yield pts - p * rng.integers(0, 4, size=pts.shape)
    yield rng.integers(-p * p, p * p, size=(nbatch, k, 3))


@pytest.mark.parametrize("p", [5, 11, 13, 181, DEFAULT_PRIME])
def test_batched_rank_column_step_on_sweep_stacks(p):
    # the shapes of the Cayley-Bacharach sweep: k = 0..6 points of P^2,
    # every stack and its all-but-one sub-stacks (strided copies), against
    # the reference; neither batched_rank nor its kernel changes the stack
    rng = np.random.default_rng([p, 29])
    for k in range(7):
        for stack in _plane_stacks(rng, k, p):
            want = _check_batched_rank(stack, p)
            before = stack.copy()
            assert modp._batched_rank(stack, p).tolist() == want
            assert (stack == before).all()
            for j in range(k):
                rest = stack[:, [t for t in range(k) if t != j], :]
                _check_batched_rank(rest, p)


@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME, MAX_PRIME])
def test_tiny_sparse_rows_match_the_numpy_build(p, monkeypatch):
    # the tiny constructor (at most TINY_CELLS cells) and the numpy one
    # give the same rows and column index, on inputs around the threshold
    # with negative entries, entries >= p, and zero rows
    rng = np.random.default_rng([p, 43])
    t = modp.TINY_CELLS
    for cells in (t - 1, t, t + 1):
        m, n = _shape_of(cells)
        for a in (rng.integers(-2 * p, 2 * p, size=(m, n)),
                  rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < 0.3),
                  rng.choice([0, p, -p, 1, -1, p + 1], size=(m, n))):
            a[rng.integers(m)] = 0
            a[rng.integers(m)] = p
            built = {}
            for name, limit in (("tiny", cells), ("numpy", cells - 1)):
                monkeypatch.setattr(modp, "TINY_CELLS", limit)
                s = modp._SparseRows(a, p)
                built[name] = (s.rows, s.cols)
                assert all(v == a[i, j] % p and v for i, row in enumerate(s.rows)
                           for j, v in row.items())
                assert all(all(type(v) is int for v in row.values()) for row in s.rows)
            assert built["tiny"] == built["numpy"]


def test_batched_rank_eliminates_only_the_residual(monkeypatch):
    # 35 shared rows of rank 30 and 6 varying rows: rank 30 + the rank of
    # the 6 rows with the 30 pivot columns cleared, 5 columns left
    rng = np.random.default_rng(41)
    shared = rng.integers(0, P, size=(30, 35))
    shared = np.concatenate([shared, shared[:5] * 2 % P])
    stack = rng.integers(0, P, size=(20, 41, 35))
    stack[:, 3:38] = shared
    stack[7, 38:] = stack[7, :3]  # varying rows that repeat in one matrix
    stack[-1, 40] = stack[0, 40]  # equal in the first and last matrix only
    seen = []
    kernel = modp._batched_rank

    def spy(a, p):
        seen.append(a.shape)
        return kernel(a, p)

    monkeypatch.setattr(modp, "_batched_rank", spy)
    _check_batched_rank(stack, P)
    assert seen == [(20, 6, 5)]
    seen.clear()
    _check_batched_rank(stack[:, 3:], P)  # no varying row at the top
    assert seen == [(20, 3, 5)]
    # entries far outside [0, p), equal mod p to the ones above
    big = stack + P * rng.integers(-2**40, 2**40, size=stack.shape)
    big[:, 3:38] = stack[:, 3:38] + P * 2**40
    assert batched_rank(big, P).tolist() == batched_rank(stack, P).tolist()


def _check_relative_rank(stack, sub, p):
    """relative_rank equals rank([M; S]) - rank(S) of every pair (M, S),
    by the reference elimination, and leaves both stacks intact."""
    before = stack.copy(), sub.copy()
    n = stack.shape[2]
    want = [len(_ref_rref(np.vstack([a, s]).tolist(), n, p)[1])
            - len(_ref_rref(s.tolist(), n, p)[1]) for a, s in zip(stack, sub)]
    got = relative_rank(stack, sub, p)
    assert got.shape == (len(stack),) and got.tolist() == want
    assert (stack == before[0]).all() and (sub == before[1]).all()
    return want


def _relative_cases(rng, nbatch, m, k, n, p):
    """(name, stack, sub) pairs: rows shared by every matrix in the stack
    only, in sub only, in both and in neither; sub rows in the span of the
    stack's shared rows; an all-shared stack; and an empty sub."""
    stack = rng.integers(0, p, size=(nbatch, m, n))
    sub = rng.integers(0, p, size=(nbatch, k, n))
    stack[1] = _rank_deficient(rng, m, n, p)
    sub[2] = 0
    yield "neither", stack, sub
    shared_stack = stack.copy()
    shared_stack[:, 1:] = rng.integers(0, p, size=(m - 1, n))
    yield "stack", shared_stack, sub
    shared_sub = sub.copy()
    shared_sub[:, :1] = rng.integers(-p * p, p * p, size=(1, n))
    yield "sub", stack, shared_sub
    yield "both", shared_stack, shared_sub
    # sub rows that the stack's shared rows span, up to varying rows
    spanned = sub.copy()
    spanned[:, 0] = rng.integers(0, p, size=(nbatch, m - 1)) @ shared_stack[0, 1:] % p
    yield "spanned", shared_stack, spanned
    # every row shared, as in a trivial bundle's constant sections
    yield "all-shared", np.broadcast_to(stack[3], stack.shape), sub
    yield "empty sub", shared_stack, sub[:, :0]


@pytest.mark.parametrize("p", [5, DEFAULT_PRIME, MAX_PRIME])
@pytest.mark.parametrize("nbatch,m,k,n", [(10, 4, 4, 10), (10, 5, 3, 7),
                                          (10, 6, 2, 4), (10, 3, 1, 3)])
def test_relative_rank_matches_reference(p, nbatch, m, k, n):
    rng = np.random.default_rng([p, m, k, n])
    for name, stack, sub in _relative_cases(rng, nbatch, m, k, n, p):
        want = _check_relative_rank(stack, sub, p)
        if name == "empty sub":
            assert want == batched_rank(stack, p).tolist()
        # the strided (N, rows, n) views of evaluated (N, n, rows) values
        # that geometry and sheaves pass in
        t_stack = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
        t_sub = np.ascontiguousarray(sub.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert not t_stack.flags.c_contiguous
        assert _check_relative_rank(t_stack, t_sub, p) == want, name


def test_relative_rank_clears_only_the_stack_shared_rows(monkeypatch):
    # the transform-line shape: every row of the stack shared, one row of
    # sub; only sub's row, with the shared pivot columns cleared, and then
    # sub alone reach the kernel
    rng = np.random.default_rng(7)
    shared = rng.integers(0, P, size=(8, 8))
    shared[-1] = shared[0] + shared[1]
    stack = np.broadcast_to(shared, (30, 8, 8))
    sub = rng.integers(0, P, size=(30, 1, 8))
    seen = []
    kernel = modp._batched_rank

    def spy(a, p):
        seen.append(a.shape)
        return kernel(a, p)

    monkeypatch.setattr(modp, "_batched_rank", spy)
    assert _check_relative_rank(stack, sub, P) == [7] * 30
    assert seen == [(30, 1, 1), (30, 1, 8)]


# one prime for each word of the batched_rank kernel: int8, int16, int32, int64
@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME, 65521])
def test_broadcast_stacks_match_their_copies(p):
    # a constant matrix broadcast over the points (batch stride 0), as
    # GradedMatrix.evaluate returns it, and its transposed view: the ranks
    # of a contiguous copy and of the reference elimination
    rng = np.random.default_rng(p)
    for m, n in [(1, 1), (3, 5), (5, 3), (6, 6), (12, 9)]:
        for a in (rng.integers(0, p, size=(m, n)), _rank_deficient(rng, m, n, p),
                  rng.integers(-p * p, p * p, size=(m, n)), zeros(m, n)):
            for npts in (0, 1, 7):
                view = np.broadcast_to(a, (npts, m, n))
                for stack in (view, view.transpose(0, 2, 1)):
                    copy = stack.copy()  # C-contiguous, batch stride m n
                    assert copy.flags.c_contiguous and stack.strides[0] == 0
                    assert copy.strides[0] != 0 or not npts
                    want = [len(_ref_rref(a.tolist(), n, p)[1])] * npts
                    assert batched_rank(stack, p).tolist() == want
                    assert batched_rank(copy, p).tolist() == want
                    for k in (0, 2):
                        sub = rng.integers(0, p, size=(npts, k, stack.shape[2]))
                        assert (relative_rank(stack, sub, p).tolist()
                                == _check_relative_rank(copy, sub, p))


def test_shared_rows_of_a_broadcast_stack_need_no_scan():
    # every row of a batch-stride-0 stack is shared; the scan of the stack
    # would allocate a bool per entry (2.45 MB here)
    a = np.random.default_rng(3).integers(0, P, size=(35, 35))
    stack = np.broadcast_to(a, (2000, 35, 35)).transpose(0, 2, 1)
    tracemalloc.start()
    try:
        shared = modp._shared_rows(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shared.all() and peak < 64 * 1024


def test_matmul_mod_reduces_every_max_terms(monkeypatch):
    # 3 * MAX_TERMS products of (p-1)**2 at the largest prime overflow int64
    # unless the sum is reduced between chunks
    p, t = MAX_PRIME, 3 * modp.MAX_TERMS
    x = np.full((2, 3, t), p - 1, dtype=np.int64)
    y = np.full((t, 4), p - 1, dtype=np.int64)
    assert (matmul_mod(x, y, p) == t * (p - 1) ** 2 % p).all()
    # many small chunks: exact sums, and batched_rank with 7 shared pivots
    monkeypatch.setattr(modp, "MAX_TERMS", 3)
    rng = np.random.default_rng(5)
    x = rng.integers(0, P, size=(4, 5, 11))
    y = rng.integers(0, P, size=(11, 6))
    assert (matmul_mod(x, y, P) == x.astype(object) @ y.astype(object) % P).all()
    stack = rng.integers(0, P, size=(6, 12, 10))
    stack[:, 2:9] = rng.integers(0, P, size=(7, 10))
    stack[:, 11] = stack[:, 0] + stack[:, 3]  # dependent on a shared row
    _check_batched_rank(stack, P)


@pytest.mark.parametrize("p", [3, 5, 101, DEFAULT_PRIME])
def test_reduce_matches_mod(p):
    b = (p - 1) ** 2
    x = np.concatenate([np.arange(-b, -b + 500), np.arange(-500, 500),
                        np.arange(b - 500, b + 1),
                        np.random.default_rng(p).integers(-b, b + 1, size=5000),
                        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])])
    assert (_reduce(x.copy(), p) == np.mod(x, p)).all()


@pytest.mark.parametrize("p", [5, 101, DEFAULT_PRIME, MAX_PRIME])
def test_pow_mod_array_matches_pow(p):
    rng = np.random.default_rng(p)
    base = np.concatenate([np.arange(-3, 4), [p - 1, p, p + 1, -p - 1, 2 * p - 1],
                           rng.integers(-p * p, p * p, size=200)])
    before = base.copy()
    for e in (0, 1, 2, 3, 10, p - 2, p - 1, 2**40 + 5):
        got = modp._pow_mod_array(base, e, p)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(int(a), e, p) for a in base], e
    assert (base == before).all()
