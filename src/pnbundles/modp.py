"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  A
reduced row echelon form is unique, and kernel bases and complements are
read off it, so results never depend on anything but the input.

There is one elimination, `_eliminate`: Gauss-Jordan on sparse rows
(`_SparseRows`), handed to a dense int64 loop once the input or its
fill-in reaches DENSE_FILL.  A tiny input, or a tiny block left at a
hand-off (at most TINY_CELLS cells), stays on the sparse stage to the
end, whatever its fill: there the dense loop's numpy calls per column cost
more than the Python ints.  An input that finishes sparse is made dense
only by the callers that need its whole echelon form: `rref`, `solve` and
the shared rows of `_clear_shared`.  `rank` and `extend_to_complement`
(full space) read its pivot columns, `pivot_row_sizes` the sizes of its
pivot rows, and `kernel_basis` fills its basis from the sparse pivot rows.

`batched_rank` and `relative_rank` share one reduction, `_clear_shared`:
the rows of a stack that are equal in every matrix are eliminated once,
and only the residual of the other rows (and, for `relative_rank`, of the
rows taken modulo) is eliminated per matrix.  A stack with batch stride 0
(a constant matrix broadcast over the points by `GradedMatrix.evaluate`)
shares every row without a scan, so its rows are reduced once by `rref`.

The default field is F_32003; p must be an odd prime of at most MAX_PRIME
(< 2**25).  The sparse stage of `rref` and `extend_to_complement` compute
with Python ints and are exact for any p.  The dense stage of `rref` and
`batched_rank` need p**2 < 2**63: `batched_rank` never inverts, and
updates each row as piv * row - f * pivot_row with piv, f and the entries
in [0, p), so its intermediates stay within [-(p-1)**2, (p-1)**2].  Its
elimination therefore runs in the smallest signed word that holds them
(and the multiples of p, down to -p*(p-1), that reduction subtracts):
int8 for p <= 11 (F_5), int16 for p <= 181, int32 for p <= 46337
(F_32003), int64 above.  It works on one (n, m, N) copy of an (N, m, n)
stack, the batch innermost, so every step is a reduction or an update
across the contiguous batch.  Each column step picks its pivot entries
and rows by products with a bool mask, which keep the word, and takes
the column itself as the multipliers f; the one Python int that meets
the word is p, in the reduction.  A sum of products of residues is
reduced every MAX_TERMS terms (`matmul_mod`), and MAX_TERMS * (p-1)**2
+ p < 2**63 sets MAX_PRIME.  Its callers are `GradedMatrix.evaluate`
(monomial values times coefficient vectors, section matrices included)
and `_clear_shared`, whose product clears the pivot columns of the rows
shared by the whole stack from the other rows of every matrix (one term
per shared pivot).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

DEFAULT_PRIME = 32003
MAX_PRIME = 33554393  # the largest prime below 2**25
MAX_TERMS = 2**12

# `rref` eliminates on the int64 array once the rows that are not yet
# pivot rows hold at least this share of nonzeros in the block they span,
# unless that block has at most TINY_CELLS cells: below that size the
# per-column numpy calls of the dense loop cost more than the Python ints.
DENSE_FILL = 0.1
TINY_CELLS = 64


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64, typed=True)  # constructors call it on every form
def check_prime(p: int) -> int:
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} is above the largest supported prime {MAX_PRIME}")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in F_p")
    return pow(a, p - 2, p)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, ncols), dtype=np.int64)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_cols).  Pivot entries are normalized to 1 and are
    the only nonzero entries in their columns.

    R is the dense form of `_eliminate`'s result.  It is built only where
    a caller needs all of it: here, in `solve`, and for the shared rows of
    `_clear_shared`.  `rank`, `kernel_basis` and `extend_to_complement`
    (full space) use `_eliminate` directly and never densify an input
    that finishes on the sparse stage.
    """
    out = _eliminate(mat, p)
    if isinstance(out, _SparseRows):
        return out.dense(), list(out.pivot)
    return out


def _eliminate(mat: np.ndarray, p: int) -> _SparseRows | tuple[np.ndarray, list[int]]:
    """The elimination behind `rref`: the finished `_SparseRows` when every
    column was done on the sparse stage, else the dense (R, pivots).

    A sparse or tiny input is first eliminated on `_SparseRows`, pivoting
    each column on the unused row with the fewest nonzeros; once fill-in
    makes the unused rows DENSE_FILL dense in a block of more than
    TINY_CELLS cells (or the input is such a block), `_dense_rref`
    finishes.  The form is unique, so pivot choices do not show.
    """
    a = np.asarray(mat, dtype=np.int64)
    nrows, ncols = a.shape
    if a.size > TINY_CELLS and np.count_nonzero(a) >= DENSE_FILL * a.size:
        return _dense_rref(np.mod(a, p), p, 0, [])
    s = _SparseRows(a, p)
    nnz = sum(map(len, s.rows))  # of the rows not yet pivot rows
    unused = nrows
    for c in range(ncols):
        cand = s.cols[c] - s.used
        if not cand:
            continue
        i = min(cand, key=lambda t: (len(s.rows[t]), t))
        nnz += s.make_pivot(i, c) - len(s.rows[i])
        unused -= 1
        left = unused * (ncols - c - 1)  # cells of the block still to do
        if left > TINY_CELLS and nnz >= DENSE_FILL * left:
            return _dense_rref(s.dense(), p, c + 1, list(s.pivot))
    return s


def _pivots(mat: np.ndarray, p: int) -> list[int]:
    """The pivot columns of rref(mat, p), without densifying a sparse
    elimination."""
    out = _eliminate(mat, p)
    return list(out.pivot) if isinstance(out, _SparseRows) else out[1]


def pivot_row_sizes(mat: np.ndarray, p: int) -> list[int]:
    """The number of nonzeros of each pivot row of rref(mat, p), in pivot
    order, without densifying a sparse elimination."""
    out = _eliminate(mat, p)
    if isinstance(out, _SparseRows):
        return [len(out.rows[t]) for t in out.pivot.values()]
    r, pivots = out
    return np.count_nonzero(r[:len(pivots)], axis=1).tolist()


def _dense_rref(r: np.ndarray, p: int, col: int,
                pivots: list[int]) -> tuple[np.ndarray, list[int]]:
    """The column loop of `rref` on r, in place, from column `col` on: rows
    [0, len(pivots)) of r are the pivot rows of the columns in `pivots`,
    and the rows below them are zero left of `col`."""
    nrows, ncols = r.shape
    row = len(pivots)
    for col in range(col, ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        # Left of `col`, row `row` and every row still to be updated are
        # already zero, so only the trailing columns change.
        r[row, col:] = r[row, col:] * inv_mod(int(r[row, col]), p) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other, col:] = (r[other, col:]
                              - np.outer(r[other, col], r[row, col:])) % p
        pivots.append(col)
        row += 1
    return r, pivots


class _SparseRows:
    """Rows over F_p as {col: value} dicts of Python ints, a column ->
    rows index, and the pivots so far (column -> row, in the order found).
    Gauss-Jordan: a pivot column is nonzero only in its pivot row."""

    def __init__(self, a: np.ndarray, p: int):
        """From an int64 array a, not necessarily reduced mod p: a tiny one
        row by row from a.tolist(), a larger one from its nonzeros."""
        self.p = p
        self.pivot: dict[int, int] = {}
        self.used: set[int] = set()
        self.rows: list[dict[int, int]]
        self.cols: list[set[int]] = [set() for _ in range(a.shape[1])]
        if a.size <= TINY_CELLS:  # fewer Python steps than numpy calls
            self.rows = [{k: x for k, v in enumerate(row) if (x := v % p)}
                         for row in a.tolist()]
            for t, row in enumerate(self.rows):
                for k in row:
                    self.cols[k].add(t)
        else:
            self.rows = [{} for _ in range(a.shape[0])]
            flat = a.ravel()
            at = np.flatnonzero(flat)  # faster than np.nonzero(a)
            v = flat[at] % p
            nz = v != 0
            i, j = np.divmod(at[nz], a.shape[1])
            for t, k, x in zip(i.tolist(), j.tolist(), v[nz].tolist()):
                self.rows[t][k] = x
                self.cols[k].add(t)

    def make_pivot(self, i: int, c: int) -> int:
        """Scale row i to 1 at column c and clear c from every other row;
        returns the net change in nonzeros of the rows not yet pivot rows."""
        p, rows, cols = self.p, self.rows, self.cols
        piv = rows[i]
        scale = pow(piv[c], p - 2, p)
        if scale != 1:
            piv = rows[i] = {k: v * scale % p for k, v in piv.items()}
        self.pivot[c] = i
        self.used.add(i)
        grown = 0
        for t in cols[c] - {i}:
            row = rows[t]
            before = len(row)
            f = row[c]
            for k, v in piv.items():
                x = row.get(k)
                if x is None:
                    row[k] = -f * v % p
                    cols[k].add(t)
                elif (x := (x - f * v) % p):
                    row[k] = x
                else:
                    del row[k]
                    cols[k].discard(t)
            if t not in self.used:
                grown += len(row) - before
        return grown

    def dense(self) -> np.ndarray:
        """int64 array: the pivot rows in pivot-column order, then the
        other rows in input order."""
        rows = [self.rows[t] for t in self.pivot.values()]
        rows += [x for t, x in enumerate(self.rows) if t not in self.used]
        out = zeros(len(rows), len(self.cols))
        at = np.repeat(np.arange(len(rows)), [len(x) for x in rows])
        out[at, list(chain.from_iterable(rows))] = list(
            chain.from_iterable(x.values() for x in rows))
        return out

    def kernel_basis(self) -> np.ndarray:
        """`kernel_basis` of a finished elimination, straight from the pivot
        rows.  The row of pivot column c is 1 at c and zero at the other
        pivot columns; where it holds v at a free column f, the basis
        vector of f holds -v at c."""
        pivots = list(self.pivot)
        basis, free = _free_unit_rows(pivots, len(self.cols))
        at = np.zeros(len(self.cols), dtype=np.intp)  # free column -> its vector
        at[free] = np.arange(free.size)
        rows = [self.rows[t] for t in self.pivot.values()]
        n = sum(map(len, rows))
        col = np.fromiter(chain.from_iterable(rows), np.intp, n)
        val = np.fromiter(chain.from_iterable(x.values() for x in rows), np.int64, n)
        piv = np.repeat(np.array(pivots, dtype=np.intp), [len(x) for x in rows])
        off = col != piv
        basis[at[col[off]], piv[off]] = -val[off] % self.p
        return basis


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(_pivots(mat, p))


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Deterministic echelon basis of the right kernel, one row per vector.

    The k-th basis vector has a 1 in the k-th free column and zeros in the
    later free columns, so the result is unique given the input.
    """
    mat = np.asarray(mat, dtype=np.int64)
    nrows, ncols = mat.shape
    if ncols == 0:
        return zeros(0, 0)
    if nrows == 0:
        return np.eye(ncols, dtype=np.int64)
    out = _eliminate(mat, p)
    if isinstance(out, _SparseRows):
        return out.kernel_basis()
    r, pivots = out
    basis, free = _free_unit_rows(pivots, ncols)
    basis[:, pivots] = (-r[:len(pivots)][:, free].T) % p
    return basis


def _free_unit_rows(pivots: list[int], ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """One unit row per non-pivot column, in column order, and those columns."""
    mask = np.ones(ncols, dtype=bool)
    mask[pivots] = False
    free = np.flatnonzero(mask)
    rows = zeros(free.size, ncols)
    rows[np.arange(free.size), free] = 1
    return rows, free


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of mat @ x = rhs over F_p, or None if inconsistent.

    rhs may be a vector or a matrix of stacked right-hand columns; the
    particular solution has zeros in all free coordinates.
    """
    mat = np.asarray(mat, dtype=np.int64)
    rhs = np.mod(np.asarray(rhs, dtype=np.int64), p)
    vec_in = rhs.ndim == 1
    if vec_in:
        rhs = rhs[:, None]
    nrows, ncols = mat.shape
    aug = np.concatenate([np.mod(mat, p), rhs], axis=1)
    r, pivots = rref(aug, p)
    sol_pivots = [c for c in pivots if c < ncols]
    if len(sol_pivots) != len(pivots):
        return None
    x = zeros(ncols, rhs.shape[1])
    for i, pc in enumerate(sol_pivots):
        x[pc] = r[i, ncols:]
    return x[:, 0] if vec_in else x


def extend_to_complement(image_rows: np.ndarray, space_rows: np.ndarray | None,
                         p: int, ncols: int | None = None) -> np.ndarray:
    """Coset representatives for span(space_rows)/span(image_rows).

    space_rows = None means the full coordinate space; the representatives
    are then the unit vectors at the non-pivot columns of the image, which
    avoids materializing an identity matrix.  Otherwise space_rows are
    scanned in order and kept iff they enlarge the span (deterministic).
    """
    if space_rows is None:
        if ncols is None:
            raise ValueError("need the ambient dimension for a full space")
        if image_rows.size == 0:
            return np.eye(ncols, dtype=np.int64)
        return _free_unit_rows(_pivots(image_rows, p), ncols)[0]
    space = np.asarray(space_rows, dtype=np.int64)
    img = np.asarray(image_rows, dtype=np.int64).reshape(len(image_rows), space.shape[1])
    s = _SparseRows(np.concatenate([img, space]), p)
    # Every pivot column is cleared from all rows, the later ones too, so a
    # row is zero when it is reached iff the rows before it span it.
    kept = []
    for t, row in enumerate(s.rows):
        if row:
            s.make_pivot(t, min(row))
            kept.append(t - len(img))
    return space[[t for t in kept if t >= 0]]


def batched_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of small matrices, shape (N, m, n) -> (N,).

    Vectorized Gaussian elimination across the batch; intended for m, n
    up to a few dozen (point-evaluation fibers, tiny field tables).  Rows
    that are equal, as integers, in every matrix (constant sections of a
    trivial bundle) are reduced once (`_clear_shared`), and only the
    residual of the other rows is eliminated per matrix.
    The elimination runs along the shorter side, without row swaps or
    inverses (see the module docstring); the caller's array is not
    modified.
    """
    a = np.asarray(stack, dtype=np.int64)
    rho, rest = _clear_shared(a, a[:, :0], p)
    return rho + _batched_rank(rest, p)


def relative_rank(stack: np.ndarray, sub: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the rows of each stack[k] modulo the row span of sub[k],
    rank([stack[k]; sub[k]]) - rank(sub[k]), for stacks (N, m, n) and
    (N, k, n) -> (N,).  The shared rows of stack are reduced once, and
    only its other rows and the rows of sub are stacked and eliminated;
    neither input is modified."""
    a = np.asarray(stack, dtype=np.int64)
    s = np.asarray(sub, dtype=np.int64)
    rho, rest = _clear_shared(a, s, p)
    out = rho + _batched_rank(rest, p)
    if s.shape[1]:
        out -= batched_rank(s, p)
    return out


def _clear_shared(a: np.ndarray, extra: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """(rho, rest) with rank([a[k]; extra[k]]) = rho + rank(rest[k]) for
    every k, for int64 stacks a (N, m, n) and extra (N, k, n).

    The rows of a that are equal in every matrix (`_shared_rows`) are
    reduced once by `rref`, to rank rho with pivot columns P.  rest is the
    other rows of a, then the rows of extra, each with its P entries
    cleared by the pivot rows in one batched product (`matmul_mod`) and
    the P columns dropped: reducing rows modulo the span of the shared
    rows does not change the rank of the whole.  With no shared row, rest
    is a itself when extra has no rows; a and extra are not modified.
    """
    shared = _shared_rows(a)
    if not shared.any():
        return 0, (np.concatenate([a, extra], axis=1) if extra.shape[1] else a)
    rest = a[:, ~shared]  # a copy
    if extra.shape[1]:
        rest = np.concatenate([rest, extra], axis=1)
    _reduce(rest, p)
    r, piv = rref(a[0, shared], p)
    free = np.ones(a.shape[2], dtype=bool)
    free[piv] = False
    acc = matmul_mod(rest[:, :, piv], r[:len(piv)][:, free], p)
    return len(piv), rest[:, :, free] - acc


def matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for int64 arrays with entries in [0, p), reduced every
    MAX_TERMS terms of each sum so that int64 holds it."""
    acc = x[..., :MAX_TERMS] @ y[:MAX_TERMS]
    for s in range(MAX_TERMS, x.shape[-1], MAX_TERMS):
        acc = _reduce(acc, p) + x[..., s:s + MAX_TERMS] @ y[s:s + MAX_TERMS]
    return _reduce(acc, p)


def _shared_rows(a: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (N, m, n) stack that are equal in every
    matrix.  A stack whose batch stride is 0 is one matrix broadcast over
    the stack (`GradedMatrix.evaluate` of a constant matrix), so every row
    is shared, with no scan.  Otherwise only the rows equal in the first
    and last matrix, which keeps the usual stack with no such row at
    O(m n), and the rows between them are compared across the stack; the
    span is a view, not a copy."""
    if a.size == 0:
        return np.zeros(a.shape[1], dtype=bool)
    if a.strides[0] == 0:
        return np.ones(a.shape[1], dtype=bool)
    same = (a[0] == a[-1]).all(axis=1)
    rows = np.flatnonzero(same)
    if len(rows):
        lo, hi = rows[0], rows[-1] + 1
        same[lo:hi] &= (a[:, lo:hi] == a[0, lo:hi]).all(axis=(0, 2))
    return same


def _batched_rank(a: np.ndarray, p: int) -> np.ndarray:
    """The elimination of `batched_rank` on every matrix of an int64
    stack, entries of any size; a is not modified.  It runs on one copy
    in the (n, m, N) layout and the word of the module docstring, and
    takes as pivot the first candidate row, by a max over weighted rows.
    One bool mask, of the rows not yet pivot rows, picks the candidates
    of a column and counts the rank.  Every row is updated, the pivot rows
    too: they are never candidates again, so the update needs no mask."""
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)  # rank(A) = rank(A^T)
    nbatch, m, n = a.shape
    if a.size and a.view(np.uint64).max() >= p:  # a negative is >= 2**63
        a = np.mod(a, p)
    # column c of every matrix is cols[c], an (m, N) block, in the smallest
    # signed word that holds +-p * (p - 1) (see the module docstring)
    word = next(w for w, top in ((np.int8, 2**7), (np.int16, 2**15),
                                 (np.int32, 2**31), (np.int64, 2**63))
                if p * (p - 1) < top)
    cols = a.transpose(2, 1, 0).astype(word, order="C")
    # the first candidate row of a column weighs most: it is the pivot
    weights = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]
    free = np.ones((m, nbatch), dtype=bool)  # not yet a pivot row
    for c in range(n):
        col = cols[c]
        cand = ((col != 0) & free) * weights
        best = cand.max(axis=0)
        has = best != 0
        sel = (cand == best) & has  # one-hot in each matrix with a pivot
        free ^= sel
        if c + 1 == n or not has.any():
            continue
        # row_i <- piv * row_i - col_i * pivot_row on the trailing columns
        # (piv = 1 where there is no pivot)
        piv = (col * sel).sum(axis=0, dtype=col.dtype)
        piv += ~has
        rest = cols[c + 1:]
        prow = (rest * sel).sum(axis=1, dtype=rest.dtype)
        rest *= piv
        rest -= prow[:, None, :] * col
        _reduce(rest, p)
    # counted in the weights' word, which holds m: a bool sum to int64 is
    # several times slower
    return m - free.sum(axis=0, dtype=weights.dtype).astype(np.intp)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a signed integer array; returns x.

    Equal to np.mod(x, p), but numpy divides by a scalar through a
    precomputed reciprocal, which is several times faster than `%`.
    """
    q = x // p
    q *= p
    x -= q
    return x


def _pow_mod_array(base: np.ndarray, exp: int, p: int) -> np.ndarray:
    """base**exp mod p entrywise for an integer array and exp >= 0, as a
    new int64 array: square and multiply, in place, by `_reduce`."""
    b = _reduce(np.array(base, dtype=np.int64), p)
    result = np.ones_like(b)
    while exp:
        if exp & 1:
            result *= b
            _reduce(result, p)
        exp >>= 1
        if exp:
            b *= b
            _reduce(b, p)
    return result
