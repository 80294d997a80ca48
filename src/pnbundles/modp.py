"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
routines are deterministic: row reduction always picks the first usable
pivot, so echelon forms, pivot lists and kernel bases never depend on
anything but the input.

The default field is F_32003.  p must be an odd prime, and the row
update of `rref` needs p**2 < 2**63 so that a product of two residues
fits in int64.  `batched_rank` needs the same bound: it never inverts,
and updates each remaining row as piv * row - f * pivot_row with piv, f
and the entries in [0, p), so its intermediates stay within
[-(p-1)**2, (p-1)**2] before they are reduced.  Callers outside this
module need more headroom (point evaluation sums several such
products); the bound the package enforces is an open item (ROADMAP
item 3).
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 32003


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


def check_prime(p: int) -> int:
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
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
    """
    r = np.mod(np.asarray(mat, dtype=np.int64), p).copy()
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
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


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref(mat, p)[1])


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
    r, pivots = rref(mat, p)
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


class Echelon:
    """Incremental row-echelon container for repeated span queries.

    Rows are reduced against the stored pivots on insertion; `add` returns
    True iff the row enlarged the span.  Deterministic: pivots are always
    the first nonzero coordinate after reduction.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.pivots: dict[int, np.ndarray] = {}

    def reduce(self, row: np.ndarray) -> np.ndarray:
        r = np.mod(np.asarray(row, dtype=np.int64), self.p).copy()
        while True:
            nz = np.nonzero(r)[0]
            if nz.size == 0:
                return r
            j = int(nz[0])
            piv = self.pivots.get(j)
            if piv is None:
                return r
            r = (r - int(r[j]) * piv) % self.p
        return r

    def add(self, row: np.ndarray) -> bool:
        r = self.reduce(row)
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        self.pivots[j] = r * inv_mod(int(r[j]), self.p) % self.p
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


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
        _, piv = rref(image_rows, p)
        return _free_unit_rows(piv, ncols)[0]
    ech = Echelon(space_rows.shape[1], p)
    for row in image_rows:
        ech.add(row)
    picked = [row for row in space_rows if ech.add(row)]
    if picked:
        return np.array(picked, dtype=np.int64)
    return zeros(0, space_rows.shape[1])


def batched_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of small matrices, shape (N, m, n) -> (N,).

    Vectorized Gaussian elimination across the batch; intended for m, n
    up to a few dozen (point-evaluation fibers, tiny field tables).  The
    stack is eliminated along its shorter side, without row swaps or
    inverses (see the module docstring); the caller's array is not
    modified.
    """
    a = np.asarray(stack, dtype=np.int64)
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)  # rank(A) = rank(A^T)
    nbatch, m, n = a.shape
    # column-major copy: column c of every matrix is the contiguous cols[c]
    cols = _reduce(a.transpose(2, 0, 1).copy(), p)
    used = np.zeros((nbatch, m), dtype=bool)
    entries = np.arange(nbatch)
    for c in range(n):
        col = cols[c]
        cand = (col != 0) & ~used
        prow_idx = cand.argmax(axis=1)
        has = cand[entries, prow_idx]
        used[entries, prow_idx] |= has
        if c + 1 == n or not has.any():
            continue
        # row_i <- piv * row_i - f_i * pivot_row on the trailing columns,
        # with f_i = 0 on pivot rows (and piv = 1 where there is no pivot)
        piv = np.where(has, col[entries, prow_idx], 1)
        f = np.where(used, 0, col)
        rest = cols[c + 1:]
        prow = rest[:, entries, prow_idx]
        rest *= piv[:, None]
        rest -= prow[:, :, None] * f
        _reduce(rest, p)
    return used.sum(axis=1)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for an int64 array; returns x.

    Equal to np.mod(x, p), but numpy divides by a scalar through a
    precomputed reciprocal, which is several times faster than `%`.
    """
    q = x // p
    q *= p
    x -= q
    return x


def _pow_mod_array(base: np.ndarray, exp: int, p: int) -> np.ndarray:
    result = np.ones_like(base)
    b = np.mod(base, p)
    e = exp
    while e > 0:
        if e & 1:
            result = result * b % p
        b = b * b % p
        e >>= 1
    return result
