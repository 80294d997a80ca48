"""Matrices of homogeneous forms between twisted free modules.

A GradedMatrix records a map  ⊕_j O(src[j]) → ⊕_i O(tgt[i])  on projective
space P^{nvars-1}; entry (i, j) is homogeneous of degree tgt[i] - src[j]
(the zero form when that is negative).  Twists are written exactly as they
appear in displayed sequences; dualizing negates twists and transposes.

graded_piece(M, l) assembles the induced linear map on degree-l global
sections, H^0(⊕O(src+l)) → H^0(⊕O(tgt+l)), in the fixed monomial order of
:mod:`pnbundles.forms`.

Values at points go through one evaluator, `evaluate_blocks`: a matrix's
nonzero entries by degree, one product per degree.  `GradedMatrix.evaluate`
feeds it a matrix's forms and `piece_values` the coefficient rows of a
degree-l piece (sections as the engine holds them), so no Form is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .forms import Form, monomial_values, parse_form, product_rows, space_dim
from .modp import DEFAULT_PRIME, check_prime, matmul_mod


@dataclass(frozen=True)
class GradedMatrix:
    nvars: int
    src: tuple  # twists a_j of the source summands O(a_j)
    tgt: tuple  # twists b_i of the target summands O(b_i)
    entries: tuple  # tuple of rows, each a tuple of Form
    p: int = DEFAULT_PRIME

    def __hash__(self) -> int:
        """The hash of the fields, which walks every Form, computed once:
        nodes and cache keys hash their matrices on every lookup."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, self.src, self.tgt, self.entries, self.p))
            object.__setattr__(self, "_hash", h)
            return h

    @staticmethod
    def make(nvars: int, src, tgt, entries, p: int = DEFAULT_PRIME) -> "GradedMatrix":
        check_prime(p)
        src = tuple(int(a) for a in src)
        tgt = tuple(int(b) for b in tgt)
        if len(entries) != len(tgt):
            raise ValueError("row count must match target twists")
        rows = []
        for i, row in enumerate(entries):
            if len(row) != len(src):
                raise ValueError("column count must match source twists")
            out = []
            for j, f in enumerate(row):
                want = tgt[i] - src[j]
                if isinstance(f, str):
                    f = parse_form(f, nvars, p, degree=max(want, 0))
                if f.is_zero():
                    f = Form.zero(nvars, max(want, 0), p)
                elif f.degree != want:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {f.degree}, expected {want}")
                out.append(f)
            rows.append(tuple(out))
        return GradedMatrix(nvars, src, tgt, tuple(rows), p)

    @staticmethod
    def row(nvars: int, src, tgt0: int, forms, p: int = DEFAULT_PRIME) -> "GradedMatrix":
        """Single-row matrix ⊕O(src[j]) → O(tgt0)."""
        return GradedMatrix.make(nvars, src, (tgt0,), [list(forms)], p)

    @staticmethod
    def column(nvars: int, src0: int, tgt, forms, p: int = DEFAULT_PRIME) -> "GradedMatrix":
        """Single-column matrix O(src0) → ⊕O(tgt[i])."""
        return GradedMatrix.make(nvars, (src0,), tgt, [[f] for f in forms], p)

    @staticmethod
    def from_piece(nvars: int, tgt, l: int, rows, p: int = DEFAULT_PRIME) -> "GradedMatrix":
        """The map O(-l)^k → ⊕O(tgt) whose degree-l piece has the k rows,
        coefficient vectors over ⊕S_{tgt[i]+l}, as its columns; the
        inverse of graded_piece(l)."""
        dims = [space_dim(nvars, b + l) for b in tgt]
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), sum(dims)).tolist()
        offs = np.cumsum([0] + dims)
        entries = [[Form.from_coeff_vector(nvars, b + l, r[offs[i]:offs[i + 1]], p)
                    for r in rows] for i, b in enumerate(tgt)]
        return GradedMatrix.make(nvars, (-l,) * len(rows), tgt, entries, p)

    @property
    def nrows(self) -> int:
        return len(self.tgt)

    @property
    def ncols(self) -> int:
        return len(self.src)

    def entry(self, i: int, j: int) -> Form:
        return self.entries[i][j]

    def twist(self, l: int) -> "GradedMatrix":
        return GradedMatrix(self.nvars, tuple(a + l for a in self.src),
                            tuple(b + l for b in self.tgt), self.entries, self.p)

    def dual(self) -> "GradedMatrix":
        """Transpose with negated twists: map ⊕O(-tgt) → ⊕O(-src)."""
        rows = tuple(tuple(self.entries[i][j] for i in range(self.nrows))
                     for j in range(self.ncols))
        return GradedMatrix(self.nvars, tuple(-b for b in self.tgt),
                            tuple(-a for a in self.src), rows, self.p)

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self ∘ other, requiring other.tgt == self.src."""
        if other.tgt != self.src or other.nvars != self.nvars or other.p != self.p:
            raise ValueError("shapes do not compose")
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = Form.zero(self.nvars, max(other.src[j] - self.tgt[i], 0), self.p)
                for k in range(self.ncols):
                    f, g = self.entries[i][k], other.entries[k][j]
                    if f.is_zero() or g.is_zero():
                        continue
                    acc = acc + f * g
                row.append(acc)
            rows.append(row)
        return GradedMatrix.make(self.nvars, other.src, self.tgt, rows, self.p)

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)

    def stack(self, other: "GradedMatrix") -> "GradedMatrix":
        """Stack targets: same source, concatenated target summands."""
        if other.src != self.src:
            raise ValueError("stack needs identical sources")
        return GradedMatrix(self.nvars, self.src, self.tgt + other.tgt,
                            self.entries + other.entries, self.p)

    def graded_piece(self, l: int) -> np.ndarray:
        """Linear map on degree-l sections, target-rows x source-columns,
        scattered block by block from `product_rows`."""
        nv = self.nvars
        row_offs = list(accumulate((space_dim(nv, b + l) for b in self.tgt), initial=0))
        col_offs = list(accumulate((space_dim(nv, a + l) for a in self.src), initial=0))
        mat = np.zeros((row_offs[-1], col_offs[-1]), dtype=np.int64)
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                if f.terms and col_offs[j + 1] > col_offs[j]:
                    rows, coeffs = product_rows(f, self.src[j] + l)
                    mat[row_offs[i] + rows,
                        np.arange(col_offs[j], col_offs[j + 1])] = coeffs[:, None]
        return mat

    def evaluate(self, pts) -> np.ndarray:
        """Entrywise values at points, in the standard trivialization:
        an (npts, nvars) array of coordinates -> (npts, nrows, ncols).
        A matrix with no nonzero entry of positive degree is returned as a
        read-only broadcast view (see `evaluate_blocks`)."""
        by_degree: dict = {}
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                if not f.is_zero():
                    by_degree.setdefault(f.degree, []).append((i, j, f))
        blocks = {}
        for d, fs in by_degree.items():
            rows, cols, forms = zip(*fs)
            blocks[d] = (rows, cols, np.stack([f.coeff_vector() for f in forms], axis=1))
        return evaluate_blocks(self.nvars, (self.nrows, self.ncols), blocks, pts, self.p)

    def maximal_minors(self) -> list[Form]:
        """All t×t minors, t = min(nrows, ncols)."""
        return self.minors(min(self.nrows, self.ncols))

    def minors(self, size: int) -> list[Form]:
        """All size×size minors as forms, row subsets outermost, both in
        lexicographic order."""
        if size == 0:
            return []
        return [self._det(rows, cols)
                for rows in combinations(range(self.nrows), size)
                for cols in combinations(range(self.ncols), size)]

    def _det(self, rows, cols) -> Form:
        # Laplace expansion; minors here are at most 4x4.
        if len(rows) == 1:
            return self.entries[rows[0]][cols[0]]
        acc = None
        for k, c in enumerate(cols):
            f = self.entries[rows[0]][c]
            sub_rows = rows[1:]
            sub_cols = cols[:k] + cols[k + 1:]
            if f.is_zero():
                continue
            term = f * self._det(sub_rows, sub_cols)
            if k % 2 == 1:
                term = term.scale(-1)
            acc = term if acc is None else acc + term
        if acc is None:
            deg = sum(self.tgt[r] for r in rows) - sum(self.src[c] for c in cols)
            return Form.zero(self.nvars, max(deg, 0), self.p)
        return acc


def evaluate_blocks(nvars: int, shape, blocks: dict, pts, p: int) -> np.ndarray:
    """Values at points of an nrows x ncols matrix of forms given by its
    nonzero entries grouped by degree: blocks[d] = (rows, cols, coeffs),
    the entries at (rows[k], cols[k]) having the columns of the
    (dim S_d, len(rows)) array coeffs, reduced mod p, as coefficient
    vectors.  An (npts, nvars) array of coordinates -> (npts, nrows, ncols).

    The one batched point evaluator of matrices: `GradedMatrix.evaluate`
    and `piece_values` call it.  Each degree costs one `monomial_values`
    and one `matmul_mod`.  With no degree above 0 (the sections of a
    trivial bundle, say) every point takes the same value: it is built
    once and returned as a read-only `np.broadcast_to` view, so callers
    must not write into the result."""
    pts = np.asarray(pts, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != nvars:
        raise ValueError("wrong number of coordinates")
    if set(blocks) <= {0}:
        const = np.zeros(shape, dtype=np.int64)
        if 0 in blocks:
            rows, cols, coeffs = blocks[0]
            const[rows, cols] = coeffs[0]
        return np.broadcast_to(const, (pts.shape[0],) + tuple(shape))
    out = np.zeros((pts.shape[0],) + tuple(shape), dtype=np.int64)
    for d, (rows, cols, coeffs) in blocks.items():
        out[:, rows, cols] = matmul_mod(monomial_values(nvars, d, pts, p), coeffs, p)
    return out


def piece_values(nvars: int, tgt, l: int, rows, pts, p: int = DEFAULT_PRIME) -> np.ndarray:
    """`GradedMatrix.from_piece(nvars, tgt, l, rows, p).evaluate(pts)`,
    read from the coefficient rows with no Form built: row j's block over
    S_{tgt[i]+l} is entry (i, j).  Zero blocks are skipped, and blocks of
    one degree are evaluated together."""
    offs = list(accumulate((space_dim(nvars, b + l) for b in tgt), initial=0))
    rows = np.mod(np.asarray(rows, dtype=np.int64).reshape(len(rows), offs[-1]), p)
    by_degree: dict = {}
    for i, b in enumerate(tgt):
        block = rows[:, offs[i]:offs[i + 1]]
        cols = np.flatnonzero(block.any(axis=1))
        if cols.size:
            by_degree.setdefault(b + l, []).append((np.full(cols.size, i), cols, block[cols].T))
    blocks = {d: tuple(np.concatenate(part, axis=-1) for part in zip(*parts))
              for d, parts in by_degree.items()}
    return evaluate_blocks(nvars, (len(tgt), rows.shape[0]), blocks, pts, p)


def hn_matrix(m: GradedMatrix, l: int) -> np.ndarray:
    """Matrix of the induced map on top cohomology H^n(·(l)), n = nvars-1.

    H^n(O(a)(l)) is the dual of H^0(O(-a-l-n-1)); in dual monomial
    coordinates the induced map is the transpose of the degree
    (-l-n-1) piece of the dual matrix.
    """
    n = m.nvars - 1
    return m.dual().graded_piece(-l - n - 1).T


def identity_matrix(nvars: int, twists, p: int = DEFAULT_PRIME) -> GradedMatrix:
    twists = tuple(twists)
    rows = [[Form.constant(nvars, 1, p) if i == j else Form.zero(nvars, 0, p)
             for j in range(len(twists))] for i in range(len(twists))]
    return GradedMatrix.make(nvars, twists, twists, rows, p)
