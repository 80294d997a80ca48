"""Bounded complexes of sums of line bundles with explicit differentials.

Positions are a contiguous integer range; the differential at position k
maps term k to term k-1.  Everything is symbolic: d∘d = 0 is checked on
the matrices of forms, and exactness is certified degreewise on a finite
window of twists (never globally).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .forms import Form, space_dim
from .graded import GradedMatrix
from .modp import DEFAULT_PRIME, inv_mod, rank, solve


@dataclass(frozen=True)
class FreeComplex:
    nvars: int
    lo: int
    hi: int
    terms: tuple          # terms[k - lo] = tuple of twists at position k
    diffs: tuple          # diffs[k - lo - 1] = GradedMatrix term_k -> term_{k-1}
    p: int = DEFAULT_PRIME

    @staticmethod
    def make(nvars: int, lo: int, terms, diffs, p: int = DEFAULT_PRIME) -> "FreeComplex":
        terms = tuple(tuple(int(a) for a in t) for t in terms)
        diffs = tuple(diffs)
        hi = lo + len(terms) - 1
        if len(diffs) != max(len(terms) - 1, 0):
            raise ValueError("need one differential per adjacent pair")
        for k, d in enumerate(diffs):
            if d.src != terms[k + 1] or d.tgt != terms[k]:
                raise ValueError(f"differential {k} has incompatible twists")
        cx = FreeComplex(nvars, lo, hi, terms, diffs, p)
        cx.check_dd_zero()
        return cx

    def check_dd_zero(self) -> None:
        for k in range(len(self.diffs) - 1):
            if not self.diffs[k].compose(self.diffs[k + 1]).is_zero():
                raise ValueError(f"d∘d != 0 at position {self.lo + k + 2}")

    def term(self, k: int) -> tuple:
        if self.lo <= k <= self.hi:
            return self.terms[k - self.lo]
        return ()

    def diff(self, k: int) -> GradedMatrix | None:
        """Differential term_k -> term_{k-1}, None outside the range."""
        if self.lo + 1 <= k <= self.hi:
            return self.diffs[k - self.lo - 1]
        return None

    def positions(self) -> range:
        return range(self.lo, self.hi + 1)

    def twist(self, l: int) -> "FreeComplex":
        return FreeComplex(self.nvars, self.lo, self.hi,
                           tuple(tuple(a + l for a in t) for t in self.terms),
                           tuple(d.twist(l) for d in self.diffs), self.p)

    def shift(self, k: int) -> "FreeComplex":
        """Homological shift by k; differentials pick up the sign (-1)^k."""
        diffs = self.diffs
        if k % 2:
            diffs = tuple(_negate(d) for d in diffs)
        return FreeComplex(self.nvars, self.lo + k, self.hi + k,
                           self.terms, diffs, self.p)

    def dual(self) -> "FreeComplex":
        """Entrywise dual; position k becomes -k."""
        terms = tuple(tuple(-a for a in t) for t in reversed(self.terms))
        diffs = tuple(d.dual() for d in reversed(self.diffs))
        return FreeComplex(self.nvars, -self.hi, -self.lo, terms, diffs, self.p)

    def euler_piece(self, l: int) -> int:
        """Alternating sum of graded-piece dimensions at twist l."""
        total = 0
        for k in self.positions():
            dim = sum(space_dim(self.nvars, a + l) for a in self.term(k))
            total += dim if k % 2 == 0 else -dim
        return total


def _negate(m: GradedMatrix) -> GradedMatrix:
    rows = [[f.scale(-1) for f in row] for row in m.entries]
    return GradedMatrix.make(m.nvars, m.src, m.tgt, rows, m.p)


# -- Koszul complexes --------------------------------------------------------

def koszul(forms_list, nvars: int | None = None,
           p: int = DEFAULT_PRIME) -> FreeComplex:
    """Koszul complex of f_1..f_m, positions m..0 with C_0 = O.

    C_k = ⊕_{|S|=k} O(-Σ_{i∈S} deg f_i); the differential sends the
    basis element of S = {i_1<..<i_k} to Σ_t (-1)^{t+1} f_{i_t}·e_{S∖i_t}.
    Summands are ordered by itertools.combinations, which fixes every
    matrix in the complex.
    """
    fs = list(forms_list)
    if not fs:
        raise ValueError("need at least one form")
    if nvars is None:
        nvars = fs[0].nvars
    for f in fs:
        if f.is_zero():
            raise ValueError("Koszul forms must be nonzero")
        if f.nvars != nvars or f.p != p:
            raise ValueError("forms live in different rings")
    degs = [f.degree for f in fs]
    m = len(fs)
    subsets = [list(combinations(range(m), k)) for k in range(m + 1)]
    terms = []
    for k in range(m + 1):
        terms.append(tuple(-sum(degs[i] for i in s) for s in subsets[k]))
    diffs = []
    for k in range(1, m + 1):
        tgt_index = {s: i for i, s in enumerate(subsets[k - 1])}
        rows = [[Form.zero(nvars, max(terms[k][j] - terms[k - 1][i], 0), p)
                 for j in range(len(subsets[k]))] for i in range(len(subsets[k - 1]))]
        for j, s in enumerate(subsets[k]):
            for t, i_t in enumerate(s):
                target = s[:t] + s[t + 1:]
                coeff = fs[i_t] if t % 2 == 0 else fs[i_t].scale(-1)
                rows[tgt_index[target]][j] = coeff
        # entry degrees tgt - src = deg f_{i_t}; GradedMatrix.make checks them
        diffs.append(GradedMatrix.make(nvars, terms[k], terms[k - 1], rows, p))
    # positions run m..0, so terms[k] sits at position k
    return FreeComplex.make(nvars, 0, tuple(terms), tuple(diffs), p)


def tensor(cx: FreeComplex, cy: FreeComplex) -> FreeComplex:
    """Total complex of the tensor product, sign (-1)^i on id⊗d."""
    if cx.nvars != cy.nvars or cx.p != cy.p:
        raise ValueError("complexes live on different spaces")
    nv, p = cx.nvars, cx.p
    lo, hi = cx.lo + cy.lo, cx.hi + cy.hi

    def blocks(k):
        out = []
        for i in cx.positions():
            j = k - i
            if cy.lo <= j <= cy.hi and cx.term(i) and cy.term(j):
                out.append((i, j))
        return out

    def term_twists(k):
        tw = []
        for i, j in blocks(k):
            for a in cx.term(i):
                for b in cy.term(j):
                    tw.append(a + b)
        return tuple(tw)

    terms = [term_twists(k) for k in range(lo, hi + 1)]
    diffs = []
    for k in range(lo + 1, hi + 1):
        src_blocks, tgt_blocks = blocks(k), blocks(k - 1)
        src_tw, tgt_tw = terms[k - lo], terms[k - 1 - lo]
        rows = [[Form.zero(nv, max(a - b, 0), p) for a in src_tw] for b in tgt_tw]

        def offset(block_list, pair):
            off = 0
            for q in block_list:
                if q == pair:
                    return off
                off += len(cx.term(q[0])) * len(cy.term(q[1]))
            raise KeyError(pair)

        for (i, j) in src_blocks:
            src_off = offset(src_blocks, (i, j))
            ni, nj = len(cx.term(i)), len(cy.term(j))
            dx = cx.diff(i)
            if dx is not None and (i - 1, j) in tgt_blocks:
                t_off = offset(tgt_blocks, (i - 1, j))
                for r in range(len(cx.term(i - 1))):
                    for c in range(ni):
                        f = dx.entry(r, c)
                        if f.is_zero():
                            continue
                        for q in range(nj):
                            rows[t_off + r * nj + q][src_off + c * nj + q] = f
            dy = cy.diff(j)
            if dy is not None and (i, j - 1) in tgt_blocks:
                t_off = offset(tgt_blocks, (i, j - 1))
                sign = 1 if i % 2 == 0 else -1
                for c in range(ni):
                    for r in range(len(cy.term(j - 1))):
                        for q in range(nj):
                            f = dy.entry(r, q)
                            if f.is_zero():
                                continue
                            rows[t_off + c * len(cy.term(j - 1)) + r][
                                src_off + c * nj + q] = f.scale(sign)
        diffs.append(GradedMatrix.make(nv, src_tw, tgt_tw, rows, p))
    return FreeComplex.make(nv, lo, tuple(terms), tuple(diffs), p)


def cone(maps: dict, cx: FreeComplex, cy: FreeComplex) -> FreeComplex:
    """Mapping cone of a chain map f: cx -> cy given per position.

    cone_k = cx_{k-1} ⊕ cy_k with differential [[-d_x, 0], [f, d_y]].
    The chain-map identity f∘d_x = d_y∘f is verified symbolically.
    """
    nv, p = cx.nvars, cx.p
    for k in cx.positions():
        fk = maps.get(k)
        if fk is None:
            if cx.term(k):
                raise ValueError(f"missing chain-map component at {k}")
            continue
        if fk.src != cx.term(k) or fk.tgt != cy.term(k):
            raise ValueError(f"chain map at {k} has wrong twists")
        dx, dy = cx.diff(k), cy.diff(k)
        if dx is not None:
            left = maps[k - 1].compose(dx) if cx.term(k - 1) else None
            right = dy.compose(fk) if dy is not None else None
            if left is not None and right is not None:
                if left != right:  # forms are canonical, so maps compare entrywise
                    raise ValueError(f"not a chain map at position {k}")
            elif left is not None and not left.is_zero():
                raise ValueError(f"not a chain map at position {k}")
            elif right is not None and not right.is_zero():
                raise ValueError(f"not a chain map at position {k}")
    lo = min(cx.lo + 1, cy.lo)
    hi = max(cx.hi + 1, cy.hi)
    terms = []
    for k in range(lo, hi + 1):
        terms.append(tuple(cx.term(k - 1)) + tuple(cy.term(k)))
    diffs = []
    for k in range(lo + 1, hi + 1):
        src_tw = terms[k - lo]
        tgt_tw = terms[k - 1 - lo]
        rows = [[Form.zero(nv, max(a - b, 0), p) for a in src_tw] for b in tgt_tw]
        nx_src, nx_tgt = len(cx.term(k - 1)), len(cx.term(k - 2))
        dx = cx.diff(k - 1)
        if dx is not None:
            for r in range(nx_tgt):
                for c in range(nx_src):
                    rows[r][c] = dx.entry(r, c).scale(-1)
        fk = maps.get(k - 1)
        if fk is not None:
            for r in range(len(cy.term(k - 1))):
                for c in range(nx_src):
                    rows[nx_tgt + r][c] = fk.entry(r, c)
        dy = cy.diff(k)
        if dy is not None:
            for r in range(len(cy.term(k - 1))):
                for c in range(len(cy.term(k))):
                    rows[nx_tgt + r][nx_src + c] = dy.entry(r, c)
        diffs.append(GradedMatrix.make(nv, src_tw, tgt_tw, rows, p))
    return FreeComplex.make(nv, lo, tuple(terms), tuple(diffs), p)


# -- windowed exactness ------------------------------------------------------

@dataclass(frozen=True)
class ExactnessReport:
    homology: dict  # (position, l) -> dim H

    def max_dim(self) -> int:
        return max(self.homology.values(), default=0)

    def is_exact(self) -> bool:
        return self.max_dim() == 0

    def failures(self) -> list:
        return sorted(k for k, v in self.homology.items() if v)


def verify_exact(cx: FreeComplex, window, positions=None) -> ExactnessReport:
    """Homology dimensions of every graded strand in the window.

    window is an iterable of twists l; positions defaults to the inner
    positions lo+1..hi-1.  A zero entry certifies exactness of that strand.
    """
    if positions is None:
        positions = range(cx.lo + 1, cx.hi)
    positions = list(positions)
    out = {}
    for l in window:
        ranks: dict[int, int] = {}

        def rk(pos: int) -> int:
            if pos not in ranks:
                d = cx.diff(pos)
                ranks[pos] = 0 if d is None else rank(d.graded_piece(l), cx.p)
            return ranks[pos]

        for k in positions:
            dim_k = sum(space_dim(cx.nvars, a + l) for a in cx.term(k))
            out[(k, l)] = dim_k - rk(k) - rk(k + 1)
    return ExactnessReport(out)


# -- minimization ------------------------------------------------------------

def trim(cx: FreeComplex) -> FreeComplex:
    """Cancel scalar-isomorphic summand pairs until no unit entries remain."""
    current = cx
    while True:
        spot = _find_unit(current)
        if spot is None:
            return current
        current = _cancel(current, *spot)


def _find_unit(cx: FreeComplex):
    for k in range(cx.lo + 1, cx.hi + 1):
        d = cx.diff(k)
        if d is None:
            continue
        for i in range(d.nrows):
            for j in range(d.ncols):
                f = d.entry(i, j)
                if f.degree == 0 and not f.is_zero():
                    return (k, i, j)
    return None


def _cancel(cx: FreeComplex, k: int, i: int, j: int) -> FreeComplex:
    """Gaussian elimination of the unit u = d_k[i][j] (Bar-Natan, "Fast
    Khovanov homology computations", 2007): the summand j of term k and
    the summand i of term k-1 go, d_k becomes the Schur complement
    d[r][c] - d[i][c]·u⁻¹·d[r][j] off row i and column j, d_{k+1} loses
    row j and d_{k-1} loses column i.  The result is homotopy equivalent
    to cx."""
    d = cx.diff(k)
    uinv = inv_mod(d.entry(i, j).terms[0][1], cx.p)
    rows = [r for r in range(d.nrows) if r != i]
    cols = [c for c in range(d.ncols) if c != j]
    pivot = {c: d.entry(i, c).scale(uinv) for c in cols}
    terms, diffs = list(cx.terms), list(cx.diffs)
    terms[k - cx.lo] = tuple(d.src[c] for c in cols)
    terms[k - 1 - cx.lo] = tuple(d.tgt[r] for r in rows)
    diffs[k - cx.lo - 1] = GradedMatrix.make(
        cx.nvars, terms[k - cx.lo], terms[k - 1 - cx.lo],
        [[d.entry(r, c) - d.entry(r, j) * pivot[c] for c in cols] for r in rows], cx.p)
    dnext, dprev = cx.diff(k + 1), cx.diff(k - 1)
    if dnext is not None:
        diffs[k - cx.lo] = GradedMatrix(cx.nvars, dnext.src, terms[k - cx.lo],
                                        tuple(dnext.entries[c] for c in cols), cx.p)
    if dprev is not None:
        diffs[k - cx.lo - 2] = GradedMatrix(
            cx.nvars, terms[k - 1 - cx.lo], dprev.tgt,
            tuple(tuple(row[r] for r in rows) for row in dprev.entries), cx.p)
    return FreeComplex.make(cx.nvars, cx.lo, terms, diffs, cx.p)


# -- liaison -----------------------------------------------------------------

class LiftNotFound(ValueError):
    """A form could not be written in the ideal up to the checked degree."""


def ideal_member_lift(gens: GradedMatrix, f: Form) -> GradedMatrix:
    """Column x with gens∘x = f, i.e. an expression of f in the ideal.

    gens is a single-row matrix ⊕O(a_j) → O(t); the lift is a column
    O(t - deg f)·...  Raises LiftNotFound when no graded solution exists.
    """
    if gens.nrows != 1:
        raise ValueError("gens must be a single row")
    t = gens.tgt[0]
    l = f.degree - t
    piece = gens.graded_piece(l)
    sol = solve(piece, f.coeff_vector(), gens.p)
    if sol is None:
        raise LiftNotFound(f"{f} is not in the ideal (degree {f.degree})")
    return GradedMatrix.from_piece(gens.nvars, gens.src, l, sol[None], gens.p)


def ferrand_liaison(res: FreeComplex, a_form: Form, b_form: Form) -> FreeComplex:
    """Resolution of the residual of a complete-intersection link.

    Input: a three-term complex  L -> F -> O(t)  (positions 2,1,0) whose
    degree-1 differential is the generator row of an ideal sheaf twist and
    whose degree-2 differential is its syzygy matrix.  a_form and b_form
    must lie in the ideal (checked by graded linear solve).

    Output: the dual mapping-cone resolution
    F* -> L* ⊕ O(a+t') ⊕ O(b+t') -> O(a+b+...)  presenting the linked
    ideal twist, with all comparison lifts solved degreewise.
    """
    if res.hi - res.lo != 2:
        raise ValueError("resolution must have exactly three terms")
    base = res if res.lo == 0 else res.shift(-res.lo)
    gens = base.diff(1)
    syz = base.diff(2)
    if gens.nrows != 1:
        raise ValueError("expected a single generator row presenting an ideal twist")
    t = gens.tgt[0]
    x_a = ideal_member_lift(gens, a_form)
    x_b = ideal_member_lift(gens, b_form)
    # Koszul relation  syz∘w = x_a·b - x_b·a  solved for w
    nv, p = res.nvars, res.p
    diff_col = []
    for r in range(x_a.nrows):
        diff_col.append(x_a.entry(r, 0) * b_form - x_b.entry(r, 0) * a_form)
    target = GradedMatrix.column(nv, t - a_form.degree - b_form.degree,
                                 syz.tgt, diff_col, p)
    l = a_form.degree + b_form.degree - t
    sol = solve(syz.graded_piece(l), target.graded_piece(l)[:, 0], p)
    if sol is None:
        raise LiftNotFound("Koszul relation does not lift through the syzygies")
    w = GradedMatrix.from_piece(nv, syz.src, l, sol[None], p)

    d2 = syz.dual().stack(x_a.dual()).stack(x_b.dual())
    u_row = [f.scale(-1) for f in (w.entry(r, 0) for r in range(w.nrows))]
    u_row = list(u_row) + [b_form, a_form.scale(-1)]
    d1 = GradedMatrix.row(nv, d2.tgt, a_form.degree + b_form.degree - t, u_row, p)
    if not d1.compose(d2).is_zero():
        raise AssertionError("liaison output is not a complex")
    return FreeComplex.make(nv, 0, (d1.tgt, d1.src, d2.src), (d1, d2), p)


def scheme_degree_from_resolution(res: FreeComplex) -> int:
    """Degree of the scheme presented by a generator-row resolution.

    res is a complex  ... -> F -> O(t)  (positions descending to 0) whose
    degree-1 differential is a generator row; its strandwise Euler
    characteristic at large twists is the Hilbert polynomial of the
    structure sheaf, whose stabilized finite difference is the degree.
    """
    nv = res.nvars
    big = 3 * (nv + max((abs(a) for t in res.terms for a in t), default=0) + 4)
    diffs = [res.euler_piece(l) for l in range(big, big + nv + 2)]
    while len(diffs) > 1:
        nxt = [b - a for a, b in zip(diffs, diffs[1:])]
        if not any(nxt):
            return diffs[0]
        diffs = nxt
    return diffs[0]
