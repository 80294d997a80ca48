"""Sheaf expression DAG on P^n and its exact cohomology engine.

Nodes are built from sums of line bundles by kernels of certified
surjections, quotients by certified subbundle inclusions, twists and
direct sums.  A dual is no node kind of its own: `dual_node` writes it as
one of these (Okonek-Schneider-Spindler II.3).  Every node carries, twist
by twist, an explicit model of H^0 (vectors of forms inside an ambient
line-bundle sum); long-exact-sequence splices then compute full tables
with every connecting rank explicit.

The engine keeps one record per (node, twist l), a `Strands`: the cells
h^0..h^n of node(l) and its H^0 model.  A record's cells are computed
once, from the records of the node's children, and never changed.  Its
H^0 model is built on first read, at most once; a record that had to
eliminate to get its cells keeps the model that elimination gave at
once.

The top strand needs no model.  A kernel K = ker(F -> G) needs no rank
at all: its map is certified onto, so H^{n+1}(K(l)) = 0 (Grothendieck
vanishing, Hartshorne III.2.7), H^n(F(l)) -> H^n(G(l)) is onto, and its
rank is G's h^n cell; no H^n matrix is built for it.  A quotient
Q = inner/A reads one rank, of H^n(A(l)) -> H^n(inner(l)).  The subspace
rule gives it: a line sum F has H^{n-1}(F(l)) = 0, so when inner is F, or
a kernel ker(F -> G) with h^{n-1}(G(l)) an exact 0, the sequence
H^{n-1}(G(l)) -> H^n(inner(l)) -> H^n(F(l)) makes H^n(inner(l)) a subspace
of H^n(F(l)), and the rank is that of `hn_matrix(m, l)` (Hartshorne
III.5).  Otherwise the two top cells of Q are closed intervals, never
guessed.

Regularity rule (Castelnuovo-Mumford; Mumford, Lectures on Curves on an
Algebraic Surface, Lecture 14): if the engine already holds the records
of K = ker(F -> G) at l - i with h^i(K(l - i)) an exact 0 for i = 1..n,
then K is l-regular, so h^1(K(l)) = 0 and H^0(F(l)) -> H^0(G(l)) is onto.
With h^0(G(l)) exact, that rank is h^0(G(l)) and the record of K(l) needs
no elimination for its cells.  The rule reads only records already held
and never computes a twist of its own.

Certificates are exact, never sampled: `onto_certificate` proves a map
onto a node G by one twist d >= reg(G), read from G's records, at which it
is onto H^0(G(d)); G(d) is then globally generated.  A subobject A -> F
is injective on fibers exactly when its dual is onto the line sum F^vee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import ChernVector, line_sum_chern, whitney_div, whitney_mul
from .forms import space_dim
from .graded import GradedMatrix, hn_matrix
from .modp import (DEFAULT_PRIME, check_prime, extend_to_complement,
                   kernel_basis, rank, zeros)


class CertificationError(ValueError):
    """A node's epi/mono certificate failed."""


# -- node variants -----------------------------------------------------------

@dataclass(frozen=True)
class LineSum:
    nvars: int
    twists: tuple
    p: int = DEFAULT_PRIME

    @staticmethod
    def make(nvars, twists, p=DEFAULT_PRIME):
        check_prime(p)
        return LineSum(nvars, tuple(int(a) for a in twists), p)


@dataclass(frozen=True)
class KerNode:
    """Kernel of a map from a line-bundle sum onto a target node.

    The matrix maps ⊕O(src) into the target's ambient sum; the image must
    be the whole target (epi), which the engine certifies before any
    cohomology beyond H^0 is produced.
    """
    matrix: GradedMatrix
    target: object  # LineSum or KerNode


@dataclass(frozen=True)
class QuotNode:
    """Quotient of a node by an injective map from a line-bundle sum."""
    matrix: GradedMatrix
    inner: object  # LineSum or KerNode


@dataclass(frozen=True)
class SumNode:
    parts: tuple


Node = object


def nvars_of(node) -> int:
    if isinstance(node, LineSum):
        return node.nvars
    if isinstance(node, KerNode):
        return node.matrix.nvars
    if isinstance(node, QuotNode):
        return node.matrix.nvars
    if isinstance(node, SumNode):
        return nvars_of(node.parts[0])
    raise TypeError(f"not a sheaf node: {node!r}")


def prime_of(node) -> int:
    if isinstance(node, LineSum):
        return node.p
    if isinstance(node, (KerNode, QuotNode)):
        return node.matrix.p
    if isinstance(node, SumNode):
        return prime_of(node.parts[0])
    raise TypeError(f"not a sheaf node: {node!r}")


def rank_of(node) -> int:
    if isinstance(node, LineSum):
        return len(node.twists)
    if isinstance(node, KerNode):
        return len(node.matrix.src) - rank_of(node.target)
    if isinstance(node, QuotNode):
        return rank_of(node.inner) - len(node.matrix.src)
    if isinstance(node, SumNode):
        return sum(rank_of(q) for q in node.parts)
    raise TypeError(f"not a sheaf node: {node!r}")


def ambient_twists(node) -> tuple:
    """Twists of the line-bundle sum through which sections are written."""
    if isinstance(node, LineSum):
        return node.twists
    if isinstance(node, KerNode):
        return node.matrix.src
    if isinstance(node, QuotNode):
        return ambient_twists(node.inner)
    if isinstance(node, SumNode):
        return tuple(a for q in node.parts for a in ambient_twists(q))
    raise TypeError(f"not a sheaf node: {node!r}")


def _check_dimension(matrix: GradedMatrix) -> None:
    """ValueError unless matrix lives on P^n with n >= 2: the splices of
    kernels and quotients take H^{n-1} of a line sum to be 0, which is
    false on P^1.  A line sum's own cells are right on P^1 too."""
    if matrix.nvars < 3:
        raise ValueError(f"kernels and quotients need P^n with n >= 2, "
                         f"got n = {matrix.nvars - 1}")


def ker_node(matrix: GradedMatrix, target=None) -> KerNode:
    """Kernel of matrix onto `target` (default: the line sum of its rows)."""
    _check_dimension(matrix)
    if target is None:
        target = LineSum.make(matrix.nvars, matrix.tgt, matrix.p)
    if tuple(matrix.tgt) != tuple(ambient_twists(target)):
        raise ValueError("matrix target twists must match the target's ambient")
    if not isinstance(target, (LineSum, KerNode, QuotNode)):
        raise ValueError("unsupported kernel target")
    if len(matrix.src) < rank_of(target):
        raise ValueError(f"kernel of negative rank: {len(matrix.src)} source "
                         f"summands onto a target of rank {rank_of(target)}")
    return KerNode(matrix, target)


def quot_node(matrix: GradedMatrix, inner) -> QuotNode:
    _check_dimension(matrix)
    if tuple(matrix.tgt) != tuple(ambient_twists(inner)):
        raise ValueError("matrix target twists must match the inner ambient")
    if not isinstance(inner, (LineSum, KerNode)):
        raise ValueError("quotients are taken in line sums or kernel nodes")
    if len(matrix.src) > rank_of(inner):
        raise ValueError(f"quotient of negative rank: {len(matrix.src)} summands "
                         f"in a node of rank {rank_of(inner)}")
    return QuotNode(matrix, inner)


def twist_node(node, t: int):
    """Twist by O(t), pushed through the expression tree."""
    if t == 0:
        return node
    if isinstance(node, LineSum):
        return LineSum(node.nvars, tuple(a + t for a in node.twists), node.p)
    if isinstance(node, KerNode):
        return KerNode(node.matrix.twist(t), twist_node(node.target, t))
    if isinstance(node, QuotNode):
        return QuotNode(node.matrix.twist(t), twist_node(node.inner, t))
    if isinstance(node, SumNode):
        return SumNode(tuple(twist_node(q, t) for q in node.parts))
    raise TypeError(f"not a sheaf node: {node!r}")


def sum_node(*parts) -> SumNode:
    flat = []
    for q in parts:
        if isinstance(q, SumNode):
            flat.extend(q.parts)
        else:
            flat.append(q)
    return SumNode(tuple(flat))


def dual_node(node):
    """The dual of a node as a node of the other kinds (Okonek-Schneider-
    Spindler II.3): a line sum's twists negate, a sum dualizes its parts,
    ker(phi: A ->> B) onto a line sum is quot(phi^T, A^vee), a quotient of
    a line sum by psi is ker(psi^T), and a monad quot(psi, ker(phi)) is
    quot(phi^T, ker(psi^T)), as psi^T phi^T = (phi psi)^T = 0.  A kernel
    onto a kernel or a quotient has no such form: ValueError."""
    if isinstance(node, LineSum):
        return LineSum(node.nvars, tuple(-a for a in node.twists), node.p)
    if isinstance(node, SumNode):
        return SumNode(tuple(dual_node(q) for q in node.parts))
    if isinstance(node, QuotNode) and isinstance(node.inner, LineSum):
        return ker_node(node.matrix.dual())
    kernel = node.inner if isinstance(node, QuotNode) else node
    if not isinstance(kernel, KerNode):
        raise TypeError(f"not a sheaf node: {node!r}")
    if not isinstance(kernel.target, LineSum):
        kind = "kernel" if isinstance(kernel.target, KerNode) else "quotient"
        raise ValueError(f"no one-step dual of a kernel onto a {kind}")
    phi_t = kernel.matrix.dual()
    if kernel is node:
        return quot_node(phi_t, LineSum(phi_t.nvars, phi_t.tgt, phi_t.p))
    return quot_node(phi_t, ker_node(node.matrix.dual()))


def chern_of_node(node) -> ChernVector:
    """Whitney-formula Chern data, truncated at H^{n+1}."""
    n = nvars_of(node) - 1
    if isinstance(node, LineSum):
        return line_sum_chern(n, node.twists)
    if isinstance(node, KerNode):
        src = line_sum_chern(n, node.matrix.src)
        return whitney_div(src, chern_of_node(node.target))
    if isinstance(node, QuotNode):
        sub = line_sum_chern(n, node.matrix.src)
        return whitney_div(chern_of_node(node.inner), sub)
    if isinstance(node, SumNode):
        acc = chern_of_node(node.parts[0])
        for q in node.parts[1:]:
            acc = whitney_mul(acc, chern_of_node(q))
        return acc
    raise TypeError(f"not a sheaf node: {node!r}")


# -- presented subquotient spaces ---------------------------------------------

class Presented:
    """A subquotient span(space)/span(quot) of a coordinate space.

    space is None for the full ambient space.  quot is always an array of
    rows (given as None, it has none), so a subspace has no quot rows.
    All stored rows are over F_p.
    """
    __slots__ = ("ambient_dim", "space", "quot")

    def __init__(self, ambient_dim: int, space: np.ndarray | None,
                 quot: np.ndarray | None = None):
        self.ambient_dim, self.space = ambient_dim, space
        self.quot = zeros(0, ambient_dim) if quot is None else quot

    def space_rows(self) -> np.ndarray:
        if self.space is None:
            return np.eye(self.ambient_dim, dtype=np.int64)
        return self.space


class Strands:
    """What the engine knows about one node(l): its cells h^0..h^n and its
    H^0 model for splices through it.  The model is given built, or as a
    function that builds it; that function runs on the first read of the
    model, once."""
    __slots__ = ("cells", "_h0")

    def __init__(self, cells: tuple, h0):
        self.cells, self._h0 = cells, h0

    @property
    def h0(self) -> Presented:
        if callable(self._h0):
            self._h0 = self._h0()
        return self._h0


def kernel_into(T: np.ndarray, target: Presented, p: int) -> tuple[int, np.ndarray]:
    """Rank of a linear map into a presented subquotient, and rows spanning
    ker(source -> subquotient).

    T has ambient-target rows and source columns; its image is assumed to
    lie in span(space) + span(quot) (guaranteed by the certificates).  One
    elimination of [T | quot.T] gives both: its kernel is the pairs (x, y)
    with T x = -quot.T y, so by rank-nullity the map's rank is
    m + k - nullity - rank(quot) for m source columns and k quot rows.  The
    count uses the unprojected basis, because with dependent quot rows
    several kernel vectors project to zero.  Only target's quot is read;
    `map_rank` gives the rank alone, with no basis.
    """
    q = target.quot
    m = T.shape[1]
    if q.size == 0:
        basis = kernel_basis(T, p)
        return m - basis.shape[0], basis
    k = q.shape[0]
    full = kernel_basis(np.concatenate([T, q.T], axis=1), p)
    rows = full[:, :m] if full.size else zeros(0, m)
    return m + k - full.shape[0] - rank(q, p), rows


def map_rank(T: np.ndarray, target: Presented, p: int) -> int:
    """The rank `kernel_into` gives, rank([T | quot.T]) - rank(quot), or
    rank(T) with no quot rows, from ranks alone: no kernel basis is built."""
    q = target.quot
    if q.size == 0:
        return rank(T, p)
    return rank(np.concatenate([T, q.T], axis=1), p) - rank(q, p)


def block_rows(blocks, widths) -> np.ndarray:
    """Row blocks placed down the diagonal: block k gets its own rows and
    the widths[k] columns after the earlier blocks'.  Blocks are 2-D
    (rows, width) or batched (N, rows, width); one with no entries adds
    no rows."""
    offs = np.cumsum((0,) + tuple(widths))
    kept = [(b, o) for b, o in zip(blocks, offs) if b.size]
    out = np.zeros(blocks[0].shape[:-2] + (sum(b.shape[-2] for b, _ in kept), offs[-1]),
                   dtype=np.int64)
    r = 0
    for b, o in kept:
        out[..., r:r + b.shape[-2], o:o + b.shape[-1]] = b
        r += b.shape[-2]
    return out


def block_presented(parts) -> Presented:
    """The direct sum of presented models."""
    dims = [q.ambient_dim for q in parts]
    return Presented(sum(dims), block_rows([q.space_rows() for q in parts], dims),
                     block_rows([q.quot for q in parts], dims))


# -- fibers at points ------------------------------------------------------------
# `ev` maps a GradedMatrix to its values at the npts points, (npts, rows, cols).

def fiber_quot_rows(node, npts: int, ev) -> np.ndarray:
    """Rows to quotient out of the ambient fiber, stacked per point."""
    if isinstance(node, (LineSum, KerNode)):
        return np.zeros((npts, 0, len(ambient_twists(node))), dtype=np.int64)
    if isinstance(node, QuotNode):
        return ev(node.matrix).transpose(0, 2, 1)
    if isinstance(node, SumNode):
        return block_rows([fiber_quot_rows(q, npts, ev) for q in node.parts],
                          [len(ambient_twists(q)) for q in node.parts])
    raise ValueError("unsupported node for fiber evaluation")


def _vanishes_somewhere(row, n: int) -> bool:
    """True when a row of forms on P^n is zero at some point over the
    algebraic closure because it has at most n nonzero entries, none of
    them a constant (n or fewer hypersurfaces of P^n meet), or because one
    variable x_i divides every entry (the row is zero on V(x_i))."""
    nonzero = [f for f in row if not f.is_zero()]
    if len(nonzero) <= n and all(f.degree > 0 for f in nonzero):
        return True
    return any(all(e[i] for f in nonzero for e, _ in f.terms) for i in range(n + 1))


# -- cohomology cells ----------------------------------------------------------

Cell = object  # int (exact) or (lo, hi) interval for indeterminate cells


def is_exact_cell(v) -> bool:
    return isinstance(v, (int, np.integer))


def cell_bounds(v) -> tuple:
    return (v, v) if is_exact_cell(v) else v


def shift_cell(v, lo, hi=None) -> Cell:
    """Cell v with lo added to its lower bound and hi (default lo) to its
    upper bound; equal bounds collapse to an exact value."""
    a, b = cell_bounds(v)
    a, b = int(a + lo), int(b + (lo if hi is None else hi))
    return a if a == b else (a, b)


@dataclass
class CohTable:
    n: int
    lo: int
    hi: int
    cells: dict  # (i, l) -> Cell

    def h(self, i: int, l: int) -> Cell:
        if i < 0 or i > self.n:
            return 0
        return self.cells[(i, l)]

    def euler(self, l: int):
        total = 0
        for i in range(self.n + 1):
            v = self.h(i, l)
            if not is_exact_cell(v):
                return None
            total += v if i % 2 == 0 else -v
        return total

    def exact_columns(self) -> list[int]:
        return [l for l in range(self.lo, self.hi + 1)
                if all(is_exact_cell(self.h(i, l)) for i in range(self.n + 1))]

    def render(self) -> str:
        """The table as text, h^n on top; an interval cell prints as '?'."""
        ls = range(self.lo, self.hi + 1)
        width = max([len(str(l)) for l in ls] +
                    [len(str(self.h(i, l))) for i in range(self.n + 1) for l in ls])
        lines = ["l:    " + "  ".join(f"{l:>{width}}" for l in ls)]
        for i in range(self.n, -1, -1):
            row = []
            for l in ls:
                v = self.h(i, l)
                row.append(f"{v if is_exact_cell(v) else '?':>{width}}")
            lines.append(f"h^{i}:  " + "  ".join(row))
        return "\n".join(lines)


def default_window(n: int) -> range:
    return range(-n - 3, 5)


class Cohomology:
    """Cohomology engine with per-(node, twist) caching and certification."""

    def __init__(self, p: int = DEFAULT_PRIME):
        self.p = check_prime(p)
        self._strands: dict = {}   # (node, l) -> Strands
        self._sections: dict = {}
        self._cert: dict = {}

    # -- certificates ---------------------------------------------------------

    def certify(self, node) -> None:
        """Validate all epi/mono certificates in the DAG (cached).  A kernel
        or quotient node's entry is its onto-certificate (d, reg)."""
        if prime_of(node) != self.p:
            raise ValueError(f"node is over F_{prime_of(node)}, "
                             f"the engine over F_{self.p}")
        if node in self._cert:
            if isinstance(self._cert[node], str):
                raise CertificationError(self._cert[node])
            return
        try:
            self._cert[node] = self._certify(node)
        except CertificationError as exc:
            self._cert[node] = str(exc)
            raise

    def _certify(self, node):
        if isinstance(node, LineSum):
            return True
        if isinstance(node, SumNode):
            for q in node.parts:
                self.certify(q)
            return True
        if isinstance(node, KerNode):
            self.certify(node.target)
            m, target = node.matrix, node.target
            # the map must land in the kernel that carries the target
            carrier = target.inner if isinstance(target, QuotNode) else target
            if isinstance(carrier, KerNode) and not carrier.matrix.compose(m).is_zero():
                where = "target" if carrier is target else "quotient's carrier"
                raise CertificationError(f"kernel map does not land in the {where}")
            onto = "target" if carrier is target else "quotient"
            message = f"map is not onto the {onto}"
        elif isinstance(node, QuotNode):
            self.certify(node.inner)
            if isinstance(node.inner, KerNode) and \
                    not node.inner.matrix.compose(node.matrix).is_zero():
                raise CertificationError("subobject map does not land in the node")
            # injective on every fiber of the ambient sum iff the dual is onto
            m = node.matrix.dual()
            target = LineSum.make(m.nvars, m.tgt, self.p)
            message = "subobject map drops rank"
        else:
            raise TypeError(f"not a sheaf node: {node!r}")
        cert = self.onto_certificate(m, target)
        if cert is None:
            why = ("no graded piece has full row rank" if isinstance(target, LineSum)
                   else "no graded piece at or above the target's regularity "
                        "is onto its sections")
            raise CertificationError(f"{message} ({why})")
        return cert

    def onto_certificate(self, m: GradedMatrix, target,
                         max_degree: int | None = None) -> tuple[int, int] | None:
        """(d, reg) proving m: ⊕O(m.src) → target onto, or None.

        target is certified, has ambient sum m.tgt, and m lands in it.  d
        walks up from -max(m.tgt) to max_degree (default g + max(2 (max
        src + g) + 2, 8), g = -min(m.tgt)); reg is the first d with
        h^i(target(d - i)) an exact 0 for i = 1..n.  target(d) is then
        globally generated for d >= reg (Mumford, Lecture 14), so m is onto
        if H^0(m(d)) has rank h^0(target(d)), exact, into target's H^0
        model (`map_rank`).  For a line sum reg = g, the test is full
        row rank, and the default bound loses no verdict of a maximal-minor
        search up to degree B = max(2 (max src + g) + 2, 8): if that ideal
        holds every form of degree e <= B, it annihilates the cokernel
        (Fitting), and g + e certifies.  A line-sum row with a common zero
        is rejected before any piece, since the fiber map misses that
        row's summand there.  Two exact rules find one: at most n nonzero
        entries, none of them a constant, meet over the algebraic closure
        (projective dimension theorem, Hartshorne I.7.2), and entries all
        divisible by one variable x_i vanish on V(x_i).  A zero row is
        the case of no entry.
        """
        n = nvars_of(target) - 1
        if isinstance(target, LineSum) and any(_vanishes_somewhere(r, n) for r in m.entries):
            return None
        g = -min(m.tgt, default=0)
        if max_degree is None:
            max_degree = g + max(2 * (max(m.src, default=0) + g) + 2, 8)
        reg = None
        for d in range(-max(m.tgt, default=0), max_degree + 1):
            if reg is None:  # an interval cell is never == 0
                if any(self.values(target, d - i)[i] != 0 for i in range(1, n + 1)):
                    continue
                reg = d
            rec = self.strands(target, d)
            if not is_exact_cell(rec.cells[0]):
                continue
            if map_rank(m.graded_piece(d), rec.h0, self.p) == rec.cells[0]:
                return d, reg
        return None

    # -- cell computation ------------------------------------------------------

    def strands(self, node, l: int) -> Strands:
        """The record of node(l), certified and computed once per key."""
        key = (node, l)
        rec = self._strands.get(key)
        if rec is None:
            self.certify(node)
            rec = self._strands[key] = self._compute(node, l)
        return rec

    def values(self, node, l: int) -> tuple:
        return self.strands(node, l).cells

    def h(self, node, i: int, l: int):
        n = nvars_of(node) - 1
        if i < 0 or i > n:
            return 0
        return self.values(node, l)[i]

    def h0_presented(self, node, l: int) -> Presented:
        return self.strands(node, l).h0

    def _compute(self, node, l: int) -> Strands:
        nv = nvars_of(node)
        n = nv - 1

        if isinstance(node, LineSum):
            h0 = sum(space_dim(nv, a + l) for a in node.twists)
            hn = sum(space_dim(nv, -a - l - n - 1) for a in node.twists)
            return Strands((h0,) + (0,) * (n - 1) + (hn,), Presented(h0, None))

        if isinstance(node, SumNode):
            parts = [self.strands(q, l) for q in node.parts]
            cells = []
            for i in range(n + 1):
                lo, hi = map(sum, zip(*(cell_bounds(q.cells[i]) for q in parts)))
                cells.append(shift_cell(0, lo, hi))
            return Strands(tuple(cells), lambda: block_presented([q.h0 for q in parts]))

        if isinstance(node, KerNode):
            return self._kernel_strands(node, l)
        if isinstance(node, QuotNode):
            return self._quotient_strands(node, l)
        raise TypeError(f"not a sheaf node: {node!r}")

    def _kernel_strands(self, node: KerNode, l: int) -> Strands:
        p = self.p
        m = node.matrix
        nv = m.nvars
        n = nv - 1
        tgt = self.strands(node.target, l)
        tvals = tgt.cells

        dim_a0 = sum(space_dim(nv, a + l) for a in m.src)

        def section_model():
            rank0, ker0 = kernel_into(m.graded_piece(l), tgt.h0, p)
            return rank0, Presented(dim_a0, ker0)

        if is_exact_cell(tvals[0]) and self._regular_at(node, l):
            # node is l-regular, so h^1(node(l)) = 0: H^0(F(l)) -> H^0(G(l))
            # is onto, and the section model waits for its first read
            rank0, h0 = int(tvals[0]), lambda: section_model()[1]
        else:
            rank0, h0 = section_model()

        # h^1 = coker on the section strand; the middle range shifts down
        cells = (dim_a0 - rank0, shift_cell(tvals[0], -rank0)) + tvals[1:n - 1]
        # top: m is certified onto, so H^{n+1}(node(l)) = 0 (Grothendieck)
        # and the top strand is onto H^n(target(l)): h^n = h^{n-1}(target)
        # + dim H^n(F(l)) - h^n(target), exact whenever the target's h^n is
        dim_an = sum(space_dim(nv, -a - l - n - 1) for a in m.src)
        lo, hi = cell_bounds(tvals[n])
        return Strands(cells + (shift_cell(tvals[n - 1], dim_an - hi, dim_an - lo),), h0)

    def _quotient_strands(self, node: QuotNode, l: int) -> Strands:
        p = self.p
        m = node.matrix
        nv = m.nvars
        n = nv - 1
        inner = self.strands(node.inner, l)
        ivals = inner.cells

        dim_a0 = sum(space_dim(nv, a + l) for a in m.src)
        dim_an = sum(space_dim(nv, -a - l - n - 1) for a in m.src)

        def section_model():
            # coset representatives extending the image of the degree-l
            # piece of m inside H^0(inner), a subspace model
            i0 = inner.h0
            img = np.mod(m.graded_piece(l).T, p)
            return Presented(i0.ambient_dim,
                             extend_to_complement(img, i0.space, p, ncols=i0.ambient_dim), img)

        cells = (shift_cell(ivals[0], -dim_a0),) + ivals[1:n - 1]
        # an interval cell is never == 0
        if isinstance(node.inner, LineSum) or self.values(node.inner.target, l)[n - 1] == 0:
            # H^n(inner(l)) is a subspace of H^n of its ambient line sum
            kerdim = dim_an - rank(hn_matrix(m, l), p)
            return Strands(cells + (shift_cell(ivals[n - 1], kerdim),
                                    shift_cell(ivals[n], kerdim - dim_an)), section_model)
        return Strands(cells + (shift_cell(ivals[n - 1], 0, dim_an),
                                shift_cell(ivals[n], -dim_an, 0)), section_model)

    def _regular_at(self, node, l: int) -> bool:
        """Whether records already held show node to be l-regular:
        h^i(node(l - i)) is an exact 0 for i = 1..n."""
        for i in range(1, nvars_of(node)):
            rec = self._strands.get((node, l - i))
            if rec is None or not (is_exact_cell(rec.cells[i]) and rec.cells[i] == 0):
                return False
        return True

    # -- public operations -----------------------------------------------------

    def table(self, node, window=None) -> CohTable:
        n = nvars_of(node) - 1
        if window is None:
            window = default_window(n)
        window = list(window)
        cells = {}
        for l in window:
            vals = self.values(node, l)
            for i in range(n + 1):
                cells[(i, l)] = vals[i]
        return CohTable(n, min(window), max(window), cells)

    def h0_basis(self, node, l: int) -> GradedMatrix:
        """Explicit section basis, one column per section, as the map
        O(-l)^h0 → ⊕O(ambient); for quotients these are coset reps.
        Built once per (node, l), next to the cached coefficient rows."""
        key = (node, l)
        if key not in self._sections:
            ps = self.h0_presented(node, l)
            if ps.quot.size and isinstance(node, (KerNode, LineSum)):
                raise AssertionError("unexpected quotient in a subspace model")
            self._sections[key] = GradedMatrix.from_piece(
                nvars_of(node), ambient_twists(node), l, ps.space_rows(), self.p)
        return self._sections[key]

    def p_transform(self, node) -> KerNode:
        """Kernel-of-evaluation node whose dual is the transform of `node`.

        Requires the node to be globally generated (certified elsewhere);
        the returned node is Ker(H^0 ⊗ O -> node) with the section basis
        as its matrix.
        """
        return ker_node(self.h0_basis(node, 0), node)

