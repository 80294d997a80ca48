"""Geometric predicates: global generation, splitting types on lines,
Cayley-Bacharach, tetrahedron edge avoidance, and the base-component test
for line systems on a smooth quadric.

Negative answers always come with a witness that re-verifies
deterministically; positive global-generation verdicts are sampled
(trials and seed recorded in the verdict).  The sections of a sampled
check are evaluated from the coefficient rows of the engine's H^0 model
by `graded.piece_values`, with no section matrix of forms built.
Cayley-Bacharach for k points is decided with no value matrix when d < 0
(true) or d >= k - 1 (false).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .binforms import binary_gcd_degree
from .forms import (Form, monomial_values, normalize_point, normalize_points,
                    random_points)
from .graded import GradedMatrix, piece_values
from .modp import (DEFAULT_PRIME, check_prime, pivot_row_sizes, rank,
                   relative_rank)
from .sheaves import (Cohomology, KerNode, LineSum, QuotNode, SumNode,
                      ambient_twists, chern_of_node, dual_node, fiber_quot_rows,
                      nvars_of, prime_of, rank_of)

__all__ = [
    "LineParam", "GGVerdict", "cayley_bacharach",
    "cayley_bacharach_oracle", "splitting_type_on_line", "restrict_to_line",
    "is_globally_generated", "edge_avoidance",
    "quadric_line_component_test", "DegenerateRestriction",
]


@dataclass(frozen=True)
class LineParam:
    """A line through two independent points; substitutes x_i <- u0 p_i + u1 q_i."""
    a: tuple
    b: tuple
    p: int = DEFAULT_PRIME

    @staticmethod
    def make(a, b, p: int = DEFAULT_PRIME) -> "LineParam":
        check_prime(p)
        a = normalize_point(a, p)
        b = normalize_point(b, p)
        m = np.array([a, b], dtype=np.int64)
        if rank(m, p) != 2:
            raise ValueError("points do not span a line")
        return LineParam(a, b, p)

    def images(self) -> list[Form]:
        out = []
        for pi, qi in zip(self.a, self.b):
            out.append(Form.make(2, 1, {(1, 0): pi, (0, 1): qi}, self.p))
        return out

    def point(self, u0: int, u1: int) -> tuple:
        return tuple((u0 * pi + u1 * qi) % self.p for pi, qi in zip(self.a, self.b))


class DegenerateRestriction(ValueError):
    """The defining matrix drops rank somewhere along the line."""


def restrict_to_line(m: GradedMatrix, line: LineParam) -> GradedMatrix:
    images = line.images()
    rows = [[f.substitute(images) for f in row] for row in m.entries]
    return GradedMatrix.make(2, m.src, m.tgt, rows, m.p)


# -- splitting types -----------------------------------------------------------

def splitting_type_on_line(node, line: LineParam) -> list[int]:
    """Splitting degrees, descending, of a node restricted to a line.

    A kernel's are computed from the section-dimension jumps of the
    restricted kernel over the binary-form ring.  A quotient of a line sum
    takes the negated degrees of its dual, a kernel (`dual_node`), since
    (E|_L)^vee = E^vee|_L.  Raises DegenerateRestriction when the
    restricted matrix drops rank somewhere on the line (the honest
    failure mode: the restriction is then not locally free of the
    expected rank), and ValueError on a quotient of a kernel (a monad).
    """
    p = line.p
    if isinstance(node, LineSum):
        return sorted(node.twists, reverse=True)
    if isinstance(node, SumNode):
        out = []
        for q in node.parts:
            out.extend(splitting_type_on_line(q, line))
        return sorted(out, reverse=True)
    if isinstance(node, QuotNode) and isinstance(node.inner, LineSum):
        return sorted((-e for e in splitting_type_on_line(dual_node(node), line)), reverse=True)
    if not isinstance(node, KerNode):
        raise ValueError("splitting types are computed for line sums, kernels, "
                         "quotients of line sums and sums of these")

    m_l = restrict_to_line(node.matrix, line)
    need = rank_of(node.target)
    # the minors share a zero (or all vanish: degree -1) where the rank drops
    minors = [(f.coeff_vector(), f.degree)
              for f in m_l.minors(need) if not f.is_zero()]
    if binary_gcd_degree(minors, p) != 0:
        raise DegenerateRestriction(f"matrix drops below rank {need} along the line")
    r = rank_of(node)
    c1 = chern_of_node(node)[1]
    emax = max(node.matrix.src)
    emin = min(c1 - (r - 1) * emax, -emax) - 1

    def h0(l):
        g = m_l.graded_piece(l)
        return g.shape[1] - rank(g, p)

    counts = {}
    prev_delta = 0
    found = 0
    l = -emax - 1
    prev = h0(l)  # zero: every summand degree is negative here
    while found < r and l < -emin + 1:
        l += 1
        cur = h0(l)
        delta = cur - prev
        n_here = delta - prev_delta  # count of summands with e = -l
        if n_here:
            counts[-l] = n_here
            found += n_here
        prev, prev_delta = cur, delta
    if found != r:
        raise DegenerateRestriction("could not recover a full splitting type")
    out = []
    for e in sorted(counts, reverse=True):
        out.extend([e] * counts[e])
    if sum(out) != c1:
        raise DegenerateRestriction("splitting degrees do not sum to c1")
    return out


# -- global generation ----------------------------------------------------------

@dataclass
class GGVerdict:
    generated: bool
    tag: str                      # "generated-up-to-sampling" / "not-generated"
    trials: int
    seed: int
    witness_point: tuple | None = None
    witness_line: LineParam | None = None
    witness_splitting: list | None = None

    def __bool__(self):
        return self.generated


def is_globally_generated(node, trials: int = 500, seed: int = 90021,
                          hint_points=(), hint_lines=(),
                          eng: Cohomology | None = None) -> GGVerdict:
    """Sampled global-generation test with exact negative witnesses.

    Every hint line is checked first through its splitting type (a
    negative summand is a proof of failure); then sections are evaluated
    at the hint points plus `trials` seeded random points and required to
    span each fiber.  The section model certifies the node first, so its
    fiber has rank r at every point and only the span is sampled.  Raises
    ValueError when there is no point at all.
    """
    if trials < 1 and not len(hint_points):
        raise ValueError(f"a sampled verdict needs a point: trials={trials} "
                         "and no hint points")
    eng = eng or Cohomology(prime_of(node))
    p = eng.p
    nv = nvars_of(node)
    r = rank_of(node)

    for line in hint_lines:
        st = splitting_type_on_line(node, line)
        if st and min(st) < 0:
            return GGVerdict(False, "not-generated", trials, seed,
                             witness_line=line, witness_splitting=st)

    pts = random_points(nv, trials, seed, p)
    if len(hint_points):
        hints = np.array(hint_points, dtype=np.int64).reshape(len(hint_points), nv)
        pts = np.concatenate([normalize_points(hints, p), pts])
    secs = piece_values(nv, ambient_twists(node), 0,
                        eng.h0_presented(node, 0).space_rows(), pts, p)
    ev = lru_cache(maxsize=None)(lambda m: m.evaluate(pts))  # once per matrix
    spans = relative_rank(secs.transpose(0, 2, 1), fiber_quot_rows(node, len(pts), ev), p)
    bad = np.flatnonzero(spans != r)
    if not bad.size:
        return GGVerdict(True, "generated-up-to-sampling", trials, seed)
    return GGVerdict(False, "not-generated", trials, seed,
                     witness_point=tuple(int(c) for c in pts[bad[0]]))


def reverify_witness(node, verdict: GGVerdict, eng: Cohomology | None = None) -> bool:
    """Check that a negative witness still fails the span test."""
    if verdict.generated:
        return True
    if verdict.witness_line is not None:
        st = splitting_type_on_line(node, verdict.witness_line)
        return bool(st and min(st) < 0)
    if verdict.witness_point is not None:
        again = is_globally_generated(node, trials=0, seed=verdict.seed,
                                      hint_points=[verdict.witness_point], eng=eng)
        return not again.generated
    return False


# -- Cayley-Bacharach ------------------------------------------------------------

def cayley_bacharach(points, d: int, p: int = DEFAULT_PRIME) -> bool:
    """Degree-d Cayley-Bacharach test for distinct points in P^2.

    True iff for every point z the degree-d forms vanishing on all the
    other points already vanish at z, that is, iff the value row of z is
    in the span of the others: iff some vector of the left kernel of the
    value matrix is nonzero at z.

    That kernel, the kernel of ev^T, has one vector e_f - sum_i R[i, f]
    e_{piv_i} per free column f of R = rref(ev^T).  A free point is in the
    support of its own vector, and the point of pivot row i is in the
    support of some vector iff that row has a nonzero off its pivot.  So
    the verdict is that every pivot row of R has at least two nonzeros,
    read off the elimination without building a kernel basis.

    Two cases need no value matrix.  For d < 0 there is no nonzero form,
    so the test holds.  For d >= k - 1 it fails: the product of k - 1
    lines, each through one other point and missing z, times a power of a
    line missing z, vanishes on the others and not at z.

    Raises ValueError when p is not an odd prime, and when there is no
    point, a point without 3 coordinates, or two equal points.
    """
    pts = _plane_points(points, p)
    if d < 0 or d >= len(pts) - 1:
        return d < 0
    ev = monomial_values(3, d, pts, p)  # k x dim S_d
    return all(n >= 2 for n in pivot_row_sizes(ev.T, p))


def cayley_bacharach_oracle(points, d: int, q: int = 5) -> bool:
    """Brute-force oracle over a tiny field: enumerate all degree-d forms.

    Counts forms rather than dimensions; a point set satisfies the
    condition iff for each z every form through the others passes
    through z.  The points and q are checked as in `cayley_bacharach`.
    """
    arr = _plane_points(points, q)
    ev = monomial_values(3, d, arr, q)   # k x m
    vals = _all_forms(q, ev.shape[1]) @ ev.T % q  # q^m x k
    nonzero = vals != 0
    through_all = ~nonzero.any(axis=1)
    for z in range(len(arr)):
        others = [j for j in range(len(arr)) if j != z]
        through_rest = ~nonzero[:, others].any(axis=1)
        if through_rest.sum() != through_all.sum():
            return False
    return True


def _plane_points(points, p: int) -> np.ndarray:
    """The (k, 3) int64 array of k >= 1 distinct points of P^2(F_p), each
    scaled by `normalize_point` (a few points cost less one by one than
    through numpy); ValueError on a modulus that is not an odd prime, on no
    point, on a point without 3 coordinates, and on points that are
    projectively equal."""
    check_prime(p)
    if len(points) == 0:
        raise ValueError("need at least one point")
    if any(len(x) != 3 for x in points):
        raise ValueError("points of P^2 need exactly 3 coordinates")
    pts = [normalize_point(x, p) for x in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    return np.array(pts, dtype=np.int64)


@lru_cache(maxsize=8)
def _all_forms(q: int, m: int) -> np.ndarray:
    """Every coefficient vector of length m over F_q, one per row
    (read-only: it is shared by the oracle's calls)."""
    coeffs = np.array(list(product(range(q), repeat=m)), dtype=np.int64)
    coeffs.flags.writeable = False
    return coeffs


# -- incidence tests --------------------------------------------------------------

def edge_avoidance(line: LineParam, z_points, p: int = DEFAULT_PRIME) -> bool:
    """True iff the line misses all six lines through pairs of the 4 points.

    The points must span P^3 and the line must avoid them; two lines in
    P^3 meet iff the 4x4 determinant of their spanning points vanishes.
    p must be a prime and the line's own.
    """
    check_prime(p)
    if p != line.p:
        raise ValueError(f"the line is over F_{line.p}, not F_{p}")
    z = [normalize_point(q, p) for q in z_points]
    if len(z) != 4:
        raise ValueError("need exactly 4 points")
    zm = np.array(z, dtype=np.int64)
    if rank(zm, p) != 4:
        raise ValueError("the four points must span P^3")
    for q in z:
        m = np.array([line.a, line.b, q], dtype=np.int64)
        if rank(m, p) != 3:
            raise ValueError("line passes through one of the points")
    for i, j in combinations(range(4), 2):
        m = np.array([line.a, line.b, z[i], z[j]], dtype=np.int64)
        if rank(m, p) < 4:
            return False
    return True


# -- line systems on a smooth quadric ----------------------------------------------

def quadric_line_component_test(lam, p: int = DEFAULT_PRIME) -> bool:
    """No nonzero element of a 3-space of (1,3)-forms has a (1,0) factor.

    Each element is F = u0*F0(v) + u1*F1(v) with F0, F1 binary cubics;
    divisibility by mu0*u0 + mu1*u1 means mu1*F0 - mu0*F1 = 0, a linear
    condition on the coefficients.  The test whether this happens for
    some mu in the closure reduces to the gcd of the 3x3 minors of a
    4x3 matrix of linear binary forms in mu: a nonconstant gcd means a
    bad ruling line exists.
    """
    mats = [np.asarray(f, dtype=np.int64) % p for f in lam]
    if len(mats) != 3 or any(m.shape != (2, 4) for m in mats):
        raise ValueError("expected three (2,4) coefficient arrays")
    stack = np.stack([m.reshape(-1) for m in mats])
    if rank(stack, p) != 3:
        raise ValueError("the three elements must be independent")
    # 4x3 matrix over k[mu0, mu1]_1: row k, column e has entry
    # mu1*F0_e[k] - mu0*F1_e[k]
    rows = [[Form.make(2, 1, {(1, 0): -m[1, k], (0, 1): m[0, k]}, p)
             for m in mats] for k in range(4)]
    minors = GradedMatrix.make(2, (0,) * 3, (1,) * 4, rows, p).minors(3)
    # a bad mu is a common root of the minors (binary cubics in mu); all
    # minors zero (degree -1) means every mu gives a divisible element
    return binary_gcd_degree([(f.coeff_vector(), 3) for f in minors], p) == 0
