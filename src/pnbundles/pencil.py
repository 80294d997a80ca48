"""Classification of stable 2x4 matrices of linear forms in four variables.

A 2x4 matrix of linear forms on P^3 induces a 4x4 pencil of linear binary
forms on the dual pencil line; its determinant is a binary quartic.  The
eight stable classes are separated by the multiplicity partition of that
quartic (five classes) or, when the determinant vanishes identically, by
the degree of the cokernel of the pencil map (three classes), found as
4 minus the minimal degree of a syzygy.

No root extraction is used for classification; roots are located only to
emit a canonical representative, which is omitted (tag retained) when the
quartic does not split over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binforms import binary_gcd_degree, multiplicity_partition, rational_roots
from .forms import Form, parse_form
from .graded import GradedMatrix
from .idealtests import ideal_pieces_equal
from .modp import DEFAULT_PRIME, inv_mod, kernel_basis, rank


def linear_matrix_2x4(rows, p: int = DEFAULT_PRIME) -> GradedMatrix:
    m = GradedMatrix.make(4, (0, 0, 0, 0), (1, 1), rows, p)
    return m


def to_pencil(m: GradedMatrix) -> GradedMatrix:
    """Pencil matrix of the induced map on the dual line, on P^1.

    Entry (i, j) is the linear form in (T0, T1) whose coefficients are the
    x_i-coefficients of row0[j] and row1[j].
    """
    t0, t1 = ([m.entry(k, j).coeff_vector() for j in range(4)] for k in range(2))
    rows = [[Form.make(2, 1, {(1, 0): t0[j][i], (0, 1): t1[j][i]}, m.p)
             for j in range(4)] for i in range(4)]
    return GradedMatrix.make(2, (0,) * 4, (1,) * 4, rows, m.p)


def is_injective(m: GradedMatrix) -> bool:
    """The four columns are independent in k^2 ⊗ S_1."""
    return rank(m.graded_piece(0), m.p) == 4


def is_stable(m: GradedMatrix) -> bool:
    """Injective, and every functional composite spans >= 3 of S_1.

    Equivalently the 3x3 minors of the pencil have no common zero on the
    line, checked exactly through a binary-form gcd.
    """
    return is_injective(m) and _minors3_coprime(to_pencil(m))


def _minors3_coprime(pen: GradedMatrix) -> bool:
    minors = [(f.coeff_vector(), 3) for f in pen.minors(3)]
    return binary_gcd_degree(minors, pen.p) == 0


@dataclass
class PencilClass:
    tag: str                       # "not-injective" | "not-stable" | "case-N"
    partition: list | None = None  # cases 1..5
    coker_degree: int | None = None  # cases 6..8
    canonical: GradedMatrix | None = None
    degeneracy: str = ""
    minor_ideal: list | None = None  # generators of the degeneracy ideal

    @property
    def case(self) -> int | None:
        if self.tag.startswith("case-"):
            return int(self.tag.split("-")[1])
        return None


_PARTITION_CASE = {(1, 1, 1, 1): 1, (2, 1, 1): 2, (2, 2): 3, (3, 1): 4, (4,): 5}

_CANONICAL_ROWS = {
    3: [["x0", "x1", "x2", "x3"], ["x0 + x1", "x1", "x3", "0"]],
    4: [["x0", "x1", "x2", "x3"], ["x0", "x2", "x3", "0"]],
    5: [["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "0"]],
    6: [["x0", "x1", "x2", "0"], ["0", "x0", "x1", "x2"]],
    7: [["x0", "x1", "0", "x2"], ["0", "x0", "x1", "x3"]],
    8: [["x0", "0", "x1", "x2"], ["0", "x0", "x2", "x3"]],
}

_DEGENERACY = {
    1: "four simple points in general position",
    2: "two simple points on a line and a double point on a skew line",
    3: "double points on each of two skew lines",
    4: "a simple point off a plane plus a triple point on a smooth conic",
    5: "a quadruple point on a twisted cubic",
    6: "the fat point of a single point (square of its ideal)",
    7: "a line, with cokernel a degree-2 line bundle on it",
    8: "a smooth conic, with cokernel a degree-3 line bundle on P^1",
}

_MINOR_IDEALS = {
    6: ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"],
    7: ["x0^2", "x0*x1", "x1^2", "x1*x2", "x0*x3", "x0*x2 - x1*x3"],
    8: ["x0^2", "x0*x1", "x0*x2", "x0*x3", "x1*x3 - x2^2"],
}


def min_syzygy_degree(pen: GradedMatrix, max_degree: int = 3) -> int | None:
    """Minimal e with a nonzero column v of degree-e binary forms, pen·v = 0."""
    for e in range(0, max_degree + 1):
        if rank(pen.graded_piece(e), pen.p) < 4 * (e + 1):
            return e
    return None


def classify(m: GradedMatrix) -> PencilClass:
    """Full classification of a 2x4 matrix of linear forms.

    Stable matrices with nonzero pencil determinant go to cases 1-5 by the
    multiplicity partition of the quartic; those with vanishing
    determinant go to cases 6-8 by the cokernel degree m = 4 - e, where e
    is the minimal syzygy degree.
    """
    p = m.p
    if not is_injective(m):
        return PencilClass("not-injective")
    pen = to_pencil(m)
    if not _minors3_coprime(pen):
        return PencilClass("not-stable")
    det = pen.minors(4)[0].coeff_vector()
    if det.any():
        part = multiplicity_partition(det, p)
        case = _PARTITION_CASE[tuple(part)]
        canonical = _canonical_1_to_5(case, det, p)
        return PencilClass(f"case-{case}", partition=part, canonical=canonical,
                           degeneracy=_DEGENERACY[case],
                           minor_ideal=None)
    e = min_syzygy_degree(pen)
    if e is None or e == 0:
        return PencilClass("not-stable")
    deg = 4 - e
    case = 5 + deg  # m=1 -> 6, m=2 -> 7, m=3 -> 8
    canonical = linear_matrix_2x4(_CANONICAL_ROWS[case], p)
    return PencilClass(f"case-{case}", coker_degree=deg, canonical=canonical,
                       degeneracy=_DEGENERACY[case],
                       minor_ideal=_MINOR_IDEALS[case])


def _canonical_1_to_5(case: int, det: np.ndarray, p: int) -> GradedMatrix | None:
    if case in (3, 4, 5):
        return linear_matrix_2x4(_CANONICAL_ROWS[case], p)
    roots = rational_roots(det, p)
    if roots is None:
        return None  # tag stands, canonical omitted: roots do not split
    if case == 2:
        return linear_matrix_2x4(
            [["x0", "x1", "x2", "x3"], ["2*x0", "x1", "x3", "0"]], p)
    # case 1: normalize three of the four roots to -2, -1, 0 and read the
    # fourth off as the remaining modulus
    pts = sorted(r for r, _mult in roots)
    mob = _moebius_through(pts[1], pts[2], pts[3], p)
    a1 = _apply_moebius(mob, pts[0], p)
    if a1 is None:
        return None
    a1 = (-a1) % p
    if a1 in (0, 1, 2 % p):
        return None  # degenerate normalization, keep tag only
    return linear_matrix_2x4(
        [["x0", "x1", "x2", "x3"], [f"2*x0", f"{a1}*x1", "x2", "0"]], p)


def _moebius_through(r1, r2, r3, p):
    """Matrix of the Moebius map sending r1, r2, r3 to -2, -1, 0."""
    targets = [((-2) % p, 1), ((-1) % p, 1), (0, 1)]
    # a Moebius map is fixed by solving the 3 incidence conditions
    # (c*x0 + d*x1)*y0 - (a*x0 + b*x1)*y1 = 0 for (a, b, c, d)
    rows = []
    for (x0, x1), (y0, y1) in zip([r1, r2, r3], targets):
        rows.append([(-x0 * y1) % p, (-x1 * y1) % p, (x0 * y0) % p, (x1 * y0) % p])
    kern = np.array(rows, dtype=np.int64)
    basis = kernel_basis(kern, p)
    if basis.shape[0] != 1:
        return None
    return basis[0]  # (a, b, c, d)


def _apply_moebius(mob, pt, p):
    if mob is None:
        return None
    a, b, c, d = (int(v) for v in mob)
    x0, x1 = pt
    num = (a * x0 + b * x1) % p
    den = (c * x0 + d * x1) % p
    if den == 0:
        return None
    return num * inv_mod(den, p) % p


def minor_ideal_equals(m: GradedMatrix, expected, degree_bound: int = 4) -> bool:
    """Graded agreement of the 2x2-minor ideal with an expected generator set."""
    minors = [f for f in m.maximal_minors() if not f.is_zero()]
    gens = []
    for g in expected:
        if isinstance(g, str):
            g = parse_form(g, 4, m.p)
        gens.append(g)
    return ideal_pieces_equal(minors, gens, degree_bound, m.p)


def conjugate(m: GradedMatrix, g: np.ndarray, h: np.ndarray,
              coords: np.ndarray | None = None) -> GradedMatrix:
    """g · m(Px) · h for g in GL2, h in GL4, P an optional coordinate change."""
    p = m.p
    entries = [[m.entry(i, j) for j in range(4)] for i in range(2)]
    if coords is not None:
        images = []
        for i in range(4):
            images.append(Form.make(4, 1, {
                tuple(1 if k == jj else 0 for k in range(4)): int(coords[i, jj]) % p
                for jj in range(4)}, p))
        entries = [[f.substitute(images) for f in row] for row in entries]
    out = [[Form.zero(4, 1, p) for _ in range(4)] for _ in range(2)]
    for i in range(2):
        for j in range(4):
            acc = Form.zero(4, 1, p)
            for a in range(2):
                for b in range(4):
                    c = int(g[i, a]) * int(h[b, j]) % p
                    if c:
                        acc = acc + entries[a][b].scale(c)
            out[i][j] = acc
    return GradedMatrix.make(4, (0, 0, 0, 0), (1, 1), out, p)


def random_gl(size: int, rng, p: int) -> np.ndarray:
    while True:
        mat = rng.integers(0, p, size=(size, size), dtype=np.int64)
        if rank(mat, p) == size:
            return mat
