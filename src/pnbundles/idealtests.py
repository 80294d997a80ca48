"""Graded-piece tests: the onto-certificate for maps of line-bundle sums,
and graded pieces of ideals generated by lists of forms.

The central certificate: a map m: ⊕O(a_j) → ⊕O(b_i) is onto as a sheaf
map iff its cokernel module has finite length.  That module is generated
in degrees <= g = -min b_i, so once it vanishes in one degree d >= g it
vanishes in every degree above: a single graded piece m.graded_piece(d)
of full row rank, d >= g, proves the map onto, with no sampling.
"""

from __future__ import annotations

import numpy as np

from .forms import Form
from .graded import GradedMatrix
from .modp import rank, zeros


def ideal_piece_rows(gens: list[Form], d: int) -> np.ndarray:
    """Rows spanning the degree-d piece of the ideal generated by `gens`:
    the transpose of the degree-d piece of the row ⊕O(-deg f) → O."""
    if not gens:
        return zeros(0, 1)
    row = GradedMatrix.row(gens[0].nvars, [-f.degree for f in gens], 0, gens,
                           gens[0].p)
    return row.graded_piece(d).T


def ideal_piece_dim(gens: list[Form], d: int, p: int) -> int:
    return rank(ideal_piece_rows(gens, d), p)


def ideal_pieces_equal(gens_a: list[Form], gens_b: list[Form], degree_bound: int,
                       p: int) -> bool:
    """Graded pieces of the two ideals agree in all degrees <= degree_bound."""
    for d in range(0, degree_bound + 1):
        ra = ideal_piece_rows(gens_a, d)
        rb = ideal_piece_rows(gens_b, d)
        da = rank(ra, p)
        db = rank(rb, p)
        if da != db:
            return False
        if da and rank(np.concatenate([ra, rb]), p) != da:
            return False
    return True


def epi_certificate(m: GradedMatrix, max_degree: int | None = None) -> tuple[bool, int | None]:
    """Certify surjectivity of a map of line-bundle sums.

    Returns (True, d) with the smallest d in [g, max_degree] whose graded
    piece has full row rank, g = -min(m.tgt), or (False, None).  The
    default max_degree is g + B, B = max(2 (max src - min tgt) + 2, 8), so
    no verdict of a maximal-minor search up to degree B is lost: if that
    ideal holds every form of degree e, it annihilates the cokernel
    (Fitting), and degree g + e certifies.  A zero row leaves its summand
    O(b_i) in the cokernel, so such a map is rejected before any piece.
    """
    if any(all(f.is_zero() for f in row) for row in m.entries):
        return False, None
    g = -min(m.tgt, default=0)
    if max_degree is None:
        spread = max(m.src, default=0) + g
        max_degree = g + max(2 * spread + 2, 8)
    for d in range(g, max_degree + 1):
        piece = m.graded_piece(d)
        if rank(piece, m.p) == piece.shape[0]:
            return True, d
    return False, None
