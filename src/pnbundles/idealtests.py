"""Graded-piece tests: the onto-certificate for maps of line-bundle sums,
and graded pieces of ideals generated by lists of forms.

A map ⊕O(a_j) → ⊕O(b_i) is onto once one graded piece of degree
d >= -min b_i has full row rank: its cokernel module is generated in
degrees <= -min b_i.  `epi_certificate` asks the engine's one
onto-certificate, `Cohomology.onto_certificate`, with that line sum.
"""

from __future__ import annotations

import numpy as np

from .forms import Form
from .graded import GradedMatrix
from .modp import rank, zeros
from .sheaves import Cohomology, LineSum


def ideal_piece_rows(gens: list[Form], d: int) -> np.ndarray:
    """Rows spanning the degree-d piece of the ideal generated by `gens`:
    the transpose of the degree-d piece of the row ⊕O(-deg f) → O."""
    if not gens:
        return zeros(0, 1)
    row = GradedMatrix.row(gens[0].nvars, [-f.degree for f in gens], 0, gens,
                           gens[0].p)
    return row.graded_piece(d).T


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
    """Certify surjectivity of a map of line-bundle sums: (True, d) with the
    smallest d in [g, max_degree] whose graded piece has full row rank,
    g = -min(m.tgt), or (False, None).  The default max_degree is that of
    `Cohomology.onto_certificate`."""
    target = LineSum.make(m.nvars, m.tgt, m.p)
    cert = Cohomology(m.p).onto_certificate(m, target, max_degree)
    return (True, cert[0]) if cert else (False, None)
