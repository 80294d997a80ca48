"""Exterior-algebra contraction calculus and monad-shape computation.

Elements of Λ^p of an (n+1)-space are stored over the ordered-subset
basis; wedge and contraction use shuffle signs.  Monad shapes are read
off a cohomology table: position p receives h^j(F(p-j)) copies of the
twisted differential sheaf of exponent j-p for each j in range.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .modp import DEFAULT_PRIME, rank
from .sheaves import CohTable, is_exact_cell


@dataclass(frozen=True)
class ExtElement:
    """Element of Λ^grade of a dim-dimensional space, coefficients mod p."""
    dim: int
    grade: int
    coeffs: tuple  # ((sorted index tuple, coeff), ...), sorted
    p: int = DEFAULT_PRIME

    @staticmethod
    def make(dim: int, grade: int, coeffs: dict, p: int = DEFAULT_PRIME) -> "ExtElement":
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != grade or len(set(idx)) != grade:
                raise ValueError(f"bad index set {idx} for grade {grade}")
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError(f"index out of range in {idx}")
            sidx, sign = _sort_sign(idx)
            c = int(c) * sign % p
            if c:
                clean[sidx] = (clean.get(sidx, 0) + c) % p
        clean = {k: v for k, v in clean.items() if v}
        return ExtElement(dim, grade, tuple(sorted(clean.items())), p)

    @staticmethod
    def basis_vector(dim: int, i: int, p: int = DEFAULT_PRIME) -> "ExtElement":
        return ExtElement.make(dim, 1, {(i,): 1}, p)

    @staticmethod
    def zero(dim: int, grade: int, p: int = DEFAULT_PRIME) -> "ExtElement":
        return ExtElement(dim, grade, (), p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c: int) -> "ExtElement":
        c = int(c) % self.p
        if c == 0:
            return ExtElement.zero(self.dim, self.grade, self.p)
        return ExtElement(self.dim, self.grade,
                          tuple((k, v * c % self.p) for k, v in self.coeffs), self.p)


def _sort_sign(idx: tuple) -> tuple[tuple, int]:
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return tuple(idx), sign


def wedge(a: ExtElement, b: ExtElement) -> ExtElement:
    if a.dim != b.dim or a.p != b.p:
        raise ValueError("space mismatch")
    out: dict = {}
    p = a.p
    for ka, ca in a.coeffs:
        for kb, cb in b.coeffs:
            if set(ka) & set(kb):
                continue
            sidx, sign = _sort_sign(ka + kb)
            out[sidx] = (out.get(sidx, 0) + ca * cb * sign) % p
    return ExtElement(a.dim, a.grade + b.grade,
                      tuple(sorted((k, v) for k, v in out.items() if v)), p)


def contract(phi: ExtElement, omega: ExtElement) -> ExtElement:
    """Contraction φ·ω of a dual (p+q)-element by a primal p-element.

    On basis elements: e*_F · e_W keeps the summands over subsets S ⊆ F
    equal to W, with the shuffle sign of (S, F∖S).
    """
    if phi.dim != omega.dim or phi.p != omega.p:
        raise ValueError("space mismatch")
    if omega.grade > phi.grade:
        raise ValueError("grade mismatch: contraction needs |phi| >= |omega|")
    p = phi.p
    out: dict = {}
    for kf, cf in phi.coeffs:
        fset = set(kf)
        for kw, cw in omega.coeffs:
            if not set(kw) <= fset:
                continue
            rest = tuple(i for i in kf if i not in kw)
            sign = _sort_sign(kw + rest)[1]
            out[rest] = (out.get(rest, 0) + cf * cw * sign) % p
    return ExtElement(phi.dim, phi.grade - omega.grade,
                      tuple(sorted((k, v) for k, v in out.items() if v)), p)


def skew_rank(omega: ExtElement) -> int:
    """Rank of the skew form attached to an element of Λ^2 (always even)."""
    if omega.grade != 2:
        raise ValueError("skew_rank expects a 2-form")
    d = omega.dim
    m = np.zeros((d, d), dtype=np.int64)
    for (i, j), c in omega.coeffs:
        m[i, j] = c
        m[j, i] = (-c) % omega.p
    return rank(m, omega.p)


def wedge_map_rank(omega: ExtElement, q: int) -> int:
    """Rank of ω∧-: Λ^q -> Λ^{q+|ω|} as an explicit matrix."""
    d, p = omega.dim, omega.p
    src = list(combinations(range(d), q))
    tgt = list(combinations(range(d), q + omega.grade))
    tidx = {b: i for i, b in enumerate(tgt)}
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for j, b in enumerate(src):
        eb = ExtElement.make(d, q, {b: 1}, p)
        w = wedge(omega, eb)
        for k, c in w.coeffs:
            m[tidx[k], j] = c
    return rank(m, p)


# -- monad shapes ----------------------------------------------------------------

@dataclass(frozen=True)
class MonadShape:
    """Per position p, the list of (multiplicity, i) meaning Ω^i(i)^mult."""
    n: int
    terms: tuple  # ((p, ((mult, i), ...)), ...) sorted by p

    def at(self, p: int) -> tuple:
        for q, t in self.terms:
            if q == p:
                return t
        return ()

    def positions(self) -> list:
        return [q for q, _ in self.terms]

    def render(self) -> str:
        def fmt(t):
            bits = []
            for mult, i in t:
                name = "O" if i == 0 else f"Om^{i}({i})"
                bits.append(name + (f"^{mult}" if mult > 1 else ""))
            return " + ".join(bits) if bits else "0"

        return " -> ".join(fmt(self.at(q)) for q in self.positions())


class InsufficientTable(ValueError):
    """The cohomology table is missing or indeterminate at a needed cell."""


def beilinson_terms(table: CohTable, n: int) -> MonadShape:
    """Monad term multiplicities from a cohomology table.

    C^p = ⊕_{j≥p} h^j(F(p-j))·Ω^{j-p}(j-p), with exponents outside 0..n
    dropping out.  Missing or indeterminate cells in the needed range
    raise InsufficientTable.
    """
    if table.n != n:
        raise InsufficientTable("table does not live on the requested space")
    terms = []
    for pos in range(-n, n + 1):
        bits = []
        for j in range(0, n + 1):
            i = j - pos
            if i < 0 or i > n:
                continue
            l = pos - j
            if (j, l) not in table.cells:
                raise InsufficientTable(f"missing cell h^{j}({l})")
            v = table.cells[(j, l)]
            if not is_exact_cell(v):
                raise InsufficientTable(f"indeterminate cell h^{j}({l})")
            if v:
                bits.append((int(v), i))
        if bits:
            terms.append((pos, tuple(bits)))
    return MonadShape(n, tuple(terms))


def omega_restriction(p: int, n: int, n_prime: int) -> list[tuple[int, int]]:
    """Summands of Ω^p(p) restricted to a linear subspace of dimension n'.

    Returns [(i, multiplicity)] with Ω^p(p)|_{P^{n'}} = ⊕ Ω^i(i)^{C(n-n', p-i)}.
    """
    if not (0 <= p <= n and 0 <= n_prime < n):
        raise ValueError("need 0 <= p <= n and n' < n")
    out = []
    for i in range(0, min(p, n_prime) + 1):
        j = p - i
        mult = comb(n - n_prime, j)
        if mult:
            out.append((i, mult))
    return out
