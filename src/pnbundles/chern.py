"""Chern-class arithmetic modulo H^{n+1} and Riemann-Roch evaluators.

Chern data is held as an integer vector (rank; c_1..c_n); products and
quotients of total Chern classes are truncated polynomial arithmetic over
the integers.  Euler characteristics of twists are evaluated through the
signed binomial chi(O_{P^n}(m)) = C(m+n, n) extended to all integers m,
which fixes every boundary convention downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod


def chi_line(n: int, m: int) -> int:
    """chi(O_{P^n}(m)) as the signed binomial polynomial in m."""
    num = prod(m + k for k in range(1, n + 1))
    return num // prod(range(1, n + 1))


@dataclass(frozen=True)
class ChernVector:
    n: int
    rank: int
    c: tuple

    @staticmethod
    def make(n: int, rank: int, c) -> "ChernVector":
        c = tuple(int(v) for v in c)
        if len(c) < n:
            c = c + (0,) * (n - len(c))
        return ChernVector(n, int(rank), c[:n])

    @property
    def total(self) -> tuple:
        return (1,) + self.c

    def __getitem__(self, i: int) -> int:
        if i == 0:
            return 1
        return self.c[i - 1] if i <= self.n else 0

    def __str__(self) -> str:
        return f"(rank {self.rank}; " + ", ".join(map(str, self.c)) + ")"


def poly_mul(a, b, n: int) -> tuple:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if i > n or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > n:
                break
            out[i + j] += ai * bj
    return tuple(out)


def poly_div(a, b, n: int) -> tuple:
    """a / b mod H^{n+1}; b must have constant term ±1 (integer inversion)."""
    if not b or b[0] not in (1, -1):
        raise ValueError("total Chern class must have unit constant term")
    inv = [1 if b[0] == 1 else -1] + [0] * n
    for k in range(1, n + 1):
        s = 0
        for j in range(1, k + 1):
            bj = b[j] if j < len(b) else 0
            s += bj * inv[k - j]
        inv[k] = -s * b[0]
    return poly_mul(a, tuple(inv), n)


def line_sum_chern(n: int, twists) -> ChernVector:
    total = (1,)
    for a in twists:
        total = poly_mul(total, (1, a), n)
    return ChernVector.make(n, len(tuple(twists)), total[1:])


def whitney_mul(a: ChernVector, b: ChernVector) -> ChernVector:
    n = a.n
    return ChernVector.make(n, a.rank + b.rank, poly_mul(a.total, b.total, n)[1:])


def whitney_div(a: ChernVector, b: ChernVector) -> ChernVector:
    """Chern data of the kernel/cokernel complement: total(a)/total(b)."""
    n = a.n
    return ChernVector.make(n, a.rank - b.rank, poly_div(a.total, b.total, n)[1:])


def twist_chern(cv: ChernVector, t: int) -> ChernVector:
    """Chern data of E(t): c(E(t)) = Σ_i c_i(E)·(1+tH)^{rank-i}."""
    n, r = cv.n, cv.rank
    total = [0] * (n + 1)
    for i in range(0, min(r, n) + 1):
        ci = cv[i]
        if ci == 0:
            continue
        pw = tuple(comb(r - i, k) * t ** k for k in range(n + 1))
        for k in range(n + 1 - i):
            total[i + k] += ci * pw[k]
    return ChernVector.make(n, r, total[1:])


def dual_chern(cv: ChernVector) -> ChernVector:
    return ChernVector.make(cv.n, cv.rank,
                            [(-1) ** (i + 1) * c for i, c in enumerate(cv.c)])


def p_chern(cv: ChernVector) -> ChernVector:
    """Chern data of the transform P(E) on the first three classes.

    (c1, c2, c3) -> (c1, c1^2 - c2, c3 + c1(c1^2 - 2c2)); an involution.
    The rank of P(E) is h^0(E) - rank(E) and must be supplied by the
    cohomology layer when needed.
    """
    c1 = cv[1]
    c2 = cv[2]
    c3 = cv[3]
    out = [c1, c1 * c1 - c2]
    if cv.n >= 3:
        out.append(c3 + c1 * (c1 * c1 - 2 * c2))
    return ChernVector.make(cv.n, cv.rank, out)


def rr_chi(cv: ChernVector, l: int) -> int:
    """Euler characteristic chi(E(l)) on P^2, P^3 or P^4.

    P^3 requires c3 ≡ c1·c2 (mod 2); P^4 requires the Schwarzenberger
    congruence.  Violations raise ValueError since no vector bundle can
    carry such Chern data.
    """
    n, r = cv.n, cv.rank
    c1, c2, c3, c4 = cv[1], cv[2], cv[3], cv[4]
    base = (r - 1) * chi_line(n, l) + chi_line(n, c1 + l)
    if n == 2:
        return base - c2
    if n == 3:
        if (c3 - c1 * c2) % 2:
            raise ValueError(f"parity violation: c3 - c1*c2 odd for {cv}")
        return base - (l + 2) * c2 + (c3 - c1 * c2) // 2
    if n == 4:
        ok, res = schwarzenberger_ok(cv)
        if not ok:
            raise ValueError(f"Schwarzenberger violation (residue {res}) for {cv}")
        # assemble over 12 so the two half-integral terms combine exactly
        num = (6 * (l + 2) * (l + 3) * (-c2)
               + 6 * (l + 2) * (c3 - c1 * c2)
               + (2 * c1 + 3) * (c3 - c1 * c2) + c2 * c2 + c2 - 2 * c4)
        if num % 12:
            raise ValueError(f"non-integral chi for {cv} at l={l}")
        return base + num // 12
    raise ValueError(f"Riemann-Roch evaluator only covers n = 2, 3, 4 (got n={n})")


def schwarzenberger_ok(cv: ChernVector) -> tuple[bool, int]:
    """Congruence (2c1+3)(c3 - c1c2) + c2^2 + c2 ≡ 2c4 (mod 12) on P^4."""
    c1, c2, c3, c4 = cv[1], cv[2], cv[3], cv[4]
    res = ((2 * c1 + 3) * (c3 - c1 * c2) + c2 * c2 + c2 - 2 * c4) % 12
    return res == 0, res


@dataclass(frozen=True)
class SurfaceInvariants:
    d: int       # degree
    pi: int      # sectional genus
    q: int       # irregularity
    pg: int      # geometric genus

    def __post_init__(self):
        if self.d < 1 or self.pi < 0 or self.q < 0 or self.pg < 0:
            raise ValueError("invalid surface invariants")


def double_point(s: SurfaceInvariants) -> int:
    """(C+K)^2 = (d-3)(d-4)/2 + 1 - pi - 6q + 6pg."""
    return (s.d - 3) * (s.d - 4) // 2 + 1 - s.pi - 6 * s.q + 6 * s.pg


def surface_bundle_data(s: SurfaceInvariants,
                        h1_hyperplane: int | None = None) -> tuple:
    """Rank and c_2..c_4 of the rank-r extension bundle of a surface in P^4.

    Returns (r, c2, c3, c4) with r = 1 + pi - q + pg, c2 = d, c3 = 2pi - 2
    and c4 the double-point number.  When h^1(O_Y(1)) is supplied, the
    linear-normality bookkeeping pi - d + 3 = h^1(O_Y(1)) - q + pg is
    checked as well.
    """
    r = 1 + s.pi - s.q + s.pg
    c4 = double_point(s)
    if h1_hyperplane is not None:
        if s.pi - s.d + 3 != h1_hyperplane - s.q + s.pg:
            raise ValueError("hyperplane-section bookkeeping fails")
    return r, s.d, 2 * s.pi - 2, c4


def gg_constraints(cv: ChernVector, rank2_on_p3: bool = False) -> list[str]:
    """Violated necessary conditions for global generation; empty when clean.

    Advisory only: reports c_i >= 0, c_2 <= c_1^2, the rank-2 bound
    c_2 <= c_1^2/2 on P^3, the c_3 >= 2c_2 - 8 bound for c_1 = 4 surfaces
    on P^4, and c_2 >= c_1 - 1 whenever c_2 > 0.
    """
    out = []
    for i, ci in enumerate(cv.c, start=1):
        if ci < 0:
            out.append(f"c{i} = {ci} < 0")
    c1, c2, c3 = cv[1], cv[2], cv[3]
    if c2 > c1 * c1:
        out.append(f"c2 = {c2} > c1^2 = {c1 * c1}")
    if rank2_on_p3 and cv.n == 3 and cv.rank == 2 and 2 * c2 > c1 * c1:
        out.append(f"rank-2 bound: 2*c2 = {2 * c2} > c1^2 = {c1 * c1}")
    if cv.n == 4 and c1 == 4 and 5 <= c2 <= 8 and c3 < 2 * c2 - 8:
        out.append(f"c3 = {c3} < 2*c2 - 8 = {2 * c2 - 8}")
    if c2 > 0 and c2 < c1 - 1:
        out.append(f"0 < c2 = {c2} < c1 - 1 = {c1 - 1}")
    return out
