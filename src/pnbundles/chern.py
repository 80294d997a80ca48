"""Chern-class arithmetic modulo H^{n+1} and Riemann-Roch on P^1..P^5.

Chern data is held as an integer vector (rank; c_1..c_n); products and
quotients of total Chern classes are truncated polynomial arithmetic over
the integers.  chi(E(l)) is one splitting-principle formula for every n:
the sum of chi(O_{P^n}(l + x_i)) over the Chern roots x_i, with the signed
binomial chi(O_{P^n}(m)) = C(m+n, n) extended to all integers m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    """Chern classes of the transform P(E): the dual of c(E)^{-1}.

    P(E) is the dual of the kernel of H^0(E) ⊗ O → E, so its total Chern
    class is dual_chern(1 / c(E)); the map is an involution on every P^n.
    Only the classes are computed: the rank of P(E) is h^0(E) - rank(E)
    and must be supplied by the cohomology layer when needed.
    """
    return dual_chern(ChernVector.make(cv.n, cv.rank,
                                       poly_div((1,), cv.total, cv.n)[1:]))


def check_rr_dim(n: int) -> int:
    """n itself when Riemann-Roch is evaluated on P^n (1 <= n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError(f"Riemann-Roch is evaluated on P^1..P^5 (got n={n})")
    return n


def rr_chi(cv: ChernVector, l: int) -> int:
    """Euler characteristic chi(E(l)) on P^n for 1 <= n <= 5.

    chi(E(l)) = sum_i chi(O(l + x_i)) over the Chern roots x_i.  With
    (t+1)...(t+n) = sum_m a_m t^m and power sums p_j (p_0 = rank),
    n!·chi(E(l)) = sum_m a_m sum_{j<=m} C(m, j) l^(m-j) p_j.  Rank and
    Chern data whose chi is not an integer at some twist (on P^3 an odd
    c3 - c1*c2, on P^4 a Schwarzenberger violation) belong to no vector
    bundle and raise ValueError.
    """
    coef, fact = _rr_polynomial(cv)
    return sum(q * l ** k for k, q in enumerate(coef)) // fact


@lru_cache(maxsize=256)
def _rr_polynomial(cv: ChernVector) -> tuple[tuple, int]:
    """(coefficients of n!·chi(E(t)) in t, n!), built once per vector.

    A polynomial of degree n whose values at the n+1 integers t = 0..n
    are multiples of n! has all its integer values multiples of n!, so
    integrality is checked there once.
    """
    n = check_rr_dim(cv.n)
    c = cv.total
    # Newton's identities: p_k = sum_{j<k} (-1)^(j-1) c_j p_{k-j} + (-1)^(k-1) k c_k
    pw = [cv.rank]
    for k in range(1, n + 1):
        pw.append(sum((-1) ** (j - 1) * c[j] * pw[k - j] for j in range(1, k))
                  + (-1) ** (k - 1) * k * c[k])
    a = (1,)
    for k in range(1, n + 1):
        a = poly_mul(a, (k, 1), n)
    coef = tuple(sum(a[m] * comb(m, k) * pw[m - k] for m in range(k, n + 1))
                 for k in range(n + 1))
    if any(sum(q * t ** k for k, q in enumerate(coef)) % a[0] for t in range(n + 1)):
        raise ValueError(f"non-integral chi for {cv}: no bundle has these Chern classes")
    return coef, a[0]


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


def gg_constraints(cv: ChernVector) -> list[str]:
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
    if cv.n == 3 and cv.rank == 2 and 2 * c2 > c1 * c1:
        out.append(f"rank-2 bound: 2*c2 = {2 * c2} > c1^2 = {c1 * c1}")
    if cv.n == 4 and c1 == 4 and 5 <= c2 <= 8 and c3 < 2 * c2 - 8:
        out.append(f"c3 = {c3} < 2*c2 - 8 = {2 * c2 - 8}")
    if c2 > 0 and c2 < c1 - 1:
        out.append(f"0 < c2 = {c2} < c1 - 1 = {c1 - 1}")
    return out
