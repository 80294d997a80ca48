"""Binary forms as coefficient vectors, with exact gcd machinery.

A binary form of degree d in (T0, T1) is a length-(d+1) vector c with
c[k] the coefficient of T0^(d-k) T1^k.  Working homogeneously: the
valuations at the two coordinate points are the leading/trailing zero
runs, and everything else reduces to univariate gcd on the chart T0 = 1.
"""

from __future__ import annotations

import numpy as np

from .modp import inv_mod


def trim_high(v: np.ndarray, p: int) -> np.ndarray:
    k = len(v)
    while k > 0 and v[k - 1] % p == 0:
        k -= 1
    return np.mod(v[:k], p)


def poly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic univariate gcd; vectors are low-to-high coefficient lists."""
    a, b = trim_high(np.array(a, dtype=np.int64), p), trim_high(np.array(b, dtype=np.int64), p)
    while len(b):
        while len(a) >= len(b):
            c = a[-1] * inv_mod(int(b[-1]), p) % p
            shift = len(a) - len(b)
            a[shift:] = (a[shift:] - c * b) % p
            a = trim_high(a, p)
            if not len(a):
                break
        a, b = b, a
    if not len(a):
        return a
    return a * inv_mod(int(a[-1]), p) % p


def valuations(c: np.ndarray, p: int) -> tuple[int, int, np.ndarray]:
    """(val at (1:0), val at (0:1), stripped chart polynomial).

    val at (1:0) is the T1-adic valuation (leading zero run at k = 0);
    val at (0:1) is the T0-adic valuation (zero run at the top).
    """
    c = np.mod(np.asarray(c, dtype=np.int64), p)
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise ValueError("zero form has no valuations")
    lo, hi = int(nz[0]), int(nz[-1])
    d = len(c) - 1
    return lo, d - hi, c[lo:hi + 1]


def binary_gcd_degree(forms: list[tuple[np.ndarray, int]], p: int) -> int:
    """Total degree of the gcd of nonzero binary forms (deg 0 = coprime).

    Input is a list of (coefficient vector, degree) pairs; zero vectors
    are ignored, and an all-zero family returns -1.
    """
    if any(len(c) != d + 1 for c, d in forms):
        raise ValueError("coefficient vector does not match the degree")
    return len(_gcd_form(forms, p)) - 1


def derivative_t0(c: np.ndarray, p: int) -> np.ndarray:
    d = len(c) - 1
    return np.array([(d - k) * int(c[k]) % p for k in range(d)], dtype=np.int64)


def derivative_t1(c: np.ndarray, p: int) -> np.ndarray:
    d = len(c) - 1
    return np.array([(k + 1) * int(c[k + 1]) % p for k in range(d)], dtype=np.int64)


def multiplicity_partition(c: np.ndarray, p: int) -> list[int]:
    """Root multiplicities of a binary form over the algebraic closure.

    Iterated gcd with both partial derivatives; no root extraction.  The
    characteristic must exceed the degree for the derivative criterion to
    see every multiple root.
    """
    c = np.mod(np.asarray(c, dtype=np.int64), p)
    d = len(c) - 1
    if d >= p:
        raise ValueError("degree must be smaller than the characteristic")
    if not c.any():
        raise ValueError("zero form has no multiplicity partition")
    degs = [d]
    cur, cur_deg = c, d
    while cur_deg > 0:
        pieces = [(cur, cur_deg)]
        dt0 = derivative_t0(cur, p)
        dt1 = derivative_t1(cur, p)
        if dt0.any():
            pieces.append((dt0, cur_deg - 1))
        if dt1.any():
            pieces.append((dt1, cur_deg - 1))
        cur = _gcd_form(pieces, p)
        cur_deg = len(cur) - 1
        degs.append(cur_deg)
        if cur_deg == degs[-2]:
            raise ValueError("gcd iteration failed to descend")
    # number of roots with multiplicity >= k is degs[k-1] - degs[k]
    at_least = [degs[k - 1] - degs[k] for k in range(1, len(degs))]
    at_least += [0]
    partition = []
    for k in range(1, len(at_least)):
        exact = at_least[k - 1] - at_least[k]
        partition.extend([k] * exact)
    return sorted(partition, reverse=True)


def _gcd_form(forms: list[tuple[np.ndarray, int]], p: int) -> np.ndarray:
    """Coefficient vector of the gcd of the nonzero forms; empty when
    every form is zero."""
    v10 = v01 = None
    chart = None
    for c, d in forms:
        c = np.mod(np.asarray(c, dtype=np.int64), p)
        if not c.any():
            continue
        a, b, core = valuations(c, p)
        v10 = a if v10 is None else min(v10, a)
        v01 = b if v01 is None else min(v01, b)
        chart = core if chart is None else poly_gcd(chart, core, p)
    if chart is None:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([np.zeros(v10, dtype=np.int64), chart,
                           np.zeros(v01, dtype=np.int64)])


def rational_roots(c: np.ndarray, p: int) -> list[tuple[int, int]] | None:
    """All projective roots over F_p with multiplicity, or None if some
    root lives in an extension field.

    Returns [(root as (r0:r1) normalized, multiplicity), ...]; the scan is
    a full evaluation over F_p plus the point at infinity, which is cheap
    for the primes in use.
    """
    c = np.mod(np.asarray(c, dtype=np.int64), p)
    d = len(c) - 1
    v10, v01, core = valuations(c, p)
    roots = []
    if v10:
        roots.append(((1, 0), v10))
    if v01:
        roots.append(((0, 1), v01))
    # chart roots of `core` (poly in t = T1/T0, constant and top nonzero)
    t = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    power = np.ones(p, dtype=np.int64)
    for ck in core:
        vals = (vals + ck * power) % p
        power = power * t % p
    zero_ts = np.nonzero(vals == 0)[0]
    deg_accounted = 0
    for t0 in zero_ts:
        mult = 0
        poly = core.copy()
        while True:
            q, rem = _deflate(poly, int(t0), p)
            if rem != 0:
                break
            mult += 1
            poly = q
            if not len(poly):
                break
        roots.append(((1, int(t0)), mult))
        deg_accounted += mult
    if deg_accounted != len(core) - 1:
        return None
    return roots


def _deflate(poly: np.ndarray, r: int, p: int) -> tuple[np.ndarray, int]:
    """Synthetic division of a low-to-high poly by (t - r)."""
    n = len(poly)
    if n == 0:
        return poly, 0
    out = np.zeros(n - 1, dtype=np.int64)
    acc = 0
    for k in range(n - 1, 0, -1):
        acc = (acc * r + int(poly[k])) % p
        out[k - 1] = acc
    rem = (acc * r + int(poly[0])) % p
    return out, rem
