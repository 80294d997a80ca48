"""Homogeneous multivariate forms over F_p and their monomial bases.

A Form is an immutable sparse polynomial: a map from exponent tuples
(length nvars, entries summing to the declared degree) to nonzero
coefficients in [0, p).  The zero form keeps its declared degree and an
empty term table.

Monomial bases are graded reverse lexicographic, with x0 > x1 > ... ;
ordering a degree-d basis by ``tuple(reversed(e))`` ascending realizes
exactly that order, and every routine in the package relies on this one
fixed ordering for reproducibility.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .modp import DEFAULT_PRIME, _pow_mod_array, _reduce, check_prime


@lru_cache(maxsize=4096)
def monomial_basis(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree d, graded reverse-lex order."""
    if d < 0:
        return ()
    if nvars == 0:
        return ((),) if d == 0 else ()

    def gen(nv, total):
        if nv == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(nv - 1, total - first):
                yield (first,) + rest

    monos = list(gen(nvars, d))
    monos.sort(key=lambda e: tuple(reversed(e)))
    return tuple(monos)


@lru_cache(maxsize=4096)
def monomial_index(nvars: int, d: int) -> dict:
    return {m: i for i, m in enumerate(monomial_basis(nvars, d))}


@lru_cache(maxsize=4096)
def _monomial_steps(nvars: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-d monomial (d >= 1), in basis order: the index of
    the degree-(d-1) monomial that it is x_i times, and that i, its first
    variable."""
    lower = monomial_index(nvars, d - 1)
    index, var = [], []
    for e in monomial_basis(nvars, d):
        i = next(k for k, c in enumerate(e) if c)
        index.append(lower[e[:i] + (e[i] - 1,) + e[i + 1:]])
        var.append(i)
    return np.array(index, dtype=np.intp), np.array(var, dtype=np.intp)


def monomial_values(nvars: int, d: int, pts, p: int) -> np.ndarray:
    """Values of the degree-d monomials at points, (npts, dim S_d) in
    monomial_basis order; pts is an (npts, nvars) integer array.

    The values are built degree by degree, each monomial from one of
    degree one less by one modular product.
    """
    x = _reduce(np.asarray(pts, dtype=np.int64).T.copy(), p)  # nvars x npts
    if d < 0:
        return np.zeros((x.shape[1], 0), dtype=np.int64)
    out = x if d else np.ones((1, x.shape[1]), dtype=np.int64)
    for k in range(2, d + 1):
        index, var = _monomial_steps(nvars, k)
        out = out[index]
        out *= x[var]
        _reduce(out, p)
    return out.T


def space_dim(nvars: int, d: int) -> int:
    """dim of the degree-d piece of a polynomial ring in nvars variables."""
    if d < 0:
        return 0
    return comb(nvars + d - 1, d)


@dataclass(frozen=True)
class Form:
    """Homogeneous form of fixed degree over F_p."""

    nvars: int
    degree: int
    terms: tuple  # ((exponents, coeff), ...) sorted by exponents
    p: int = DEFAULT_PRIME

    @staticmethod
    def make(nvars: int, degree: int, coeffs: dict, p: int = DEFAULT_PRIME) -> "Form":
        check_prime(p)
        clean = {}
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo) or sum(expo) != degree:
                raise ValueError(f"exponent {expo} invalid for degree {degree}")
            c = int(c) % p
            if c:
                clean[expo] = c
        return Form(nvars, degree, tuple(sorted(clean.items())), p)

    @staticmethod
    def zero(nvars: int, degree: int, p: int = DEFAULT_PRIME) -> "Form":
        return Form(nvars, degree, (), p)

    @staticmethod
    def variable(nvars: int, i: int, p: int = DEFAULT_PRIME) -> "Form":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return Form(nvars, 1, ((expo, 1),), p)

    @staticmethod
    def constant(nvars: int, c: int, p: int = DEFAULT_PRIME) -> "Form":
        c = int(c) % p
        z = tuple(0 for _ in range(nvars))
        return Form(nvars, 0, ((z, c),) if c else (), p)

    @staticmethod
    def monomial(nvars: int, expo, c: int = 1, p: int = DEFAULT_PRIME) -> "Form":
        return Form.make(nvars, sum(expo), {tuple(expo): c}, p)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, expo) -> int:
        for e, c in self.terms:
            if e == tuple(expo):
                return c
        return 0

    def _compat(self, other: "Form"):
        if self.nvars != other.nvars or self.p != other.p:
            raise ValueError("forms live in different rings")

    def __add__(self, other: "Form") -> "Form":
        self._compat(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = (acc.get(e, 0) + c) % self.p
        return Form.make(self.nvars, self.degree, acc, self.p)

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Form":
        c = int(c) % self.p
        if c == 0:
            return Form.zero(self.nvars, self.degree, self.p)
        return Form(self.nvars, self.degree,
                    tuple((e, (k * c) % self.p) for e, k in self.terms), self.p)

    def __mul__(self, other: "Form") -> "Form":
        self._compat(other)
        if self.is_zero() or other.is_zero():
            return Form.zero(self.nvars, self.degree + other.degree, self.p)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = (acc.get(e, 0) + c1 * c2) % self.p
        return Form.make(self.nvars, self.degree + other.degree, acc, self.p)

    def evaluate(self, point) -> int:
        """Value at a coordinate tuple (ints mod p)."""
        coords = [int(c) % self.p for c in point]
        if len(coords) != self.nvars:
            raise ValueError("wrong number of coordinates")
        total = 0
        for e, c in self.terms:
            v = c
            for xi, ei in zip(coords, e):
                if ei:
                    v = v * pow(xi, ei, self.p) % self.p
            total = (total + v) % self.p
        return total

    def substitute(self, images: list["Form"]) -> "Form":
        """Substitute x_i -> images[i]; all images share degree e.

        Used to restrict forms to a parametrized line (images linear in two
        new variables) or to apply a linear change of coordinates.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        degs = {f.degree for f in images}
        if len(degs) != 1:
            raise ValueError("images must share a degree")
        e = degs.pop()
        nv2 = images[0].nvars
        out = Form.zero(nv2, self.degree * e, self.p)
        for expo, c in self.terms:
            part = Form.constant(nv2, c, self.p)
            for img, k in zip(images, expo):
                for _ in range(k):
                    part = part * img
            out = out + part
        return out

    def coeff_vector(self) -> np.ndarray:
        """Coefficients over monomial_basis(nvars, degree), len = space_dim."""
        idx = monomial_index(self.nvars, self.degree)
        v = np.zeros(len(idx), dtype=np.int64)
        for e, c in self.terms:
            v[idx[e]] = c
        return v

    @staticmethod
    def from_coeff_vector(nvars: int, degree: int, vec,
                          p: int = DEFAULT_PRIME) -> "Form":
        basis = monomial_basis(nvars, degree)
        return Form.make(nvars, degree,
                         {m: c for m, c in zip(basis, vec) if c}, p)

    def __str__(self) -> str:
        return format_form(self)

    def __repr__(self) -> str:
        return f"Form({format_form(self)!r}, deg={self.degree})"


def product_rows(f: Form, d_src: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the matrix of g -> f*g from degree d_src to
    degree d_src + deg f (target monomials as rows, source monomials as
    columns): the k-th term of f (coefficient coeffs[k]) times the j-th
    source monomial is the target monomial rows[k, j].  No two terms share
    a target in one column, so a scatter of coeffs[k] into rows[k] fills
    the matrix."""
    if d_src < 0 or f.is_zero():
        return np.zeros((0, space_dim(f.nvars, d_src)), dtype=np.intp), np.zeros(0, np.int64)
    index = monomial_index(f.nvars, f.degree)
    terms = [index[e] for e, _ in f.terms]
    coeffs = np.array([c for _, c in f.terms], dtype=np.int64)
    return _product_index(f.nvars, f.degree, d_src)[terms], coeffs


@lru_cache(maxsize=4096)
def _product_index(nvars: int, d1: int, d2: int) -> np.ndarray:
    """Index in monomial_basis(nvars, d1 + d2) of the product of the i-th
    degree-d1 and the j-th degree-d2 monomial, an (dim S_d1, dim S_d2)
    array (read-only: it is shared by every caller)."""
    # prefix[..., k] = e_0 + ... + e_k, additive over a product
    prefix = (_exponents(nvars, d1).cumsum(axis=1)[:, None, :]
              + _exponents(nvars, d2).cumsum(axis=1)[None, :, :])
    out = _basis_rank(prefix, d1 + d2)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def _exponents(nvars: int, d: int) -> np.ndarray:
    """monomial_basis(nvars, d) as a (dim S_d, nvars) int64 array."""
    basis = monomial_basis(nvars, d)
    return np.array(basis, dtype=np.int64).reshape(len(basis), nvars)


def _basis_rank(prefix: np.ndarray, d: int) -> np.ndarray:
    """Position in monomial_basis(nvars, d) of the exponent vectors whose
    prefix sums are prefix[..., :] (last axis nvars, every total d).

    The basis ascends in (e_{n-1}, ..., e_0).  The monomials before e are,
    for each k >= 1, those equal to e above k and smaller at k; with
    r_k = e_0 + ... + e_k there are sum over v < e_k of
    C(r_k - v + k - 1, k - 1) = C(r_k + k, k) - C(r_{k-1} + k, k) of them.
    Every such count is at most dim S_d, so int64 holds it for any nvars.
    """
    nvars = prefix.shape[-1]
    k = np.arange(1, nvars)
    binom = np.array([[comb(x, j) for j in range(nvars)] for x in range(d + nvars)],
                     dtype=np.int64)
    return (binom[prefix[..., 1:] + k, k] - binom[prefix[..., :-1] + k, k]).sum(
        axis=-1, dtype=np.intp)


# -- parsing / printing ------------------------------------------------------
#
# Catalog files and the CLI write forms as plain strings in variables
# x0..x9, e.g. "x0^2*x1 - 3*x3^2".  Python's ** is accepted alongside ^.

_VAR_RE = re.compile(r"^x(\d+)$")


def parse_form(text: str, nvars: int, p: int = DEFAULT_PRIME,
               degree: int | None = None) -> Form:
    """Parse a homogeneous form from a string.

    Each node of the expression tree is evaluated with `Form` arithmetic;
    a constant 0 (mod p) evaluates to None, a zero whose degree is not
    fixed yet, and absorbs a product.  Degrees are compared before two
    summands are added, so "x0*x1 - x0*x1 + x2" is inhomogeneous.

    Raises ValueError on malformed input, inhomogeneous expressions, or a
    degree mismatch with the optional expected degree (used for zero
    entries, whose degree is not inferable from "0").
    """
    check_prime(p)
    cleaned = text.replace("^", "**").strip()
    if not cleaned:
        raise ValueError("empty form string")
    try:
        tree = ast.parse(cleaned, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse form {text!r}: {exc}") from None

    def ev(node) -> Form | None:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise ValueError("only integer coefficients allowed")
            return Form.constant(nvars, node.value, p) if node.value % p else None
        if isinstance(node, ast.Name):
            m = _VAR_RE.match(node.id)
            if not m or int(m.group(1)) >= nvars:
                raise ValueError(f"unknown variable {node.id!r}")
            return Form.variable(nvars, int(m.group(1)), p)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            f = ev(node.operand)
            return f.scale(-1) if f is not None and isinstance(node.op, ast.USub) else f
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                f, g = ev(node.left), ev(node.right)
                if g is not None and isinstance(node.op, ast.Sub):
                    g = g.scale(-1)
                if f is None or g is None:
                    return g if f is None else f
                if f.degree != g.degree:
                    raise ValueError(f"inhomogeneous expression {text!r}")
                return f + g
            if isinstance(node.op, ast.Mult):
                f, g = ev(node.left), ev(node.right)
                return None if f is None or g is None else f * g
            if isinstance(node.op, ast.Pow):
                if not (isinstance(node.right, ast.Constant)
                        and isinstance(node.right.value, int)
                        and node.right.value >= 0):
                    raise ValueError("exponent must be a nonnegative integer")
                f, out = ev(node.left), Form.constant(nvars, 1, p)
                if f is None:
                    return None if node.right.value else out
                for _ in range(node.right.value):
                    out = out * f
                return out
        raise ValueError(f"unsupported syntax in form {text!r}")

    f = ev(tree.body)
    if f is None or f.is_zero():
        if degree is None:
            raise ValueError(f"zero form {text!r} needs an explicit degree")
        return Form.zero(nvars, degree, p)
    if degree is not None and f.degree != degree:
        raise ValueError(f"form {text!r} has degree {f.degree}, expected {degree}")
    return f


def format_form(f: Form) -> str:
    """Terms in the fixed order, coefficients c > p//2 printed as -(p-c)."""
    if f.is_zero():
        return "0"
    out = ""
    for e, c in f.terms:
        neg = c > f.p // 2
        c = f.p - c if neg else c
        factors = [str(c)] if c != 1 or not any(e) else []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i}")
            elif k > 1:
                factors.append(f"x{i}^{k}")
        term = "*".join(factors)
        if out:
            out += (" - " if neg else " + ") + term
        else:
            out = "-" + term if neg else term
    return out


# -- projective points -------------------------------------------------------

def normalize_point(coords, p: int = DEFAULT_PRIME) -> tuple[int, ...]:
    """Scale a nonzero coordinate vector so its last nonzero entry is 1."""
    vec = [int(c) % p for c in coords]
    for c in reversed(vec):
        if c:
            s = pow(c, p - 2, p)
            return tuple([x * s % p for x in vec])
    raise ValueError("projective point needs a nonzero coordinate")


def normalize_points(pts, p: int = DEFAULT_PRIME) -> np.ndarray:
    """`normalize_point` on every row of an (npts, nvars) integer array at
    once: an int64 array of the rows reduced mod p and scaled so that each
    last nonzero entry is 1."""
    pts = np.mod(np.asarray(pts, dtype=np.int64), p)
    nz = pts != 0
    last = pts.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    if not nz.any(axis=1).all():
        raise ValueError("projective point needs a nonzero coordinate")
    inv = _pow_mod_array(pts[np.arange(pts.shape[0]), last], p - 2, p)
    pts *= inv[:, None]
    return _reduce(pts, p)


def random_points(nvars: int, count: int, seed: int,
                  p: int = DEFAULT_PRIME) -> np.ndarray:
    """Deterministic sample of projective points, uniform over
    P^{nvars-1}(F_p): a (count, nvars) int64 array, each row scaled as
    `normalize_points` does.  count may be 0, not negative.

    The array is read-only and shared: the last sample drawn is kept, so
    a repeated (nvars, count, seed, p) is drawn once (a catalog verify
    samples its entries P^n by P^n, each at the same seed).  One kept
    sample is enough for that and holds the least memory; an empty sample
    is not drawn, so it does not replace the kept one."""
    if count < 0:
        raise ValueError(f"cannot sample {count} points")
    if count == 0:
        return np.zeros((0, nvars), dtype=np.int64)
    return _sample(nvars, count, seed, p)


@lru_cache(maxsize=1)
def _sample(nvars: int, count: int, seed: int, p: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = np.zeros((0, nvars), dtype=np.int64)
    while pts.shape[0] < count:
        block = rng.integers(0, p, size=(count, nvars))
        pts = np.concatenate([pts, block[block.any(axis=1)]])
    pts = normalize_points(pts[:count], p)
    pts.flags.writeable = False
    return pts
