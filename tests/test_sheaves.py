import gc
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pnbundles import sheaves
from pnbundles.catalog import load_catalog, parse_node
from pnbundles.catalog_entries import rank5_p4_chain
from pnbundles.chern import dual_chern, rr_chi
from pnbundles.forms import Form, monomial_basis, random_points
from pnbundles.graded import GradedMatrix, hn_matrix
from pnbundles.modp import batched_rank, rank, relative_rank, zeros
from pnbundles.sheaves import (CertificationError, Cohomology, CohTable,
                               KerNode, LineSum, Presented, QuotNode, Strands,
                               SumNode, block_rows, chern_of_node,
                               default_window, dual_node, fiber_quot_rows,
                               is_exact_cell, ker_node, kernel_into, map_rank,
                               nvars_of, quot_node, rank_of, sum_node,
                               twist_node)

P = 32003
X = [Form.variable(4, i) for i in range(4)]
Z = [Form.variable(3, i) for i in range(3)]


@pytest.fixture(scope="module")
def eng():
    return Cohomology()


def mixed_kernel():
    return ker_node(GradedMatrix.row(4, (2, 2, 2, 1), 3,
                                     [X[0], X[1], X[2], X[3] * X[3]]))


def nullcorrelation_twist():
    euler2 = GradedMatrix.row(4, (2, 2, 2, 2), 3, X)
    w = GradedMatrix.column(4, 1, (2, 2, 2, 2),
                            [X[1], X[0].scale(-1), X[3], X[2].scale(-1)])
    return quot_node(w, ker_node(euler2))


def serre_flip(table: CohTable) -> CohTable:
    """The reference table of the dual: h^i(E^vee(l)) = h^{n-i}(E(-l-n-1))
    by Serre duality on P^n, where E is locally free."""
    n = table.n
    lo, hi = -table.hi - n - 1, -table.lo - n - 1
    return CohTable(n, lo, hi, {(i, l): table.h(n - i, -l - n - 1)
                                for l in range(lo, hi + 1) for i in range(n + 1)})


def flipped(window, n):
    """The twists -l-n-1 of l in window, ascending: where E's table gives
    the dual's on window."""
    return range(-max(window) - n - 1, -min(window) - n)


def test_line_sum_table(eng):
    t = eng.table(LineSum.make(4, (0, 1)), range(-5, 3))
    assert t.h(0, 0) == 5
    # h^3 at l=-5: h^0(O(1)) + h^0(O(0)) through top-degree duality
    assert t.h(3, -5) == 5
    assert t.h(1, -2) == 0


def test_serre_duality_on_line_sums(eng):
    node = LineSum.make(4, (2, -1, 0))
    for l in range(-6, 4):
        vals = eng.values(node, l)
        dual_vals = eng.values(LineSum.make(4, (-2, 1, 0)), -l - 4)
        assert vals[0] == dual_vals[3]
        assert vals[3] == dual_vals[0]


def test_mixed_kernel_values(eng):
    e = mixed_kernel()
    assert (chern_of_node(e).rank, chern_of_node(e).c) == (3, (4, 6, 2))
    assert eng.h(e, 0, 0) == 14
    assert eng.h(e, 1, -3) == 1
    assert eng.h(e, 1, -2) == 1
    assert eng.h(e, 1, -4) == 0
    assert eng.h(e, 2, -1) == 0


def test_euler_cross_check_on_kernel(eng):
    e = mixed_kernel()
    cv = chern_of_node(e)
    t = eng.table(e)
    for l in t.exact_columns():
        assert t.euler(l) == rr_chi(cv, l)


def test_nullcorrelation_twist_table(eng):
    n2 = nullcorrelation_twist()
    cv = chern_of_node(n2)
    assert (cv.rank, cv.c) == (2, (4, 5, 0))
    assert eng.h(n2, 0, 0) == 16
    assert eng.h(n2, 1, -3) == 1
    t = eng.table(n2)
    for l in t.exact_columns():
        assert t.euler(l) == rr_chi(cv, l)


def test_cotangent_twist_sections(eng):
    om2 = ker_node(GradedMatrix.row(4, (1, 1, 1, 1), 2, X))
    assert eng.h(om2, 0, 0) == 6
    assert chern_of_node(om2).c == (2, 2, 0)


def test_twist_pushdown_and_chern_consistency(eng):
    e = mixed_kernel()
    for t in (-2, 1, 3):
        tw = twist_node(e, t)
        from pnbundles.chern import twist_chern
        assert chern_of_node(tw).c == twist_chern(chern_of_node(e), t).c
        assert eng.h(tw, 1, -3 - t) == eng.h(e, 1, -3)


def test_sum_node_adds(eng):
    s = sum_node(LineSum.make(4, (1,)), mixed_kernel())
    assert rank_of(s) == 4
    assert eng.h(s, 0, 0) == 4 + 14
    assert chern_of_node(s).rank == 4


def test_sum_of_kernel_and_quotient_models_are_blocks(eng):
    # a sum with a dual part has models like any other, since the dual of
    # a kernel onto a line sum is a quotient of one
    for k, q in ((mixed_kernel(), nullcorrelation_twist()),
                 (LineSum.make(4, (1,)), dual_node(mixed_kernel()))):
        s = sum_node(k, q)
        for l in (-6, 0, 1):
            assert eng.strands(s, l) is eng.strands(s, l)
            assert eng.values(s, l) == tuple(a + b for a, b in zip(eng.values(k, l),
                                                                   eng.values(q, l)))
            parts = [eng.h0_presented(k, l), eng.h0_presented(q, l)]
            widths = [m.ambient_dim for m in parts]
            got = eng.h0_presented(s, l)
            assert got.ambient_dim == sum(widths)
            assert np.array_equal(got.space_rows(),
                                  block_rows([m.space_rows() for m in parts], widths))
            assert np.array_equal(got.quot, block_rows([m.quot for m in parts], widths))


def test_h0_basis_of_a_sum_with_a_quotient_part():
    # a sum's block model holds its quotient part's rows, so its basis is
    # one coset representative per section: O(1) + T(-1) on P^2, T(-1) =
    # O^3/O(-1)
    t = quot_node(GradedMatrix.column(3, -1, (0, 0, 0), Z), LineSum.make(3, (0, 0, 0)))
    s = sum_node(LineSum.make(3, (1,)), t)
    eng = Cohomology()
    assert eng.h0_presented(s, 1).quot.size
    assert [eng.h0_basis(s, l).ncols for l in (0, 1, 2)] == [6, 14, 25]
    assert [eng.h(s, 0, l) for l in (0, 1, 2)] == [6, 14, 25]


def test_dual_node_serre_flip(eng):
    # the dual of the mixed kernel is a quotient of a line sum, whose
    # table is the kernel's flipped by Serre duality
    e = mixed_kernel()
    d = dual_node(e)
    assert isinstance(d, QuotNode) and isinstance(d.inner, LineSum)
    for l in range(-4, 2):
        for i in range(4):
            assert eng.h(d, i, l) == eng.h(e, 3 - i, -l - 4)
    ft = serre_flip(eng.table(e, range(-6, 3)))
    assert eng.table(d, range(ft.lo, ft.hi + 1)).cells == ft.cells
    assert chern_of_node(d) == dual_chern(chern_of_node(e))
    assert dual_node(d) == e


def test_monotone_vanishing_property(eng):
    # once h^j(E(m-j)) = 0 for all j > i, the same holds one twist up
    for node in (mixed_kernel(), nullcorrelation_twist()):
        t = eng.table(node, range(-9, 5))
        n = 3
        for i in range(0, n):
            for m in range(-6, 2):
                if all(t.h(j, m - j) == 0 for j in range(i + 1, n + 1)):
                    assert all(t.h(j, m + 1 - j) == 0
                               for j in range(i + 1, n + 1)), (i, m)


def test_h0_basis_builds_sections_once_per_key(monkeypatch):
    calls = []
    from_piece = GradedMatrix.from_piece

    def spy(*args):
        calls.append(args[2])
        return from_piece(*args)

    monkeypatch.setattr(GradedMatrix, "from_piece", staticmethod(spy))
    eng = Cohomology()
    node = mixed_kernel()
    first = eng.h0_basis(node, 1)
    assert eng.h0_basis(node, 1) is first
    assert calls == [1]
    eng.h0_basis(node, 2)
    assert calls == [1, 2]


def test_h0_basis_line_sum_and_empty_twist(eng):
    sm = eng.h0_basis(LineSum.make(4, (1, 1, 1, 1)), 0)
    assert sm.ncols == 16  # coordinate sections of four twisted summands
    assert eng.h0_basis(mixed_kernel(), -2).ncols == 0


def test_h0_basis_empty_ambient_piece(eng):
    # every a_j + l < 0: no monomials, no sections, a matrix with 0 columns
    sm = eng.h0_basis(LineSum.make(4, (1, 1)), -5)
    assert (sm.ncols, sm.tgt, sm.src) == (0, (1, 1), ())


def test_h0_basis_vectors_are_sections(eng):
    e = mixed_kernel()
    sm = eng.h0_basis(e, 0)
    assert sm.ncols == 14
    # the defining row applied to each section column vanishes
    assert e.matrix.compose(sm).is_zero()


def test_p_transform_of_line_bundle_is_twisted_cotangent(eng):
    o1 = LineSum.make(4, (1,))
    pt = eng.p_transform(o1)
    # kernel of the evaluation of O(1) is the twisted cotangent sheaf
    om1 = ker_node(GradedMatrix.row(4, (0, 0, 0, 0), 1, X))
    for l in range(-4, 3):
        assert eng.values(pt, l) == eng.values(om1, l)
    assert rank_of(pt) == 3


def test_p_transform_fixed_point_chern(eng):
    # transform of the twisted quadric-quadruple kernel has its own Chern data
    k2 = twist_node(ker_node(GradedMatrix.row(4, (0, 0, 0, 0), 2,
                                              [x * x for x in X])), 2)
    cv = chern_of_node(k2)
    assert (cv.rank, cv.c) == (3, (4, 8, 0))
    transform_dual = eng.p_transform(k2)
    cvt = dual_chern(chern_of_node(transform_dual))
    assert (cvt.rank, cvt.c[:3]) == (3, (4, 8, 0))


def test_negative_rank_constructions_rejected():
    # a kernel needs at least rank(target) source summands, and a
    # quotient at most rank(inner) subobject summands; rank 0 is allowed
    euler = GradedMatrix.column(4, -1, (0,) * 4, X)
    with pytest.raises(ValueError, match="kernel of negative rank"):
        ker_node(euler)
    with pytest.raises(ValueError, match="kernel of negative rank"):
        ker_node(GradedMatrix.make(4, (0,) * 2, (0,) * 4, [["1", "0"], ["0", "1"],
                                                           ["0", "0"], ["0", "0"]]),
                 quot_node(euler, LineSum.make(4, (0,) * 4)))
    row = GradedMatrix.row(4, (0,) * 4, 1, X)
    with pytest.raises(ValueError, match="quotient of negative rank"):
        quot_node(row, LineSum.make(4, (1,)))
    assert rank_of(ker_node(GradedMatrix.make(4, (0,), (0,), [["1"]]))) == 0
    assert rank_of(quot_node(GradedMatrix.make(4, (0,), (0,), [["1"]]),
                             LineSum.make(4, (0,)))) == 0


def test_node_input_errors():
    # twists that do not match the child's ambient and a child of an
    # unsupported kind are refused when built (negative ranks above)
    euler = GradedMatrix.column(4, -1, (0,) * 4, X)
    with pytest.raises(ValueError, match="^matrix target twists must match the target's ambient$"):
        ker_node(GradedMatrix.row(4, (0,) * 4, 1, X), LineSum.make(4, (2,)))
    with pytest.raises(ValueError, match="^unsupported kernel target$"):
        ker_node(GradedMatrix.make(4, (0,) * 4, (0,) * 4,
                                   [["1" if i == j else "0" for j in range(4)] for i in range(4)]),
                 sum_node(LineSum.make(4, (0, 0)), LineSum.make(4, (0, 0))))
    with pytest.raises(ValueError, match="^matrix target twists must match the inner ambient$"):
        quot_node(euler, LineSum.make(4, (1,) * 4))
    with pytest.raises(ValueError, match="^quotients are taken in line sums or kernel nodes$"):
        quot_node(GradedMatrix.column(4, -2, (0,) * 4, [x * x for x in X]),
                  quot_node(euler, LineSum.make(4, (0,) * 4)))


def test_maps_that_do_not_land_in_their_node_are_rejected():
    # a kernel map into the ambient of a kernel or of a quotient of one,
    # and a subobject of a kernel, must compose to zero with the kernel's map
    eng2 = Cohomology()
    unit = GradedMatrix.make(4, (2,) * 4, (2,) * 4,
                             [["1" if i == j else "0" for j in range(4)] for i in range(4)])
    euler2 = ker_node(GradedMatrix.row(4, (2,) * 4, 3, X))
    with pytest.raises(CertificationError, match="^kernel map does not land in the target$"):
        eng2.certify(ker_node(unit, euler2))
    with pytest.raises(CertificationError,
                       match="^kernel map does not land in the quotient's carrier$"):
        eng2.certify(ker_node(unit, nullcorrelation_twist()))
    off = GradedMatrix.column(4, 1, (2,) * 4, [X[0], "0", "0", "0"])
    with pytest.raises(CertificationError, match="^subobject map does not land in the node$"):
        eng2.certify(quot_node(off, euler2))


def test_failed_certificate_is_reraised_from_the_cache():
    # a second certify of a rejected node raises the same message and
    # computes nothing
    eng2 = Cohomology()
    bad = ker_node(GradedMatrix.row(4, (0, 0), 1, [X[0], X[1]]))
    calls = []
    real = eng2._certify
    eng2._certify = lambda node: calls.append(node) or real(node)
    with pytest.raises(CertificationError) as first:
        eng2.certify(bad)
    n_calls = len(calls)
    assert n_calls >= 1
    with pytest.raises(CertificationError, match=f"^{re.escape(str(first.value))}$"):
        eng2.certify(bad)
    assert len(calls) == n_calls
    with pytest.raises(CertificationError, match=f"^{re.escape(str(first.value))}$"):
        eng2.values(bad, 0)
    assert len(calls) == n_calls and not eng2._strands


def test_quotient_by_empty_map_is_the_inner_node():
    # no subobject summands: the dual map goes onto the empty sum
    inner = LineSum.make(4, (0, 1))
    node = quot_node(GradedMatrix.make(4, (), (0, 1), [[], []]), inner)
    eng2 = Cohomology()
    for l in range(-1, 2):
        assert eng2.values(node, l) == eng2.values(inner, l)


def test_malformed_whitney_division():
    from pnbundles.chern import poly_div
    with pytest.raises(ValueError):
        poly_div((1, 2), (2, 1), 3)


def test_uncertified_epi_rejected(eng):
    # (x0, x1) has a common zero line: not an epimorphism onto O(1)
    bad = ker_node(GradedMatrix.row(4, (0, 0), 1, [X[0], X[1]]))
    with pytest.raises(CertificationError):
        eng.values(bad, 0)


def test_non_mono_quotient_rejected(eng):
    # (x0, x1, 0, 0) vanishes on the line x0 = x1 = 0, which no seeded
    # sample meets; its dual row (x0, x1, 0, 0) is never onto, so the
    # exact certificate rejects it without a sample point
    col = GradedMatrix.column(4, -1, (0, 0, 0, 0), [X[0], X[1], "0", "0"])
    node = quot_node(col, LineSum.make(4, (0, 0, 0, 0)))
    with pytest.raises(CertificationError,
                       match=r"^subobject map drops rank "
                             r"\(no graded piece has full row rank\)$"):
        eng.values(node, 0)


def test_kernel_not_onto_kernel_target_rejected(eng):
    # the Koszul columns x_j e_0 - x_0 e_j (j = 1, 2, 3) land in
    # Omega(1) = ker(x0..x3) and span it exactly off x0 = 0.  h^0(Omega(1))
    # = 0, so the map is onto sections at d = 0; Omega(1) is 1-regular but
    # not 0-regular (h^1(Omega) = 1), so d = 0 proves nothing
    omega = ker_node(GradedMatrix.row(4, (0,) * 4, 1, X))
    z = Form.zero(4, 1)
    cols = [[X[j] if i == 0 else -X[0] if i == j else z for j in (1, 2, 3)]
            for i in range(4)]
    node = ker_node(GradedMatrix.make(4, (-1,) * 3, (0,) * 4, cols), omega)
    with pytest.raises(CertificationError,
                       match=r"^map is not onto the target \(no graded piece at or above "
                             r"the target's regularity is onto its sections\)$"):
        eng.values(node, 0)


def test_kernel_not_onto_quotient_target_rejected(eng):
    # e1, e2, e3 span O^4 modulo the Euler vector (x0..x3) exactly off
    # x0 = 0, so they are not onto the tangent bundle
    euler = GradedMatrix.column(4, -1, (0,) * 4, X)
    tangent = quot_node(euler, LineSum.make(4, (0,) * 4))
    units = [[1 if i == j else 0 for j in (1, 2, 3)] for i in range(4)]
    node = ker_node(GradedMatrix.make(4, (0,) * 3, (0,) * 4,
                                      [[str(c) for c in row] for row in units]),
                    tangent)
    with pytest.raises(CertificationError,
                       match=r"^map is not onto the quotient \(no graded piece at or above "
                             r"the target's regularity is onto its sections\)$"):
        eng.values(node, 0)


def test_onto_certificate_needs_exact_h0():
    # the six sections of Omega(2) generate it and certify at (d, reg) =
    # (1, 1); with every h^0 cell of Omega(1) widened to an interval that
    # contains it, no twist proves the same map onto
    omega = ker_node(GradedMatrix.row(4, (0,) * 4, 1, X))
    node = ker_node(Cohomology().h0_basis(omega, 1), omega)
    assert Cohomology().onto_certificate(node.matrix, omega) == (1, 1)
    eng2 = Cohomology()
    real = eng2.strands

    def widened(q, l):
        rec = real(q, l)
        if q != omega:
            return rec
        return Strands(((0, rec.cells[0]),) + rec.cells[1:], lambda: rec.h0)

    eng2.strands = widened
    with pytest.raises(CertificationError, match=r"^map is not onto the target "):
        eng2.certify(node)


def test_indeterminate_cells_are_intervals():
    # chain deep enough that the subspace rule fails: the middle layer is a
    # kernel over a target with nonzero h^1, so its H^n is no subspace of
    # its ambient's, and the quotient above it can only bound the affected
    # cells
    eng2 = Cohomology()
    squares = GradedMatrix.row(3, (2, 2, 2), 4, [z * z for z in Z])
    b = ker_node(squares)                      # rank 2, h^1(b(l)) != 0 around 0
    syz = GradedMatrix.make(
        3, (0, 0, 0), (2, 2, 2),
        [[Z[1] * Z[1], Z[2] * Z[2], "0"],
         [(Z[0] * Z[0]).scale(-1), "0", Z[2] * Z[2]],
         ["0", (Z[0] * Z[0]).scale(-1), (Z[1] * Z[1]).scale(-1)]])
    e = ker_node(syz, b)                       # rank 1 kernel inside O^3
    assert eng2.h(b, 1, -4) != 0
    gen = GradedMatrix.column(3, -2, (0, 0, 0),
                              [Z[2] * Z[2], (Z[1] * Z[1]).scale(-1), Z[0] * Z[0]])
    f = quot_node(gen, e)
    vals = eng2.values(f, -4)
    assert not is_exact_cell(vals[1])
    lo, hi = vals[1]
    assert lo < hi
    # cells whose splice needs no H^n rank stay exact
    assert is_exact_cell(eng2.values(f, -4)[0])
    # the text table prints an interval cell as '?'
    rendered = eng2.table(f, range(-4, -2)).render().splitlines()
    assert rendered[0].split()[1:] == ["-4", "-3"]
    assert rendered[-2].split()[:2] == ["h^1:", "?"]


def rank5_dual_chain():
    """The node whose dual the catalog once shipped for
    p4-rank5-kernel-twist: ker(d4^vee onto ker d5^vee) modulo u^vee.  It
    is a quotient of a kernel onto a kernel, so its dual has no one-step
    presentation; the dual's table is its table flipped by Serre duality.
    Its table runs through a quotient, and its H^n kernel bases are
    large."""
    d, u = rank5_p4_chain(P)
    return quot_node(u.dual(), ker_node(d[4].dual(), ker_node(d[5].dual())))


def test_rank5_fourfold_chain():
    eng2 = Cohomology()
    inner = rank5_dual_chain()
    with pytest.raises(ValueError, match="no one-step dual of a kernel onto a kernel"):
        dual_node(inner)
    cv = dual_chern(chern_of_node(inner))
    assert (cv.rank, cv.c) == (5, (4, 8, 8, 0))
    t = serre_flip(eng2.table(inner, flipped(range(-5, 2), 4)))
    assert (t.lo, t.hi) == (-5, 1)
    assert t.h(1, -1) == 1
    assert t.h(1, -2) == 1
    assert t.h(2, -3) == 1
    assert t.h(2, -4) == 1
    for l in t.exact_columns():
        assert t.euler(l) == rr_chi(cv, l)


def test_default_window():
    assert list(default_window(3)) == list(range(-6, 5))


def test_kernel_into_rank_with_dependent_quot_rows():
    # quot rows with a repeat, a zero row and a sum of two others: several
    # kernel vectors of [T | quot.T] project to zero, so the rank must come
    # from the unprojected kernel
    rng = np.random.default_rng(41)
    T = rng.integers(0, P, size=(9, 6))
    T[:, 5] = (T[:, 0] + 2 * T[:, 1]) % P
    base = rng.integers(0, P, size=(3, 9))
    q = np.concatenate([base, base[:1], np.zeros((1, 9), dtype=np.int64),
                        (base[1:2] + base[2:3]) % P, (T[:, 2:3].T * 3) % P])
    r, rows = kernel_into(T, Presented(9, None, q), P)
    assert r == rank(np.concatenate([T.T, q]), P) - rank(q, P)
    assert rank(rows, P) == T.shape[1] - r
    # every kernel row maps into span(quot)
    assert rank(np.concatenate([q, (T @ rows.T % P).T]), P) == rank(q, P)
    r0, rows0 = kernel_into(T, Presented(9, None, None), P)
    assert r0 == rank(T, P) and rows0.shape[0] == T.shape[1] - r0


def test_map_rank_matches_kernel_into():
    # the fixture above (repeated, zero and dependent quot rows), then
    # seeded maps of every rank against seeded quot rows at three primes,
    # each with quot None, empty and given
    rng = np.random.default_rng(41)
    T = rng.integers(0, P, size=(9, 6))
    T[:, 5] = (T[:, 0] + 2 * T[:, 1]) % P
    base = rng.integers(0, P, size=(3, 9))
    q = np.concatenate([base, base[:1], np.zeros((1, 9), dtype=np.int64),
                        (base[1:2] + base[2:3]) % P, (T[:, 2:3].T * 3) % P])
    cases = [(T, q, P)]
    for p in (5, 101, P):
        rng = np.random.default_rng(p)
        for _ in range(12):
            rows, cols, k = (int(v) for v in rng.integers(1, 9, size=3))
            r = int(rng.integers(0, min(rows, cols) + 1))
            T = rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols)) % p
            q = rng.integers(0, p, size=(k, rows))
            q[rng.integers(0, k)] = 0
            cases.append((T, q, p))
    for T, q, p in cases:
        for quot in (None, zeros(0, T.shape[0]), q):
            target = Presented(T.shape[0], None, quot)
            assert map_rank(T, target, p) == kernel_into(T, target, p)[0], (T, quot, p)


def test_engine_rejects_node_over_another_prime():
    node = LineSum.make(4, (1, 2), 101)
    with pytest.raises(ValueError, match="F_101"):
        Cohomology(P).h(node, 0, 1)
    assert Cohomology(101).h(node, 0, 1) == 10 + 20
    with pytest.raises(ValueError):
        Cohomology(4294967311)


# -- fibers at points: batched functions against a per-point reference ----------
# The engine certifies every node instead of evaluating its fibers; the
# batched fiber ranks and dimensions below are the tests' reference for that.

def fiber_ranks(node, npts, ev, p):
    """Rank at each point of the map defining a kernel or quotient node;
    onto a quotient the rank is taken modulo the subobject's fiber."""
    vals = ev(node.matrix)
    if isinstance(node, KerNode) and isinstance(node.target, QuotNode):
        return relative_rank(vals.transpose(0, 2, 1),
                             fiber_quot_rows(node.target, npts, ev), p)
    return batched_rank(vals, p)


def fiber_dims(node, npts, ev, p):
    """Fiber dimension at each point (a drop or jump marks degeneracy)."""
    if isinstance(node, LineSum):
        return np.full(npts, len(node.twists), dtype=np.int64)
    if isinstance(node, KerNode):
        return len(node.matrix.src) - fiber_ranks(node, npts, ev, p)
    if isinstance(node, QuotNode):
        return fiber_dims(node.inner, npts, ev, p) - fiber_ranks(node, npts, ev, p)
    return sum(fiber_dims(q, npts, ev, p) for q in node.parts)


def _values_at(m, x):
    return np.array([[f.evaluate(x) for f in row] for row in m.entries],
                    dtype=np.int64).reshape(m.nrows, m.ncols)


def _ref_quot_rows(node, x):
    if isinstance(node, QuotNode):
        return _values_at(node.matrix, x).T
    if isinstance(node, SumNode):
        blocks = [_ref_quot_rows(q, x) for q in node.parts]
        out = np.zeros((sum(b.shape[0] for b in blocks),
                        sum(b.shape[1] for b in blocks)), dtype=np.int64)
        r = c = 0
        for b in blocks:
            out[r:r + b.shape[0], c:c + b.shape[1]] = b
            r, c = r + b.shape[0], c + b.shape[1]
        return out
    width = len(node.twists) if isinstance(node, LineSum) else len(node.matrix.src)
    return np.zeros((0, width), dtype=np.int64)


def _ref_rank(node, x):
    vals = _values_at(node.matrix, x)
    if isinstance(node, KerNode) and isinstance(node.target, QuotNode):
        sub = _ref_quot_rows(node.target, x)
        return rank(np.concatenate([vals.T, sub]), P) - rank(sub, P)
    return rank(vals, P)


def _ref_dim(node, x):
    if isinstance(node, LineSum):
        return len(node.twists)
    if isinstance(node, KerNode):
        return len(node.matrix.src) - _ref_rank(node, x)
    if isinstance(node, QuotNode):
        return _ref_dim(node.inner, x) - _ref_rank(node, x)
    return sum(_ref_dim(q, x) for q in node.parts)


def _fiber_nodes():
    """(name, node, drops): drops says whether the defining map loses rank
    at one of the test points."""
    o4 = LineSum.make(4, (0,) * 4)
    omega = ker_node(GradedMatrix.row(4, (0,) * 4, 1, X))
    z = Form.zero(4, 1)
    koszul_cols = GradedMatrix.make(
        4, (-1,) * 3, (0,) * 4,
        [[X[j] if i == 0 else -X[0] if i == j else z for j in (1, 2, 3)]
         for i in range(4)])
    tangent = quot_node(GradedMatrix.column(4, -1, (0,) * 4, X), o4)
    units = GradedMatrix.make(4, (0,) * 3, (0,) * 4,
                              [[str(int(i == j)) for j in (1, 2, 3)] for i in range(4)])
    pinch = quot_node(GradedMatrix.column(4, -1, (0,) * 4, [X[0], X[1], "0", "0"]), o4)
    return [
        ("ker onto line sum", mixed_kernel(), False),
        ("ker onto line sum, degenerate", ker_node(GradedMatrix.row(4, (0, 0), 1, X[:2])), True),
        ("ker onto ker", ker_node(koszul_cols, omega), True),
        ("ker onto quotient", ker_node(units, tangent), True),
        ("quotient of line sum", pinch, True),
        ("quotient of ker", nullcorrelation_twist(), False),
    ]


def test_fibers_match_per_point_reference():
    pts = np.concatenate([random_points(4, 12, 5, P),
                          np.eye(4, dtype=np.int64), [[1, 1, 0, 0], [0, 1, 2, 0]]])

    def ev(m):
        return m.evaluate(pts)

    nodes = _fiber_nodes()
    for name, node, drops in nodes:
        want = [_ref_rank(node, x) for x in pts]
        assert list(fiber_ranks(node, len(pts), ev, P)) == want, name
        assert (len(set(want)) > 1) == drops, name
        assert list(fiber_dims(node, len(pts), ev, P)) == [_ref_dim(node, x) for x in pts], name
    # quotient rows of a line sum, a kernel, two quotients and their sum
    whole = sum_node(LineSum.make(4, (1,)), *(node for _, node, _ in nodes[3:]))
    for node in whole.parts + (whole,):
        got = fiber_quot_rows(node, len(pts), ev)
        assert all(np.array_equal(g, _ref_quot_rows(node, x)) for g, x in zip(got, pts))
    assert list(fiber_dims(whole, len(pts), ev, P)) == [_ref_dim(whole, x) for x in pts]


# -- the onto-certificate for nodes against every rational point ------------

def _plane_points(q):
    """Every F_q-point of P^2, normalized."""
    return np.array([(1, a, b) for a in range(q) for b in range(q)]
                    + [(0, 1, b) for b in range(q)] + [(0, 0, 1)], dtype=np.int64)


def _random_form(rng, q, d):
    return Form.make(3, d, {e: int(rng.integers(0, q)) for e in monomial_basis(3, d)}, q)


def _certified_target(eng, rng, q, kind):
    """A random rank-2 node on P^2 that certifies: the kernel of three
    linear forms O^3 -> O(1), or O^3 modulo a column O(-1) -> O^3."""
    while True:
        forms = [_random_form(rng, q, 1) for _ in range(3)]
        node = (ker_node(GradedMatrix.row(3, (0,) * 3, 1, forms, q)) if kind == "ker"
                else quot_node(GradedMatrix.column(3, -1, (0,) * 3, forms, q),
                               LineSum.make(3, (0,) * 3, q)))
        try:
            eng.certify(node)
            return node
        except CertificationError:
            pass


def _map_into(eng, rng, q, target):
    """A random map into target's ambient O^3 that lands in target: for a
    kernel, 1-3 columns are random combinations of its sections at twist
    1 and 0-1 at twist 2; for a quotient, 2-4 columns from O(-1) or O,
    each entry zero with probability 0.3."""
    if isinstance(target, QuotNode):
        src = rng.integers(-1, 1, int(rng.integers(2, 5)))
        return GradedMatrix.make(3, src, (0,) * 3, [
            [Form.zero(3, -int(a), q) if rng.random() < 0.3 else _random_form(rng, q, -int(a))
             for a in src] for _ in range(3)], q)
    parts = []
    for a, k in ((1, int(rng.integers(1, 4))), (2, int(rng.integers(0, 2)))):
        sections = eng.h0_basis(target, a).graded_piece(a)
        combos = rng.integers(0, q, (k, sections.shape[1])) @ sections.T % q
        if k:
            parts.append(GradedMatrix.from_piece(3, (0,) * 3, a, combos, q).dual())
    return (parts[0].stack(parts[1]) if len(parts) == 2 else parts[0]).dual()


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("kind", ["ker", "quot"])
def test_onto_certificate_against_every_point(q, kind):
    # a certificate for a kernel map onto a kernel or a quotient of a line
    # sum while the map drops rank at some F_q-point is a bug
    rng = np.random.default_rng(100 * q + len(kind))
    eng = Cohomology(q)
    pts = _plane_points(q)
    counts = {"certified": 0, "drops": 0}
    for _ in range(40):
        target = _certified_target(eng, rng, q, kind)
        m = _map_into(eng, rng, q, target)
        if m.ncols < 2:
            continue
        node = ker_node(m, target)
        ranks = fiber_ranks(node, len(pts), lambda g: g.evaluate(pts), q)
        drops = bool((ranks != 2).any())
        counts["drops"] += drops
        try:
            eng.certify(node)
        except CertificationError:
            continue
        counts["certified"] += 1
        assert not drops, m
        d, reg = eng._cert[node]
        assert d >= reg
    assert counts["certified"] > 0 and counts["drops"] > 0, counts


# -- the regularity rule and lazy models --------------------------------------
# K = ker(F -> G) at l: if h^i(K(l - i)) is an exact 0 for i = 1..n in
# records already held, K is l-regular, h^1(K(l)) = 0, and (with h^0(G(l))
# exact) h^0(K(l)) = dim F_l - h^0(G(l)) with no elimination.

CATALOG = load_catalog(Path(__file__).resolve().parents[1] / "catalog" / "catalog.json")


def catalog_node(entry_id):
    entry = next(e for e in CATALOG["entries"] if e["id"] == entry_id)
    return parse_node(entry["construction"], entry["n"] + 1, CATALOG["prime"])


def catalog_constructions():
    return [(e["id"], catalog_node(e["id"])) for e in CATALOG["entries"]
            if "construction" in e]


def counting_rule(eng):
    """Count the records where eng's regularity rule fires."""
    fired = []
    real = eng._regular_at

    def spy(node, l):
        ok = real(node, l)
        if ok:
            fired.append((node, l))
        return ok

    eng._regular_at = spy
    return fired


def same_model(a, b):
    return a.ambient_dim == b.ambient_dim and all(
        (x is None and y is None) or (x is not None and y is not None
                                      and x.shape == y.shape and np.array_equal(x, y))
        for x, y in ((a.space, b.space), (a.quot, b.quot)))


def test_regularity_rule_matches_records_without_it():
    # the catalog window with the rule against a fresh engine with the rule
    # switched off (certificates walk targets upward, so walk order alone
    # no longer keeps it from firing): same keys, same cells, and every
    # model, forced afterwards, equal entry for entry
    total = 0
    for entry_id, node in catalog_constructions():
        window = list(default_window(nvars_of(node) - 1))
        on, off = Cohomology(CATALOG["prime"]), Cohomology(CATALOG["prime"])
        fired = counting_rule(on)
        off._regular_at = lambda node, l: False
        on.table(node, window)
        off.table(node, window)
        total += len(fired)
        assert on._strands.keys() == off._strands.keys(), entry_id
        for key, rec in on._strands.items():
            assert rec.cells == off._strands[key].cells, (entry_id, key)
        for key, rec in on._strands.items():
            ref = off._strands[key]
            assert same_model(rec.h0, ref.h0), (entry_id, key)
        if on.strands(node, 0).h0 is not None:
            got, want = on.h0_basis(node, 0), off.h0_basis(node, 0)
            assert got.ncols == want.ncols, entry_id
            a, b = got.graded_piece(0), want.graded_piece(0)
            assert a.shape == b.shape and np.array_equal(a, b), entry_id
    assert total > 0


def test_regularity_rule_skips_top_twist_elimination(monkeypatch):
    # the top twist of a kernel onto a kernel and of a kernel onto a line
    # sum is not eliminated; its section model is built on the first read
    calls = []
    real = sheaves.kernel_into
    monkeypatch.setattr(sheaves, "kernel_into",
                        lambda T, target, p: calls.append(T) or real(T, target, p))
    for entry_id in ("p3-kernel-onto-cotangent", "p3-mixed-kernel"):
        node = catalog_node(entry_id)
        eng = Cohomology(CATALOG["prime"])
        window = list(default_window(3))
        top = window[-1]
        calls.clear()
        eng.table(node, window)
        kernels = [node] + ([node.target] if isinstance(node.target, KerNode) else [])
        assert len(kernels) == (2 if entry_id == "p3-kernel-onto-cotangent" else 1)
        for k in kernels:
            piece = k.matrix.graded_piece(top)
            assert not any(T.shape == piece.shape and np.array_equal(T, piece)
                           for T in calls), (entry_id, k)
        # the first read builds the node's model and the one it reads
        calls.clear()
        model = eng.h0_presented(node, top)
        assert len(calls) == len(kernels)
        assert eng.h0_presented(node, top) is model and len(calls) == len(kernels)
        assert model.space.shape[0] == eng.h(node, 0, top)


def test_regularity_rule_needs_every_i():
    # Omega(1) = ker(O^4 -> O(1)): h^1(Omega(-1)) = 0 but h^1(Omega) = 1;
    # only h^3(Omega(-3)) = 4 stops the rule at l = -1
    om1 = ker_node(GradedMatrix.row(4, (0, 0, 0, 0), 1, X))
    eng = Cohomology()
    fired = counting_rule(eng)
    eng.table(om1, range(-4, 3))
    assert eng.values(om1, -2)[1] == 0 and eng.values(om1, -1)[1] == 1
    assert eng.values(om1, -4)[3] == 4
    assert (om1, -1) not in fired
    assert eng.values(om1, -1) == Cohomology().values(om1, -1)
    assert [l for _, l in fired] == [1, 2]


def test_regularity_rule_reads_only_held_records():
    # twists asked for are the only twists computed: the rule never fills
    # in the records it reads
    node = mixed_kernel()
    eng = Cohomology()
    fired = counting_rule(eng)
    eng.table(node, range(0, 3))
    assert fired == []                         # l - 1 .. l - 3 are not all held
    assert {l for nd, l in eng._strands if nd == node} == {0, 1, 2}
    eng.table(node, range(-3, 5))
    assert [l for _, l in fired] == [3, 4]


def test_regularity_rule_needs_exact_target_h0(monkeypatch):
    # with an interval in place of h^0 of the target the record eliminates
    node = mixed_kernel()
    ref = Cohomology()
    want = ref.values(node, 4)
    eng = Cohomology()
    eng.table(node, range(-3, 4))
    held = ref.strands(node.target, 4)
    lo = held.cells[0]
    eng._strands[(node.target, 4)] = Strands(((lo - 1, lo + 1),) + held.cells[1:], held.h0)
    calls = []
    real = sheaves.kernel_into
    monkeypatch.setattr(sheaves, "kernel_into",
                        lambda T, target, p: calls.append(T) or real(T, target, p))
    vals = eng.values(node, 4)
    assert calls and vals[0] == want[0]
    assert vals[1] == (want[1] - 1, want[1] + 1)


def test_models_are_built_on_first_read(monkeypatch):
    # a quotient's cells need no coset representatives; a sum's none of its
    # blocks: each model is built when first read, then kept
    calls = []
    real = sheaves.extend_to_complement
    monkeypatch.setattr(sheaves, "extend_to_complement",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    eng = Cohomology()
    q = nullcorrelation_twist()
    s = sum_node(mixed_kernel(), q)
    eng.table(s, range(-2, 2))
    assert calls == []
    model = eng.h0_presented(s, 1)
    assert len(calls) == 1 and eng.h0_presented(s, 1) is model
    assert eng.h0_presented(q, 1) is eng.strands(q, 1).h0 and len(calls) == 1


# -- the H^n strand: cells from ranks, no kernel bases ------------------------

@pytest.mark.parametrize("entry_id", ["p4-rank5-kernel-twist", "p3-kernel-onto-cotangent",
                                      "p4-rank5-dual-chain"])
def test_hn_strand_eliminates_no_kernel_basis(monkeypatch, entry_id):
    # the table builds no H^n matrix of a kernel, whose top rank is its
    # target's h^n cell, and a quotient's only for its rank: no kernel_into
    # call takes one, and reading every H^0 model afterwards builds none
    tops, built, calls = [], [], []
    real_hn, real = sheaves.hn_matrix, sheaves.kernel_into
    monkeypatch.setattr(sheaves, "hn_matrix",
                        lambda m, l: built.append(m) or tops.append(real_hn(m, l)) or tops[-1])
    monkeypatch.setattr(sheaves, "kernel_into",
                        lambda T, target, p: calls.append(T) or real(T, target, p))
    if entry_id == "p4-rank5-dual-chain":
        # the dual chain's table is its inner quotient's on the flipped window
        node, window = rank5_dual_chain(), flipped(default_window(4), 4)
    else:
        node = catalog_node(entry_id)
        window = default_window(nvars_of(node) - 1)
    eng = Cohomology(CATALOG["prime"])
    eng.table(node, window)
    quotients = {nd.matrix for nd, _ in eng._strands if isinstance(nd, QuotNode)}
    assert all(m in quotients for m in built) and (built or not quotients)
    n_built = len(built)
    for key in list(eng._strands):
        eng.h0_presented(*key)
    assert calls and len(built) == n_built
    assert not any(T is H or (T.size and T.shape == H.shape and np.array_equal(T, H))
                   for T in calls for H in tops)


def hn_in_ambient(eng, node, l):
    """Whether H^n(node(l)) is a subquotient of H^n of its ambient line sum
    F: always for F, for a kernel onto G when h^{n-1}(G(l)) = 0 (then
    H^n(ker) is a subspace), and for a quotient of such a node."""
    n = nvars_of(node) - 1
    carrier = node.inner if isinstance(node, QuotNode) else node
    return not isinstance(carrier, KerNode) or eng.values(carrier.target, l)[n - 1] == 0


def test_kernel_top_rank_rule_matches_map_rank():
    # a kernel of a map certified onto has H^{n+1} = 0, so its top strand
    # is onto the target's H^n: the rank the cells take from that cell is
    # the rank map_rank gives into a reference model of the target's H^n
    # (quotient rows those of the quotient's H^n map, else none), at every
    # kernel record of every catalog construction on [-n-8, 8] whose
    # target's H^n has that model
    checked = 0
    for entry_id, node in catalog_constructions():
        n = nvars_of(node) - 1
        eng = Cohomology(CATALOG["prime"])
        eng.table(node, range(-n - 8, 9))
        for nd, l in list(eng._strands):
            if not isinstance(nd, KerNode) or not hn_in_ambient(eng, nd.target, l):
                continue
            T, t = hn_matrix(nd.matrix, l), nd.target
            tn = Presented(T.shape[0], None,
                           hn_matrix(t.matrix, l).T if isinstance(t, QuotNode) else None)
            cell = eng.values(t, l)[n]
            assert is_exact_cell(cell), (entry_id, l)
            assert map_rank(T, tn, eng.p) == cell, (entry_id, l)
            checked += 1
    assert checked > 300


def test_dual_node_matches_serre_flip_on_catalog_constructions():
    # the rewritten dual runs the quotient code where E ran the kernel code,
    # and the reverse; its cells, exact or interval, are E's flipped by
    # Serre duality on [-n-8, 8] (P^5 on its default window: its far
    # quotient twists take 1.4 s), its Chern data E's dualized, and its dual
    # is E; only the kernels onto a kernel have no one-step dual
    rewritten, refused = 0, []
    for entry_id, node in catalog_constructions():
        try:
            d = dual_node(node)
        except ValueError as exc:
            assert str(exc) == "no one-step dual of a kernel onto a kernel", entry_id
            refused.append(entry_id)
            continue
        n = nvars_of(node) - 1
        window = default_window(n) if n == 5 else range(-n - 8, 9)
        eng = Cohomology(CATALOG["prime"])
        want = serre_flip(eng.table(node, window))
        assert eng.table(d, flipped(window, n)).cells == want.cells, entry_id
        assert chern_of_node(d) == dual_chern(chern_of_node(node)), entry_id
        assert dual_node(d) == node, entry_id
        rewritten += 1
    assert rewritten == 31
    assert refused == ["p3-kernel-onto-cotangent", "p4-wedge2-cotangent-3",
                       "p4-rank5-kernel-twist"]


def test_hn_strand_keeps_no_kernel_bases():
    # what the engine holds after a table of the P^4 rank-5 dual chain,
    # traced as the memory freed when the engine goes; the H^n kernel bases
    # of this table take about 7 MB, so building them with the cells fails
    node = rank5_dual_chain()
    tracemalloc.start()
    try:
        eng = Cohomology(CATALOG["prime"])
        eng.table(node, flipped(default_window(4), 4))
        gc.collect()
        with_engine = tracemalloc.get_traced_memory()[0]
        del eng
        gc.collect()
        held = with_engine - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 5 * 2**20, held


def test_gg_checked_catalog_nodes_have_full_fibers_at_the_sampled_points():
    # `is_globally_generated` samples only the span of the sections: the
    # node is certified first, so its fiber has the node's rank at every
    # point; on every catalog node whose global generation is checked, at
    # the points a verify samples (seed 90021, 500 trials, hint points
    # first), the fiber dimension from the fiber ranks is that rank
    checked = 0
    for e in CATALOG["entries"]:
        if e.get("expected", {}).get("gg", "stated-only") == "stated-only":
            continue
        node = catalog_node(e["id"])
        nv = nvars_of(node)
        hints = e["expected"].get("gg_hints", {}).get("points", [])
        pts = np.concatenate([np.array(hints, dtype=np.int64).reshape(-1, nv),
                              random_points(nv, 500, 90021, CATALOG["prime"])])
        dims = fiber_dims(node, len(pts), lambda m: m.evaluate(pts), CATALOG["prime"])
        assert (dims == rank_of(node)).all(), e["id"]
        checked += 1
    assert checked == 33
