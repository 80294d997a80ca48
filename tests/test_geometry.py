import tracemalloc

import numpy as np
import pytest

from pnbundles import geometry, graded, modp
from pnbundles.forms import (Form, monomial_basis, monomial_values, normalize_point,
                             random_points)
from pnbundles.geometry import (DegenerateRestriction, GGVerdict, LineParam,
                                cayley_bacharach, cayley_bacharach_oracle,
                                edge_avoidance, is_globally_generated,
                                quadric_line_component_test, reverify_witness,
                                splitting_type_on_line)
from pnbundles.graded import GradedMatrix
from pnbundles.modp import kernel_basis, rank
from pnbundles.sheaves import (CertificationError, Cohomology, LineSum,
                               ker_node, quot_node, rank_of, sum_node, twist_node)

P = 32003
X = [Form.variable(4, i) for i in range(4)]
Z = [Form.variable(3, i) for i in range(3)]


@pytest.fixture(scope="module")
def eng():
    return Cohomology()


def k_bundle():
    return ker_node(GradedMatrix.row(4, (2, 2, 1, 1), 3,
                                     [X[0], X[1], X[2] * X[2], X[3] * X[3]]))


def test_line_param_validation():
    with pytest.raises(ValueError):
        LineParam.make((1, 0, 0, 0), (2, 0, 0, 0))
    line = LineParam.make((0, 0, 1, 0), (0, 0, 0, 1))
    assert line.point(1, 5) == (0, 0, 1, 5)


def test_splitting_with_negative_summand():
    line = LineParam.make((0, 0, 1, 0), (0, 0, 0, 1))
    assert splitting_type_on_line(k_bundle(), line) == [2, 2, -1]


def test_splitting_balanced_on_generic_line():
    e = ker_node(GradedMatrix.row(4, (2, 2, 2, 1), 3,
                                  [X[0], X[1], X[2], X[3] * X[3]]))
    st = splitting_type_on_line(e, LineParam.make((1, 2, 3, 4), (4, 1, 2, 3)))
    assert sum(st) == 4 and len(st) == 3


def test_splitting_line_sum_and_direct_sum():
    line = LineParam.make((1, 0, 0, 0), (0, 1, 0, 0))
    assert splitting_type_on_line(LineSum.make(4, (1, 1, 1, 1)), line) == [1, 1, 1, 1]
    s = sum_node(LineSum.make(4, (0,)), k_bundle())
    st = splitting_type_on_line(s, LineParam.make((0, 0, 1, 0), (0, 0, 0, 1)))
    assert st == [2, 2, 0, -1]


def test_splitting_of_a_quotient_of_a_line_sum():
    # T(-1) = O^4/O(-1) by the Euler map and its twist T are uniform on
    # P^3: their types are the negated types of the duals, Omega(1) and
    # Omega, taken descending
    euler = GradedMatrix.column(4, -1, (0, 0, 0, 0), X)
    t1 = quot_node(euler, LineSum.make(4, (0, 0, 0, 0)))
    for a, b in (((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 2, 3, 4), (4, 1, 2, 3))):
        line = LineParam.make(a, b)
        assert splitting_type_on_line(t1, line) == [1, 0, 0]
        assert splitting_type_on_line(twist_node(t1, 1), line) == [2, 1, 1]


def test_splitting_invariants_sum_and_count():
    # the multiset always sums to c1 and has cardinality = rank
    from pnbundles.sheaves import chern_of_node
    e = k_bundle()
    for seeds in [(1, 2), (3, 4), (5, 6)]:
        a = tuple(random_points(4, 1, seeds[0])[0].tolist())
        b = tuple(random_points(4, 1, seeds[1])[0].tolist())
        try:
            line = LineParam.make(a, b)
        except ValueError:
            continue
        st = splitting_type_on_line(e, line)
        assert len(st) == rank_of(e)
        assert sum(st) == chern_of_node(e).c[0]


def test_degenerate_restriction_reported():
    # a map that drops rank along the chosen line
    m = ker_node(GradedMatrix.make(4, (0, 0, 0, 0), (1, 1),
                                   [[X[0], X[1], X[2], "0"],
                                    ["0", X[0], X[1], X[2]]]))
    with pytest.raises(DegenerateRestriction, match="drops below rank 2 along the line"):
        splitting_type_on_line(m, LineParam.make((0, 0, 0, 1), (1, 0, 0, 0)))
    # on the line x0 = x1 = 0 every entry, so every minor, vanishes
    z = ker_node(GradedMatrix.make(4, (0, 0, 0, 0), (1, 1),
                                   [[X[0], X[1], "0", "0"],
                                    ["0", X[0], X[1], "0"]]))
    with pytest.raises(DegenerateRestriction, match="drops below rank 2 along the line"):
        splitting_type_on_line(z, LineParam.make((0, 0, 1, 0), (0, 0, 0, 1)))


def test_gg_positive_and_negative(eng):
    e = ker_node(GradedMatrix.row(4, (2, 2, 2, 1), 3,
                                  [X[0], X[1], X[2], X[3] * X[3]]))
    v = is_globally_generated(e, trials=150, eng=eng)
    assert v.generated and v.tag == "generated-up-to-sampling"

    line = LineParam.make((0, 0, 1, 0), (0, 0, 0, 1))
    neg = is_globally_generated(k_bundle(), trials=50, hint_lines=[line], eng=eng)
    assert not neg.generated
    assert neg.witness_splitting == [2, 2, -1]
    assert reverify_witness(k_bundle(), neg, eng)


def test_gg_point_witness_is_sound(eng):
    # twisted cotangent kernel has no sections at twist 0 at all
    om1 = ker_node(GradedMatrix.row(4, (0, 0, 0, 0), 1, X))
    v = is_globally_generated(om1, trials=10, eng=eng)
    assert not v.generated and v.witness_point is not None
    assert reverify_witness(om1, v, eng)


def test_gg_rejects_zero_sample_points(eng):
    # with no sampled and no hint point, a positive verdict would rest on
    # nothing: the twisted cotangent kernel has no sections at all
    om1 = ker_node(GradedMatrix.row(4, (0, 0, 0, 0), 1, X))
    for trials in (0, -3):
        with pytest.raises(ValueError, match="needs a point"):
            is_globally_generated(om1, trials=trials, eng=eng)


def test_reverify_witness_samples_only_the_hint_point(eng):
    om1 = ker_node(GradedMatrix.row(4, (0, 0, 0, 0), 1, X))
    v = is_globally_generated(om1, trials=0, hint_points=[(3, 1, 4, 1)], eng=eng)
    assert not v.generated and v.witness_point == normalize_point((3, 1, 4, 1), P)
    assert reverify_witness(om1, v, eng)
    e = ker_node(GradedMatrix.row(4, (2, 2, 2, 1), 3,
                                  [X[0], X[1], X[2], X[3] * X[3]]))
    fake = GGVerdict(False, "not-generated", 0, 1, witness_point=(1, 2, 3, 4))
    assert not reverify_witness(e, fake, eng)


def test_gg_quotient_node(eng):
    inc = GradedMatrix.column(4, -1, (0, 0, 0, 0), X)
    tm1 = quot_node(inc, LineSum.make(4, (0, 0, 0, 0)))
    assert is_globally_generated(tm1, trials=150, eng=eng).generated


def test_gg_rejects_a_node_that_is_not_a_bundle():
    # O^4 modulo a column whose entries l0, l1 vanish together on a line L
    # is not a bundle: the dual row (l0, l1, 0, 0) is not onto, so the
    # quotient is never certified and never sampled, whatever the points
    l0 = X[0] + X[1] + X[2] + X[3]
    l1 = X[0] + X[1].scale(2) + X[2].scale(3) + X[3].scale(5)
    pinch = quot_node(GradedMatrix.column(4, -1, (0,) * 4, [l0, l1, "0", "0"]),
                      LineSum.make(4, (0,) * 4))
    with pytest.raises(CertificationError, match="^subobject map drops rank"):
        is_globally_generated(sum_node(pinch, LineSum.make(4, (-1,))), trials=5,
                              eng=Cohomology())


def test_cayley_bacharach_cases():
    pts4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert cayley_bacharach(pts4, 1)
    collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert not cayley_bacharach(collinear, 1)
    assert cayley_bacharach(pts4, 0)
    with pytest.raises(ValueError):
        cayley_bacharach([(1, 0, 0), (2, 0, 0)], 1)


@pytest.mark.parametrize("q", [4, 9, 2, 1])
def test_cayley_bacharach_rejects_moduli_that_are_not_odd_primes(q):
    with pytest.raises(ValueError, match="odd prime"):
        cayley_bacharach([(1, 0, 0)], 1, p=q)
    with pytest.raises(ValueError, match="odd prime"):
        cayley_bacharach_oracle([(1, 0, 0)], 1, q)


def test_cayley_bacharach_oracle_checks_points_as_the_test_does():
    for pts in ([(1, 0, 0), (2, 0, 0)], [(1, 2, 3), (6, 7, 8)], [(0, 1, 4), (0, 3, 2)]):
        for check in (cayley_bacharach, cayley_bacharach_oracle):
            with pytest.raises(ValueError, match="distinct"):
                check(pts, 1, 5)
    for pts in ([], [(1, 0)], [(1, 0, 0, 0)]):
        for check in (cayley_bacharach, cayley_bacharach_oracle):
            with pytest.raises(ValueError):
                check(pts, 1, 5)
    assert cayley_bacharach_oracle([(1, 0, 0), (0, 1, 0)], 1, 5) is False


def test_cayley_bacharach_oracle_agreement_sampled():
    rng = np.random.default_rng(23)
    all_pts = []
    for a in range(5):
        for b in range(5):
            all_pts.append((1, a, b))
    for b in range(5):
        all_pts.append((0, 1, b))
    all_pts.append((0, 0, 1))
    assert len(all_pts) == 31
    for _ in range(40):
        k = int(rng.integers(1, 7))
        idx = rng.choice(31, size=k, replace=False)
        pts = [all_pts[i] for i in idx]
        assert cayley_bacharach(pts, 1, p=5) == cayley_bacharach_oracle(pts, 1)


@pytest.mark.parametrize("q", [5, 7])
def test_cayley_bacharach_fails_from_degree_k_minus_1_by_the_oracle(q, monkeypatch):
    # d = k-1..k+1 where the oracle can enumerate every form (dim S_d <= 6),
    # 40 random configurations each: all fail, with no value matrix built
    rng = np.random.default_rng(q)
    plane = [(1, a, b) for a in range(q) for b in range(q)] + \
        [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    cases = []
    for k, d in ((1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        for _ in range(40):
            idx = rng.choice(len(plane), size=k, replace=False)
            scale = rng.integers(1, q, size=k)
            cases.append(([tuple(int(c) * int(s) % q for c in plane[i])
                           for i, s in zip(idx, scale)], d))
    want = [cayley_bacharach_oracle(pts, d, q) for pts, d in cases]
    assert want == [False] * len(cases)

    def refuse(*args):
        raise AssertionError("value matrix built")

    monkeypatch.setattr(geometry, "monomial_values", refuse)
    assert [cayley_bacharach(pts, d, q) for pts, d in cases] == want


@pytest.mark.parametrize("p", [5, 101, P])
def test_cayley_bacharach_shortcuts_match_the_elimination(p):
    # d < 0 holds and d >= k-1 fails, as the pivot rows of the value
    # matrix say, for up to 9 points
    rng = np.random.default_rng(p + 1)
    for k in range(1, 10):
        pts = list(dict.fromkeys(normalize_point(q, p) for q in
                                 rng.integers(0, p, size=(3 * k, 3)) if q.any()))[:k]
        for d in (-2, -1, k - 1, k, k + 1):
            ev = monomial_values(3, d, np.array(pts), p)
            want = all(n >= 2 for n in modp.pivot_row_sizes(ev.T, p))
            assert want == (d < 0)
            assert cayley_bacharach(pts, d, p) is want, (pts, d)


def _kernel_basis_verdict(ev, p):
    """The Cayley-Bacharach rule as a kernel basis states it: every point
    is in the support of some vector of the left kernel of ev."""
    return bool((kernel_basis(ev.T, p) != 0).any(axis=0).all())


@pytest.mark.parametrize("p", [5, 7, 101, P])
def test_cayley_bacharach_matches_row_deletion_ranks(p, monkeypatch):
    # the definition: deleting any one point's value row keeps the rank
    rng = np.random.default_rng(p)
    dense_starts = []
    dense = modp._dense_rref
    monkeypatch.setattr(modp, "_dense_rref", lambda r, q, col, piv:
                        dense_starts.append(col) or dense(r, q, col, piv))
    stages = set()
    for d in (0, 1, 2, 3):
        for _ in range(25):
            k = int(rng.integers(1, 13))
            if rng.random() < 0.5:  # points on a line: CB fails or holds
                pts = rng.integers(0, p, size=(k, 2)) @ rng.integers(0, p, size=(2, 3))
            else:
                pts = rng.integers(0, p, size=(k, 3))
            pts = [tuple(q) for q in pts % p if q.any()]
            pts = list(dict.fromkeys(normalize_point(q, p) for q in pts))
            if not pts:
                continue
            ev = monomial_values(3, d, np.array(pts), p)
            want = all(rank(np.delete(ev, z, axis=0), p) == rank(ev, p)
                       for z in range(len(pts)))
            assert _kernel_basis_verdict(ev, p) == want, (pts, d)
            # any nonzero multiple of each point, entries outside [0, p)
            scaled = np.array(pts) * rng.integers(1, p, size=(len(pts), 1)) - p
            dense_starts.clear()
            assert cayley_bacharach(scaled.tolist(), d, p) == want, (pts, d)
            stages.add("dense" if dense_starts else "sparse")
    # the verdict was read off both stages of the elimination
    assert stages == {"sparse", "dense"}


def test_cayley_bacharach_builds_no_kernel_basis(monkeypatch):
    plane = [(1, a, b) for a in range(5) for b in range(5)] + [(0, 1, 2), (0, 0, 1)]
    cases = [(plane[:4], 1), (plane[:9], 2), (plane[::2], 3), (plane[:12], 3)]
    want = [_kernel_basis_verdict(monomial_values(3, d, np.array(pts), 5), 5)
            for pts, d in cases]

    def refuse(*args):
        raise AssertionError("kernel basis built")

    monkeypatch.setattr(modp, "kernel_basis", refuse)
    monkeypatch.setattr(modp._SparseRows, "kernel_basis", refuse)
    monkeypatch.setattr(modp, "_free_unit_rows", refuse)
    assert [cayley_bacharach(pts, d, 5) for pts, d in cases] == want


def test_edge_avoidance():
    zpts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    line = LineParam.make((1, 2, 3, 4), (4, 1, 2, 3))
    # decided by the six determinants; this configuration misses every edge
    assert edge_avoidance(line, zpts)
    meets = LineParam.make((1, 1, 0, 0), (0, 0, 1, 1))
    assert not edge_avoidance(meets, zpts)
    with pytest.raises(ValueError):
        edge_avoidance(LineParam.make((1, 0, 0, 0), (0, 1, 0, 0)), zpts)
    with pytest.raises(ValueError):
        edge_avoidance(line, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (1, 1, 1, 0)])


@pytest.mark.parametrize("q", [4, 9, 2, 1])
def test_edge_avoidance_rejects_moduli_that_are_not_odd_primes(q):
    zpts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    line = LineParam.make((1, 2, 3, 4), (4, 1, 2, 3))
    with pytest.raises(ValueError, match="odd prime"):
        edge_avoidance(line, zpts, q)


def test_edge_avoidance_needs_the_line_prime():
    zpts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    line = LineParam.make((1, 2, 3, 4), (4, 1, 2, 3), P)
    with pytest.raises(ValueError, match="F_32003"):
        edge_avoidance(line, zpts, 101)
    small = LineParam.make((1, 2, 3, 4), (4, 1, 2, 3), 101)
    with pytest.raises(ValueError, match="F_101"):
        edge_avoidance(small, zpts)
    assert edge_avoidance(line, zpts, P) and edge_avoidance(small, zpts, 101)


def test_quadric_line_component():
    # containing a visible ruling multiple
    lam_bad = [np.array([[1, 0, 0, 0], [0, 0, 0, 0]]),
               np.array([[0, 1, 0, 0], [1, 0, 0, 0]]),
               np.array([[0, 0, 1, 0], [0, 1, 0, 0]])]
    assert not quadric_line_component_test(lam_bad)
    # fully inside one ruling slice
    lam_in = [np.array([[1, 0, 0, 0], [0, 0, 0, 0]]),
              np.array([[0, 1, 0, 0], [0, 0, 0, 0]]),
              np.array([[0, 0, 1, 0], [0, 0, 0, 0]])]
    assert not quadric_line_component_test(lam_in)
    # no element divisible by a ruling form (minor gcd is constant)
    lam_good = [np.array([[1, 0, 0, 0], [0, 0, 1, 0]]),
                np.array([[0, 1, 0, 0], [0, 0, 0, 1]]),
                np.array([[0, 0, 0, 1], [1, 0, 0, 0]])]
    assert quadric_line_component_test(lam_good)
    # the symmetric cubic family contains (u0+u1)(v0^3+v1^3)
    lam_sym = [np.array([[1, 0, 0, 0], [0, 0, 0, 1]]),
               np.array([[0, 0, 0, 1], [1, 0, 0, 0]]),
               np.array([[0, 0, 1, 0], [0, -1, 0, 0]])]
    assert not quadric_line_component_test(lam_sym)


def test_gg_engine_prime_follows_node():
    x = [Form.variable(4, i, 101) for i in range(4)]
    node = ker_node(GradedMatrix.row(4, (2, 2, 1, 1), 3,
                                     [x[0], x[1], x[2] * x[2], x[3] * x[3]], 101))
    line = LineParam.make((0, 0, 1, 0), (0, 0, 0, 1), 101)
    own = is_globally_generated(node, trials=20, hint_lines=[line])
    assert own == is_globally_generated(node, trials=20, hint_lines=[line],
                                        eng=Cohomology(101))
    assert not own.generated and reverify_witness(node, own)
    omega = ker_node(GradedMatrix.row(4, (1, 1, 1, 1), 2, x, 101))
    assert is_globally_generated(omega, trials=20).generated
    with pytest.raises(ValueError, match="F_101"):
        is_globally_generated(omega, trials=20, eng=Cohomology(P))


def test_eval_sections_monomial_values_once_per_twist(monkeypatch):
    from pnbundles import forms, graded
    from pnbundles.modp import MAX_TERMS
    ambient = (0, 1, 0, 2, 1, 0)
    nv, l = 4, 1
    dims = [forms.space_dim(nv, a + l) for a in ambient]
    rng = np.random.default_rng(11)
    rows = rng.integers(0, P, size=(5, sum(dims)))
    pts = random_points(nv, 30, 3, P)
    # the values summand by summand, as sums of products of residues
    want = np.zeros((30, 5, len(ambient)), dtype=np.int64)
    off = 0
    for j, (a, d) in enumerate(zip(ambient, dims)):
        vals = forms.monomial_values(nv, a + l, pts, P)
        want[:, :, j] = vals @ rows[:, off:off + d].T % P
        off += d
    assert max(dims) <= MAX_TERMS
    calls = []
    monomial_values = forms.monomial_values
    assert graded.monomial_values is monomial_values

    def spy(nv, d, pts, p):
        calls.append(d)
        return monomial_values(nv, d, pts, p)

    monkeypatch.setattr(graded, "monomial_values", spy)
    secs = GradedMatrix.from_piece(nv, ambient, l, rows, P)
    got = np.transpose(secs.evaluate(pts), (0, 2, 1))
    assert sorted(calls) == [1, 2, 3]
    assert got.dtype == np.int64 and (got == want).all()



def _catalog_node(eid):
    from pathlib import Path

    from pnbundles.catalog import load_catalog, parse_node
    cat = load_catalog(Path(__file__).resolve().parents[1] / "catalog"
                       / "catalog.json")
    entry = next(e for e in cat["entries"] if e["id"] == eid)
    return parse_node(entry["construction"], entry["n"] + 1, cat["prime"])


def _two_quotients():
    o3 = LineSum.make(3, (0, 0, 0))
    col = [GradedMatrix.column(3, -1, (0, 0, 0), [Z[i], Z[j], Z[k]])
           for i, j, k in ((0, 1, 2), (1, 0, 2))]
    return sum_node(quot_node(col[0], o3), quot_node(col[1], o3))


@pytest.mark.parametrize("node, calls", [
    (lambda: _catalog_node("p2-c1-5-tangent-1"), 1),
    # both summands are the quotient by the one Euler column
    (lambda: _catalog_node("p2-c2-7-split-tangent-sq"), 1),
    (_two_quotients, 2)])
def test_gg_evaluates_each_matrix_once(monkeypatch, eng, node, calls):
    # a quotient matrix repeated in a sum is evaluated once; `calls`
    # counts the node's distinct matrices, the sections' coefficient rows
    # add one evaluation, all through the one evaluator core
    node = node()
    eng.h0_presented(node, 0).space_rows()
    seen = []
    core = graded.evaluate_blocks

    def spy(nvars, shape, blocks, pts, p):
        seen.append((tuple(shape), tuple((d, np.asarray(r).tobytes(), np.asarray(c).tobytes(),
                                          k.tobytes()) for d, (r, c, k) in blocks.items())))
        return core(nvars, shape, blocks, pts, p)

    monkeypatch.setattr(graded, "evaluate_blocks", spy)
    assert is_globally_generated(node, 200, 7, eng=eng).generated
    assert len(seen) == calls + 1 == len(set(seen))


def test_gg_of_a_trivial_quotient_broadcasts_its_sections():
    # the transform of O(4) on P^4, O^70 / O(-4): its constant sections
    # are evaluated once, not copied to each of the 2000 points (a 78 MB
    # int64 stack)
    nv = 5
    col = GradedMatrix.column(nv, -4, (0,) * 70,
                              [Form.monomial(nv, e) for e in monomial_basis(nv, 4)])
    node = quot_node(col, LineSum.make(nv, (0,) * 70))
    eng = Cohomology()
    eng.h0_basis(node, 0)
    tracemalloc.start()
    try:
        v = is_globally_generated(node, 2000, 90021, eng=eng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.generated and v.witness_point is None
    assert peak < 16 * 2**20, peak
