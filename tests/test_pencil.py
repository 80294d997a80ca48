from itertools import combinations, permutations

import numpy as np
import pytest

from pnbundles.binforms import (binary_gcd_degree, multiplicity_partition,
                                rational_roots)
from pnbundles.forms import Form, random_points
from pnbundles.modp import batched_rank
from pnbundles.pencil import (classify, conjugate, is_stable,
                              linear_matrix_2x4, min_syzygy_degree,
                              minor_ideal_equals, random_gl, to_pencil)

P = 32003

CANONICAL = {
    1: [["x0", "x1", "x2", "x3"], ["2*x0", "3*x1", "x2", "0"]],
    2: [["x0", "x1", "x2", "x3"], ["5*x0", "x1", "x3", "0"]],
    3: [["x0", "x1", "x2", "x3"], ["x0 + x1", "x1", "x3", "0"]],
    4: [["x0", "x1", "x2", "x3"], ["x0", "x2", "x3", "0"]],
    5: [["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "0"]],
    6: [["x0", "x1", "x2", "0"], ["0", "x0", "x1", "x2"]],
    7: [["x0", "x1", "0", "x2"], ["0", "x0", "x1", "x3"]],
    8: [["x0", "0", "x1", "x2"], ["0", "x0", "x2", "x3"]],
}


def test_multiplicity_partition():
    # (t)(t-1)(t-2)(t-3) -> all simple
    quartic = np.array([0, 0, 0, 0, 1], dtype=np.int64)  # T1^4
    assert multiplicity_partition(quartic, P) == [4]
    # t^2(t-1)(t+1): coefficients of t^2(t^2-1) = t^4 - t^2 homogenized:
    # T0^2 T1^2 (T1 - T0)(T1 + T0): vector by T1-degree of T1^2*(T1^2-T0^2)
    v = np.array([0, 0, -1 % P, 0, 1], dtype=np.int64)
    assert multiplicity_partition(v, P) == [2, 1, 1]


def test_rational_roots_with_multiplicity():
    # (T1 - 2 T0)^2 * T0 * T1: by T1-degree: T1^... expand (T1-2T0)^2 = T1^2 -4T0T1 +4T0^2
    # times T0*T1: coefficients of T0^{4-k}T1^k: [0, 4, -4, 1, 0]
    v = np.array([0, 4, -4 % P, 1, 0], dtype=np.int64)
    roots = dict(rational_roots(v, P))
    assert roots[(1, 2)] == 2
    assert roots[(1, 0)] == 1
    assert roots[(0, 1)] == 1


def test_all_canonical_cases_classify():
    expects = {1: [1, 1, 1, 1], 2: [2, 1, 1], 3: [2, 2], 4: [3, 1], 5: [4]}
    for case, rows in CANONICAL.items():
        cl = classify(linear_matrix_2x4(rows))
        assert cl.case == case, (case, cl.tag)
        if case <= 5:
            assert cl.partition == expects[case]
        else:
            assert cl.coker_degree == case - 5


def test_partition_and_syzygy_bookkeeping():
    # cases 1-5: multiplicities sum to 4; cases 6-8: e + m = 4
    for case, rows in CANONICAL.items():
        m = linear_matrix_2x4(rows)
        cl = classify(m)
        if case <= 5:
            assert sum(cl.partition) == 4
        else:
            e = min_syzygy_degree(to_pencil(m))
            assert e + cl.coker_degree == 4


def test_minor_ideals_of_degenerate_cases():
    assert minor_ideal_equals(
        linear_matrix_2x4(CANONICAL[6]),
        ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"], 4)
    assert minor_ideal_equals(
        linear_matrix_2x4(CANONICAL[7]),
        ["x0^2", "x0*x1", "x1^2", "x1*x2", "x0*x3", "x0*x2 - x1*x3"], 4)
    assert minor_ideal_equals(
        linear_matrix_2x4(CANONICAL[8]),
        ["x0^2", "x0*x1", "x0*x2", "x0*x3", "x1*x3 - x2^2"], 4)
    assert minor_ideal_equals(
        linear_matrix_2x4(CANONICAL[3]),
        ["x1*x3", "x0*x3", "x3^2", "x1*x2", "x0*x2", "x1^2"], 4)
    assert minor_ideal_equals(
        linear_matrix_2x4(CANONICAL[4]),
        ["x0*x3", "x2*x3", "x3^2", "x0*x2", "x0*x1", "x1*x3 - x2^2"], 4)
    # negative control
    assert not minor_ideal_equals(
        linear_matrix_2x4(CANONICAL[6]),
        ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x3^2"], 4)


def test_stability_detection():
    assert is_stable(linear_matrix_2x4(CANONICAL[6]))
    ns = linear_matrix_2x4([["x0", "x1", "x2", "x3"], ["x0 + x1", "0", "0", "0"]])
    assert not is_stable(ns)
    assert classify(ns).tag == "not-stable"
    zero = linear_matrix_2x4([["0"] * 4, ["0"] * 4])
    assert classify(zero).tag == "not-injective"
    dep = linear_matrix_2x4([["x0", "x0", "x1", "x2"], ["x1", "x1", "x2", "x3"]])
    assert classify(dep).tag == "not-injective"


def test_classify_builds_the_pencil_once(monkeypatch):
    from pnbundles import pencil
    from pnbundles.graded import GradedMatrix
    m = linear_matrix_2x4(CANONICAL[7])
    built, pieces = [], []
    to_pencil_, graded_piece = pencil.to_pencil, GradedMatrix.graded_piece

    def spy_pencil(m):
        built.append(m)
        return to_pencil_(m)

    def spy_piece(self, l):
        pieces.append(l)
        return graded_piece(self, l)

    monkeypatch.setattr(pencil, "to_pencil", spy_pencil)
    monkeypatch.setattr(GradedMatrix, "graded_piece", spy_piece)
    assert classify(m).case == 7
    # one injectivity piece of m, then syzygy degrees 0, 1, 2 of the pencil
    assert len(built) == 1 and pieces == [0, 0, 1, 2]


def test_case5_determinant_is_fourfold_point():
    pen = to_pencil(linear_matrix_2x4(CANONICAL[5]))
    det = pen.minors(4)[0].coeff_vector()
    assert det[0] != 0 and not det[1:].any()


def _leibniz_minor(m, rows, cols, p):
    """Reference minor of the pencil of a 2x4 linear matrix: entry (i, j)
    is the binary form (x_i-coefficient of m[0][j]) T0 + (... of m[1][j])
    T1; coefficient vector by T1-degree, by the permutation expansion."""
    x = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        prod = np.array([sign % p], dtype=np.int64)
        for r, c in zip(rows, (cols[k] for k in perm)):
            lin = [m.entry(0, c).coeff(x[r]), m.entry(1, c).coeff(x[r])]
            prod = np.convolve(prod, lin) % p
        out = (out + prod) % p
    return out


def _random_linear_2x4(rng, p, zero_share):
    rows = []
    for _ in range(2):
        coef = rng.integers(0, p, size=(4, 4))
        coef[rng.random((4, 4)) < zero_share] = 0
        rows.append([Form.make(4, 1, {tuple(int(k == i) for k in range(4)): c
                                      for i, c in enumerate(col)}, p)
                     for col in coef])
    if rng.random() < 0.5:  # rank-deficient: one column repeats another
        j, k = rng.choice(4, size=2, replace=False)
        for row in rows:
            row[k] = row[j].scale(int(rng.integers(0, p)))
    return linear_matrix_2x4(rows, p)


@pytest.mark.parametrize("p", [5, 7, 101, 32003])
def test_pencil_minors_match_leibniz(p):
    rng = np.random.default_rng(p)
    seen_zero_det = False
    for t in range(40):
        m = _random_linear_2x4(rng, p, zero_share=(0.0, 0.4, 0.7)[t % 3])
        pen = to_pencil(m)
        det = pen.minors(4)[0].coeff_vector()
        assert (det == _leibniz_minor(m, range(4), range(4), p)).all()
        seen_zero_det |= not det.any()
        want = [_leibniz_minor(m, r, c, p)
                for r in combinations(range(4), 3)
                for c in combinations(range(4), 3)]
        got = [f.coeff_vector() for f in pen.minors(3)]
        assert len(got) == 16
        assert all((g == w).all() for g, w in zip(got, want))
    assert seen_zero_det


def test_min_syzygy_degree():
    for case, e in ((6, 3), (7, 2), (8, 1)):
        assert min_syzygy_degree(to_pencil(linear_matrix_2x4(CANONICAL[case]))) == e
    zero_col = linear_matrix_2x4([["x0", "x1", "x2", "0"], ["x1", "x2", "x3", "0"]])
    assert min_syzygy_degree(to_pencil(zero_col)) == 0
    # a nonzero determinant leaves no syzygy up to degree 3
    assert min_syzygy_degree(to_pencil(linear_matrix_2x4(CANONICAL[1]))) is None


def test_binary_gcd_degree_edge_cases():
    with pytest.raises(ValueError):
        binary_gcd_degree([(np.array([1, 2, 3]), 3)], P)
    assert binary_gcd_degree([(np.zeros(3, dtype=np.int64), 2),
                              (np.array([P, 0]), 1)], P) == -1
    # T0*T1 and T1*(T0 + T1) share T1; zero forms are ignored
    assert binary_gcd_degree([(np.array([0, 1, 0]), 2),
                              (np.array([0, 1, 1]), 2),
                              (np.zeros(4, dtype=np.int64), 3)], P) == 1


def test_case1_canonical_emitted():
    cl = classify(linear_matrix_2x4(CANONICAL[1]))
    assert cl.canonical is not None
    # the emitted representative classifies identically
    again = classify(cl.canonical)
    assert again.case == 1


def test_classification_invariance_small_sample():
    rng = np.random.default_rng(29)
    for case, rows in CANONICAL.items():
        m = linear_matrix_2x4(rows)
        for _ in range(8):
            g = random_gl(2, rng, P)
            h = random_gl(4, rng, P)
            c = random_gl(4, rng, P)
            assert classify(conjugate(m, g, h, c)).case == case


def test_rank_two_off_degeneracy_audit():
    # at sampled points the evaluation has rank 2 exactly off the minor locus
    m = linear_matrix_2x4(CANONICAL[7])
    minors = [f for f in m.maximal_minors() if not f.is_zero()]
    pts = random_points(4, 200, 31)
    for q, ev in zip(pts.tolist(), batched_rank(m.evaluate(pts), P)):
        on_locus = all(f.evaluate(q) == 0 for f in minors)
        assert (ev < 2) == on_locus
