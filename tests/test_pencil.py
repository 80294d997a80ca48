import numpy as np

from pnbundles.binforms import multiplicity_partition, rational_roots
from pnbundles.forms import random_points
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


def test_case5_determinant_is_fourfold_point():
    pen = to_pencil(linear_matrix_2x4(CANONICAL[5]))
    det = pen.det()
    assert det[0] != 0 and not det[1:].any()


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
    for q, ev in zip(pts, batched_rank(m.evaluate(pts), P)):
        on_locus = all(f.evaluate(q) == 0 for f in minors)
        assert (ev < 2) == on_locus
