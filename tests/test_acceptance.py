"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; all golden values are exact integer comparisons.
"""

import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pnbundles.catalog import load_catalog, parse_node, verify_all
from pnbundles.chern import (ChernVector, SurfaceInvariants, double_point,
                             p_chern, rr_chi, schwarzenberger_ok,
                             surface_bundle_data)
from pnbundles.complexes import koszul, verify_exact
from pnbundles.exterior import ExtElement, beilinson_terms, contract, wedge, wedge_map_rank
from pnbundles.forms import Form
from pnbundles.geometry import (LineParam, cayley_bacharach,
                                is_globally_generated, reverify_witness)
from pnbundles.graded import GradedMatrix
from pnbundles.modp import batched_rank
from pnbundles.pencil import (classify, conjugate, linear_matrix_2x4,
                              minor_ideal_equals, random_gl)
from pnbundles.sheaves import (CohTable, Cohomology, chern_of_node,
                               is_exact_cell, ker_node, twist_node)
from pnbundles.spectra import (Spectrum, enumerate_spectra, h1_from_spectrum,
                               h2_from_spectrum)

CATALOG_PATH = Path(__file__).resolve().parents[1] / "catalog" / "catalog.json"
P = 32003
TRIALS = 500
SEED = 90021


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(CATALOG_PATH)


@pytest.fixture(scope="module")
def eng():
    return Cohomology()


@pytest.fixture(scope="module")
def full_report(catalog):
    return verify_all(catalog, trials=TRIALS, seed=SEED)


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_catalog_verifies(catalog, full_report):
    assert len(catalog["entries"]) >= 20
    required = {"p3-line-4", "p3-ncorr-twist", "p3-instanton2-instance",
                "p3-mixed-kernel", "p3-two-row-kernel", "p3-five-gen-kernel",
                "p3-quadric-kernel-twist", "p3-monad-rank6",
                "p4-rank5-kernel-twist", "p5-cotangent-2",
                "p3-instanton4-instance", "p3-kernel-onto-cotangent",
                "p3-pair-kernel-edge-clear", "p3-webrow-kernel"}
    ids = {e["id"] for e in catalog["entries"]}
    assert required <= ids
    failed = [e.entry_id for e in full_report.entries if not e.ok]
    assert not failed, f"entries failed: {failed}"
    # every Chern expectation is an exact integer match
    for entry in full_report.entries:
        for check in entry.checks:
            if check.name == "chern":
                assert check.ok
    _announce(1, f"catalog verify: {len(full_report.entries)} entries, "
                 f"all checks exact (trials={TRIALS})")


def test_catalog_verify_skips_no_check(full_report):
    skipped = [(e.entry_id, c.name) for e in full_report.entries for c in e.checks
               if isinstance(c.got, str) and c.got.startswith("skipped")]
    assert not skipped
    p5 = next(e for e in full_report.entries if e.entry_id == "p5-cotangent-2")
    assert [c.got for c in p5.checks if c.name == "riemann-roch"] == ["match"]


def test_criterion_2_cohomology_golden_values(eng):
    x = [Form.variable(4, i) for i in range(4)]
    om2 = ker_node(GradedMatrix.row(4, (1, 1, 1, 1), 2, x))
    assert eng.h(om2, 0, 0) == 6

    e_iv = ker_node(GradedMatrix.row(4, (2, 2, 2, 1), 3,
                                     [x[0], x[1], x[2], x[3] * x[3]]))
    assert eng.h(e_iv, 1, -3) == 1
    assert eng.h(e_iv, 1, -2) == 1

    e_vi = ker_node(GradedMatrix.make(4, (2,) * 5, (3, 3),
                                      [[x[0], x[1], x[2], x[3], "0"],
                                       ["0", x[0], x[1], x[2], x[3]]]))
    assert eng.h(e_vi, 1, -3) == 2

    cat = load_catalog(CATALOG_PATH)
    entry = next(e for e in cat["entries"] if e["id"] == "p4-rank5-kernel-twist")
    node = parse_node(entry["construction"], 5, P)
    assert eng.h(node, 1, -1) == 1
    assert eng.h(node, 1, -2) == 1
    assert eng.h(node, 2, -3) == 1
    assert eng.h(node, 2, -4) == 1
    _announce(2, "golden cohomology values: twisted cotangent sections, both "
                 "threefold kernels, and the fourfold rank-5 bundle")


def test_criterion_3_riemann_roch_cross_check(catalog, eng):
    checked = 0
    for entry in catalog["entries"]:
        if "pencil_rows" in entry:
            continue
        node = parse_node(entry["construction"], entry["n"] + 1, P)
        cv = chern_of_node(node)
        table = eng.table(node)
        for l in table.exact_columns():
            assert table.euler(l) == rr_chi(cv, l), (entry["id"], l)
            checked += 1
    assert checked > 200
    _announce(3, f"Euler characteristics match the Riemann-Roch formula on "
                 f"{checked} exact table columns, zero tolerance")


def test_criterion_4_schwarzenberger(catalog):
    ok, res = schwarzenberger_ok(ChernVector.make(4, 2, (5, 8, 0, 0)))
    assert (ok, res) == (False, 8)
    count = 0
    for entry in catalog["entries"]:
        if entry.get("n") == 4 and "construction" in entry:
            node = parse_node(entry["construction"], 5, P)
            assert schwarzenberger_ok(chern_of_node(node))[0], entry["id"]
            count += 1
    assert count >= 3
    _announce(4, f"congruence fails with residue 8 on (5,8,0,0) and holds on "
                 f"all {count} fourfold catalog nodes")


def test_criterion_5_double_point_formula():
    assert double_point(SurfaceInvariants(8, 5, 1, 0)) == 0
    assert double_point(SurfaceInvariants(8, 4, 1, 0)) == 1
    r, c2, c3, c4 = surface_bundle_data(SurfaceInvariants(8, 5, 1, 0))
    assert (r, c3) == (5, 8)
    assert (c2, c4) == (8, 0)
    _announce(5, "double-point numbers 0 and 1; surface bundle data "
                 "(r, c2, c3, c4) = (5, 8, 8, 0)")


def test_criterion_6_spectra():
    specs = {s.k for s in enumerate_spectra(2, -2, 1, c3_nonneg=True)}
    assert specs == {(0, 0), (0, -1), (-1, -1)}
    sharp = {s.k for s in enumerate_spectra(4, -3, 1, spectrum2=True)}
    assert (0, -1, -2, -2) not in sharp
    assert (0, -1, -2, -2) in {s.k for s in enumerate_spectra(4, -3, 1)}
    # the six quoted twisted-cohomology values
    assert h1_from_spectrum(Spectrum.make((0, -1)), -1) == 1
    assert h1_from_spectrum(Spectrum.make((0, 0, -1)), -1) == 2
    assert h2_from_spectrum(Spectrum.make((0, -1, -2)), -1) == 1
    assert h1_from_spectrum(Spectrum.make((0, 0, 0, -1)), -1) == 3
    assert h1_from_spectrum(Spectrum.make((0, -1, -1, -1)), -1) == 1
    assert h2_from_spectrum(Spectrum.make((0, -1, -2, -3)), 0) == 1
    _announce(6, "charge-2 spectra enumerate exactly; strict-tail rule "
                 "excludes (0,-1,-2,-2); six quoted h-values reproduced")


PENCIL_CANONICAL = {
    1: ([["x0", "x1", "x2", "x3"], ["2*x0", "3*x1", "x2", "0"]],
        ["x0*x1", "x0*x2", "x0*x3", "x1*x2", "x1*x3", "x2*x3"]),
    5: ([["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "0"]],
        ["x1*x3", "x2*x3", "x3^2", "x2^2", "x0*x3 - x1*x2", "x0*x2 - x1^2"]),
    6: ([["x0", "x1", "x2", "0"], ["0", "x0", "x1", "x2"]],
        ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"]),
    7: ([["x0", "x1", "0", "x2"], ["0", "x0", "x1", "x3"]],
        ["x0^2", "x0*x1", "x1^2", "x1*x2", "x0*x3", "x0*x2 - x1*x3"]),
    8: ([["x0", "0", "x1", "x2"], ["0", "x0", "x2", "x3"]],
        ["x0^2", "x0*x1", "x0*x2", "x0*x3", "x1*x3 - x2^2"]),
}


def test_criterion_7_pencil_classification():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for case, (rows, ideal) in PENCIL_CANONICAL.items():
        m = linear_matrix_2x4(rows)
        assert classify(m).case == case
        assert minor_ideal_equals(m, ideal, 4)
        for _ in range(100):
            g = random_gl(2, rng, P)
            h = random_gl(4, rng, P)
            c = random_gl(4, rng, P)
            if classify(conjugate(m, g, h, c)).case != case:
                mismatches += 1
    assert mismatches == 0
    _announce(7, "five canonical pencils classify correctly, minor ideals "
                 "match to degree 4, 500 random conjugates agree (0 mismatches)")


def test_criterion_8_global_generation(catalog, eng):
    positive = ["p3-ncorr-twist", "p3-mixed-kernel", "p3-two-row-kernel",
                "p3-five-gen-kernel", "p3-quadric-kernel-twist"]
    for eid in positive:
        entry = next(e for e in catalog["entries"] if e["id"] == eid)
        node = parse_node(entry["construction"], entry["n"] + 1, P)
        verdict = is_globally_generated(node, trials=TRIALS, seed=SEED, eng=eng)
        assert verdict.generated, eid

    x = [Form.variable(4, i) for i in range(4)]
    k = ker_node(GradedMatrix.row(4, (2, 2, 1, 1), 3,
                                  [x[0], x[1], x[2] * x[2], x[3] * x[3]]))
    line = LineParam.make((0, 0, 1, 0), (0, 0, 0, 1))
    vk = is_globally_generated(k, trials=TRIALS, seed=SEED,
                               hint_lines=[line], eng=eng)
    assert not vk.generated and vk.witness_line is line
    assert vk.witness_splitting == [2, 2, -1]
    assert reverify_witness(k, vk, eng)

    z = [Form.variable(3, i) for i in range(3)]
    web = ker_node(GradedMatrix.row(3, (0,) * 5, 2,
                                    [z[0] * z[0], z[0] * z[1], z[0] * z[2],
                                     z[1] * z[1], z[2] * z[2]]))
    m1 = twist_node(web, 1)
    line2 = LineParam.make((0, 1, 0), (0, 0, 1))
    vm = is_globally_generated(m1, trials=TRIALS, seed=SEED,
                               hint_lines=[line2], eng=eng)
    assert not vm.generated
    assert sorted(vm.witness_splitting) == [-1, 1, 1, 1]
    assert reverify_witness(m1, vm, eng)
    _announce(8, f"five positive verdicts at {TRIALS} samples; two exact "
                 "line witnesses with negative splitting summands re-verified")


def _all_plane_points_f5():
    pts = [(1, a, b) for a in range(5) for b in range(5)]
    pts += [(0, 1, b) for b in range(5)]
    pts.append((0, 0, 1))
    return pts


def _cb_exhaustive_f5():
    """Linear Cayley-Bacharach over F_5: oracle vs kernel comparison on
    every configuration of at most six distinct points."""
    pts = np.array(_all_plane_points_f5(), dtype=np.int64)
    npts = pts.shape[0]
    coeffs = np.array(np.meshgrid(range(5), range(5), range(5)),
                      dtype=np.int64).reshape(3, -1).T
    table = coeffs @ pts.T % 5            # 125 forms x 31 points
    nonzero = table != 0
    total = 0
    for k in range(1, 7):
        subsets = np.array(list(combinations(range(npts), k)), dtype=np.int64)
        for start in range(0, len(subsets), 40000):
            chunk = subsets[start:start + 40000]
            nz = nonzero[:, chunk]                    # 125 x m x k
            through_all = (~nz.any(axis=2)).sum(axis=0)
            # oracle: form counts through all-but-one versus through all
            oracle_ok = np.ones(chunk.shape[0], dtype=bool)
            for j in range(k):
                rest = [t for t in range(k) if t != j]
                if rest:
                    through_rest = (~nz[:, :, rest].any(axis=2)).sum(axis=0)
                else:
                    through_rest = np.full(chunk.shape[0], 125)
                oracle_ok &= through_rest == through_all
            # implementation: evaluation-matrix ranks over F_5
            mats = pts[chunk]                         # m x k x 3
            full = batched_rank(mats, 5)
            impl_ok = np.ones(chunk.shape[0], dtype=bool)
            for j in range(k):
                rest = [t for t in range(k) if t != j]
                sub = mats[:, rest, :] if rest else np.zeros(
                    (chunk.shape[0], 0, 3), dtype=np.int64)
                impl_ok &= batched_rank(sub, 5) == full
            if not (oracle_ok == impl_ok).all():
                bad = int(np.nonzero(oracle_ok != impl_ok)[0][0])
                return False, [tuple(map(int, pts[i])) for i in chunk[bad]]
            total += chunk.shape[0]
    return True, total


def test_criterion_9_property_suites(catalog, eng):
    # windowed Koszul exactness on regular sequences
    x = [Form.variable(4, i) for i in range(4)]
    z = [Form.variable(3, i) for i in range(3)]
    y = [Form.variable(5, i) for i in range(5)]
    for cx, window in [
        (koszul(z), range(0, 6)),
        (koszul(x), range(0, 7)),
        (koszul([x[0], x[1], x[2], x[3] * x[3]]), range(0, 7)),
        (koszul([y[0], y[1], y[2], y[3], y[4] * y[4]]), range(0, 5)),
    ]:
        assert verify_exact(cx, window).is_exact()

    # dual involution, entrywise
    for cx in (koszul(x), koszul([x[0], x[1], x[2] * x[2]])):
        dd = cx.dual().dual()
        assert dd.terms == cx.terms
        assert all(a.entries == b.entries for a, b in zip(dd.diffs, cx.diffs))

    # transform-formula involution on 500 seeded Chern triples
    rng = random.Random(SEED)
    for _ in range(500):
        cv = ChernVector.make(3, 3, (rng.randint(-9, 9), rng.randint(-30, 30),
                                     rng.randint(-60, 60)))
        assert p_chern(p_chern(cv)).c == cv.c

    # contraction associativity and the graded sign law, 1000 triples
    rngx = random.Random(SEED + 1)

    def rnd(dim, g):
        return ExtElement.make(dim, g, {
            idx: rngx.randrange(P) for idx in combinations(range(dim), g)})

    for _ in range(1000):
        dim = 6
        pg, qg = rngx.randint(0, 2), rngx.randint(0, 2)
        fg = pg + qg + rngx.randint(0, dim - pg - qg)
        phi, om, eta = rnd(dim, fg), rnd(dim, pg), rnd(dim, qg)
        assert contract(contract(phi, om), eta) == contract(phi, wedge(om, eta))
        lhs = contract(phi, wedge(om, eta))
        rhs = contract(phi, wedge(eta, om)).scale((-1) ** (pg * qg))
        assert lhs == rhs

    # exhaustive linear Cayley-Bacharach comparison over F_5
    ok, info = _cb_exhaustive_f5()
    assert ok, f"disagreement on {info}"

    # quadratic comparison on a fixed ten-point pool
    pool = _all_plane_points_f5()[:10]
    from pnbundles.geometry import cayley_bacharach_oracle
    agree = 0
    for k in range(1, 7):
        for idx in combinations(range(10), k):
            sub = [pool[i] for i in idx]
            assert (cayley_bacharach(sub, 2, p=5)
                    == cayley_bacharach_oracle(sub, 2)), sub
            agree += 1

    # twist-drop inequality on every generated plane node in the catalog
    drop_checked = 0
    for entry in catalog["entries"]:
        if entry.get("n") != 2 or "construction" not in entry:
            continue
        if entry["expected"].get("gg") != "generated":
            continue
        node = parse_node(entry["construction"], 3, P)
        table = eng.table(node, range(-6, 5))
        for l in range(-1, 4):
            h_l = table.h(1, l)
            if is_exact_cell(h_l) and h_l != 0:
                assert h_l <= table.h(1, l - 1) - 2, (entry["id"], l)
                drop_checked += 1
    _announce(9, f"Koszul windows exact; involutions hold; 1000 contraction "
                 f"triples; {info} linear + {agree} quadratic point "
                 f"configurations agree with the oracle; "
                 f"{drop_checked} twist-drop cells checked")


def test_criterion_10_monad_shapes():
    cells = {(i, l): 0 for i in range(4) for l in range(-4, 2)}
    cells.update({(1, -1): 3, (1, 0): 5, (2, -3): 1})
    shape = beilinson_terms(CohTable(3, -4, 1, cells), 3)
    assert shape.at(-1) == ((1, 3),)
    assert shape.at(0) == ((3, 1),)
    assert shape.at(1) == ((5, 0),)

    cells5 = {(i, l): 0 for i in range(6) for l in range(-6, 2)}
    cells5.update({(3, -4): 1, (2, -2): 1, (1, 0): 1})
    shape5 = beilinson_terms(CohTable(5, -6, 1, cells5), 5)
    assert [shape5.at(q) for q in (-1, 0, 1)] == [((1, 4),), ((1, 2),), ((1, 0),)]

    sympl = ExtElement.make(6, 2, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    assert wedge_map_rank(sympl, 2) == 15
    _announce(10, "threefold and fourfold monad shapes reproduced exactly; "
                  "symplectic wedge square has full rank 15")
