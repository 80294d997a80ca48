import copy
from pathlib import Path

import pytest

from pnbundles import chern, forms, graded
from pnbundles.catalog import (CatalogError, load_catalog, parse_catalog,
                               parse_node, serialize_catalog, verify_all,
                               verify_entry)
from pnbundles.catalog_entries import build_catalog, rank5_p4_chain
from pnbundles.forms import format_form
from pnbundles.sheaves import (Cohomology, KerNode, LineSum, QuotNode,
                               chern_of_node, default_window)
from test_sheaves import flipped, serre_flip

CATALOG_PATH = Path(__file__).resolve().parents[1] / "catalog" / "catalog.json"


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(CATALOG_PATH)


def test_round_trip_byte_identical(catalog):
    text = CATALOG_PATH.read_text(encoding="utf-8")
    assert serialize_catalog(parse_catalog(text)) == text


def test_shipped_catalog_matches_generator():
    text = CATALOG_PATH.read_text(encoding="utf-8")
    assert serialize_catalog(build_catalog()) == text


@pytest.mark.parametrize("prime", [65521, 1009])
def test_shipped_catalog_verifies_at_other_primes(catalog, prime):
    # coefficients are printed as symmetric residues, so -1 is "-1" and
    # not "32002"; p = 101 is left out: p3-instanton4-instance fails its
    # sampled gg check there (about 1% of points lie on a bad quadric)
    rep = verify_all(catalog, prime=prime)
    assert rep.prime == prime and len(rep.entries) == 39
    assert rep.ok, [(e.entry_id, e.error) for e in rep.entries if not e.ok]


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_all_rejects_zero_sample_points(catalog, trials):
    # entries without hint points would be sampled at no point
    with pytest.raises(ValueError, match="needs a point"):
        verify_all(catalog, trials=trials)


def test_verify_entry_builds_rr_polynomial_once(catalog):
    entry = next(e for e in catalog["entries"] if e["id"] == "p3-mixed-kernel")
    chern._rr_polynomial.cache_clear()
    rep = verify_entry(entry, Cohomology(catalog["prime"]), 100, 1)
    assert rep.ok, rep.error
    info = chern._rr_polynomial.cache_info()
    # one build, then one cache hit per further exact column of the table
    assert info.misses == 1 and info.hits >= 5


def test_catalog_covers_required_constructions(catalog):
    ids = {e["id"] for e in catalog["entries"]}
    required = {
        "p3-line-4", "p3-ncorr-twist", "p3-instanton2-instance",
        "p3-mixed-kernel", "p3-two-row-kernel", "p3-five-gen-kernel",
        "p3-quadric-kernel-twist", "p3-monad-rank6", "p4-rank5-kernel-twist",
        "p5-cotangent-2", "p2-c2-5-split", "p2-c1-5-line",
        "p3-instanton4-instance", "p3-kernel-onto-cotangent",
        "p3-pair-kernel-edge-clear", "p3-webrow-kernel",
    }
    assert required <= ids
    assert len(catalog["entries"]) >= 20


def test_empty_catalog_passes():
    rep = verify_all({"prime": 32003, "entries": []})
    assert rep.ok
    assert rep.entries == []


def test_corrupted_chern_fails_exactly_one(catalog):
    broken = copy.deepcopy(catalog)
    target = next(e for e in broken["entries"] if e["id"] == "p3-mixed-kernel")
    target["expected"]["chern"]["c"][1] += 1
    rep = verify_all(broken, trials=20, seed=5)
    bad = [e for e in rep.entries if not e.ok]
    assert len(bad) == 1 and bad[0].entry_id == "p3-mixed-kernel"


def test_parse_error_recorded_not_raised():
    entry = {"id": "broken", "n": 3,
             "construction": {"ker": {"matrix": {"src": [1], "tgt": [3],
                                                 "rows": [["x0"]]}}}}
    rep = verify_entry(entry, Cohomology(), trials=5, seed=1)
    assert not rep.ok
    assert rep.error is not None


def test_unknown_node_kind_rejected():
    with pytest.raises(CatalogError):
        parse_node({"mystery": []}, 4, 32003)
    with pytest.raises(CatalogError):
        parse_node({"sum": [1], "extra": 2}, 4, 32003)


def test_verify_report_shape(catalog):
    small = {"prime": 32003,
             "entries": [e for e in catalog["entries"]
                         if e["id"] in ("p3-line-4", "pencil-case-6")]}
    rep = verify_all(small, trials=10, seed=2)
    assert rep.ok
    data = rep.to_dict()
    assert {e["id"] for e in data["entries"]} == {"p3-line-4", "pencil-case-6"}
    assert all(c["ok"] for e in data["entries"] for c in e["checks"])
    text = rep.render()
    assert "2/2 entries verified" in text


def test_certification_never_samples(catalog, monkeypatch):
    # every kernel and quotient node of the shipped catalog is proved by
    # one onto-certificate (d, reg): a twist d at or above the target's
    # regularity reg; no fiber is evaluated and no point is drawn
    calls = []
    monkeypatch.setattr(graded, "evaluate_blocks", lambda *a: calls.append("evaluate_blocks"))
    monkeypatch.setattr(forms, "random_points",
                        lambda *a, **k: calls.append("random_points"))
    eng = Cohomology(catalog["prime"])
    for e in catalog["entries"]:
        if "construction" in e:
            eng.certify(parse_node(e["construction"], e["n"] + 1, catalog["prime"]))
    assert calls == []
    certs = {node: c for node, c in eng._cert.items() if isinstance(node, (KerNode, QuotNode))}
    assert all(d >= reg for d, reg in certs.values())
    # the three kernels onto a node other than a line sum, once sampled:
    # p3-kernel-onto-cotangent, p4-wedge2-cotangent-3 and
    # p4-rank5-kernel-twist, each onto a kernel; the fourth, a kernel onto
    # the quotient T(1), left with the dual form of
    # p2-c1-5-transform-tangent, which is now a quotient of a line sum
    onto_nodes = [c for node, c in certs.items()
                  if isinstance(node, KerNode) and not isinstance(node.target, LineSum)]
    assert len(onto_nodes) == 3 and any(isinstance(node, QuotNode) for node in certs)


def _mat(m):
    return {"src": list(m.src), "tgt": list(m.tgt),
            "rows": [[format_form(f) for f in row] for row in m.entries]}


def _dual_forms(p):
    """The {"dual": ...} constructions that the catalog once shipped for
    the two entries it now writes as a kernel and as a quotient."""
    d, u = rank5_p4_chain(p)
    rank5 = {"dual": {"quot": {"matrix": _mat(u.dual()), "of": {"ker": {
        "matrix": _mat(d[4].dual()), "onto": {"ker": {"matrix": _mat(d[5].dual())}}}}}}}
    t1 = {"twist": {"by": 2, "of": {"quot": {
        "matrix": {"src": [-1], "tgt": [0, 0, 0], "rows": [["x0"], ["x1"], ["x2"]]},
        "of": {"sum": [0, 0, 0]}}}}}
    m = Cohomology(p).p_transform(parse_node(t1, 3, p)).matrix
    return {"p4-rank5-kernel-twist": rank5,
            "p2-c1-5-transform-tangent": {"dual": {"ker": {"matrix": _mat(m), "onto": t1}}}}


@pytest.mark.parametrize("entry_id, far", [("p2-c1-5-transform-tangent", ()),
                                           ("p4-rank5-kernel-twist", (range(-12, 9),))])
def test_shipped_forms_match_the_dual_forms(catalog, entry_id, far):
    # the kernel and quotient forms have the Chern data and, cell for cell
    # and exactly, the tables of the dual forms they replace, over the
    # verify window and, on P^4, far twists too; each dual form holds a
    # kernel onto a kernel or a quotient, which has no one-step dual, so
    # the parser refuses it, and its table is its inner node's flipped by
    # Serre duality
    p = catalog["prime"]
    entry = next(e for e in catalog["entries"] if e["id"] == entry_id)
    n = entry["n"]
    new = parse_node(entry["construction"], n + 1, p)
    old = _dual_forms(p)[entry_id]
    shape = "kernel" if entry_id == "p4-rank5-kernel-twist" else "quotient"
    with pytest.raises(CatalogError, match=f"no one-step dual of a kernel onto a {shape}$"):
        parse_node(old, n + 1, p)
    inner = parse_node(old["dual"], n + 1, p)
    assert chern_of_node(new) == chern.dual_chern(chern_of_node(inner))
    assert "window" not in entry
    eng = Cohomology(p)
    for window in (default_window(n), *far):
        a, b = serre_flip(eng.table(inner, flipped(window, n))), eng.table(new, window)
        assert a.cells == b.cells
        assert a.exact_columns() == b.exact_columns() == list(window)
