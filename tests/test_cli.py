import json
from pathlib import Path

import pytest

from pnbundles.cli import build_parser, main
from pnbundles.modp import MAX_PRIME

CATALOG = str(Path(__file__).resolve().parents[1] / "catalog" / "catalog.json")


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


# the README's example node
_KERNEL = {"ker": {"matrix": {"src": [2, 2, 2, 1], "tgt": [3],
                              "rows": [["x0", "x1", "x2", "x3^2"]]}}}


@pytest.fixture()
def kernel_node_file(tmp_path):
    return write(tmp_path, "node.json", {"n": 3, "construction": _KERNEL})


def test_chern_command(kernel_node_file, capsys):
    assert main(["chern", kernel_node_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"rank": 3, "c": [4, 6, 2]}


def test_rr_command(capsys):
    assert main(["rr", "--n", "3", "--rank", "1", "--c", "2,0,0", "--l", "0",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == 10


def _catalog_entry(entry_id):
    cat = json.loads(Path(CATALOG).read_text(encoding="utf-8"))
    return next(e for e in cat["entries"] if e["id"] == entry_id)


def _catalog_node_file(tmp_path, entry_id):
    entry = _catalog_entry(entry_id)
    return write(tmp_path, f"{entry_id}.json",
                 {"n": entry["n"], "construction": entry["construction"]})


@pytest.mark.parametrize("entry_id, want", [
    # the transform of wedge^2 of the twisted cotangent bundle on P^4 is
    # p4-cotangent-2's data; on P^5 the rank is h^0 - rank = 15 - 5
    ("p4-wedge2-cotangent-3",
     {"rank": 4, "c": [3, 4, 2, 1], "schwarzenberger": {"ok": True, "residue": 0}}),
    ("p5-cotangent-2", {"rank": 10, "c": [4, 9, 14, 14, 0]}),
])
def test_chern_transform_command(tmp_path, capsys, entry_id, want):
    node = _catalog_node_file(tmp_path, entry_id)
    assert main(["chern", node, "--transform", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_chern_transform_needs_exact_h0(tmp_path, monkeypatch, capsys):
    node = _catalog_node_file(tmp_path, "p4-wedge2-cotangent-3")
    monkeypatch.setattr("pnbundles.cli.Cohomology.h", lambda self, node, i, l: (9, 11))
    assert main(["chern", node, "--transform", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rank of the transform" in captured.err


@pytest.mark.parametrize("n", ["0", "6", "100000"])
def test_rr_command_rejects_n_outside_1_to_5(n, monkeypatch, capsys):
    def no_arithmetic(*args):
        raise AssertionError("Riemann-Roch arithmetic ran")

    monkeypatch.setattr("pnbundles.chern.poly_mul", no_arithmetic)
    assert main(["rr", "--n", n, "--rank", "1", "--c", "0", "--l", "0"]) == 2
    assert "P^1..P^5" in capsys.readouterr().err


def test_rr_command_rejects_huge_n_before_building_chern_data(monkeypatch, capsys):
    # ChernVector.make pads c to n entries, so a huge n must not reach it
    def no_chern_vector(*args):
        raise AssertionError("ChernVector.make ran")

    monkeypatch.setattr("pnbundles.cli.ChernVector.make", no_chern_vector)
    assert main(["rr", "--n", "3000000", "--rank", "1", "--c", "0", "--l", "0"]) == 2
    assert "P^1..P^5" in capsys.readouterr().err


def test_rr_command_on_p5(capsys):
    assert main(["rr", "--n", "5", "--rank", "5", "--c", "4,7,6,3,0", "--l", "0"]) == 0
    assert capsys.readouterr().out.strip() == "chi(E(0)) = 15"


def test_coh_command(kernel_node_file, capsys):
    assert main(["--window=-3:-2", "coh", kernel_node_file, "--json"]) == 0
    cells = {(i, l): h for i, l, h in
             json.loads(capsys.readouterr().out)["cells"]}
    assert cells[(1, -3)] == 1 and cells[(1, -2)] == 1


def test_coh_command_prints_a_table(kernel_node_file, capsys):
    # without --json: one row per h^i, h^n on top, under a row of twists,
    # all right-aligned to one width
    assert main(["--window=-3:-2", "coh", kernel_node_file]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "l:    -3  -2",
        "h^3:   0   0",
        "h^2:   0   0",
        "h^1:   1   1",
        "h^0:   0   0",
    ]


@pytest.mark.parametrize("command", ["chern", "coh"])
def test_tall_kernel_rejected(tmp_path, capsys, command):
    # the kernel of O(-1) -> O^4 would have rank -3
    node = write(tmp_path, "tall.json", {
        "n": 3,
        "construction": {"ker": {"matrix": {
            "src": [-1], "tgt": [0, 0, 0, 0],
            "rows": [["x0"], ["x1"], ["x2"], ["x3"]]}}}})
    assert main([command, node, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "negative rank" in captured.err


def test_coh_rejects_kernel_map_with_zero_row(tmp_path, capsys):
    # O(-1)^4 -> O + O(-10) never reaches O(-10): rejected at once, exit 2
    node = write(tmp_path, "zero_row.json", {
        "n": 3,
        "construction": {"ker": {"matrix": {
            "src": [-1, -1, -1, -1], "tgt": [0, -10],
            "rows": [["x0", "x1", "x2", "x3"], ["0", "0", "0", "0"]]}}}})
    assert main(["coh", node, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "map is not onto the target" in captured.err


def test_gg_command(kernel_node_file, capsys):
    assert main(["--trials", "60", "gg", kernel_node_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generated"] is True


def test_gg_runs_on_a_dual(tmp_path, capsys):
    # a dual is written as a kernel or a quotient, so it has sections: the
    # README kernel's dual twisted by 3 is a quotient of O(1)^3 + O(2)
    node = write(tmp_path, "dual.json",
                 {"n": 3, "construction": {"twist": {"by": 3, "of": {"dual": _KERNEL}}}})
    assert main(["--trials", "60", "gg", node]) == 0
    assert capsys.readouterr().out.startswith("generated-up-to-sampling")


def test_gg_negative_exit_code(tmp_path, capsys):
    node = write(tmp_path, "k.json", {
        "n": 3,
        "construction": {"ker": {"matrix": {
            "src": [2, 2, 1, 1], "tgt": [3],
            "rows": [["x0", "x1", "x2^2", "x3^2"]]}}}})
    rc = main(["--trials", "20", "gg", node, "--json",
               "--hint-line", "0,0,1,0;0,0,0,1"])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["generated"] is False and out["splitting"] == [2, 2, -1]


@pytest.mark.parametrize("trials", ["-5", "0"])
@pytest.mark.parametrize("command", ["gg", "catalog"])
def test_non_positive_trials_exit_code(kernel_node_file, monkeypatch, capsys,
                                       command, trials):
    # a sampled verdict on no sampled point is an input error, not a verdict
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with no trials")

    monkeypatch.setattr("pnbundles.catalog.verify_all", no_sampling)
    monkeypatch.setattr("pnbundles.cli.is_globally_generated", no_sampling)
    argv = (["gg", kernel_node_file] if command == "gg"
            else ["catalog", "verify", CATALOG])
    assert main(argv + ["--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--trials must be at least 1, got {trials}" in captured.err


def test_splits_command(tmp_path, capsys):
    node = write(tmp_path, "k.json", {
        "n": 3,
        "construction": {"ker": {"matrix": {
            "src": [2, 2, 1, 1], "tgt": [3],
            "rows": [["x0", "x1", "x2^2", "x3^2"]]}}}})
    assert main(["splits", node, "--line", "0,0,1,0;0,0,0,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["splitting"] == [2, 2, -1]
    # a quotient of a line sum, T(-1) = O^4/O(-1), has the negated type of
    # its dual kernel; a monad, a quotient of a kernel, is an input error
    tangent = write(tmp_path, "t.json", {"n": 3, "construction": {"quot": {
        "matrix": {"src": [-1], "tgt": [0, 0, 0, 0],
                   "rows": [["x0"], ["x1"], ["x2"], ["x3"]]},
        "of": {"sum": [0, 0, 0, 0]}}}})
    assert main(["splits", tangent, "--line", "1,0,0,0;0,1,0,0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["splitting"] == [1, 0, 0]
    entry = next(e for e in json.loads(Path(CATALOG).read_text())["entries"]
                 if e["id"] == "p3-monad-rank6")
    monad = write(tmp_path, "m.json", {"n": 3, "construction": entry["construction"]})
    assert main(["splits", monad, "--line", "1,0,0,0;0,1,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "input error: splitting types are computed for line sums, kernels, "
        "quotients of line sums and sums of these\n")


def test_spectra_commands(capsys):
    assert main(["spectra", "--c2", "2", "--kmin", "-2", "--kmax", "1",
                 "--c3-nonneg", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, out["spectra"])) == [(-1, -1), (0, -1), (0, 0)]
    assert main(["spectra", "--spectrum", "0,0,-1", "--h1", "-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["h1"] == 2


def test_classify_pencil_command(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    mfile.write_text("x0, x1, x2, 0\n0, x0, x1, x2\n", encoding="utf-8")
    assert main(["classify-pencil", str(mfile), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tag"] == "case-6" and out["coker_degree"] == 1


def test_cb_and_edges_commands(tmp_path, capsys):
    pts = write(tmp_path, "pts.json",
                {"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]})
    assert main(["cb", "--points", pts, "--degree", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cayley_bacharach"] is True
    zf = write(tmp_path, "z.json", {"points": [[1, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 1]]})
    assert main(["edges", "--line", "1,2,3,4;4,1,2,3", "--points", zf,
                 "--json"]) == 0
    assert "avoids_edges" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("points", [[], [[1, 0], [0, 1]],
                                    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]],
                         ids=["empty", "two-coordinates", "four-coordinates"])
def test_cb_rejects_points_not_in_p2(tmp_path, capsys, points):
    pts = write(tmp_path, "pts.json", {"points": points})
    assert main(["cb", "--points", pts, "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_beilinson_command(tmp_path, capsys):
    cells = [[i, l, 0] for i in range(4) for l in range(-4, 2)]
    table = {"n": 3, "cells": cells}
    for trip in table["cells"]:
        if trip[0] == 1 and trip[1] == -1:
            trip[2] = 3
        if trip[0] == 1 and trip[1] == 0:
            trip[2] = 5
        if trip[0] == 2 and trip[1] == -3:
            trip[2] = 1
    tfile = write(tmp_path, "table.json", table)
    assert main(["beilinson", tfile]) == 0
    assert "Om^3(3) -> Om^1(1)^3 -> O^5" in capsys.readouterr().out


def test_liaison_command(tmp_path, capsys):
    res = write(tmp_path, "res.json", {
        "n": 2,
        "terms": [[0], [-1, -1], [-2]],
        "diffs": [{"src": [-1, -1], "tgt": [0], "rows": [["x1", "x2"]]},
                  {"src": [-2], "tgt": [-1, -1], "rows": [["-x2"], ["x1"]]}]})
    assert main(["liaison", res, "--a", "x1*x2", "--b", "x1^2 - x0*x2",
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["terms"][1]) == [2, 2, 2]
    assert out["inner_exact_on_window"] is True


def test_catalog_verify_subset(tmp_path, capsys):
    cat = json.loads(Path(CATALOG).read_text(encoding="utf-8"))
    cat["entries"] = [e for e in cat["entries"]
                      if e["id"] in ("p3-line-4", "p2-c2-5-split")]
    cfile = write(tmp_path, "cat.json", cat)
    assert main(["--trials", "30", "catalog", "verify", cfile]) == 0
    # corrupt an expectation: exit code flips to 1
    cat["entries"][0]["expected"]["chern"]["rank"] = 99
    cfile2 = write(tmp_path, "cat2.json", cat)
    assert main(["--trials", "30", "catalog", "verify", cfile2]) == 1


def test_input_error_exit_code(tmp_path):
    assert main(["chern", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, "bad.json", {"n": 3, "construction": {"nope": 1}})
    assert main(["chern", bad]) == 2


_POINTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
# the engine's kernel and quotient cells are wrong on P^1, and n is an
# integer, not a float or a bool read as 1
_P1_NODES = {
    "p1-kernel": {"n": 1, "construction": {"ker": {"matrix": {
        "src": [0, 0], "tgt": [1], "rows": [["x0", "x1"]]}}}},
    "p1-quotient": {"n": 1, "construction": {"quot": {
        "matrix": {"src": [-1], "tgt": [0, 0], "rows": [["x0"], ["x1"]]},
        "of": {"sum": [0, 0]}}}},
    "n-float": {"n": 1.5, "construction": {"sum": [0, 1]}},
    "n-bool": {"n": True, "construction": {"sum": [0, 1]}},
}
_CELLS = [[0, 0, 1]]
_DIFF = {"src": [-1], "tgt": [0], "rows": [["x0"]]}
_LINE = "1,2,3,4;4,1,2,3"


@pytest.mark.parametrize("args, payload", [
    (["chern", "{}"], [1, 2]),
    (["coh", "{}"], "node"),
    (["gg", "{}"], 3),
    (["splits", "{}", "--line", _LINE], None),
    (["beilinson", "{}"], {"cells": _CELLS}),
    (["beilinson", "{}"], {"n": 2}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"], {"terms": [[0]], "diffs": [_DIFF]}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"],
     {"n": None, "terms": [[0]], "diffs": [_DIFF]}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"], {"n": 2, "diffs": [_DIFF]}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"], {"n": 2, "terms": [[0]]}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"],
     {"n": 2, "terms": [[0]], "diffs": [{"src": [-1], "tgt": [0]}]}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"],
     {"n": 2, "terms": [[0], [-1, -1]],
      "diffs": [{"src": [-1, -1], "tgt": [0], "rows": [[1, 2]]}]}),
    (["liaison", "{}", "--a", "x0", "--b", "x1"], {"n": 2, "terms": 5, "diffs": [_DIFF]}),
    (["cb", "--points", "{}", "--degree", "2"], {"pts": _POINTS}),
    (["cb", "--points", "{}", "--degree", "2"], {"points": [[1, 0, 0], 5]}),
    (["cb", "--points", "{}", "--degree", "2"], {"points": [[1, None, 0]]}),
    (["edges", "--points", "{}", "--line", _LINE], {"pts": _POINTS}),
    (["edges", "--points", "{}", "--line", _LINE], {"points": [1, 2, 3, 4]}),
    (["spectra"], None),
    (["spectra", "--spectrum", "0,0"], None),
    *[([cmd, "{}"], node) for cmd in ("chern", "coh") for node in _P1_NODES.values()],
], ids=["chern-list", "coh-string", "gg-number", "splits-null", "beilinson-no-n",
        "beilinson-no-cells", "liaison-no-n", "liaison-null-n", "liaison-no-terms", "liaison-no-diffs",
        "liaison-diff-no-rows", "liaison-rows-of-numbers", "liaison-terms-number",
        "cb-no-points", "cb-point-not-list", "cb-null-coordinate",
        "edges-no-points", "edges-point-not-list", "spectra-no-c2",
        "spectra-spectrum-alone",
        *[f"{cmd}-{name}" for cmd in ("chern", "coh") for name in _P1_NODES]])
def test_malformed_input_exits_2(tmp_path, capsys, args, payload):
    # exit 1 means a failed verification; bad input is exit 2, no traceback
    path = write(tmp_path, "input.json", payload)
    assert main([path if a == "{}" else a for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err


_ROW = {"src": [0, 0], "tgt": [1], "rows": [["x0", "x1"]]}


@pytest.mark.parametrize("construction", [
    {"ker": 5},
    {"ker": {"onto": {"sum": [1]}}},
    {"ker": {"matrix": {**_ROW, "rows": 7}}},
    {"ker": {"matrix": {**_ROW, "rows": [[0, 1]]}}},
    {"ker": {"matrix": {**_ROW, "src": 0}}},
    {"ker": {"matrix": {"src": [0, 0], "tgt": [1]}}},
    {"quot": {"matrix": 3, "of": {"sum": [0, 0]}}},
    {"quot": {"matrix": _ROW}},
    {"dsum": 4},
    {"dsum": []},
    {"sum": 5},
    {"sum": [[1]]},
    {"sum": [1.5]},
    {"sum": [True]},
    {"twist": 3},
    {"twist": {"by": [1], "of": {"sum": [1]}}},
    {"twist": {"by": float("inf"), "of": {"sum": [1]}}},
    # a kernel onto a kernel: its dual has no one-step presentation
    {"dual": _catalog_entry("p3-kernel-onto-cotangent")["construction"]},
], ids=["ker-number", "ker-no-matrix", "rows-number", "rows-of-numbers", "src-number",
        "matrix-no-rows", "quot-matrix-number", "quot-no-of", "dsum-number", "dsum-empty",
        "sum-number", "sum-nested", "sum-float", "sum-bool", "twist-number",
        "twist-by-list", "twist-by-infinity", "dual-of-kernel-onto-kernel"])
@pytest.mark.parametrize("command", ["chern", "coh"])
def test_malformed_construction_exits_2(tmp_path, capsys, command, construction):
    # a construction body of the wrong shape is an input error, caught by
    # the parser, not a traceback from inside it
    path = write(tmp_path, "node.json", {"n": 3, "construction": construction})
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err
    if "dual" in construction:
        assert "no one-step dual of a kernel onto a kernel" in captured.err


def test_line_sum_on_p1_keeps_its_cells(tmp_path, capsys):
    # O(-1) + O(2) on P^1: h^0(O(a)) = a + 1 for a >= 0, h^1(O(a)) = -a - 1
    path = write(tmp_path, "node.json", {"n": 1, "construction": {"sum": [-1, 2]}})
    assert main(["coh", path, "--window=-3:1", "--json"]) == 0
    cells = {(i, l): h for i, l, h in json.loads(capsys.readouterr().out)["cells"]}
    assert [cells[(0, l)] for l in range(-3, 2)] == [0, 1, 2, 3, 5]
    assert [cells[(1, l)] for l in range(-3, 2)] == [3, 2, 1, 0, 0]


def test_cb_answers_high_degree_at_once(tmp_path, monkeypatch, capsys):
    # three points fail from degree 2 on, decided with no value matrix
    def refuse(*args):
        raise AssertionError("value matrix built")

    monkeypatch.setattr("pnbundles.geometry.monomial_values", refuse)
    pts = write(tmp_path, "pts.json", {"points": _POINTS})
    assert main(["cb", "--points", pts, "--degree", "1000000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"cayley_bacharach": False}
    assert main(["cb", "--points", pts, "--degree", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "True"


def test_catalog_verify_explicit_default_prime(tmp_path, monkeypatch, capsys):
    # an explicit --prime equal to the default must override the file's prime
    seen = []

    class Report:
        ok = True

        def render(self):
            return ""

    def fake_verify_all(catalog, trials, seed, prime):
        seen.append(prime)
        return Report()

    monkeypatch.setattr("pnbundles.catalog.verify_all", fake_verify_all)
    cfile = write(tmp_path, "cat.json", {"prime": 101, "entries": []})
    assert main(["catalog", "verify", cfile, "--prime", "32003"]) == 0
    assert main(["catalog", "verify", cfile]) == 0
    assert seen == [32003, None]


COMMON = ["--prime", "5", "--seed", "7", "--trials", "60", "--window=-3:-2", "--json"]


@pytest.mark.parametrize("command", [["gg", "node.json"], ["catalog", "verify"]])
@pytest.mark.parametrize("before", [True, False])
def test_common_options_either_side_of_subcommand(command, before):
    argv = COMMON + command if before else command + COMMON
    args = build_parser().parse_args(argv)
    assert (args.prime, args.seed, args.trials, args.window, args.json) == \
        (5, 7, 60, "-3:-2", True)
    args = build_parser().parse_args(command)
    assert (args.prime, args.seed, args.trials, args.window, args.json) == \
        (None, 90021, 500, "", False)


def test_prime_above_max_exit_code(capsys):
    rr = ["rr", "--n", "2", "--rank", "1", "--c", "1,0", "--json"]
    assert main(["--prime", str(MAX_PRIME)] + rr) == 0
    assert main(["--prime", "33554467"] + rr) == 2  # the next prime
    assert "largest supported prime" in capsys.readouterr().err
