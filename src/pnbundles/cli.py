"""Command-line interface.

Subcommands mirror the library layers: chern / rr / coh / gg / splits for
bundle data, spectra and classify-pencil for the combinatorial
classifiers, cb / edges for incidence predicates, beilinson for monad
shapes, liaison for the residual-resolution construction, and catalog
verify for the full golden-data run.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as cat
from .chern import (ChernVector, check_rr_dim, p_chern, rr_chi,
                    schwarzenberger_ok)
from .complexes import FreeComplex, ferrand_liaison, verify_exact
from .exterior import InsufficientTable, beilinson_terms
from .forms import parse_form
from .geometry import (LineParam, cayley_bacharach, edge_avoidance,
                       is_globally_generated, splitting_type_on_line)
from .modp import DEFAULT_PRIME, MAX_PRIME, check_prime
from .pencil import classify, linear_matrix_2x4
from .sheaves import CohTable, Cohomology, chern_of_node, is_exact_cell
from .spectra import (Spectrum, c3_from_spectrum, enumerate_spectra,
                      h1_from_spectrum, h2_from_spectrum)

DEFAULT_CATALOG = Path(__file__).resolve().parents[2] / "catalog" / "catalog.json"


class InputError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _fields(data, path, *keys):
    """[data[key] for each key]; InputError unless data is a JSON object
    that has them all."""
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"{path} needs the field(s) {', '.join(map(repr, missing))}")
    return [data[k] for k in keys]


def _node_from_file(path, prime):
    data = _load_json(path)
    _fields(data, path)
    n = data.get("n")
    if n is None:
        raise InputError("node file needs a top-level 'n'")
    expr = data.get("construction", data.get("node"))
    if expr is None:
        raise InputError("node file needs a 'construction' object")
    try:
        n = cat._int("the node file's 'n'", n)
        return cat.parse_node(expr, n + 1, prime), n
    except cat.CatalogError as exc:
        raise InputError(str(exc)) from None


def _parse_line(text, nvars, prime):
    try:
        a, b = text.split(";")
        pa = tuple(int(v) for v in a.split(","))
        pb = tuple(int(v) for v in b.split(","))
        if len(pa) != nvars or len(pb) != nvars:
            raise ValueError("wrong coordinate count")
        return LineParam.make(pa, pb, prime)
    except ValueError as exc:
        raise InputError(f"bad line argument {text!r}: {exc}") from None


def _parse_window(text):
    if not text:
        return None
    try:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise InputError(f"bad window {text!r}, expected LO:HI") from None


def _check_trials(trials):
    """A sampled verdict rests on at least one sampled point."""
    if trials < 1:
        raise InputError(f"--trials must be at least 1, got {trials}")


def _points_from_file(path):
    data = _load_json(path)
    pts = _fields(data, path, "points")[0] if isinstance(data, dict) else data
    if not isinstance(pts, list) or not all(isinstance(q, list) for q in pts):
        raise InputError(f"{path}: points must be a list of coordinate lists")
    try:
        return [tuple(int(v) for v in q) for q in pts]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad coordinate: {exc}") from None


def cmd_chern(args):
    node, n = _node_from_file(args.node, args.prime)
    cv = chern_of_node(node)
    if args.transform:
        # P(E) has rank h^0(E) - rank(E); p_chern gives only its classes
        h0 = Cohomology(p=args.prime).h(node, 0, 0)
        if not is_exact_cell(h0):
            raise InputError(f"h^0(E) is only bounded, in {h0}; "
                             "the rank of the transform is not determined")
        cv = ChernVector.make(n, int(h0) - cv.rank, p_chern(cv).c)
    out = {"rank": cv.rank, "c": list(cv.c)}
    if n == 4:
        ok, res = schwarzenberger_ok(cv)
        out["schwarzenberger"] = {"ok": ok, "residue": res}
    print(json.dumps(out) if args.json else
          f"rank {cv.rank}; c = {list(cv.c)}" +
          ("" if n != 4 else f"; congruence residue {out['schwarzenberger']['residue']}"))
    return 0


def cmd_rr(args):
    c = [int(v) for v in args.c.split(",")] if args.c else []
    cv = ChernVector.make(check_rr_dim(args.n), args.rank, c)
    chi = rr_chi(cv, args.l)
    print(json.dumps({"chi": chi}) if args.json else f"chi(E({args.l})) = {chi}")
    return 0


def cmd_coh(args):
    node, n = _node_from_file(args.node, args.prime)
    eng = Cohomology(p=args.prime)
    table = eng.table(node, _parse_window(args.window))
    if args.json:
        cells = [[i, l, table.h(i, l)] for (i, l) in sorted(table.cells)]
        print(json.dumps({"n": n, "cells": cells}, default=str))
    else:
        print(table.render())
    return 0


def cmd_gg(args):
    _check_trials(args.trials)
    node, n = _node_from_file(args.node, args.prime)
    hint_lines = [_parse_line(t, n + 1, args.prime) for t in args.hint_line or []]
    verdict = is_globally_generated(node, trials=args.trials, seed=args.seed,
                                    hint_lines=hint_lines,
                                    eng=Cohomology(p=args.prime))
    out = {"generated": verdict.generated, "tag": verdict.tag,
           "trials": verdict.trials, "seed": verdict.seed}
    if verdict.witness_line is not None:
        out["witness_line"] = [list(verdict.witness_line.a),
                               list(verdict.witness_line.b)]
        out["splitting"] = verdict.witness_splitting
    if verdict.witness_point is not None:
        out["witness_point"] = list(verdict.witness_point)
    print(json.dumps(out) if args.json else
          f"{verdict.tag} (trials={verdict.trials}, seed={verdict.seed})"
          + ("" if verdict.generated else f"  witness: {out.get('witness_line') or out.get('witness_point')}"))
    ok = (not verdict.generated) if args.expect_negative else verdict.generated
    return 0 if ok else 1


def cmd_splits(args):
    node, n = _node_from_file(args.node, args.prime)
    line = _parse_line(args.line, n + 1, args.prime)
    st = splitting_type_on_line(node, line)
    print(json.dumps({"splitting": st}) if args.json else f"splitting type {st}")
    return 0


def cmd_cb(args):
    pts = _points_from_file(args.points)
    ok = cayley_bacharach(pts, args.degree, args.prime)
    print(json.dumps({"cayley_bacharach": ok}) if args.json else str(ok))
    return 0


def cmd_edges(args):
    line = _parse_line(args.line, 4, args.prime)
    pts = _points_from_file(args.points)
    ok = edge_avoidance(line, pts, args.prime)
    print(json.dumps({"avoids_edges": ok}) if args.json else str(ok))
    return 0


def cmd_spectra(args):
    if args.h1 is not None or args.h2 is not None:
        if not args.spectrum:
            raise InputError("--h1/--h2 need --spectrum")
        s = Spectrum.make(int(v) for v in args.spectrum.split(","))
        out = {}
        if args.h1 is not None:
            out["h1"] = h1_from_spectrum(s, args.h1)
        if args.h2 is not None:
            out["h2"] = h2_from_spectrum(s, args.h2)
        out["c3"] = c3_from_spectrum(s)
        print(json.dumps(out) if args.json else out)
        return 0
    if args.c2 is None:
        raise InputError("spectra needs --c2, or --spectrum with --h1/--h2")
    specs = enumerate_spectra(args.c2, args.kmin, args.kmax,
                              spectrum2=args.spectrum2, symmetric=args.symmetric,
                              c3_nonneg=args.c3_nonneg,
                              exclude_ge_1=args.exclude_ge_1)
    if args.json:
        print(json.dumps({"count": len(specs),
                          "spectra": [list(s.k) for s in specs]}))
    else:
        for s in specs:
            print(f"{s}  c3 = {c3_from_spectrum(s)}")
        print(f"{len(specs)} spectra")
    return 0


def cmd_classify_pencil(args):
    with open(args.matrix, "r", encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) != 2 or any(len(r) != 4 for r in rows):
        raise InputError("expected two rows of four comma-separated linear forms")
    m = linear_matrix_2x4([[s.strip() for s in r] for r in rows], args.prime)
    cl = classify(m)
    out = {"tag": cl.tag}
    if cl.partition is not None:
        out["partition"] = cl.partition
    if cl.coker_degree is not None:
        out["coker_degree"] = cl.coker_degree
    out["degeneracy"] = cl.degeneracy
    if cl.canonical is not None:
        out["canonical"] = [[str(f) for f in row] for row in cl.canonical.entries]
    if cl.minor_ideal:
        out["minor_ideal"] = cl.minor_ideal
    print(json.dumps(out) if args.json else
          "\n".join(f"{k}: {v}" for k, v in out.items()))
    return 0


def cmd_beilinson(args):
    n, cells = _fields(_load_json(args.table), args.table, "n", "cells")
    try:
        n = int(n)
        cells = {(int(i), int(l)): int(h) for i, l, h in cells}
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.table}: bad n or cells: {exc}") from None
    ls = [l for (_, l) in cells]
    table = CohTable(n, min(ls), max(ls), cells)
    try:
        shape = beilinson_terms(table, n)
    except InsufficientTable as exc:
        raise InputError(str(exc)) from None
    if args.json:
        print(json.dumps({"terms": [[p, list(map(list, t))]
                                    for p, t in shape.terms]}))
    else:
        print(shape.render())
    return 0


def cmd_liaison(args):
    path = args.resolution
    n, terms, diffs = _fields(_load_json(path), path, "n", "terms", "diffs")
    if not isinstance(terms, list) or not isinstance(diffs, list):
        raise InputError(f"{path}: 'terms' and 'diffs' must be lists")
    try:
        nvars = cat._int("n", n) + 1
        terms = [cat._ints("a term", t) for t in terms]
        diffs = [cat.parse_matrix(d, nvars, args.prime) for d in diffs]
    except cat.CatalogError as exc:
        raise InputError(f"{path}: {exc}") from None
    res = FreeComplex.make(nvars, 0, terms, diffs, args.prime)
    a = parse_form(args.a, nvars, args.prime)
    b = parse_form(args.b, nvars, args.prime)
    out = ferrand_liaison(res, a, b)
    rep = verify_exact(out, range(0, 7), positions=[1])
    payload = {
        "terms": [list(out.term(k)) for k in out.positions()],
        "diffs": [{"src": list(d.src), "tgt": list(d.tgt),
                   "rows": [[str(f) for f in row] for row in d.entries]}
                  for d in out.diffs],
        "inner_exact_on_window": rep.is_exact(),
    }
    print(json.dumps(payload) if args.json else
          json.dumps(payload, indent=2))
    return 0


def cmd_catalog(args):
    if args.action != "verify":
        raise InputError(f"unknown catalog action {args.action!r}")
    _check_trials(args.trials)
    path = args.file or DEFAULT_CATALOG
    catalog = cat.load_catalog(path)
    report = cat.verify_all(catalog, trials=args.trials, seed=args.seed,
                            prime=args.prime if args.prime_set else None)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pnbundles",
                                 description=__doc__.splitlines()[0])
    ap.set_defaults(seed=90021, trials=500, window="")
    # The subcommands take the same options without defaults, so that they
    # keep what was given before the subcommand name.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    for parser in (ap, common):
        parser.add_argument("--prime", type=int,
                            help=f"odd prime at most {MAX_PRIME} for all exact "
                                 f"arithmetic (default {DEFAULT_PRIME}; catalog "
                                 "verify defaults to the file's own prime)")
        parser.add_argument("--seed", type=int)
        parser.add_argument("--trials", type=int)
        parser.add_argument("--window", type=str)
        parser.add_argument("--json", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("chern", help="Chern data of a node file")
    s.add_argument("node")
    s.add_argument("--transform", action="store_true",
                   help="apply the kernel-of-evaluation transform formula")
    s.set_defaults(func=cmd_chern)

    s = add_parser("rr", help="Euler characteristic from Chern data")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--c", type=str, required=True)
    s.add_argument("--l", type=int, default=0)
    s.set_defaults(func=cmd_rr)

    s = add_parser("coh", help="cohomology table of a node file")
    s.add_argument("node")
    s.set_defaults(func=cmd_coh)

    s = add_parser("gg", help="global generation with sampling")
    s.add_argument("node")
    s.add_argument("--hint-line", action="append")
    s.add_argument("--expect-negative", action="store_true")
    s.set_defaults(func=cmd_gg)

    s = add_parser("splits", help="splitting type on a line")
    s.add_argument("node")
    s.add_argument("--line", required=True, help="a0,a1,..;b0,b1,..")
    s.set_defaults(func=cmd_splits)

    s = add_parser("cb", help="Cayley-Bacharach test for plane points")
    s.add_argument("--points", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.set_defaults(func=cmd_cb)

    s = add_parser("edges", help="tetrahedron edge avoidance")
    s.add_argument("--line", required=True)
    s.add_argument("--points", required=True)
    s.set_defaults(func=cmd_edges)

    s = add_parser("spectra", help="enumerate or evaluate spectra")
    s.add_argument("--c2", type=int)
    s.add_argument("--kmin", type=int, default=-3)
    s.add_argument("--kmax", type=int, default=1)
    s.add_argument("--spectrum2", action="store_true")
    s.add_argument("--symmetric", action="store_true")
    s.add_argument("--c3-nonneg", dest="c3_nonneg", action="store_true")
    s.add_argument("--exclude-ge-1", dest="exclude_ge_1", action="store_true")
    s.add_argument("--spectrum", type=str)
    s.add_argument("--h1", type=int)
    s.add_argument("--h2", type=int)
    s.set_defaults(func=cmd_spectra)

    s = add_parser("classify-pencil", help="classify a 2x4 matrix of linear forms")
    s.add_argument("matrix", help="text file: two comma-separated rows")
    s.set_defaults(func=cmd_classify_pencil)

    s = add_parser("beilinson", help="monad shape from a table file")
    s.add_argument("table")
    s.set_defaults(func=cmd_beilinson)

    s = add_parser("liaison", help="residual resolution of a link")
    s.add_argument("resolution")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.set_defaults(func=cmd_liaison)

    s = add_parser("catalog", help="catalog operations")
    s.add_argument("action", choices=["verify"])
    s.add_argument("file", nargs="?")
    s.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.prime_set = args.prime is not None
    if not args.prime_set:
        args.prime = DEFAULT_PRIME
    try:
        check_prime(args.prime)
        return args.func(args)
    except (ValueError, OSError) as exc:  # InputError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
