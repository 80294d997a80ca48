"""Benchmark of pnbundles: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload catalog-verify --seed 1 --seconds 40 --trace 0

Each pass runs in a fresh interpreter (bench/worker.py) with the package
taken from ./src; passes run one after another until --seconds is used up.
Every op's output is checked here against references that this file
computes itself, outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the medians over passes of setup_s, pass_s and
peak_rss_mb; with --trace 1 passes alternate untraced and traced, and the
metrics are the per-layer medians over the traced passes.  Results and
the spans of the first traced pass are written under bench/out/.
"""

from __future__ import annotations

import argparse
import base64
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CATALOG = ROOT / "catalog" / "catalog.json"

WORKLOADS = ("catalog-verify", "gg-sampling", "cb-sweep")

# catalog-verify: the documented `pnbundles catalog verify` defaults.
VERIFY_TRIALS = 500
VERIFY_SEED = 90021
# gg-sampling: sample points per op.
GG_TRIALS = 2000
# gg-sampling ops that fail every time at a fixed seed, because of a fault
# in the package (see CHANGES.md).  They run at that seed, not at a fresh
# one: they fail at some fresh seeds only, and a run must fail the same
# share of its ops whatever --seed is.  They count in `failed`, not against
# `correct`.
GG_KNOWN_FAULTS = {"p3-instanton4-instance": 165521390}
# cb-sweep, derived from the acceptance suite (tests/test_acceptance.py).
CB_Q = 5
# Cayley-Bacharach ops: every configuration of 1 to 6 points of a seeded
# 10-point pool, at d = 1 and at d = 2, as the suite's quadratic comparison
# does at d = 2.
CB_POOL = 10
CB_MAX_POINTS = 6
# batched_rank ops: the suite's exhaustive F_5 sweep covers every k-subset
# of the 31 points, k = 1..6, in chunks of 40000, and calls batched_rank on
# each chunk and on its k all-but-one sub-stacks.  A pass makes the same
# 28 chunks and 177 calls, each chunk a quarter of its size in the suite,
# on seeded random k-subsets.
SWEEP_MAX_POINTS = 6
SWEEP_CHUNK = 40000
SWEEP_SCALE = 4

# A pass that takes longer is killed and counts all its ops as failed.
PASS_TIMEOUT_S = 60
# One BLAS thread, no hash randomisation: fewer sources of drift.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = [f"{m}.self_s" for m in MODULES] + [
    "modp.rref.calls", "modp.rref.self_s", "modp.rref.cells",
    "modp.rref.max_cells", "modp.rref.repeat_calls",
    "modp.kernel_basis.calls", "modp.kernel_basis.self_s",
    "modp.rank.calls",
    "modp.batched_rank.calls", "modp.batched_rank.self_s",
    "modp.batched_rank.matrices",
    "modp.solve.calls", "modp.extend_to_complement.self_s",
    "sheaves.certify.self_s", "sheaves.values.calls",
    "sheaves.values.distinct_keys",
    "sheaves.map_rank_into.calls", "sheaves.map_rank_into.self_s",
    "sheaves.kernel_into.calls", "sheaves.kernel_into.self_s",
    "sheaves.table.self_s",
    "graded.graded_piece.calls", "graded.graded_piece.self_s",
    "graded.graded_piece.cells", "graded.evaluate.calls",
    "graded.evaluate.self_s", "graded.compose.self_s",
    "graded.hn_matrix.self_s",
    "forms.random_points.calls", "forms.random_points.self_s",
    "forms.random_points.points", "forms.random_points.repeat_calls",
    "forms.parse_form.self_s", "forms.multiplication_matrix.self_s",
    "idealtests.epi_certificate.calls", "idealtests.epi_certificate.self_s",
    "geometry.is_globally_generated.self_s",
    "geometry.gg_of_raw_kernel.self_s",
    "geometry.splitting_type_on_line.self_s",
    "geometry.cayley_bacharach.calls", "geometry.cayley_bacharach.self_s",
    "catalog.verify_entry.calls", "catalog.parse_node.self_s",
    "pencil.classify.self_s",
]


def layer_unit(name: str) -> str:
    return "s" if name.endswith("self_s") else "count"


# -- inputs ------------------------------------------------------------------

def plane_points(q: int) -> np.ndarray:
    """The q^2+q+1 points of P^2(F_q), first nonzero coordinate 1."""
    pts = [v for v in itertools.product(range(q), repeat=3)
           if any(v) and v[next(i for i, c in enumerate(v) if c)] == 1]
    return np.array(pts, dtype=np.int64)


def load_catalog_raw() -> dict:
    with open(CATALOG, encoding="utf-8") as fh:
        return json.load(fh)


def gg_entries(catalog: dict) -> list[str]:
    return [e["id"] for e in catalog["entries"]
            if e.get("expected", {}).get("gg", "").startswith("generated")]


def sweep_chunks(smoke: bool) -> list[tuple[int, int]]:
    """(k, matrices) per chunk of a pass's batched_rank sweep."""
    if smoke:
        return [(k, 50) for k in range(1, SWEEP_MAX_POINTS + 1)]
    chunks = []
    for k in range(1, SWEEP_MAX_POINTS + 1):
        n = math.comb(CB_Q * CB_Q + CB_Q + 1, k)
        chunks += [(k, -(-min(SWEEP_CHUNK, n - s) // SWEEP_SCALE))
                   for s in range(0, n, SWEEP_CHUNK)]
    return chunks


def make_request(workload: str, seed: int, smoke: bool) -> tuple[dict, dict | None]:
    """The pass's inputs, a function of the workload and seed alone, and
    the references its outputs are checked against."""
    req = {"workload": workload, "catalog": str(CATALOG)}
    if workload == "catalog-verify":
        catalog = load_catalog_raw()
        ids = [e["id"] for e in catalog["entries"]]
        # smoke: one sheaf entry and one pencil entry
        req.update(trials=VERIFY_TRIALS, verify_seed=VERIFY_SEED,
                   entries=[ids[0], ids[-1]] if smoke else None)
        return req, None
    if workload == "gg-sampling":
        ids = gg_entries(load_catalog_raw())
        if smoke:
            ids = ids[:3] + [i for i in ids if i in GG_KNOWN_FAULTS]
        seeds = [GG_KNOWN_FAULTS.get(eid) or
                 int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
                 for i, eid in enumerate(ids)]
        if len(set(seeds)) != len(seeds):
            raise RuntimeError("op seeds collide; choose another --seed")
        req.update(trials=GG_TRIALS, ops=list(zip(ids, seeds)))
        return req, None
    rng = np.random.default_rng([seed, 5])
    plane = plane_points(CB_Q)
    # cayley_bacharach: all subsets of a seeded pool, each point given as a
    # random nonzero multiple of its representative
    pool = rng.choice(len(plane), size=CB_POOL, replace=False)
    scaled = plane[pool] * rng.integers(1, CB_Q, size=(CB_POOL, 1)) % CB_Q
    top = 3 if smoke else CB_MAX_POINTS
    subsets = [list(c) for k in range(1, top + 1)
               for c in itertools.combinations(range(CB_POOL), k)]
    cb = [[scaled[c].tolist(), d] for d in (1, 2) for c in subsets]
    cb_idx = [pool[c].tolist() for _ in (1, 2) for c in subsets]
    # batched_rank: a plane pool of random nonzero multiples, and per chunk
    # the indices of k distinct points for each matrix
    sweep_pool = plane * rng.integers(1, CB_Q, size=(len(plane), 1)) % CB_Q
    chunks = []
    for k, m in sweep_chunks(smoke):
        idx = np.argsort(rng.random((m, len(plane))), axis=1)[:, :k]
        chunks.append(idx.astype(np.int8))
    req.update(q=CB_Q, cb=cb, sweep_pool=sweep_pool.tolist(),
               chunks=[[c.shape[0], c.shape[1], base64.b64encode(c.tobytes()).decode()]
                       for c in chunks])
    return req, {"cb": cb_verdicts(cb, cb_idx),
                 "ranks": [sweep_ranks(c) for c in chunks]}


# -- references (computed here, never by the package) --------------------------

def vanishing_masks(q: int, d: int, pool: np.ndarray) -> np.ndarray:
    """For every degree-d form over F_q (all q^m coefficient vectors), the
    bitmask of the pool points where it vanishes."""
    expos = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    monos = np.stack([np.prod(pool ** np.array(e), axis=1) % q for e in expos],
                     axis=1)                              # points x m
    coeffs = np.array(list(itertools.product(range(q), repeat=len(expos))),
                      dtype=np.int64)                     # q^m x m
    zero = (coeffs @ monos.T % q) == 0                    # q^m x points
    return (zero.astype(np.int64) << np.arange(pool.shape[0])).sum(axis=1)


def count_through(vanish: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Number of forms vanishing on every point of each mask."""
    out = np.zeros(len(masks), dtype=np.int64)
    for v in vanish:
        out += (v & masks) == masks
    return out


def cb_verdicts(cb: list, cb_idx: list) -> list[bool]:
    """Expected cayley_bacharach verdicts, by enumeration of all forms over
    F_5: a configuration has the property when every form through all but
    one of its points also passes through the last one.

    cb_idx gives each configuration as indices into plane_points(5)."""
    pool = plane_points(CB_Q)
    bit = 1 << np.arange(pool.shape[0], dtype=np.int64)
    verdicts = [False] * len(cb)
    for d in (1, 2):
        vanish = vanishing_masks(CB_Q, d, pool)
        ops = [(i, idx) for i, idx in enumerate(cb_idx) if cb[i][1] == d]
        full, rest = [], []
        for _, idx in ops:
            m = int(bit[idx].sum())
            full.append(m)
            rest.extend(m & ~int(bit[j]) for j in idx)
        n_full = count_through(vanish, np.array(full, dtype=np.int64))
        n_rest = count_through(vanish, np.array(rest, dtype=np.int64))
        off = 0
        for (i, idx), nf in zip(ops, n_full):
            verdicts[i] = bool((n_rest[off:off + len(idx)] == nf).all())
            off += len(idx)
    return verdicts


def sweep_ranks(idx: np.ndarray) -> list[np.ndarray]:
    """Expected ranks of one chunk's batched_rank calls: the full stack,
    then the stack without point j for each j.

    The points of a configuration span a subspace of rank r exactly when
    5^(3-r) linear forms vanish on all of them.  Those forms are the zero
    form and the 4 nonzero multiples of each line of P^2(F_5) through the
    points, so the count is 1 + 4 * (number of lines through them)."""
    pool = plane_points(CB_Q)
    bit = 1 << np.arange(pool.shape[0], dtype=np.int64)
    # the lines are the zero sets of the 31 representative forms
    lines = (((pool @ pool.T % CB_Q) == 0).astype(np.int64) * bit).sum(axis=1)
    rank_of = np.full(CB_Q ** 3 + 1, -1, dtype=np.int8)
    for r in range(4):
        rank_of[CB_Q ** (3 - r)] = r
    full = bit[idx].sum(axis=1)
    masks = [full] + [full & ~bit[idx[:, j]] for j in range(idx.shape[1])]
    return [rank_of[1 + 4 * count_through(lines, m)] for m in masks]


def required_checks(entry: dict) -> set[str]:
    """Check names the verifier must report for an entry, read off the
    entry's expected invariants."""
    exp = entry.get("expected", {})
    if "pencil" in exp and "pencil_rows" in entry:
        pen = exp["pencil"]
        names = {"pencil-class"}
        names |= {n for k, n in (("partition", "pencil-partition"),
                                 ("m", "pencil-coker-degree"),
                                 ("minor_ideal", "pencil-minor-ideal"))
                  if k in pen}
        return names
    names = {"certificates", "riemann-roch", "global-generation"}
    if "chern" in exp:
        names.add("chern")
    names |= {f"h^{c['i']}({c['l']})" for c in exp.get("coh", [])}
    gg = exp.get("gg", "")
    if gg.startswith("generated"):
        names.add("chern-inequalities")
    if gg == "not-generated":
        names.add("witness-reverify")
    if exp.get("p_chern_fixed"):
        names.add("transform-fixed-chern")
    if int(entry["n"]) == 4:
        names.add("schwarzenberger")
    if "gg_construction" in entry and gg != "stated-only":
        names.add("h0-cross-model")
    return names


def expected_values(entry: dict) -> dict:
    """The value each check must report, by check name, for the checks
    whose value the catalog's expected invariants fix: Chern classes,
    cohomology cells, the global-generation verdict and the pencil class."""
    exp = entry.get("expected", {})
    if "pencil" in exp and "pencil_rows" in entry:
        pen = exp["pencil"]
        want = {"pencil-class": f"case-{int(pen['case'])}"}
        if "partition" in pen:
            want["pencil-partition"] = [int(v) for v in pen["partition"]]
        if "m" in pen:
            want["pencil-coker-degree"] = int(pen["m"])
        return want
    want = {f"h^{int(c['i'])}({int(c['l'])})": int(c["h"]) for c in exp.get("coh", [])}
    if "chern" in exp:
        want["chern"] = [int(exp["chern"]["rank"]), [int(v) for v in exp["chern"]["c"]]]
    gg = exp.get("gg", "")
    if gg.startswith("generated"):
        want["global-generation"] = "generated-up-to-sampling"
    elif gg == "not-generated":
        want["global-generation"] = "not-generated"
    return want


def same_value(got, want) -> bool:
    """got == want, with no bool standing in for an int."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_value(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def op_count(req: dict) -> int:
    wl = req["workload"]
    if wl == "catalog-verify":
        keep = req.get("entries")
        return len(keep) if keep is not None else len(load_catalog_raw()["entries"])
    if wl == "gg-sampling":
        return len(req["ops"])
    return len(req["cb"]) + sum(k + 1 for _, k, _ in req["chunks"])


def check_pass(req: dict, refs, outputs) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, wrong, notes) for one pass.  failed counts ops
    that raised or whose output is wrong; wrong counts the latter, except
    for the known faults of GG_KNOWN_FAULTS."""
    notes: list[str] = []
    wrong = raised = known = 0
    wl = req["workload"]
    if wl == "catalog-verify":
        catalog = load_catalog_raw()
        keep = req.get("entries")
        entries = [e for e in catalog["entries"] if keep is None or e["id"] in keep]
        got = {o["id"]: o for o in outputs}
        for e in entries:
            o = got.get(e["id"])
            if o is None or o["error"]:
                raised += 1
                notes.append(f"{e['id']}: {'missing' if o is None else o['error']}")
                continue
            checks = {name: (ok, value) for name, ok, value in o["checks"]}
            missing = required_checks(e) - set(checks)
            bad = [n for n, (ok, _) in checks.items() if ok is not True]
            off = [f"{n}: {checks[n][1]!r} != {w!r}"
                   for n, w in expected_values(e).items()
                   if n in checks and not same_value(checks[n][1], w)]
            if missing or bad or off:
                wrong += 1
                notes.append(f"{e['id']}: missing {sorted(missing)} failed {bad} "
                             f"differ {off}")
        return len(entries), raised + wrong, wrong, notes
    if wl == "gg-sampling":
        for o in outputs:
            if o["error"]:
                raised += 1
                notes.append(f"{o['id']}: {o['error']}")
            elif o["generated"] is not True:
                if o["id"] in GG_KNOWN_FAULTS:
                    known += 1
                else:
                    wrong += 1
                notes.append(f"{o['id']}: not generated at seed {o['seed']}")
        return len(req["ops"]), raised + wrong + known, wrong, notes
    for i, (got, want) in enumerate(zip(outputs["cb"], refs["cb"])):
        if got is None:
            raised += 1
            notes.append(f"cayley_bacharach op {i} raised")
        elif got is not want:
            wrong += 1
            notes.append(f"cayley_bacharach op {i}: {got} != {want}")
    calls = [(c, j, want) for c, wants in enumerate(refs["ranks"])
             for j, want in enumerate(wants)]
    for (c, j, want), got in zip(calls, outputs["ranks"]):
        name = f"batched_rank chunk {c} " + ("full" if j == 0 else f"without point {j - 1}")
        if got is None:
            raised += 1
            notes.append(f"{name} raised")
        else:
            ranks = np.frombuffer(base64.b64decode(got), dtype=np.int8)
            if not np.array_equal(ranks, want):
                wrong += 1
                notes.append(f"{name}: rank disagrees with the form count")
    return len(req["cb"]) + len(calls), raised + wrong, wrong, notes


# -- passes ------------------------------------------------------------------

def run_pass(request: bytes) -> tuple[dict | None, float, str | None]:
    """One pass in a fresh interpreter: its result and setup_s, or None and
    the reason it did not finish."""
    env = dict(os.environ, **PASS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(request, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, 0.0, f"pass timed out after {PASS_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, 0.0, f"pass exited with code {proc.returncode}"
    res = json.loads(out.decode().strip().splitlines()[-1])
    return res, res["setup_done"] - start, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one reduced pass (two with --trace 1), for bench/smoke.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pnbundles" / "__init__.py").is_file() or not CATALOG.is_file():
        print(f"no pnbundles source tree and catalog under {ROOT}", file=sys.stderr)
        return 2

    req, refs = make_request(args.workload, args.seed, args.smoke)
    n_ops = op_count(req)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else "")
    trace_path = OUT / f"{stem}.spans.json"

    passes = []
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_traced = traced and not any(p["traced"] and p["done"] for p in passes)
        body = dict(req, trace=traced,
                    trace_path=str(trace_path) if first_traced else None)
        started = time.monotonic()
        res, setup_s, reason = run_pass(json.dumps(body).encode())
        if res is None:
            # every op of an unfinished pass counts as failed
            passes.append({"traced": traced, "done": False,
                           "wall_s": time.monotonic() - started,
                           "attempted": n_ops, "failed": n_ops, "wrong": 0,
                           "notes": [reason]})
        else:
            attempted, failed, wrong, notes = check_pass(req, refs, res["outputs"])
            passes.append({"traced": traced, "done": True, "setup_s": setup_s,
                           "pass_s": res["pass_s"],
                           "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
                           "wall_s": time.monotonic() - started,
                           "attempted": attempted, "failed": failed, "wrong": wrong,
                           "notes": notes[:20], "layers": res.get("layers"),
                           "missing_functions": res.get("missing_functions")})
        need = 2 if args.trace else 1
        if len(passes) >= need and (args.smoke or time.monotonic() - t0 + statistics.median(
                p["wall_s"] for p in passes) > args.seconds):
            break

    plain = [p for p in passes if p["done"] and not p["traced"]]
    traced = [p for p in passes if p["done"] and p["traced"]]
    if not plain or (args.trace and not traced):
        for p in passes:
            print("; ".join(p["notes"]), file=sys.stderr)
        print("no pass of the needed kind finished; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {n: {"value": statistics.median(p["layers"].get(n, 0) for p in traced),
                       "unit": layer_unit(n)} for n in PER_LAYER}
        summary = {"traced_pass_s": statistics.median(p["pass_s"] for p in traced),
                   "untraced_pass_s": statistics.median(p["pass_s"] for p in plain)}
        summary["overhead"] = summary["traced_pass_s"] / summary["untraced_pass_s"] - 1
        summary["missing_functions"] = traced[0]["missing_functions"]
    else:
        metrics = {n: {"value": statistics.median(p[n] for p in plain), "unit": u}
                   for n, u in END_TO_END.items()}
        summary = {"passes": len(passes)}
    if args.workload == "cb-sweep":
        summary["cb_true_share"] = sum(refs["cb"]) / len(refs["cb"])
    if args.workload == "gg-sampling":
        summary["known_fault_ops"] = len(passes) * sum(
            eid in GG_KNOWN_FAULTS for eid, _ in req["ops"])

    result = {"correct": all(p["wrong"] == 0 for p in passes),
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "metrics": metrics}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "summary": summary, "result": result, "passes": passes}, fh,
                  indent=1)
    print(json.dumps({"workload": args.workload, "passes": len(passes), **summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
