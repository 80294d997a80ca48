"""One benchmark pass, run in a fresh interpreter by run.py.

Reads a request (JSON) on stdin, builds the pass's inputs with the
package's own parsers, runs the workload's ops once, and prints one JSON
object on stdout: the monotonic time at which set-up finished, the pass's
wall time, the process's peak resident memory, the raw outputs of every op
(run.py checks them), and, when traced, the per-layer metrics.

The interpreter is fresh so that every pass starts with empty module
caches, as every `pnbundles catalog verify` does.  Ops call the package
through its module attributes, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _setup_catalog_verify(req):
    from pnbundles import catalog as cat

    catalog = cat.load_catalog(req["catalog"])
    keep = req.get("entries")
    if keep is not None:
        catalog["entries"] = [e for e in catalog["entries"] if e["id"] in keep]
    p = int(catalog["prime"])
    for e in catalog["entries"]:
        if "construction" in e:
            cat.parse_node(e["construction"], int(e["n"]) + 1, p)

    def run():
        report = cat.verify_all(catalog, trials=req["trials"], seed=req["verify_seed"])
        return [{"id": e.entry_id, "error": e.error,
                 "checks": [[c.name, bool(c.ok), _plain(c.got)] for c in e.checks]}
                for e in report.entries]
    return run


def _plain(value):
    """A check's reported value as JSON: ints, strings and lists of them;
    anything else (an inexact cohomology cell, say) as its repr."""
    import numpy as np

    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return {"repr": repr(value)}


def _setup_gg_sampling(req):
    from pnbundles import catalog as cat, geometry
    from pnbundles.sheaves import Cohomology

    catalog = cat.load_catalog(req["catalog"])
    p = int(catalog["prime"])
    eng = Cohomology(p=p)
    by_id = {e["id"]: e for e in catalog["entries"]}
    ops = []
    for eid, seed in req["ops"]:
        e = by_id[eid]
        nvars = int(e["n"]) + 1
        node = cat.parse_node(e["construction"], nvars, p)
        eng.certify(node)
        if "gg_construction" in e:
            # sampled through its raw-kernel presentation, as verify_entry does
            raw = e["gg_construction"]
            m = cat.parse_matrix(raw["matrix"], nvars, p)
            ops.append((eid, seed, lambda s, m=m, r=int(raw["rank"]):
                        geometry.gg_of_raw_kernel(m, r, req["trials"], s, p)))
        else:
            eng.h0_basis(node, 0)
            ops.append((eid, seed, lambda s, node=node:
                        geometry.is_globally_generated(node, req["trials"], s,
                                                       eng=eng)))

    def run():
        out = []
        for eid, seed, op in ops:
            try:
                out.append({"id": eid, "seed": seed,
                            "generated": bool(op(seed).generated), "error": None})
            except Exception as exc:  # the op fails; the pass goes on
                out.append({"id": eid, "seed": seed, "generated": None,
                            "error": f"{type(exc).__name__}: {exc}"})
        return out
    return run


def _setup_cb_sweep(req):
    import base64

    import numpy as np
    from pnbundles import geometry, modp

    configs = [([tuple(q) for q in pts], int(d)) for pts, d in req["cb"]]
    pool = np.array(req["sweep_pool"], dtype=np.int64)
    chunks = [np.frombuffer(base64.b64decode(data), dtype=np.int8)
              .astype(np.intp).reshape(m, k) for m, k, data in req["chunks"]]
    q = int(req["q"])

    def rank_op(mats):
        try:
            return base64.b64encode(
                modp.batched_rank(mats, q).astype(np.int8).tobytes()).decode()
        except Exception:  # the op fails; the pass goes on
            return None

    def run():
        verdicts, ranks = [], []
        for pts, d in configs:
            try:
                verdicts.append(bool(geometry.cayley_bacharach(pts, d, p=q)))
            except Exception:  # the op fails; the pass goes on
                verdicts.append(None)
        # as the acceptance suite's exhaustive sweep does per chunk: the
        # full stack, then every all-but-one sub-stack
        for chunk in chunks:
            mats = pool[chunk]
            k = chunk.shape[1]
            ranks.append(rank_op(mats))
            for j in range(k):
                rest = [t for t in range(k) if t != j]
                ranks.append(rank_op(mats[:, rest, :] if rest else np.zeros(
                    (mats.shape[0], 0, 3), dtype=np.int64)))
        return {"cb": verdicts, "ranks": ranks}
    return run


SETUP = {"catalog-verify": _setup_catalog_verify,
         "gg-sampling": _setup_gg_sampling,
         "cb-sweep": _setup_cb_sweep}


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    ru_maxrss is not used: on Linux it also carries the parent's resident
    set at the time of the fork that started this interpreter.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    req = json.loads(sys.stdin.read())
    run = SETUP[req["workload"]](req)
    setup_done = time.monotonic()

    tracer = None
    if req.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()
    try:
        t0 = time.perf_counter()
        outputs = run()
        pass_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {"setup_done": setup_done, "pass_s": pass_s, "outputs": outputs,
              "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing_functions"] = missing
        if req.get("trace_path"):
            tracer.dump(req["trace_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
