"""Span tracer that wraps pnbundles' public functions from outside.

Each traced function is replaced, in every ``pnbundles`` module namespace
that binds it (and on its class, for methods), by a wrapper that records a
span ``(name, start, end, parent)`` in memory.  Nothing in the package is
edited; ``install`` patches attributes at run time and ``uninstall`` puts
the originals back.

A span also keeps the wrapper's own outer interval.  The self time of a
span is its duration minus the outer intervals of its direct children, so
the bookkeeping of a child (counters, input hashing) is charged to neither
the child nor its parent.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

# Functions traced per module.  "Class.method" names a method; the metric
# name drops the class ("sheaves.certify").  Names absent from the package
# are skipped, so a later refactor that deletes one does not stop the run;
# its metrics then read 0.  Small leaf helpers called tens of thousands of
# times (inv_mod, space_dim, normalize_point, Form arithmetic) are left out:
# their cost would swamp the trace and lands in their callers' self time.
TRACED = {
    "catalog": ["verify_all", "verify_entry", "parse_node", "parse_matrix",
                "parse_catalog", "load_catalog"],
    "sheaves": ["Cohomology.certify", "Cohomology.values", "Cohomology.table",
                "Cohomology.h0_basis", "Cohomology.p_transform",
                "map_rank_into", "kernel_into", "chern_of_node", "ker_node",
                "quot_node", "twist_node", "sum_node"],
    "graded": ["GradedMatrix.make", "GradedMatrix.graded_piece",
               "GradedMatrix.evaluate", "GradedMatrix.compose",
               "GradedMatrix.maximal_minors", "hn_matrix"],
    "forms": ["random_points", "parse_form", "multiplication_matrix",
              "format_form"],
    "modp": ["rref", "rank", "kernel_basis", "solve", "batched_rank",
             "extend_to_complement"],
    "idealtests": ["epi_certificate", "ideal_piece_rows", "ideal_piece_dim",
                   "ideal_pieces_equal"],
    "geometry": ["is_globally_generated", "gg_of_raw_kernel",
                 "reverify_witness", "splitting_type_on_line",
                 "restrict_to_line", "binary_gcd", "cayley_bacharach",
                 "cayley_bacharach_oracle", "edge_avoidance",
                 "quadric_line_component_test"],
    "binforms": ["poly_gcd", "poly_mul", "valuations", "binary_gcd_degree",
                 "multiplicity_partition", "rational_roots"],
    "pencil": ["linear_matrix_2x4", "to_pencil", "is_injective", "is_stable",
               "min_syzygy_degree", "classify", "minor_ideal_equals"],
    "chern": ["line_sum_chern", "whitney_mul", "whitney_div", "twist_chern",
              "dual_chern", "p_chern", "rr_chi", "schwarzenberger_ok",
              "gg_constraints"],
}

MODULES = tuple(TRACED)


def _matrix_key(mat, p) -> bytes:
    a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64))
    h = hashlib.blake2b(a.tobytes(), digest_size=16)
    h.update(repr((a.shape, int(p))).encode())
    return h.digest()


class Tracer:
    """Spans and counters of one pass; create one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name_id, start, end, parent, o0, o1)
        self._stack: list[int] = []
        self._patched: list = []       # (owner, attr, original)
        self.counts: dict[str, int] = {}
        self._seen: dict[str, set] = {}

    # -- counters ----------------------------------------------------------

    def _add(self, key: str, v: int = 1):
        self.counts[key] = self.counts.get(key, 0) + v

    def _repeat(self, name: str, key) -> None:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self._add(f"{name}.repeat_calls")
        else:
            seen.add(key)

    def _hook(self, metric: str, bind):
        """Counter for `metric`, computed outside its span from the bound
        arguments and the result; None when the function has no counter."""
        def rref(args, kw, out):
            mat, p = bind(args, kw)
            cells = int(np.shape(mat)[0] * np.shape(mat)[1])
            self._add("modp.rref.cells", cells)
            self.counts["modp.rref.max_cells"] = max(
                self.counts.get("modp.rref.max_cells", 0), cells)
            self._repeat("modp.rref", _matrix_key(mat, p))

        def batched_rank(args, kw, out):
            self._add("modp.batched_rank.matrices", int(np.shape(out)[0]))

        def values(args, kw, out):
            _, node, l = bind(args, kw)
            self._seen.setdefault("sheaves.values", set()).add((node, l))

        def graded_piece(args, kw, out):
            self._add("graded.graded_piece.cells", int(out.shape[0] * out.shape[1]))

        def random_points(args, kw, out):
            self._add("forms.random_points.points", len(out))
            self._repeat("forms.random_points", bind(args, kw))

        return {"modp.rref": rref, "modp.batched_rank": batched_rank,
                "sheaves.values": values, "graded.graded_piece": graded_piece,
                "forms.random_points": random_points}.get(metric)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = self._hook(name, _binder(fn))
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kw):
            o0 = clock()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, o0, t1)
            if hook is not None:
                hook(args, kw, out)
                spans[idx] = (name_id, t0, t1, parent, o0, clock())
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> list[str]:
        """Patch every traced function; return the names not found."""
        for mod in TRACED:
            importlib.import_module(f"pnbundles.{mod}")
        pkg = {k: m for k, m in sys.modules.items()
               if k == "pnbundles" or k.startswith("pnbundles.")}
        missing = []
        for mod, names in TRACED.items():
            module = pkg[f"pnbundles.{mod}"]
            for qual in names:
                metric = f"{mod}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if not inspect.isfunction(fn):
                        missing.append(metric)
                        continue
                    wrapped = self._wrap(fn, metric)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    self._patched.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                fn = getattr(module, qual, None)
                if not callable(fn):
                    missing.append(metric)
                    continue
                wrapped = self._wrap(fn, metric)
                for m in pkg.values():
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[5] - s[4]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self seconds, per-module rollups, counters."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for s, st in zip(self.spans, self.self_times()):
            name = self.names[s[0]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st
        out: dict[str, float] = {}
        for name in set(self.names):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.split(".")[0] == mod)
        out.update(self.counts)
        out["sheaves.values.distinct_keys"] = len(self._seen.get("sheaves.values", ()))
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names plus [name, start, end, parent] rows."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - base, 7), round(s[2] - base, 7), s[3]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh)


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kw):
        b = sig.bind(*args, **kw)
        b.apply_defaults()
        return tuple(b.arguments.values())
    return bind
