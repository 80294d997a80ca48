"""Machine-readable catalog of classified bundles and its verifier.

The catalog is a JSON file: each entry carries a construction (an
expression tree of sums, kernels, quotients, twists and duals, with forms
as plain strings in x0..xn; a dual is parsed into the kernel, quotient or
sum that presents it), the expected Chern data, selected cohomology
cells, a global-generation expectation and, for pencil entries, the
expected classification.  verify_all recomputes everything and compares;
failures are reported per entry, never raised mid-run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .chern import gg_constraints, p_chern, rr_chi, schwarzenberger_ok
from .geometry import LineParam, is_globally_generated, reverify_witness
from .graded import GradedMatrix
from .modp import DEFAULT_PRIME
from .pencil import classify, linear_matrix_2x4, minor_ideal_equals
from .sheaves import (CertificationError, Cohomology, LineSum, chern_of_node,
                      default_window, dual_node, is_exact_cell, ker_node,
                      quot_node, sum_node, twist_node)


class CatalogError(ValueError):
    pass


def _fields(what: str, body, *keys) -> list:
    """[body[key] for each key]; CatalogError unless body is a JSON object
    that has them all."""
    if not isinstance(body, dict) or any(k not in body for k in keys):
        raise CatalogError(f"{what} needs an object with "
                           f"{', '.join(map(repr, keys))}, got {body!r}")
    return [body[k] for k in keys]


def _int(what: str, v) -> int:
    """v as an int; CatalogError unless v is an integer or an integer's
    string (a float such as 1.5 or 1e400 is not truncated)."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    elif isinstance(v, int) and not isinstance(v, bool):
        return v
    raise CatalogError(f"{what} must be an integer, got {v!r}")


def _ints(what: str, vals) -> tuple:
    if not isinstance(vals, list):
        raise CatalogError(f"{what} must be a list of integers, got {vals!r}")
    return tuple(_int(f"an entry of {what}", v) for v in vals)


def parse_matrix(obj, nvars: int, p: int) -> GradedMatrix:
    src, tgt, rows = _fields("a matrix", obj, "src", "tgt", "rows")
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(isinstance(f, str) for f in r) for r in rows):
        raise CatalogError(f"matrix rows must be lists of form strings, got {rows!r}")
    src, tgt = _ints("src", src), _ints("tgt", tgt)
    try:
        return GradedMatrix.make(nvars, src, tgt, rows, p)
    except ValueError as exc:
        raise CatalogError(f"bad matrix: {exc}") from None


def parse_node(obj, nvars: int, p: int):
    """The node of a construction object; CatalogError on a malformed one."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise CatalogError(f"bad node object: {obj!r}")
    kind, body = next(iter(obj.items()))
    what = f"a {kind!r} node"
    if kind == "sum":
        return LineSum.make(nvars, _ints(what, body), p)
    if kind == "ker":
        m = parse_matrix(_fields(what, body, "matrix")[0], nvars, p)
        target = parse_node(body["onto"], nvars, p) if "onto" in body else None
        return ker_node(m, target)
    if kind == "quot":
        mat, of = _fields(what, body, "matrix", "of")
        return quot_node(parse_matrix(mat, nvars, p), parse_node(of, nvars, p))
    if kind == "twist":
        of, by = _fields(what, body, "of", "by")
        return twist_node(parse_node(of, nvars, p), _int(f"the 'by' of {what}", by))
    if kind == "dsum":
        if not isinstance(body, list) or not body:
            raise CatalogError(f"{what} needs a nonempty list of nodes, got {body!r}")
        return sum_node(*(parse_node(q, nvars, p) for q in body))
    if kind == "dual":
        node = parse_node(body, nvars, p)
        try:
            return dual_node(node)
        except ValueError as exc:
            raise CatalogError(str(exc)) from None
    raise CatalogError(f"unknown node kind {kind!r}")


@dataclass
class Check:
    name: str
    ok: bool
    expected: object = None
    got: object = None

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        extra = ""
        if not self.ok:
            extra = f"  expected={self.expected!r} got={self.got!r}"
        return f"    [{mark}] {self.name}{extra}"


@dataclass
class EntryReport:
    entry_id: str
    checks: list = field(default_factory=list)
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    def add(self, name, ok, expected=None, got=None):
        self.checks.append(Check(name, bool(ok), expected, got))

    def to_dict(self) -> dict:
        return {
            "id": self.entry_id,
            "ok": self.ok,
            "error": self.error,
            "seconds": round(self.seconds, 3),
            "checks": [{"name": c.name, "ok": c.ok,
                        **({} if c.ok else {"expected": repr(c.expected),
                                            "got": repr(c.got)})}
                       for c in self.checks],
        }


@dataclass
class VerifyReport:
    prime: int
    seed: int
    trials: int
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_dict(self) -> dict:
        return {"prime": self.prime, "seed": self.seed, "trials": self.trials,
                "ok": self.ok, "entries": [e.to_dict() for e in self.entries]}

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok" if e.ok else "FAILED"
            lines.append(f"  {e.entry_id}: {status} "
                         f"({len(e.checks)} checks, {e.seconds:.2f}s)")
            if e.error:
                lines.append(f"    error: {e.error}")
            for c in e.checks:
                if not c.ok:
                    lines.append(c.line())
        n_ok = sum(1 for e in self.entries if e.ok)
        lines.append(f"{n_ok}/{len(self.entries)} entries verified "
                     f"(prime={self.prime}, seed={self.seed}, trials={self.trials})")
        return "\n".join(lines)


def _expected_chern(data) -> tuple[int, tuple]:
    return int(data["rank"]), tuple(int(v) for v in data["c"])


def verify_entry(entry: dict, eng: Cohomology, trials: int, seed: int) -> EntryReport:
    rep = EntryReport(entry.get("id", "<unnamed>"))
    t0 = time.time()
    try:
        _verify_entry_inner(entry, eng, trials, seed, rep)
    except CatalogError as exc:
        rep.error = f"parse error: {exc}"
    except CertificationError as exc:
        rep.error = f"certificate failed: {exc}"
    except Exception as exc:  # keep the run alive; the entry fails
        rep.error = f"{type(exc).__name__}: {exc}"
    rep.seconds = time.time() - t0
    return rep


def _verify_entry_inner(entry, eng, trials, seed, rep):
    p = eng.p
    n = int(entry["n"])
    nvars = n + 1
    expected = entry.get("expected", {})

    if "pencil" in expected and "pencil_rows" in entry:
        _verify_pencil(entry, expected["pencil"], rep, p)
        return

    node = parse_node(entry["construction"], nvars, p)
    eng.certify(node)
    rep.add("certificates", True)

    cv = chern_of_node(node)
    if "chern" in expected:
        want_rank, want_c = _expected_chern(expected["chern"])
        rep.add("chern", (cv.rank, cv.c) == (want_rank, want_c),
                (want_rank, want_c), (cv.rank, cv.c))
    if expected.get("gg", "").startswith("generated"):
        # generated nodes must clear the numerical necessary conditions
        bad = gg_constraints(cv)
        rep.add("chern-inequalities", not bad, [], bad)

    window = entry.get("window")
    window = range(window[0], window[1] + 1) if window else default_window(n)
    table = eng.table(node, window)

    for cell in expected.get("coh", []):
        i, l, want = int(cell["i"]), int(cell["l"]), int(cell["h"])
        got = table.h(i, l)
        rep.add(f"h^{i}({l})", is_exact_cell(got) and int(got) == want, want, got)

    bad = []
    for l in table.exact_columns():
        chi, want = table.euler(l), rr_chi(cv, l)
        if chi != want:
            bad.append((l, chi, want))
    rep.add("riemann-roch", not bad, "chi matches on window", bad or "match")
    if n == 4:
        ok, res = schwarzenberger_ok(cv)
        rep.add("schwarzenberger", ok, 0, res)

    if expected.get("p_chern_fixed"):
        pc = p_chern(cv)
        rep.add("transform-fixed-chern", pc.c == cv.c, cv.c, pc.c)

    gg = expected.get("gg", "stated-only")
    if gg == "stated-only":
        rep.add("global-generation", True, got="recorded, not machine-checked")
    else:
        hints = expected.get("gg_hints", {})
        hint_lines = [LineParam.make(a, b, p) for a, b in hints.get("lines", [])]
        hint_points = [tuple(q) for q in hints.get("points", [])]
        verdict = is_globally_generated(node, trials, seed,
                                        hint_points=hint_points,
                                        hint_lines=hint_lines, eng=eng)
        if gg in ("generated", "generated-for-this-instance"):
            rep.add("global-generation", verdict.generated, "generated", verdict.tag)
        elif gg == "not-generated":
            rep.add("global-generation", not verdict.generated,
                    "not-generated", verdict.tag)
            if not verdict.generated:
                ok = reverify_witness(node, verdict, eng)
                rep.add("witness-reverify", ok, "witness fails span test", ok)
        else:
            raise CatalogError(f"unknown gg expectation {gg!r}")


def _verify_pencil(entry, expected, rep, p):
    m = linear_matrix_2x4(entry["pencil_rows"], p)
    cl = classify(m)
    want_case = int(expected["case"])
    rep.add("pencil-class", cl.case == want_case, f"case-{want_case}", cl.tag)
    if "partition" in expected:
        rep.add("pencil-partition", cl.partition == list(expected["partition"]),
                expected["partition"], cl.partition)
    if "m" in expected:
        rep.add("pencil-coker-degree", cl.coker_degree == int(expected["m"]),
                expected["m"], cl.coker_degree)
    if "minor_ideal" in expected:
        ok = minor_ideal_equals(m, expected["minor_ideal"],
                                int(expected.get("bound", 4)))
        rep.add("pencil-minor-ideal", ok, "graded pieces equal", ok)


def verify_all(catalog: dict, trials: int = 500, seed: int = 90021,
               prime: int | None = None) -> VerifyReport:
    """Verify every entry; raises ValueError when trials < 1, with which
    an entry without hint points would be sampled at no point."""
    if trials < 1:
        raise ValueError(f"a sampled verdict needs a point: trials={trials}")
    p = prime or int(catalog.get("prime", DEFAULT_PRIME))
    eng = Cohomology(p=p)
    report = VerifyReport(p, seed, trials)
    for entry in catalog.get("entries", []):
        report.entries.append(verify_entry(entry, eng, trials, seed))
    return report


# -- file round trip -----------------------------------------------------------

def serialize_catalog(catalog: dict) -> str:
    return json.dumps(catalog, indent=2) + "\n"


def parse_catalog(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"not valid JSON: {exc}") from None
    if "entries" not in data or not isinstance(data["entries"], list):
        raise CatalogError("catalog must carry an entries list")
    return data


def load_catalog(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_catalog(fh.read())
