"""The catalog report, pinned: `verify_all` on the shipped catalog
(trials 500, seed 90021) must reproduce the committed golden file entry by
entry, with every check's name, verdict and repr of the value found.

Regenerate (only when a report change is intended) with
    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
from pathlib import Path

from pnbundles.catalog import load_catalog, verify_all

ROOT = Path(__file__).resolve().parents[1]
CATALOG_PATH = ROOT / "catalog" / "catalog.json"
GOLDEN_PATH = ROOT / "tests" / "data" / "catalog_verify_golden.json"
TRIALS, SEED = 500, 90021


def report_rows() -> list:
    rep = verify_all(load_catalog(CATALOG_PATH), trials=TRIALS, seed=SEED)
    return [{"entry_id": e.entry_id, "error": e.error,
             "checks": [[c.name, c.ok, repr(c.got)] for c in e.checks]}
            for e in rep.entries]


def test_verify_report_matches_golden():
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = report_rows()
    assert [r["entry_id"] for r in got] == [r["entry_id"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["entry_id"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(report_rows(), indent=1) + "\n", encoding="utf-8")
