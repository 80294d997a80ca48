"""Smoke check of the benchmark: one reduced pass of each workload, untraced
and traced, checking the printed result against BENCHMARK.json.

Run from the root of a source checkout:

    python3 bench/smoke.py

Exits 0 when every run prints exactly the metric names and units that
BENCHMARK.json lists, with correct true and no failed ops other than the
known faults that the run's summary line counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    summary, res = json.loads(lines[-2]), json.loads(lines[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True \
            or res.get("failed") != summary.get("known_fault_ops", 0) \
            or not res.get("attempted", 0) >= 1:
        errs.append(f"{where}: correct={res.get('correct')} "
                    f"attempted={res.get('attempted')} failed={res.get('failed')}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != want:
        errs.append(f"{where}: metrics differ; missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, units "
                    f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    for k, v in res.get("metrics", {}).items():
        if not isinstance(v.get("value"), (int, float)):
            errs.append(f"{where}: {k} is not a number")
        elif not trace and not v["value"] > 0:
            errs.append(f"{where}: {k} is {v['value']}")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errs = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs += check_run(w["name"], trace, spec)
    for e in errs:
        print(e, file=sys.stderr)
    print("smoke: ok" if not errs else f"smoke: {len(errs)} problem(s)")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
