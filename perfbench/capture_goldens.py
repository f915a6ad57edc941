"""Capture the golden fingerprints and item pools into goldens.json.

    python3 perfbench/capture_goldens.py

Runs every candidate item of each workload once and keeps, in candidate
order, the first POOL_SIZE items whose run raises nothing and whose CSV
passes the row checks. Only run this against the commit whose outputs the
benchmark is meant to hold later commits to; the file it writes is the
reference, not a cache.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tqsl  # noqa: E402

from workloads import GOLDENS, WORKLOADS, fingerprint, make_inputs, run_pass  # noqa: E402

POOL_SIZE = {"gue-sweep": 100, "gue-optimize": 32, "spin-chain": 32, "mixed-sweep": 32}
CANDIDATES = 64  # extra candidates examined beyond the pool size


def capture(name: str, out: Path) -> dict:
    workload = WORKLOADS[name]
    candidates = list(range(POOL_SIZE[name] + CANDIDATES))
    kept = {}
    for start in range(0, len(candidates), 8):
        if len(kept) >= POOL_SIZE[name]:
            break
        batch = candidates[start:start + 8]
        shutil.rmtree(out, ignore_errors=True)
        runs = run_pass(tqsl, workload, make_inputs(workload, batch), out)
        for item in batch:
            errors = [f for f in runs[item]["flags"] if f.startswith("error:")]
            got = None if errors else fingerprint(workload, item, out)
            if errors or got["problems"]:
                print(f"{name}: item {item} excluded: {errors or got['problems'][:3]}")
                continue
            del got["problems"]
            got["basis_id"] = runs[item]["basis_id"]
            kept[str(item)] = got
    keys = sorted(kept, key=int)[:POOL_SIZE[name]]
    if len(keys) < POOL_SIZE[name]:
        raise SystemExit(f"{name}: only {len(keys)} clean items")
    return {k: kept[k] for k in keys}


def main() -> None:
    out = ROOT / ".perfbench_out" / "capture"
    try:
        goldens = {name: capture(name, out) for name in WORKLOADS}
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
