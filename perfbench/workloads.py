"""The four benchmark workloads: inputs from a seed, one pass, and the gate.

A workload draws its items (GUE seeds, basis seeds or density-matrix draws)
from a fixed pool with the workload seed, runs one pass over them through
the public ``tqsl`` API, and leaves one CSV per item in an output directory.
The pools are the keys of ``goldens.json``, whose fingerprints of the tau
columns were captured from the code the benchmark was written against (see
``capture_goldens.py``). A pass's output is accepted only if every item
passes the checks in ``check_item``.

Functions here take the ``tqsl`` package as an argument and look names up
on it at call time, so the tracer can swap in wrapped versions.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDENS = Path(__file__).with_name("goldens.json")

CSV_HEADER = "t,tau_mt,tau_tqsl,delta,quad_error,validity"
DELTA_FLOOR = -1e-9
# tqsl.bounds.BOUND_SLACK when the goldens were captured; fixed here so the
# gate does not loosen if the library's constant moves.
BOUND_SLACK = 1e-6
FIDELITY_TOL = 1e-9
# Tau columns are compared through exact (fsum) block sums of the values as
# printed. A one-unit change in the 12th significant digit of every row of a
# block moves its sum by at most 1e-11 relative.
GOLDEN_RTOL = 2e-11
GOLDEN_BLOCKS = 10

BASIS_SEED_OFFSET = 1_000_003  # the runners' fixed-random basis offset
_MOVES = re.compile(r"^optimize\[.*, (\d+) moves\]$")


@dataclass(frozen=True)
class Workload:
    name: str
    per_pass: int  # items drawn from the pool for one pass
    steps: int  # CSV rows per item
    csv_prefix: str  # CSVs are named <prefix>_seed<item>.csv
    has_fidelity: bool = False  # trailing closed-form fidelity column

    def rows_per_pass(self) -> int:
        return self.per_pass * self.steps


# Why each workload exists is recorded beside it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gue-sweep", per_pass=50, steps=300, csv_prefix="gue"),
        Workload("gue-optimize", per_pass=8, steps=300, csv_prefix="gue"),
        Workload("spin-chain", per_pass=1, steps=200, csv_prefix="spin", has_fidelity=True),
        Workload("mixed-sweep", per_pass=8, steps=400, csv_prefix="mixed"),
    )
}


def load_goldens(workload: Workload) -> dict:
    """The workload's golden fingerprints, keyed by item as a string."""
    return json.loads(GOLDENS.read_text(encoding="utf-8"))[workload.name]


def pool(goldens: dict) -> list:
    return sorted(int(k) for k in goldens)


def pick_items(pool_items: list, workload: Workload, seed: int) -> list:
    """Sorted draw without replacement; the same seed gives the same items."""
    rng = np.random.default_rng([seed, len(pool_items)])
    chosen = rng.choice(len(pool_items), size=workload.per_pass, replace=False)
    return sorted(pool_items[int(i)] for i in chosen)


def wishart_density(item: int, dim: int = 8) -> np.ndarray:
    """Full-rank Wishart draw normalised to unit trace, as a raw array."""
    rng = np.random.default_rng([item, 7])
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = w @ w.conj().T
    return m / np.trace(m).real


def make_inputs(workload: Workload, items: list):
    """What one pass consumes: seeds, or (seed, density matrix) pairs."""
    if workload.name == "mixed-sweep":
        return [(item, wishart_density(item)) for item in items]
    return list(items)


def run_pass(tqsl, workload: Workload, inputs, out: Path) -> dict:
    """One full pass; returns {item: {"flags": [...], "basis_id": ...}}."""
    if workload.name == "mixed-sweep":
        return _mixed_pass(tqsl, inputs, out)
    if workload.name == "spin-chain":
        cfg = tqsl.ExperimentConfig(
            kind="spin", num_spins=8, blocks=tuple((i, i + 1) for i in range(1, 8)),
            omega0=1.0, omega=1.0, t_max=2.0, steps=200, seeds=tuple(inputs),
            output_path=str(out),
        )
        summary = tqsl.run_experiment_spin(cfg)
    else:
        optimize = workload.name == "gue-optimize"
        cfg = tqsl.ExperimentConfig(
            kind="gue", dim=3, t_max=1.0 if optimize else 3.0, steps=300,
            seeds=tuple(inputs), basis_mode="optimize" if optimize else "fixed-random",
            output_path=str(out),
        )
        summary = tqsl.run_experiment_gue(cfg)
    return {run["seed"]: run for run in summary["runs"]}


def _mixed_pass(tqsl, inputs, out: Path) -> dict:
    """The library route: trajectory, series and CSV per density matrix."""
    out.mkdir(parents=True, exist_ok=True)
    runs = {}
    for item, raw in inputs:
        run = {"seed": item, "flags": []}
        try:
            h = tqsl.sample_gue(tqsl.GueConfig(dim=8, seed=item))
            rho = tqsl.DensityMatrix(raw)
            basis_seed = item + BASIS_SEED_OFFSET
            basis = tqsl.random_basis(8, basis_seed)
            traj = tqsl.sample_trajectory(h, rho, 1.0, 400)
            reports = tqsl.bound_series(traj, basis, f"gue-eigenbasis:seed={basis_seed}")
            lines = [tqsl.BOUND_CSV_HEADER, *(r.csv_row() for r in reports)]
            (out / f"mixed_seed{item}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8", newline="\n"
            )
            run["basis_id"] = reports[0].basis_id
        except tqsl.QslError as err:
            run["flags"].append(f"error:{type(err).__name__}:{err}")
        runs[item] = run
    return runs


def accepted_moves(basis_id) -> int:
    """Accepted optimizer moves of the winning restart, from its basis_id."""
    match = _MOVES.match(basis_id or "")
    return int(match.group(1)) if match else 0


def fingerprint(workload: Workload, item: int, out: Path) -> dict:
    """Parse one item's CSV; return its fingerprint plus row-level problems."""
    path = out / f"{workload.csv_prefix}_seed{item}.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    header = CSV_HEADER + (",fidelity" if workload.has_fidelity else "")
    problems = []
    if lines[0] != header or lines[-1] != "":
        problems.append("bad CSV header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    tau_mt, tau_tqsl, valid_rows = [], [], 0
    for k, cells in enumerate(rows):
        if len(cells) != len(header.split(",")):
            problems.append(f"row {k}: {len(cells)} cells")
            continue
        try:
            t, mt, tq, delta = (float(c) for c in cells[:4])
        except ValueError:
            problems.append(f"row {k}: unparsable {cells[:4]}")
            continue
        valid = cells[5] == "true"
        valid_rows += valid
        tau_mt.append(mt)
        tau_tqsl.append(tq)
        if not delta >= DELTA_FLOOR:
            problems.append(f"row {k}: delta {delta!r} < {DELTA_FLOOR}")
        if valid and not tq <= t + BOUND_SLACK:
            problems.append(f"row {k}: tau_tqsl {tq!r} exceeds t {t!r} on a valid row")
        if workload.has_fidelity and not abs(float(cells[6]) - 1.0) <= FIDELITY_TOL:
            problems.append(f"row {k}: fidelity {cells[6]}")
    return {
        "rows": len(rows),
        "valid_rows": valid_rows,
        "tau_mt": _block_sums(tau_mt),
        "tau_tqsl": _block_sums(tau_tqsl),
        "problems": problems,
    }


def _block_sums(values: list) -> list:
    return [math.fsum(b) for b in np.array_split(np.array(values), GOLDEN_BLOCKS)]


def check_item(workload: Workload, item: int, run: dict, out: Path, golden: dict) -> list:
    """Every problem with one item's output; empty when it is correct."""
    errors = [f for f in run.get("flags", []) if f.startswith("error:")]
    if errors:
        return errors
    if not (out / f"{workload.csv_prefix}_seed{item}.csv").is_file():
        return ["CSV not written"]
    got = fingerprint(workload, item, out)
    problems = got.pop("problems")
    if run.get("basis_id") != golden["basis_id"]:
        problems.append(f"basis_id {run.get('basis_id')!r} != {golden['basis_id']!r}")
    for key in ("rows", "valid_rows"):
        if got[key] != golden[key]:
            problems.append(f"{key} {got[key]} != golden {golden[key]}")
    for key in ("tau_mt", "tau_tqsl"):
        for b, (s, g) in enumerate(zip(got[key], golden[key])):
            if not abs(s - g) <= GOLDEN_RTOL * abs(g) + 1e-15:
                problems.append(f"{key} block {b}: {s!r} != golden {g!r}")
    return problems
