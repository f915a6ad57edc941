"""CLI artifacts pinned to files captured before refactors of the code
behind them (tests/golden/).

- The CSVs, byte for byte: captured before the trajectory and bound series
  moved to stacked arrays, and, under optimize/, before optimize_basis
  prepared its correction kernel and batched its direction eigensystems.
- summary_runs.json: the summary "runs" of the same CLI cases, and
  verify_checks.json: the "checks" of `verify --trials 8 --seeds 0`, both
  captured before the two sweeps shared one runner and the property checks
  one verdict rule. Its quadrature-order slack alone was recaptured when the
  bound's two trapezoid codes became one cumulative routine, and its
  bargmann-symmetry entry alone when that check began to read the angle of
  sampled trajectories instead of a second angle and propagator. Its
  pure-chain, mixed-chain, moment-identity and side-insensitivity slacks
  were recaptured, each moved by at most 1.2e-16, when the per-state
  uncertainty chain began to run the mixed route's stacked K kernel; the
  explicit-loop references in test_uncertainty.py check that kernel on
  kets and density matrices instead of a byte pin.
- spin8/: the 8-spin chain, CSVs and summary runs, captured before the
  closed-form spin oracle took the whole time grid in one call, and
  recaptured with BLAS pinned to one thread: its last digits move with the
  BLAS thread count, so its cases run in a subprocess under that pin.
- identity/: a 13-seed identity-basis sweep at d = 4, CSVs and summary
  runs, captured before fixed-basis sweeps computed their seeds in stacked
  blocks. 12 of its seeds carry an overlap-minimum flag, and 13 seeds fill
  no whole number of blocks, so a partial block is pinned too.
- mixed/: the bound series of the benchmark's mixed sweep, items 0-3 (d = 8
  Wishart states, 400 steps), built through the library, captured before
  the mixed sampled trajectory stopped re-checking its roots. These bytes
  do not move with the BLAS thread count.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tqsl
from tqsl import BOUND_CSV_HEADER, DensityMatrix, GueConfig, bound_series, random_basis, sample_gue, sample_trajectory
from tqsl.cli import main
from conftest import wishart_density

GOLDEN = Path(__file__).with_name("golden")

CASES = [
    (["gue", "--dim", "3", "--steps", "60", "--seeds", "0-2"], [f"gue_seed{s}.csv" for s in range(3)]),
    (["spin", "--spins", "3"], ["spin_seed0.csv"]),
    (
        ["gue", "--basis", "optimize", "--dim", "3", "--tmax", "1.0", "--steps", "60", "--seeds", "0-2"],
        [f"optimize/gue_seed{s}.csv" for s in range(3)],
    ),
    (
        ["spin", "--spins", "8", "--blocks", "1,2;2,3;3,4;4,5;5,6;6,7;7,8", "--tmax", "2.0",
         "--steps", "200", "--seeds", "0-1"],
        [f"spin8/spin_seed{s}.csv" for s in range(2)],
    ),
    (
        ["gue", "--basis", "identity", "--dim", "4", "--tmax", "3.0", "--steps", "80", "--seeds", "0-12"],
        [f"identity/gue_seed{s}.csv" for s in range(13)],
    ),
]


PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _cli(argv: list, names: list) -> int:
    """The CLI on argv, in this process, or for the spin8 cases in a
    subprocess with every BLAS pinned to one thread."""
    if not names[0].startswith("spin8/"):
        return main(argv)
    src = str(Path(tqsl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **PINNED_BLAS, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "tqsl.cli", *argv], env=env, capture_output=True).returncode


def _golden_json(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _ordered(records: list) -> list:
    """Each record as its (key, value) pairs, so key order counts too."""
    return [list(r.items()) for r in records]


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_csvs_match_golden_bytes(tmp_path, argv, names):
    out = tmp_path / Path(names[0]).parent
    assert _cli([*argv, "--out", str(out)], names) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_summary_runs_match_golden(tmp_path, argv, names):
    assert _cli([*argv, "--out", str(tmp_path)], names) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert _ordered(summary["runs"]) == _ordered(_golden_json("summary_runs.json")[" ".join(argv)])


def test_verify_checks_match_golden(tmp_path):
    assert main(["verify", "--trials", "8", "--seeds", "0", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert _ordered(report["checks"]) == _ordered(_golden_json("verify_checks.json"))


def mixed_csv(item: int) -> str:
    """The benchmark's mixed-sweep CSV for `item`: a GUE Hamiltonian of seed
    `item` and a fixed random basis, over t = 1 with 400 steps."""
    h, rho = sample_gue(GueConfig(dim=8, seed=item)), DensityMatrix(wishart_density(item))
    traj = sample_trajectory(h, rho, 1.0, 400)
    series = bound_series(traj, random_basis(8, item + 1_000_003))
    return "\n".join([BOUND_CSV_HEADER, *series.csv_rows()]) + "\n"


@pytest.mark.parametrize("item", range(4))
def test_mixed_sweep_csvs_match_golden_bytes(item):
    assert mixed_csv(item).encode("utf-8") == (GOLDEN / f"mixed/mixed_seed{item}.csv").read_bytes()
