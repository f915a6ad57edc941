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
  kets and density matrices instead of a byte pin. Its three spin
  min_fidelity values alone were recaptured, each moved by at most 1.0e-15
  (within the numeric rule), when the closed-form spin oracle became a
  Walsh-Hadamard transform pair; every spin CSV kept its bytes.
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
  the mixed sampled trajectory stopped re-checking its roots, and
  recaptured when the mixed roots became sqrt(rho0) U_t^dagger: every
  value moved by at most 3.6e-12 of its column's scale (csv_drift), and
  quad_error by 1e-16 of tau_tqsl's. These bytes do not move with the
  BLAS thread count.
- blas_kernel.txt: the OpenBLAS core the byte pins above were captured on;
  the session header prints it beside the core in use. The rerun test
  compares two runs with each other instead, so it holds on any core.

Beside the byte pins, every CLI case, mixed/ CSV and summary_runs.json
entry is also compared numerically (csv_drift, runs_drift): headers, row
counts, the validity column, flags, basis_ids and labels exactly, and each
float within NUMERIC_RTOL of its column's largest golden magnitude
(quad_error on tau_tqsl's scale, see csv_drift). The largest drift
measured under OpenBLAS's Haswell and Prescott cores is 8.6e-12 of that
scale, so these pins hold off the capture core too.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


NUMERIC_RTOL = 1e-10


def _drift(name: str, got: list, want: list, scale: float = 0.0) -> str | None:
    """Why a column of values does not match its golden one, or None: floats
    within NUMERIC_RTOL of the larger of `scale` and the golden column's
    largest magnitude, anything else (labels, flags, None) exactly."""
    numbers = [isinstance(w, float) and isinstance(g, float) for g, w in zip(got, want)]
    exact = [(g, w) for g, w, n in zip(got, want, numbers) if not n]
    if any(g != w for g, w in exact):
        return f"{name}: {next((g, w) for g, w in exact if g != w)}"
    pairs = np.array([(g, w) for g, w, n in zip(got, want, numbers) if n]).reshape(-1, 2)
    if not len(pairs):
        return None
    worst = np.abs(pairs[:, 0] - pairs[:, 1]).max()
    tol = NUMERIC_RTOL * max(scale, np.abs(pairs[:, 1]).max())
    return None if worst <= tol else f"{name}: drift {worst:.3e} beyond {tol:.3e}"


def csv_drift(got: str, want: str) -> list:
    """How a CSV's text differs from its golden text beyond the numeric
    rule: the header and row count exactly, the validity column exactly,
    and every other column as floats (_drift). quad_error is |full - half|
    / 3 of two quadratures of the correction, so its round-off is on the
    scale of tau_tqsl, not of its own size: it is compared on that scale."""
    got_rows, want_rows = ([line.split(",") for line in text.splitlines()] for text in (got, want))
    header = want_rows[0]
    if got_rows[0] != header or len(got_rows) != len(want_rows):
        return [f"header {got_rows[0]} and {len(got_rows)} lines, golden {header} and {len(want_rows)} lines"]
    if any(len(row) != len(header) for row in got_rows):
        return ["a row has the wrong number of cells"]
    got_cols, want_cols = ({name: [v if name == "validity" else float(v) for v in col]
                            for name, col in zip(header, zip(*rows[1:]))} for rows in (got_rows, want_rows))
    integral = max(map(abs, want_cols["tau_tqsl"]))
    drifts = (_drift(name, got_cols[name], want_cols[name], integral if name == "quad_error" else 0.0)
              for name in header)
    return [d for d in drifts if d]


def runs_drift(got: list, want: list) -> list:
    """How summary run records differ from their golden ones beyond the
    numeric rule: the same keys in the same order, each key's values
    compared across the runs as one column (_drift)."""
    keys = [list(r) for r in want]
    if [list(r) for r in got] != keys:
        return [f"keys {[list(r) for r in got]}, golden {keys}"]
    drifts = (_drift(key, [r[key] for r in got], [r[key] for r in want]) for key in dict.fromkeys(sum(keys, [])))
    return [d for d in drifts if d]


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


@pytest.mark.parametrize("argv, names", [case for case in CASES if case[0][0] == "spin"])
def test_spin_fidelity_columns_read_one(argv, names):
    # the closed-form state's overlap with the sampled one prints as 1 on
    # every row; the byte pins above hold each case's output to these files
    for name in names:
        rows = [line.split(",") for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines()]
        assert rows[0][-1] == "fidelity" and {row[-1] for row in rows[1:]} == {"1"}, name


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_summary_runs_match_golden(tmp_path, argv, names):
    assert _cli([*argv, "--out", str(tmp_path)], names) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert _ordered(summary["runs"]) == _ordered(_golden_json("summary_runs.json")[" ".join(argv)])


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_reruns_are_identical(tmp_path, argv, names):
    # the rerun guarantee, which holds on any BLAS kernel: two runs of one
    # case in this process, into fresh directories, write the same CSV
    # bytes, and summaries that differ only in the output path they record
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main([*argv, "--out", str(out)]) == 0
    csvs = [{p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))} for out in outs]
    assert len(csvs[0]) == len(names) and csvs[0] == csvs[1]
    summaries = [json.loads((out / "summary.json").read_text(encoding="utf-8")) for out in outs]
    assert [s["config"].pop("output_path") for s in summaries] == [str(out) for out in outs]
    assert json.dumps(summaries[0]) == json.dumps(summaries[1])


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


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory) -> dict:
    """Each CLI case run once, for the numeric pins: its output directory."""
    runs = {}
    for argv, names in CASES:
        out = tmp_path_factory.mktemp("numeric")
        assert _cli([*argv, "--out", str(out)], names) == 0
        runs[" ".join(argv)] = out
    return runs


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_csvs_match_golden_numbers(cli_runs, argv, names):
    out = cli_runs[" ".join(argv)]
    for name in names:
        got = (out / Path(name).name).read_text(encoding="utf-8")
        assert csv_drift(got, (GOLDEN / name).read_text(encoding="utf-8")) == [], name


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_summary_runs_match_golden_numbers(cli_runs, argv, names):
    key = " ".join(argv)
    summary = json.loads((cli_runs[key] / "summary.json").read_text(encoding="utf-8"))
    assert runs_drift(summary["runs"], _golden_json("summary_runs.json")[key]) == []


@pytest.mark.parametrize("item", range(4))
def test_mixed_sweep_csvs_match_golden_numbers(item):
    assert csv_drift(mixed_csv(item), (GOLDEN / f"mixed/mixed_seed{item}.csv").read_text(encoding="utf-8")) == []


class TestNumericRule:
    """The numeric pins catch a 1e-9 relative change to one value and pass
    a 1e-13 one."""

    def golden(self) -> list:
        return [line.split(",") for line in (GOLDEN / "gue_seed1.csv").read_text(encoding="utf-8").splitlines()]

    @staticmethod
    def text(rows: list) -> str:
        return "\n".join(",".join(row) for row in rows) + "\n"

    @pytest.mark.parametrize("rel, caught", [(1e-9, True), (1e-13, False)])
    def test_one_csv_value(self, rel, caught):
        rows = self.golden()
        col = rows[0].index("tau_tqsl")
        k = max(range(1, len(rows)), key=lambda i: abs(float(rows[i][col])))  # the column's largest value
        rows[k][col] = repr(float(rows[k][col]) * (1.0 + rel))
        drift = csv_drift(self.text(rows), self.text(self.golden()))
        assert bool(drift) is caught and all(d.startswith("tau_tqsl:") for d in drift)

    def test_labels_and_row_count_compare_exactly(self):
        rows, want = self.golden(), self.golden()
        col = rows[0].index("validity")
        rows[1][col] = "false" if rows[1][col] == "true" else "true"
        assert csv_drift(self.text(rows), self.text(want)) == [f"validity: {(rows[1][col], want[1][col])}"]
        assert csv_drift(self.text(want[:-1]), self.text(want))

    @pytest.mark.parametrize("rel, caught", [(1e-9, True), (1e-13, False)])
    def test_one_summary_value(self, rel, caught):
        want = _golden_json("summary_runs.json")["gue --dim 3 --steps 60 --seeds 0-2"]
        got = json.loads(json.dumps(want))
        k = max(range(len(got)), key=lambda i: got[i]["max_delta"])
        got[k]["max_delta"] *= 1.0 + rel
        assert bool(runs_drift(got, want)) is caught
        got[k]["max_delta"] = want[k]["max_delta"]
        got[0]["basis_id"] += " "
        assert runs_drift(got, want) == [f"basis_id: {(got[0]['basis_id'], want[0]['basis_id'])}"]
