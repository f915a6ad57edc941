"""CLI artifacts pinned to files captured before refactors of the code
behind them (tests/golden/).

- The CSVs, byte for byte: captured before the trajectory and bound series
  moved to stacked arrays, and, under optimize/, before optimize_basis
  prepared its correction kernel and batched its direction eigensystems.
- summary_runs.json: the summary "runs" of the same CLI cases, and
  verify_checks.json: the "checks" of `verify --trials 8 --seeds 0`, both
  captured before the two sweeps shared one runner and the property checks
  one verdict rule. Its quadrature-order slack alone was recaptured when the
  bound's two trapezoid codes became one cumulative routine.
- spin8/: the 8-spin chain, CSVs and summary runs, captured before the
  closed-form spin oracle took the whole time grid in one call.
- identity/: a 13-seed identity-basis sweep at d = 4, CSVs and summary
  runs, captured before fixed-basis sweeps computed their seeds in stacked
  blocks. 12 of its seeds carry an overlap-minimum flag, and 13 seeds fill
  no whole number of blocks, so a partial block is pinned too.
"""
import json
from pathlib import Path

import pytest

from tqsl.cli import main

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


def _golden_json(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _ordered(records: list) -> list:
    """Each record as its (key, value) pairs, so key order counts too."""
    return [list(r.items()) for r in records]


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_csvs_match_golden_bytes(tmp_path, argv, names):
    out = tmp_path / Path(names[0]).parent
    assert main([*argv, "--out", str(out)]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("argv, names", CASES)
def test_cli_summary_runs_match_golden(tmp_path, argv, names):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert _ordered(summary["runs"]) == _ordered(_golden_json("summary_runs.json")[" ".join(argv)])


def test_verify_checks_match_golden(tmp_path):
    assert main(["verify", "--trials", "8", "--seeds", "0", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert _ordered(report["checks"]) == _ordered(_golden_json("verify_checks.json"))
