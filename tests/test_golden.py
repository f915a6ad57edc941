"""CSV artifacts pinned byte-for-byte to files captured before the
trajectory and bound series moved to stacked arrays (tests/golden/)."""
from pathlib import Path

import pytest

from tqsl.cli import main

GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["gue", "--dim", "3", "--steps", "60", "--seeds", "0-2"], [f"gue_seed{s}.csv" for s in range(3)]),
        (["spin", "--spins", "3"], ["spin_seed0.csv"]),
    ],
)
def test_cli_csvs_match_golden_bytes(tmp_path, argv, names):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
