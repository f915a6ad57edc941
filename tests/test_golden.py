"""CSV artifacts pinned byte-for-byte to files captured before the
trajectory and bound series moved to stacked arrays (tests/golden/), and,
under tests/golden/optimize/, before optimize_basis prepared its correction
kernel and batched its direction eigensystems."""
from pathlib import Path

import pytest

from tqsl.cli import main

GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["gue", "--dim", "3", "--steps", "60", "--seeds", "0-2"], [f"gue_seed{s}.csv" for s in range(3)]),
        (["spin", "--spins", "3"], ["spin_seed0.csv"]),
        (
            ["gue", "--basis", "optimize", "--dim", "3", "--tmax", "1.0", "--steps", "60", "--seeds", "0-2"],
            [f"optimize/gue_seed{s}.csv" for s in range(3)],
        ),
    ],
)
def test_cli_csvs_match_golden_bytes(tmp_path, argv, names):
    out = tmp_path / Path(names[0]).parent
    assert main([*argv, "--out", str(out)]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
