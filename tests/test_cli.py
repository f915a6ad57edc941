"""Argument parsing, exit codes, and console output."""
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import tqsl
import tqsl.cli
from tqsl import ConfigError
from tqsl.cli import main, parse_blocks, parse_seeds


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("0-49") == tuple(range(50))

    def test_list(self):
        assert parse_seeds("0,3,7") == (0, 3, 7)

    def test_mixed(self):
        assert parse_seeds("0-2,9,11-12") == (0, 1, 2, 9, 11, 12)

    def test_whitespace(self):
        assert parse_seeds(" 1 , 2 ") == (1, 2)

    def test_negative_seed_parses_without_range_split(self):
        # a leading '-' belongs to the number, not a range; the config layer
        # rejects negative seeds later
        assert parse_seeds("-3") == (-3,)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError, match="bad seed list"):
            parse_seeds("one,two")

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="no seeds"):
            parse_seeds("")

    def test_rejects_backwards_range(self):
        with pytest.raises(ConfigError, match="empty seed range"):
            parse_seeds("5-3")


class TestParseBlocks:
    def test_single_block(self):
        assert parse_blocks("1,2") == ((1, 2),)

    def test_multiple_blocks(self):
        assert parse_blocks("1,2;2,3") == ((1, 2), (2, 3))

    def test_empty_gives_no_blocks(self):
        assert parse_blocks("") == ()
        assert parse_blocks("  ") == ()

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError, match="bad block list"):
            parse_blocks("1,a")


class TestMain:
    def test_gue_success(self, tmp_path, capsys):
        code = main(
            [
                "gue",
                "--dim",
                "3",
                "--tmax",
                "1.5",
                "--steps",
                "40",
                "--seeds",
                "0,1",
                "--out",
                str(tmp_path / "g"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed 0: min_delta=" in out
        assert "seed 1: min_delta=" in out
        assert out.strip().endswith("summary.json")
        assert (tmp_path / "g" / "summary.json").exists()

    def test_spin_success(self, tmp_path, capsys):
        code = main(
            [
                "spin",
                "--spins",
                "2",
                "--blocks",
                "1,2",
                "--tmax",
                "0.7",
                "--steps",
                "40",
                "--seeds",
                "0",
                "--basis",
                "identity",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 0
        assert "seed 0: min_delta=" in capsys.readouterr().out

    def test_verify_success(self, tmp_path, capsys):
        code = main(["verify", "--trials", "12", "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("ok  ") == 12
        assert "FAIL" not in out
        assert out.strip().endswith("passed")
        report = json.loads((tmp_path / "v" / "verify.json").read_text(encoding="utf-8"))
        assert report["passed"]

    def test_config_error_exits_two(self, tmp_path, capsys):
        code = main(["gue", "--dim", "1", "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error:")
        assert "dim" in captured.err

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        code = main(["gue", "--seeds", "-1", "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error:")
        assert "nonnegative" in captured.err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gue", "--tmax", "nan"],
            ["gue", "--hbar", "nan"],
            ["gue", "--hbar", "inf"],
            ["spin", "--omega", "nan"],
            ["spin", "--omega0", "inf"],
        ],
        ids=["tmax-nan", "hbar-nan", "hbar-inf", "omega-nan", "omega0-inf"],
    )
    def test_non_finite_scale_exits_two(self, tmp_path, capsys, argv):
        code = main([*argv, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error:")
        assert f"{argv[1].lstrip('-').replace('tmax', 't_max')} must be positive and finite" in captured.err
        assert not (tmp_path / "o").exists()

    def test_verify_with_two_seeds_exits_two(self, tmp_path, capsys):
        # the suite runs one seed, so it must not accept and echo a second
        code = main(["verify", "--trials", "8", "--seeds", "3,9", "--out", str(tmp_path / "v")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error:")
        assert "one seed" in captured.err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("kind, seeds, repeated",
                             [("gue", "0,0,1", 0), ("gue", "0-3,2", 2), ("spin", "5,1,5", 5)])
    def test_repeated_seed_exits_two(self, tmp_path, capsys, kind, seeds, repeated):
        # a repeated seed would compute one CSV twice and list it twice
        code = main([kind, "--seeds", seeds, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error:")
        assert f"seeds must be distinct, got {repeated} more than once" in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["gue", "verify"])
    @pytest.mark.parametrize("inside", [False, True], ids=["file", "under-file"])
    def test_unusable_out_exits_two(self, tmp_path, capsys, kind, inside):
        # an existing file, or a path under one, cannot be the output directory
        taken = tmp_path / "taken.txt"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken / "o" if inside else taken
        code = main([kind, "--seeds", "0", *(["--trials", "1"] if kind == "verify" else []), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: output directory")
        assert taken.read_text(encoding="utf-8") == "kept\n"

    def test_bad_block_site_exits_two(self, tmp_path, capsys):
        code = main(
            ["spin", "--spins", "2", "--blocks", "1,5", "--out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_bound_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def fake_run(cfg):
            return {
                "config": {"output_path": str(tmp_path)},
                "runs": [{"seed": 0, "min_delta": None, "max_delta": None, "flags": ["error:X:y"]}],
                "ok": False,
            }

        monkeypatch.setattr(tqsl.cli, "run_experiment_gue", fake_run)
        code = main(["gue", "--seeds", "0", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "seed 0: failed" in out

    def test_failing_suite_exits_one(self, tmp_path, capsys, monkeypatch):
        def fake_suite(cfg):
            return {
                "checks": [
                    {
                        "name": "pure-chain",
                        "trials": 1,
                        "worst_slack": -1.0,
                        "tolerance": 1e-9,
                        "passed": False,
                    }
                ],
                "passed": False,
            }

        monkeypatch.setattr(tqsl.cli, "run_property_suite", fake_suite)
        code = main(["verify", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL pure-chain" in out
        assert out.strip().endswith("failed")


# The import root of the tqsl this process imported (src/ in a checkout).
IMPORT_ROOT = Path(tqsl.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The wrapper an installer writes for a console script: distlib's
# SCRIPT_TEMPLATE, as pip uses it, behind a shebang naming the interpreter.
SCRIPT_TEMPLATE = """#!{python}
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.exit({attr}())
"""


def run_cli(argv):
    """Run argv in a subprocess that imports the same tqsl as this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(IMPORT_ROOT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)


class TestInstalledScript:
    def test_module_execution(self, tmp_path):
        proc = run_cli(
            [sys.executable, "-m", "tqsl.cli", "verify", "--trials", "8", "--out", str(tmp_path / "v")]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("passed")

    def test_console_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "tqsl" in scripts, "pyproject.toml declares no 'tqsl' console script"
        entry = EntryPoint(name="tqsl", value=scripts["tqsl"], group="console_scripts")
        assert callable(entry.load())

        script = tmp_path / "tqsl"
        script.write_text(
            SCRIPT_TEMPLATE.format(
                python=sys.executable,
                module=entry.module,
                attr=entry.attr,
            ),
            encoding="utf-8",
        )
        script.chmod(0o755)

        proc = run_cli([str(script), "verify", "--trials", "8", "--out", str(tmp_path / "v")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("passed")

        # the entry point passes main's exit code through
        proc = run_cli([str(script), "gue", "--dim", "1", "--out", str(tmp_path / "g")])
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.skipif(shutil.which("tqsl") is None, reason="no 'tqsl' console script on PATH")
    def test_installed_console_script(self, tmp_path):
        proc = run_cli(
            [shutil.which("tqsl"), "verify", "--trials", "8", "--out", str(tmp_path / "v")]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("passed")
