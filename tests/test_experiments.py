"""Experiment runners: configs, artifacts, quarantine, property suite."""
import json
import math

import numpy as np
import pytest

import tqsl.bounds
import tqsl.experiments
from tqsl import (
    BOUND_CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    GueConfig,
    OptimizerConfig,
    SingularIntegrand,
    default_initial_state,
    optimize_basis,
    run_experiment_gue,
    run_experiment_spin,
    run_property_suite,
    sample_gue,
    sample_trajectory,
)

EXPECTED_CHECKS = {
    "pure-chain",
    "mixed-chain",
    "moment-identity",
    "f-positivity",
    "side-insensitivity",
    "pure-reduction",
    "state-lift-agreement",
    "bargmann-symmetry",
    "correction-nonnegative",
    "delta-nonnegative",
    "quadrature-order",
    "hermiticity-rejection",
}


def gue_config(out, **overrides):
    kw = dict(
        kind="gue",
        dim=3,
        t_max=1.5,
        steps=60,
        seeds=(0, 1, 2),
        basis_mode="fixed-random",
        output_path=str(out),
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestExperimentConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig(kind="banana")

    def test_rejects_unknown_basis_mode(self):
        with pytest.raises(ConfigError, match="basis_mode"):
            ExperimentConfig(kind="gue", basis_mode="diagonal")

    def test_rejects_degenerate_numerics(self):
        with pytest.raises(ConfigError, match="steps"):
            ExperimentConfig(kind="gue", steps=1)
        with pytest.raises(ConfigError, match="t_max"):
            ExperimentConfig(kind="gue", t_max=0.0)
        with pytest.raises(ConfigError, match="hbar"):
            ExperimentConfig(kind="gue", hbar=0.0)
        with pytest.raises(ConfigError, match="dim"):
            ExperimentConfig(kind="gue", dim=1)
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(kind="verify", trials=0)

    @pytest.mark.parametrize("field", ["t_max", "hbar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scales(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
            ExperimentConfig(kind="gue", **{field: value})

    @pytest.mark.parametrize("field", ["dim", "num_spins", "steps", "trials"])
    def test_rejects_non_integer_counts(self, field):
        # a fractional count is rejected, not truncated, and a bool is no count
        for value in (2.5, True):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                ExperimentConfig(kind="gue", **{field: value})
        cfg = ExperimentConfig(kind="gue", **{field: np.int64(3)})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3

    def test_gue_needs_seeds(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(kind="gue", seeds=())

    @pytest.mark.parametrize("kind", ["gue", "spin", "verify"])
    def test_rejects_negative_seeds(self, kind):
        with pytest.raises(ConfigError, match="nonnegative"):
            ExperimentConfig(kind=kind, seeds=(0, -1))

    def test_rejects_fractional_seeds(self):
        # a fractional seed is rejected, not truncated to an integer
        with pytest.raises(ConfigError, match="integers"):
            ExperimentConfig(kind="gue", seeds=(1.7, 2.2))

    def test_default_seeds_per_kind(self):
        # verify takes one seed, so it defaults to one; the sweeps keep three
        assert ExperimentConfig(kind="verify").seeds == (0,)
        assert ExperimentConfig(kind="gue").seeds == (0, 1, 2)
        assert ExperimentConfig(kind="spin").seeds == (0, 1, 2)

    def test_verify_runs_without_seeds(self):
        cfg = ExperimentConfig(kind="verify", seeds=())
        assert cfg.seeds == ()

    def test_blocks_normalized(self):
        cfg = ExperimentConfig(kind="spin", blocks=[[1, 2]])
        assert cfg.blocks == ((1, 2),)

    @pytest.mark.parametrize("block", [(1.7, 2), (True, 2)])
    def test_rejects_non_integer_block_sites(self, block):
        # truncation would have made both blocks (1, 2)
        with pytest.raises(ConfigError, match="block site must be an integer"):
            ExperimentConfig(kind="spin", blocks=(block, (2, 3)))


class TestDefaultInitialState:
    def test_dim_three_weights(self):
        psi = default_initial_state(3)
        np.testing.assert_allclose(
            np.abs(psi.amplitudes) ** 2, [0.1, 0.2, 0.7], atol=1e-12
        )

    def test_other_dims_uniform(self):
        psi = default_initial_state(4)
        np.testing.assert_allclose(psi.amplitudes, np.full(4, 0.5), atol=1e-12)

    def test_normalized(self):
        for dim in (2, 3, 5):
            assert np.linalg.norm(default_initial_state(dim).amplitudes) == pytest.approx(1.0)


class TestRunGue:
    def test_small_batch(self, tmp_path):
        cfg = gue_config(tmp_path / "g")
        summary = run_experiment_gue(cfg)
        assert summary["ok"]
        assert len(summary["runs"]) == 3
        for seed, run in zip((0, 1, 2), summary["runs"]):
            assert run["seed"] == seed
            assert run["min_delta"] >= -1e-9
            assert run["max_delta"] >= run["min_delta"]
            assert run["csv"] == f"gue_seed{seed}.csv"
            assert run["basis_id"] == f"gue-eigenbasis:seed={seed + 1_000_003}"
            assert not any(f.startswith("error:") for f in run["flags"])
            assert (tmp_path / "g" / run["csv"]).exists()
        assert (tmp_path / "g" / "summary.json").exists()
        assert summary["config"]["steps"] == 60

    def test_csv_layout_and_zero_time_row(self, tmp_path):
        cfg = gue_config(tmp_path / "g")
        run_experiment_gue(cfg)
        text = (tmp_path / "g" / "gue_seed0.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == BOUND_CSV_HEADER
        assert len(lines) == 61
        assert lines[1] == "0,0,0,0,0,true"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = gue_config(tmp_path / "g")
        run_experiment_gue(cfg)
        first = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "g").iterdir())
        }
        run_experiment_gue(cfg)
        second = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "g").iterdir())
        }
        assert first == second
        assert set(first) == {"gue_seed0.csv", "gue_seed1.csv", "gue_seed2.csv", "summary.json"}

    def test_summary_json_round_trips(self, tmp_path):
        cfg = gue_config(tmp_path / "g", seeds=(5,))
        summary = run_experiment_gue(cfg)
        loaded = json.loads((tmp_path / "g" / "summary.json").read_text(encoding="utf-8"))
        assert loaded == json.loads(json.dumps(summary))

    def test_identity_basis_mode(self, tmp_path):
        cfg = gue_config(tmp_path / "g", seeds=(0,), basis_mode="identity")
        summary = run_experiment_gue(cfg)
        assert summary["runs"][0]["basis_id"] == "identity"

    def test_rejects_wrong_kind(self, tmp_path):
        cfg = ExperimentConfig(kind="verify", output_path=str(tmp_path))
        with pytest.raises(ConfigError, match="gue"):
            run_experiment_gue(cfg)

    def test_optimize_mode_samples_once_and_matches_optimize_basis(self, tmp_path, monkeypatch):
        sampled = []

        def counting(*args, **kwargs):
            sampled.append(args[2])
            return sample_trajectory(*args, **kwargs)

        for module in (tqsl.experiments, tqsl.bounds):
            monkeypatch.setattr(module, "sample_trajectory", counting)
        cfg = gue_config(tmp_path / "g", t_max=1.0, seeds=(0, 1), basis_mode="optimize")
        summary = run_experiment_gue(cfg)
        assert sampled == [1.0, 1.0]
        for run in summary["runs"]:
            h = sample_gue(GueConfig(dim=3, seed=run["seed"]))
            traj = sample_trajectory(h, default_initial_state(3), 1.0, 60)
            _, report = optimize_basis(traj, OptimizerConfig(seed=run["seed"]))
            assert run["basis_id"] == report.basis_id
            last = (tmp_path / "g" / run["csv"]).read_text(encoding="utf-8").splitlines()[-1]
            assert float(last.split(",")[2]) == pytest.approx(report.tau_tqsl, rel=1e-11)


class TestRunSpin:
    def spin_config(self, out, **overrides):
        kw = dict(
            kind="spin",
            num_spins=2,
            blocks=((1, 2),),
            t_max=0.7,
            steps=50,
            seeds=(0,),
            basis_mode="identity",
            output_path=str(out),
        )
        kw.update(overrides)
        return ExperimentConfig(**kw)

    def test_clean_window(self, tmp_path):
        summary = run_experiment_spin(self.spin_config(tmp_path / "s"))
        assert summary["ok"]
        run = summary["runs"][0]
        assert run["min_delta"] >= -1e-9
        assert run["min_fidelity"] >= 1.0 - 1e-10
        assert run["flags"] == []
        lines = (tmp_path / "s" / "spin_seed0.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == BOUND_CSV_HEADER + ",fidelity"
        assert lines[1] == "0,0,0,0,0,true,1"
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_overlap_minimum_is_flagged_not_fatal(self, tmp_path):
        # the |00> overlap under omega0 = omega = 1 turns around at pi/4
        summary = run_experiment_spin(self.spin_config(tmp_path / "s", t_max=2.0, steps=100))
        run = summary["runs"][0]
        assert summary["ok"]
        assert len(run["flags"]) == 1
        flag = run["flags"][0]
        assert flag.startswith("overlap-minimum@t=")
        assert float(flag.split("=")[1]) == pytest.approx(math.pi / 4, abs=0.05)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.spin_config(tmp_path / "s")
        run_experiment_spin(cfg)
        first = (tmp_path / "s" / "spin_seed0.csv").read_bytes()
        run_experiment_spin(cfg)
        assert (tmp_path / "s" / "spin_seed0.csv").read_bytes() == first

    def test_rejects_wrong_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="spin"):
            run_experiment_spin(gue_config(tmp_path))


class TestErrorQuarantine:
    def test_failing_run_is_flagged_and_batch_continues(self, tmp_path, monkeypatch):
        def explode(traj, basis, basis_id="user"):
            raise SingularIntegrand("boom")

        monkeypatch.setattr(tqsl.experiments, "bound_series", explode)
        cfg = gue_config(tmp_path / "g", seeds=(0, 1))
        summary = run_experiment_gue(cfg)
        assert not summary["ok"]
        assert len(summary["runs"]) == 2
        for run in summary["runs"]:
            assert run["min_delta"] is None
            assert run["flags"] == ["error:SingularIntegrand:boom"]
            assert "csv" not in run
        assert (tmp_path / "g" / "summary.json").exists()
        assert not (tmp_path / "g" / "gue_seed0.csv").exists()


class TestPropertySuite:
    def verify_config(self, out, **overrides):
        kw = dict(kind="verify", trials=40, seeds=(0,), output_path=str(out))
        kw.update(overrides)
        return ExperimentConfig(**kw)

    def test_suite_passes(self, tmp_path):
        report = run_property_suite(self.verify_config(tmp_path / "v"))
        assert report["passed"]
        assert {c["name"] for c in report["checks"]} == EXPECTED_CHECKS
        for check in report["checks"]:
            assert check["passed"], check
            assert set(check) == {"name", "trials", "worst_slack", "tolerance", "passed"}
            assert check["worst_slack"] >= -check["tolerance"]
        assert (tmp_path / "v" / "verify.json").exists()

    def test_deterministic_rerun(self, tmp_path):
        cfg = self.verify_config(tmp_path / "v")
        first = run_property_suite(cfg)
        second = run_property_suite(cfg)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_doubled_identity_diagnostic_is_nonzero(self, tmp_path):
        # the doubled mean product is quarantined as a diagnostic precisely
        # because it is far from an identity on generic draws
        report = run_property_suite(self.verify_config(tmp_path / "v"))
        assert report["diagnostics"]["doubled_mean_product_residual_max"] > 0.1

    def test_rejects_wrong_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="verify"):
            run_property_suite(gue_config(tmp_path))

    def test_bare_config_runs(self, tmp_path):
        # no seeds given: the verify default must be a seed the suite takes
        cfg = ExperimentConfig(kind="verify", trials=8, output_path=str(tmp_path / "v"))
        report = run_property_suite(cfg)
        assert report["config"]["seeds"] == (0,)
        assert report["passed"]

    def test_takes_one_seed(self, tmp_path):
        # the suite runs one seed, so it must not accept and echo a second
        with pytest.raises(ConfigError, match="one seed"):
            run_property_suite(self.verify_config(tmp_path / "v", seeds=(3, 9)))
        assert not (tmp_path / "v").exists()
