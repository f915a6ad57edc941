"""Experiment runners: configs, artifacts, quarantine, property suite."""
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tqsl.bounds
import tqsl.experiments
from tqsl import (
    BOUND_CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    GueConfig,
    Observable,
    OptimizerConfig,
    SingularIntegrand,
    default_initial_state,
    bound_series,
    optimize_basis,
    random_basis,
    run_experiment_gue,
    run_experiment_spin,
    run_property_suite,
    sample_gue,
    sample_trajectory,
)
from tqsl.bounds import _Correction, _series
from tqsl.dynamics import _pure_trajectories
from tqsl.ensembles import _gue_draws
from tqsl.errors import _trusted
from tqsl.states import _eigenbases

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

    @pytest.mark.parametrize("seeds", [(True, False), (0, True), (1.5,), ("3",), (np.float64(2.0),), 3])
    def test_rejects_non_integer_seeds(self, seeds):
        # a bool is not taken as 0 or 1, a float or string not converted
        with pytest.raises(ConfigError, match="seeds must be nonnegative integers"):
            ExperimentConfig(kind="gue", seeds=seeds)

    def test_takes_integer_like_seeds(self):
        cfg = ExperimentConfig(kind="spin", seeds=(np.int64(4), np.uint8(1)))
        assert cfg.seeds == (4, 1) and all(type(s) is int for s in cfg.seeds)

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
        # both seeds are sampled once, as one stack, and nothing samples again
        sampled = []
        stacked = tqsl.experiments._pure_trajectories

        def counting(hs, psi0, times, hbar):
            sampled.append((len(hs), float(times[-1])))
            return stacked(hs, psi0, times, hbar)

        def again(*args, **kwargs):
            raise AssertionError("a trajectory was sampled again")

        monkeypatch.setattr(tqsl.experiments, "_pure_trajectories", counting)
        for module in (tqsl.experiments, tqsl.bounds):
            monkeypatch.setattr(module, "sample_trajectory", again)
        cfg = gue_config(tmp_path / "g", t_max=1.0, seeds=(0, 1), basis_mode="optimize")
        summary = run_experiment_gue(cfg)
        assert sampled == [(2, 1.0)]
        for run in summary["runs"]:
            h = sample_gue(GueConfig(dim=3, seed=run["seed"]))
            traj = sample_trajectory(h, default_initial_state(3), 1.0, 60)
            _, report = optimize_basis(traj, OptimizerConfig(seed=run["seed"]))
            assert run["basis_id"] == report.basis_id
            last = (tmp_path / "g" / run["csv"]).read_text(encoding="utf-8").splitlines()[-1]
            assert float(last.split(",")[2]) == pytest.approx(report.tau_tqsl, rel=1e-11)


    def test_optimize_sweep_writes_what_one_seed_runs_write(self, tmp_path):
        # one lockstep climb over every seed, against one run per seed: a
        # repeated seed, seeds whose window runs past validity, and a winning
        # series whose first row overshoots t on this coarse grid
        seeds = (0, 2, 1, 2, 4)
        cfg = gue_config(tmp_path / "all", t_max=3.0, steps=40, seeds=seeds, basis_mode="optimize")
        runs = run_experiment_gue(cfg)["runs"]
        for k, seed in enumerate(seeds):
            one = gue_config(tmp_path / str(k), t_max=3.0, steps=40, seeds=(seed,), basis_mode="optimize")
            (want,) = run_experiment_gue(one)["runs"]
            assert list(runs[k].items()) == list(want.items())
            if "csv" in want:
                name = want["csv"]
                assert (tmp_path / "all" / name).read_bytes() == (tmp_path / str(k) / name).read_bytes()
        assert [r["flags"][0].split(":")[1] if r["flags"] else "csv" for r in runs] == [
            "ValidityExceeded", "BoundViolation", "csv", "BoundViolation", "ValidityExceeded",
        ]


def _gue_drawn_one_at_a_time(dim: int, seed: int) -> np.ndarray:
    """A GUE matrix from three Generator.normal calls: the diagonal, then the
    real and the imaginary upper triangle."""
    rng = np.random.default_rng(seed)
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = rng.normal(0.0, math.sqrt(1.0 / dim), size=dim)
    rows, cols = np.triu_indices(dim, k=1)
    sigma = math.sqrt(1.0 / (2.0 * dim))
    re = rng.normal(0.0, sigma, size=len(rows))
    im = rng.normal(0.0, sigma, size=len(rows))
    h[rows, cols] = re + 1j * im
    h[cols, rows] = re - 1j * im
    return h


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStackedBlocks:
    """A gue sweep computes each block of seeds as one stack. Every CSV and
    run record must be what a one-seed sweep writes for that seed."""

    def sweep_per_seed(self, out: Path, cfg: ExperimentConfig, monkeypatch) -> list:
        """Each seed of cfg in a one-seed sweep of its own, against cfg's
        sweep; returns that sweep's runs and the sizes of the stacks it
        sampled, in order."""
        blocks = []
        stacked = tqsl.experiments._pure_trajectories

        def recording(hs, *args):
            blocks.append(len(hs))
            return stacked(hs, *args)

        monkeypatch.setattr(tqsl.experiments, "_pure_trajectories", recording)
        runs = run_experiment_gue(cfg)["runs"]
        swept = list(blocks)
        for k, seed in enumerate(cfg.seeds):
            one = dataclasses.replace(cfg, seeds=(seed,), output_path=str(out / str(k)))
            (want,) = run_experiment_gue(one)["runs"]
            assert list(runs[k].items()) == list(want.items()), seed
            if "csv" in want:
                name = want["csv"]
                got = (Path(cfg.output_path) / name).read_bytes()
                assert got == (out / str(k) / name).read_bytes(), seed
        return runs, swept

    @pytest.mark.parametrize("basis_mode", ["fixed-random", "identity", "optimize"])
    @pytest.mark.parametrize("count", [1, 4, 5, 50])
    @settings(max_examples=3, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 5]),
        hbar=st.sampled_from([1.0, 2.0]),
        t_max=st.sampled_from([1.0, 3.0]),
        drawn=st.lists(st.integers(0, 40), min_size=50, max_size=50),
    )
    def test_blocks_write_what_one_seed_sweeps_write(self, basis_mode, count, dim, hbar, t_max, drawn):
        # four seeds to a block, so the counts are one seed, one block, one
        # block and one seed more, and many blocks with a partial last one;
        # every list of two or more seeds repeats its first seed
        seeds = tuple(drawn[: count - 1] + drawn[:1]) if count > 1 else tuple(drawn[:1])
        steps = 24
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(tqsl.experiments, "BLOCK_ELEMENTS", 4 * steps * dim)
            # a shorter climb, the same for both sides
            mp.setattr(tqsl.experiments, "OptimizerConfig", lambda: OptimizerConfig(iterations=6))
            out = Path(tmp)
            cfg = ExperimentConfig(
                kind="gue", dim=dim, t_max=t_max, steps=steps, seeds=seeds, basis_mode=basis_mode,
                hbar=hbar, output_path=str(out / "all"),
            )
            runs, blocks = self.sweep_per_seed(out, cfg, mp)
        # a fixed-basis block with an error runs again one seed at a time
        expected = []
        for i in range(0, count, 4):
            block = runs[i : i + 4]
            expected.append(len(block))
            if basis_mode != "optimize" and any(f.startswith("error:") for r in block for f in r["flags"]):
                expected += [1] * len(block)
        assert blocks == expected
        if count == 50 and t_max == 3.0:
            # the long window turns the overlap around on most seeds
            assert any(f.startswith(("overlap-minimum", "error:ValidityExceeded")) for r in runs for f in r["flags"])

    @pytest.mark.parametrize("dim", [3, 8, 64])
    def test_stacks_match_one_item_calls_bit_for_bit(self, dim):
        seeds = [4, 0, 4, 9, 1]
        psi0 = default_initial_state(dim)
        draws = _gue_drawn_one_at_a_time
        h_stack = _gue_draws(dim, seeds)
        bases = _eigenbases(h_stack)
        times = np.linspace(0.0, 1.0, 200)
        trajs = _pure_trajectories([_trusted(Observable, matrix=m) for m in h_stack], psi0, times, 0.7)
        ids = [f"b{seed}" for seed in seeds]
        other = [seed + 100 for seed in seeds]  # bases that are no trajectory's eigenbasis
        series = _series(_Correction(*trajs), _eigenbases(_gue_draws(dim, other)), ids)
        for k, seed in enumerate(seeds):
            h = sample_gue(GueConfig(dim=dim, seed=seed))
            assert _same_bits(h.matrix.view(np.uint64), draws(dim, seed).view(np.uint64))
            assert _same_bits(h_stack[k].view(np.uint64), h.matrix.view(np.uint64))
            assert _same_bits(bases[k].view(np.uint64), random_basis(dim, seed).matrix.view(np.uint64))
            one = sample_trajectory(h, psi0, 1.0, 200, hbar=0.7)
            for name in ("times", "stack", "s0", "overlap"):
                assert _same_bits(getattr(trajs[k], name), getattr(one, name)), name
            assert (repr(trajs[k].delta_h), trajs[k].valid_until) == (repr(one.delta_h), one.valid_until)
            alone = bound_series(one, random_basis(dim, other[k]), ids[k])
            for name in ("t", "tau_mt", "correction", "tau_tqsl", "delta", "quad_error", "validity"):
                assert _same_bits(getattr(series[k], name), getattr(alone, name)), name
            assert (series[k].basis_id, series[k].step) == (alone.basis_id, alone.step)

    def test_the_draw_order_is_generator_normal_s(self):
        for dim in (2, 3, 8):
            for seed in range(100):
                got = sample_gue(GueConfig(dim=dim, seed=seed)).matrix
                assert _same_bits(got.view(np.uint64), _gue_drawn_one_at_a_time(dim, seed).view(np.uint64))

    def doctor(self, monkeypatch, seed: int, matrix):
        """Seed `seed`'s GUE draw becomes `matrix`, in any block."""
        real = tqsl.experiments._gue_draws

        def doctored(dim, seeds):
            h = np.array(real(dim, seeds))
            h[np.array(seeds) == seed] = matrix
            return h

        monkeypatch.setattr(tqsl.experiments, "_gue_draws", doctored)

    def test_an_error_stays_with_its_seed(self, tmp_path, monkeypatch):
        # seed 7's Hamiltonian is 2 * identity, in the middle of a block
        self.doctor(monkeypatch, 7, 2.0 * np.eye(3))
        monkeypatch.setattr(tqsl.experiments, "BLOCK_ELEMENTS", 4 * 60 * 3)
        cfg = gue_config(tmp_path / "all", seeds=(5, 6, 7, 8, 9, 10))
        runs, blocks = self.sweep_per_seed(tmp_path, cfg, monkeypatch)
        # the first block failed and ran again seed by seed
        assert blocks == [4, 1, 1, 1, 1, 2]
        assert runs[2]["flags"][0].startswith("error:ZeroEnergyVariance:energy spread")
        assert [k for k, r in enumerate(runs) if any(f.startswith("error:") for f in r["flags"])] == [2]

    def test_a_crash_ends_the_sweep_after_the_earlier_seeds(self, tmp_path, monkeypatch):
        # a non-finite Hamiltonian is no QslError: as one seed after another,
        # the sweep writes seeds 5 and 6, then raises on seed 7
        self.doctor(monkeypatch, 7, np.full((3, 3), np.nan))
        monkeypatch.setattr(tqsl.experiments, "BLOCK_ELEMENTS", 4 * 60 * 3)
        cfg = gue_config(tmp_path / "all", seeds=(5, 6, 7, 8, 9, 10))
        with pytest.raises(ValueError, match="finite"):
            run_experiment_gue(cfg)
        assert sorted(p.name for p in (tmp_path / "all").iterdir()) == ["gue_seed5.csv", "gue_seed6.csv"]


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
        def explode(correction, bases, basis_ids):
            raise SingularIntegrand("boom")

        monkeypatch.setattr(tqsl.experiments, "_series", explode)
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
