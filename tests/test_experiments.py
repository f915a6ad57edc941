"""Experiment runners: configs, artifacts, quarantine, property suite."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tqsl
import tqsl.bounds
import tqsl.cli
import tqsl.experiments
from tqsl import (
    BOUND_CSV_HEADER,
    BlockIndexOutOfRange,
    BoundViolation,
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
from tqsl.linalg import eigh

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


def serial() -> int:
    """In place of experiments._cores: a sweep runs in this one process,
    so that a test can count the calls it makes."""
    return 1


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


BAD_SPIN_CHAINS = [
    (dict(num_spins=11), ConfigError, "num_spins must be in 1..10"),
    (dict(blocks=((1, 5),)), BlockIndexOutOfRange, "site 5 outside 1..2"),
    (dict(omega0=-1.0), ConfigError, "omega0 must be positive"),
]


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

    @pytest.mark.parametrize("seeds", [(), (3, 9)], ids=["none", "two"])
    def test_verify_takes_one_seed(self, seeds):
        # the suite runs one seed, so a config that names none or two is refused
        with pytest.raises(ConfigError, match=f"verify runs take one seed, got {len(seeds)}"):
            ExperimentConfig(kind="verify", seeds=seeds)

    @pytest.mark.parametrize("kind", ["gue", "spin", "verify"])
    @pytest.mark.parametrize("seeds, repeated", [((0, 0, 1), 0), ((0, 1, 2, 3, 2), 2), ((7, 3, 7, 3), 7),
                                                 ((np.int64(4), 4), 4)])
    def test_rejects_repeated_seeds(self, kind, seeds, repeated):
        # one seed twice would write one CSV twice and list it twice in the summary
        with pytest.raises(ConfigError, match=f"seeds must be distinct, got {repeated} more than once"):
            ExperimentConfig(kind=kind, seeds=seeds)

    def test_takes_distinct_seeds_in_any_order(self):
        assert ExperimentConfig(kind="gue", seeds=(3, 0, 2, 1)).seeds == (3, 0, 2, 1)

    def test_blocks_normalized(self):
        cfg = ExperimentConfig(kind="spin", blocks=[[1, 2]])
        assert cfg.blocks == ((1, 2),)

    @pytest.mark.parametrize("fields, error, match", BAD_SPIN_CHAINS)
    def test_rejects_a_bad_spin_chain(self, fields, error, match):
        # refused where the config is built, not once run_experiment_spin starts
        with pytest.raises(error, match=match):
            ExperimentConfig(kind="spin", **fields)

    @pytest.mark.parametrize("kind", ["gue", "verify"])
    @pytest.mark.parametrize("fields, error, match", BAD_SPIN_CHAINS)
    def test_every_kind_rejects_a_bad_spin_chain(self, kind, fields, error, match):
        # the spin fields are checked whatever the kind, as dim is: a config
        # holds no invalid field for summary.json to record
        with pytest.raises(error, match=match):
            ExperimentConfig(kind=kind, **fields)

    def test_every_kind_rejects_every_bad_field(self):
        with pytest.raises(ConfigError, match="dim"):
            ExperimentConfig(kind="spin", dim=1)
        with pytest.raises(ConfigError, match="num_spins"):
            ExperimentConfig(kind="gue", num_spins=11, omega0=-1.0)

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
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
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
        # one block, against one run per seed: seeds whose window runs past
        # validity, and two winning series whose first row overshoots t on
        # this coarse grid, so the block runs again seed by seed
        seeds = (0, 2, 1, 48, 4)
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
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
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
        drawn=st.permutations(range(60)),
    )
    def test_blocks_write_what_one_seed_sweeps_write(self, basis_mode, count, dim, hbar, t_max, drawn):
        # four seeds to a block, so the counts are one seed, one block, one
        # block and one seed more, and many blocks with a partial last one;
        # the seeds are distinct, as a config requires
        seeds = tuple(drawn[:count])
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
        # each seed's error stays with it, so no block runs again: only an
        # error before the per-seed results, such as the ZeroEnergyVariance
        # no GUE draw here meets, or one that is not a QslError would do that
        assert blocks == [len(runs[i : i + 4]) for i in range(0, count, 4)]
        if count == 50 and t_max == 3.0:
            # the long window turns the overlap around on most seeds
            assert any(f.startswith(("overlap-minimum", "error:ValidityExceeded")) for r in runs for f in r["flags"])

    @pytest.mark.parametrize("basis_mode", ["fixed-random", "identity", "optimize"])
    def test_each_block_is_written_before_the_next_is_sampled(self, tmp_path, monkeypatch, basis_mode):
        # a sweep keeps no seed's CSV text or prepared climb past its block,
        # so its memory does not grow with the seed count
        out = tmp_path / "g"
        on_disk = []
        stacked = tqsl.experiments._pure_trajectories

        def recording(hs, *args):
            on_disk.append(sorted(p.name for p in out.glob("*.csv")))
            return stacked(hs, *args)

        monkeypatch.setattr(tqsl.experiments, "_pure_trajectories", recording)
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
        monkeypatch.setattr(tqsl.experiments, "BLOCK_ELEMENTS", 4 * 24 * 3)
        # a window short enough that every seed climbs cleanly and writes a CSV
        run_experiment_gue(gue_config(out, t_max=1.0, steps=24, seeds=tuple(range(10)), basis_mode=basis_mode))
        assert on_disk == [sorted(f"gue_seed{s}.csv" for s in range(done)) for done in (0, 4, 8)]

    def test_an_optimize_sweep_climbs_each_block_alone(self, tmp_path, monkeypatch):
        climbed = []
        climb = tqsl.experiments._climb

        def recording(correction, cfg, seeds):
            climbed.append((len(correction.delta_h), len(seeds)))
            return climb(correction, cfg, seeds)

        monkeypatch.setattr(tqsl.experiments, "_climb", recording)
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
        monkeypatch.setattr(tqsl.experiments, "BLOCK_ELEMENTS", 4 * 24 * 3)
        cfg = gue_config(tmp_path / "g", t_max=1.0, steps=24, seeds=tuple(range(10)), basis_mode="optimize")
        assert run_experiment_gue(cfg)["ok"]
        assert climbed == [(4, 4), (4, 4), (2, 2)]

    def test_a_failed_seed_keeps_the_rest_of_its_block(self, tmp_path, monkeypatch):
        # tqsl gue --basis optimize --tmax 1.0 --steps 40 --seeds 0-49 is one
        # block. On this coarse grid seed 14's winning series overshoots t,
        # with no fault injected: that seed alone is flagged, and the block
        # is sampled and climbed once, then each one-seed sweep climbs its seed
        climbs, climb = [], tqsl.experiments._climb

        def recording(correction, cfg, seeds):
            climbs.append(list(seeds))
            return climb(correction, cfg, seeds)

        monkeypatch.setattr(tqsl.experiments, "_climb", recording)
        args = ["gue", "--basis", "optimize", "--tmax", "1.0", "--steps", "40", "--seeds", "0-49",
                "--out", str(tmp_path / "all")]
        cfg = tqsl.cli._config_from_args(tqsl.cli.build_parser().parse_args(args))
        runs, blocks = self.sweep_per_seed(tmp_path, cfg, monkeypatch)
        clean = [r["seed"] for r in runs if not any(f.startswith("error:ValidityExceeded") for f in r["flags"])]
        assert blocks == [50]
        assert climbs == [clean] + [[seed] for seed in clean]
        flagged = {r["seed"]: r["flags"] for r in runs if any(f.startswith("error:") for f in r["flags"])}
        assert flagged.pop(14) == [
            "error:BoundViolation:bound 0.0512830587839055 exceeds actual time 0.05128205128205128 on a clean trajectory"
        ]
        assert all(f[0].startswith("error:ValidityExceeded") for f in flagged.values())

    def test_a_non_unitary_winner_fails_only_its_own_seed(self, tmp_path, monkeypatch):
        # seed 1's rotations are 1e-6 off unitary, in its block and alone:
        # its winner's check flags it, the block is not run again, and seed
        # 0 writes what it writes alone
        climb, expm, climbing = tqsl.experiments._climb, tqsl.bounds.expm_i_hermitian, []

        def recording(correction, cfg, seeds):
            climbing[:] = seeds
            return climb(correction, cfg, seeds)

        def doctored(h, s):
            rotations = expm(h, s)
            if 1 in climbing:  # every member stays live: a seed's restarts are adjacent rows
                restarts = len(rotations) // len(climbing)
                rotations[climbing.index(1) * restarts:][:restarts] *= 1.0 + 1e-6
            return rotations

        monkeypatch.setattr(tqsl.experiments, "_climb", recording)
        monkeypatch.setattr(tqsl.bounds, "expm_i_hermitian", doctored)
        cfg = gue_config(tmp_path / "all", t_max=1.0, steps=40, seeds=(0, 1), basis_mode="optimize")
        runs, blocks = self.sweep_per_seed(tmp_path, cfg, monkeypatch)
        assert blocks == [2]
        assert runs[0]["flags"] == [] and runs[0]["csv"] == "gue_seed0.csv"
        (flag,) = runs[1]["flags"]
        assert flag.startswith("error:InvalidBasis:orthonormality defect")

    @pytest.mark.parametrize("dim", [3, 8, 64])
    def test_stacks_match_one_item_calls_bit_for_bit(self, dim):
        seeds = [4, 0, 4, 9, 1]
        psi0 = default_initial_state(dim)
        draws = _gue_drawn_one_at_a_time
        h_stack = _gue_draws(dim, seeds)
        bases = eigh(h_stack).eigenvectors
        times = np.linspace(0.0, 1.0, 200)
        trajs = _pure_trajectories([_trusted(Observable, matrix=m) for m in h_stack], psi0, times, 0.7)
        ids = [f"b{seed}" for seed in seeds]
        other = [seed + 100 for seed in seeds]  # bases that are no trajectory's eigenbasis
        series = _series(_Correction(*trajs), eigh(_gue_draws(dim, other)).eigenvectors, ids)
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

    def test_rejects_wrong_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="verify"):
            run_property_suite(gue_config(tmp_path))

    def test_bare_config_runs(self, tmp_path):
        # no seeds given: the verify default must be a seed the suite takes
        cfg = ExperimentConfig(kind="verify", trials=8, output_path=str(tmp_path / "v"))
        report = run_property_suite(cfg)
        assert report["config"]["seeds"] == (0,)
        assert report["passed"]

    def test_an_error_inside_a_check_fails_that_check(self, tmp_path, monkeypatch, capsys):
        def violated(*args, **kwargs):
            raise BoundViolation("bound 2 exceeds actual time 1")

        monkeypatch.setattr(tqsl.experiments, "bound_series", violated)
        report = run_property_suite(self.verify_config(tmp_path / "v", trials=8))
        assert not report["passed"]
        assert [c for c in report["checks"] if not c["passed"]] == [{
            "name": "delta-nonnegative", "trials": 0, "worst_slack": None, "tolerance": None, "passed": False,
            "error": "BoundViolation: bound 2 exceeds actual time 1",
        }]
        assert json.loads((tmp_path / "v" / "verify.json").read_text(encoding="utf-8")) == json.loads(json.dumps(report))
        assert tqsl.cli.main(["verify", "--trials", "8", "--out", str(tmp_path / "cli")]) == 1
        (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert line.split() == ["FAIL", "delta-nonnegative", "trials=0", "BoundViolation:", *"bound 2 exceeds actual time 1".split()]

    def test_bargmann_symmetry_sees_a_state_dependent_normalisation(self, tmp_path, monkeypatch):
        # a mixed angle normalised by a purity that depends on the state's
        # [0, 0] entry is not symmetric under exchange, and only this check
        # reads the angle both ways
        real = tqsl.dynamics.purity
        monkeypatch.setattr(tqsl.dynamics, "purity", lambda rho: real(rho) * (1.0 + rho.matrix[0, 0].real))
        report = run_property_suite(self.verify_config(tmp_path / "v", trials=8))
        (failed,) = [c for c in report["checks"] if not c["passed"]]
        assert failed["name"] == "bargmann-symmetry"
        assert failed["passed"] is False
        assert failed["worst_slack"] < -1e-10

    def test_takes_one_seed(self, tmp_path):
        # the suite runs one seed, so it must not accept and echo a second,
        # nor run seed 0 while it echoes none
        for seeds in ((3, 9), ()):
            with pytest.raises(ConfigError, match=f"verify runs take one seed, got {len(seeds)}"):
                run_property_suite(self.verify_config(tmp_path / "v", seeds=seeds))
            assert not (tmp_path / "v").exists()


class TestCores:
    """A sweep uses no more processes than this process's CPU affinity and
    MAX_WORKERS allow, and only a single-threaded process forks."""

    @pytest.mark.parametrize("tasks, affinity, max_workers, want", [
        (1, 8, 2, 2),  # MAX_WORKERS
        (1, 1, 2, 1),  # the affinity
        (1, 3, 8, 3),
        (1, 8, 16, 8),
        (2, 8, 2, 1),  # a threaded process
        (None, 8, 2, 1),  # no /proc
        (1, None, 2, 1),  # no sched_getaffinity
    ])
    def test_usable_cores(self, monkeypatch, tasks, affinity, max_workers, want):
        def listdir(path):
            if tasks is None:
                raise FileNotFoundError(path)
            return ["t"] * tasks

        monkeypatch.setattr(os, "listdir", listdir)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
        monkeypatch.setattr(tqsl.experiments, "MAX_WORKERS", max_workers)
        assert tqsl.experiments._cores() == want

    def test_a_sweep_reads_the_core_count_once(self, tmp_path, monkeypatch):
        # a single-threaded process on one core: each read is counted, and
        # the sweep does not fork
        reads = Counter()
        listdir = os.listdir

        def counted_listdir(path):
            reads[path] += 1
            return ["t"] if path == "/proc/self/task" else listdir(path)

        def counted_affinity(pid):
            reads["affinity"] += 1
            return {0}

        monkeypatch.setattr(os, "listdir", counted_listdir)
        monkeypatch.setattr(os, "sched_getaffinity", counted_affinity, raising=False)
        run_experiment_gue(gue_config(tmp_path / "g", seeds=tuple(range(8))))
        assert (reads["/proc/self/task"], reads["affinity"]) == (1, 1)


FORKED_SWEEP = Path(__file__).with_name("forked_sweep.py")


def forked_sweep(tmp_path, kind: str, cfg: dict, variants: list, **extra) -> list:
    """tests/forked_sweep.py on one config, in a subprocess with BLAS pinned
    to one thread; its results, one per variant."""
    src = str(Path(tqsl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spec = {"kind": kind, "cfg": cfg, "out": str(tmp_path / "out"), "variants": variants, **extra}
    done = subprocess.run([sys.executable, str(FORKED_SWEEP), json.dumps(spec)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sweeps fork only on Linux")
class TestForkedSweep:
    """A sweep split across forked children writes, flags and raises exactly
    what the same sweep in one process does. Each forked run sees the
    number of cores it is given, so a one-core host forks too."""

    def same_as_serial(self, results: list, forks: list, taken: int | None = None) -> None:
        """Each forked variant made its count of forks, and this process took
        the spools of `taken` children (default: every one)."""
        serial, *forked = results
        assert serial["forks"] == 0
        for got, want in zip(forked, forks):
            assert got["forks"] == want, got["variant"]
            assert got["taken"] == (want if taken is None else taken), got["variant"]
            assert (got["files"], got["error"]) == (serial["files"], serial["error"]), got["variant"]
        assert not any(r["leftover"] for r in results)

    @pytest.mark.parametrize("basis_mode, t_max, seeds, forks", [
        # fixed bases fork from 20 seeds of 300 steps at d = 3, 2 * BLOCK_ELEMENTS
        ("fixed-random", 3.0, 19, 0),
        ("fixed-random", 3.0, 20, 1),
        ("identity", 3.0, 19, 0),
        ("identity", 3.0, 20, 1),
        # four restarts to a seed: from 5 seeds
        ("optimize", 1.0, 4, 0),
        ("optimize", 1.0, 5, 1),
    ])
    def test_gue_bytes_match_the_serial_sweep(self, tmp_path, basis_mode, t_max, seeds, forks):
        cfg = dict(dim=3, t_max=t_max, steps=300, seeds=list(range(seeds)), basis_mode=basis_mode)
        results = forked_sweep(tmp_path, "gue", cfg, ["serial", 2])
        self.same_as_serial(results, [forks])
        assert len(results[0]["files"]) == seeds + 1 and results[0]["error"] is None

    def test_three_shares(self, tmp_path):
        # 30 seeds are 3 * BLOCK_ELEMENTS of work: two children on three cores
        cfg = dict(dim=3, t_max=3.0, steps=300, seeds=list(range(30)))
        self.same_as_serial(forked_sweep(tmp_path, "gue", cfg, ["serial", 3]), [2])

    def test_spin8_bytes_match_the_serial_sweep(self, tmp_path):
        cfg = dict(num_spins=8, blocks=[[i, i + 1] for i in range(1, 8)], t_max=2.0, steps=200, seeds=[0, 1])
        results = forked_sweep(tmp_path, "spin", cfg, ["serial", 2])
        self.same_as_serial(results, [1])
        assert sorted(results[0]["files"]) == ["spin_seed0.csv", "spin_seed1.csv", "summary.json"]

    # 20 fixed-basis seeds split 10 | 10, and 5 optimize seeds 2 | 3
    SHARES = {"fixed-random": (3, 15), "optimize": (1, 3)}

    @pytest.mark.parametrize("basis_mode", ["fixed-random", "optimize"])
    @pytest.mark.parametrize("share", [0, 1])
    def test_an_error_keeps_to_its_seed_in_either_share(self, tmp_path, basis_mode, share):
        seed = self.SHARES[basis_mode][share]
        cfg = dict(dim=3, t_max=1.0, steps=300, seeds=list(range(20 if basis_mode != "optimize" else 5)),
                   basis_mode=basis_mode)
        results = forked_sweep(tmp_path, "gue", cfg, ["serial", 2], doctor=[[seed, "2I"]])
        self.same_as_serial(results, [1])
        runs = json.loads(results[0]["files"]["summary.json"])["runs"]
        flagged = [r["seed"] for r in runs if any(f.startswith("error:ZeroEnergyVariance") for f in r["flags"])]
        assert flagged == [seed]

    @pytest.mark.parametrize("basis_mode", ["fixed-random", "optimize"])
    @pytest.mark.parametrize("share", [0, 1])
    def test_a_crash_in_either_share_is_the_serial_crash(self, tmp_path, basis_mode, share):
        seed = self.SHARES[basis_mode][share]
        cfg = dict(dim=3, t_max=1.0, steps=300, seeds=list(range(20 if basis_mode != "optimize" else 5)),
                   basis_mode=basis_mode)
        results = forked_sweep(tmp_path, "gue", cfg, ["serial", 2], doctor=[[seed, "nan"]])
        self.same_as_serial(results, [1], taken=0)
        assert results[0]["error"][0] == "ValueError"
        # in either mode the sweep writes the seeds before the crash
        assert sorted(results[0]["files"]) == sorted(f"gue_seed{s}.csv" for s in range(seed))

    @pytest.mark.parametrize("child", ["killed", "truncated", "unforked"])
    def test_a_failed_child_is_computed_again_here(self, tmp_path, child):
        # "unforked": os.fork raises, and the share is computed here
        cfg = dict(dim=3, t_max=1.0, steps=300, seeds=list(range(5)), basis_mode="optimize")
        self.same_as_serial(forked_sweep(tmp_path, "gue", cfg, ["serial", 2], child=child), [1], taken=0)

    SPIN8 = dict(num_spins=8, blocks=[[i, i + 1] for i in range(1, 8)], t_max=2.0, steps=200)
    SPIN8_ARGV = "spin --spins 8 --blocks 1,2;2,3;3,4;4,5;5,6;6,7;7,8 --tmax 2.0 --steps 200 --seeds 0-1"

    @pytest.mark.parametrize("child, taken", [(None, 1), ("unforked", 0), ("failing", 0), ("truncated", 0)])
    def test_spin8_one_seed_helper_writes_the_golden_bytes(self, tmp_path, child, taken):
        # one seed is one process, so on two cores its one 256-dim block forks
        # a helper for its basis; whether the helper's bases are taken or
        # computed here, the files are the spin8 golden's seed 0
        extra = {"child": child} if child else {}
        results = forked_sweep(tmp_path, "spin", {**self.SPIN8, "seeds": [0]}, ["serial", 2], **extra)
        self.same_as_serial(results, [1], taken=taken)
        golden = Path(__file__).with_name("golden")
        want = json.loads((golden / "summary_runs.json").read_text(encoding="utf-8"))[self.SPIN8_ARGV][0]
        for got in results:
            assert got["files"]["spin_seed0.csv"].encode("latin-1") == (golden / "spin8/spin_seed0.csv").read_bytes()
            (run,) = json.loads(got["files"]["summary.json"])["runs"]
            assert list(run.items()) == list(want.items())

    # d = 128 with 20 steps: blocks of three seeds, each large enough for a helper
    HELPED = dict(dim=128, t_max=1.0, steps=20, seeds=[0, 1, 2, 3, 4])

    def test_the_bases_error_wins_over_the_trajectories_error(self, tmp_path):
        # seed 1's trajectory draw and basis draw both raise; serially the
        # basis comes first, so its error is the flag, in either block pass
        doctor = [[1, "raise"], [1 + tqsl.experiments.BASIS_SEED_OFFSET, "raise"]]
        results = forked_sweep(tmp_path, "gue", self.HELPED, ["serial", 2], doctor=doctor)
        # one helper per block, and per seed of the block that failed
        self.same_as_serial(results, [5], taken=3)
        runs = json.loads(results[0]["files"]["summary.json"])["runs"]
        assert [r["flags"] for r in runs if any(f.startswith("error:") for f in r["flags"])] == [
            [f"error:QslError:doctored draw {1 + tqsl.experiments.BASIS_SEED_OFFSET}"]
        ]

    def test_a_crash_in_sampling_leaves_no_helper_behind(self, tmp_path):
        # seed 4's trajectory is all NaN, no QslError: the sweep ends there
        results = forked_sweep(tmp_path, "gue", self.HELPED, ["serial", 2], doctor=[[4, "nan"]])
        # a helper for each block, then for seeds 3 and 4 of the one that failed
        self.same_as_serial(results, [4])
        assert results[0]["error"] == ["ValueError", "matrix entries must be finite"]
        assert sorted(results[0]["files"]) == [f"gue_seed{s}.csv" for s in range(4)]


class TestSharedGridCells:
    """A sweep formats its time grid once and reuses the t cells for every
    run of its process: each CSV body is what csv_rows() gives on the same
    trajectory and basis. At t_max = 1e-6 the t cells take the exponent form."""

    @staticmethod
    def body(text: str) -> list:
        return text.split("\n")[1:-1]

    @staticmethod
    def gue_rows(seed: int, t_max: float, steps: int, basis_mode: str = "fixed-random") -> list:
        traj = sample_trajectory(sample_gue(GueConfig(dim=3, seed=seed)), default_initial_state(3), t_max, steps)
        if basis_mode == "optimize":
            basis, report = optimize_basis(traj, OptimizerConfig(seed=seed))
            return bound_series(traj, basis, report.basis_id).csv_rows()
        return bound_series(traj, random_basis(3, seed + tqsl.experiments.BASIS_SEED_OFFSET)).csv_rows()

    def same_rows(self, files: dict, t_max: float, steps: int, basis_mode: str = "fixed-random") -> None:
        """Every CSV of a gue sweep, {name: text}, against csv_rows()."""
        runs = json.loads(files["summary.json"])["runs"]
        assert all("csv" in run for run in runs)
        for run in runs:
            got = self.body(files[run["csv"]])
            assert got == self.gue_rows(run["seed"], t_max, steps, basis_mode), run["seed"]
            assert ("e-" in got[1].split(",")[0]) == (t_max == 1e-6)

    @staticmethod
    def written(out: Path) -> dict:
        return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("t_max", [1.5, 1e-6])
    def test_gue_serial(self, tmp_path, monkeypatch, t_max):
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
        run_experiment_gue(gue_config(tmp_path / "g", t_max=t_max, seeds=(4, 0, 7, 1, 2)))
        self.same_rows(self.written(tmp_path / "g"), t_max, 60)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sweeps fork only on Linux")
    @pytest.mark.parametrize("t_max", [3.0, 1e-6])
    def test_gue_forked(self, tmp_path, t_max):
        # 20 seeds of 300 steps at d = 3 fork one child on two cores
        cfg = dict(dim=3, t_max=t_max, steps=300, seeds=list(range(20)))
        serial_run, forked = forked_sweep(tmp_path, "gue", cfg, ["serial", 2])
        assert (serial_run["forks"], forked["forks"], forked["taken"]) == (0, 1, 1)
        assert forked["files"] == serial_run["files"]
        self.same_rows(forked["files"], t_max, 300)

    @pytest.mark.parametrize("t_max", [1.0, 1e-6])
    def test_optimize(self, tmp_path, monkeypatch, t_max):
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
        run_experiment_gue(gue_config(tmp_path / "g", t_max=t_max, seeds=(0, 1, 2, 3), basis_mode="optimize"))
        self.same_rows(self.written(tmp_path / "g"), t_max, 60, "optimize")

    @pytest.mark.parametrize("t_max", [0.7, 1e-6])
    def test_spin_with_its_fidelity_column(self, tmp_path, monkeypatch, t_max):
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
        spin_cfg = tqsl.SpinChainConfig(num_spins=3, blocks=((1, 2), (2, 3)))
        cfg = ExperimentConfig(kind="spin", num_spins=3, blocks=spin_cfg.blocks, t_max=t_max, steps=50,
                               seeds=(0, 2, 1), output_path=str(tmp_path / "s"))
        run_experiment_spin(cfg)
        psi0 = tqsl.PureState(np.eye(spin_cfg.dim, dtype=complex)[0])
        traj = sample_trajectory(tqsl.spin_chain_hamiltonian(spin_cfg), psi0, t_max, 50)
        exact = tqsl.spin_chain_evolved_state(spin_cfg, psi0, traj.times)
        fidelity = [min(abs(complex(np.vdot(e, ket))), 1.0) for e, ket in zip(exact, traj.stack)]
        for seed in cfg.seeds:
            basis = random_basis(spin_cfg.dim, seed + tqsl.experiments.BASIS_SEED_OFFSET)
            want = [f"{row},{f:.12g}" for row, f in zip(bound_series(traj, basis).csv_rows(), fidelity)]
            assert self.body((tmp_path / "s" / f"spin_seed{seed}.csv").read_text(encoding="utf-8")) == want

    def test_a_sweep_formats_its_grid_once(self, tmp_path, monkeypatch):
        cells = []
        real = tqsl.experiments._csv_rows

        def recording(series, grid):
            rows = real(series, grid)
            cells.append(grid[1])
            return rows

        monkeypatch.setattr(tqsl.experiments, "_csv_rows", recording)
        monkeypatch.setattr(tqsl.experiments, "_cores", serial)
        run_experiment_gue(gue_config(tmp_path / "g", seeds=(0, 1, 2, 3, 4, 5)))
        assert len(cells) == 6 and all(c is cells[0] for c in cells)
