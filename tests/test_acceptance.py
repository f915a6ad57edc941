"""Acceptance suite: one test per shipping criterion, run with pytest -v.

The GUE batch and the spin-chain run are session fixtures so the dominance,
validity, and determinism checks share one set of artifacts.  Runtime caps
are asserted where a criterion states one; random draws are seeded so every
check is reproducible.
"""

import dataclasses
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_density, random_pure
from tqsl import (
    DensityMatrix,
    ExperimentConfig,
    GueConfig,
    OrthonormalBasis,
    centered,
    default_initial_state,
    random_basis,
    run_experiment_gue,
    run_experiment_spin,
    sample_gue,
    sample_trajectory,
    tqsl_bound,
    variance,
)
from uncertainty_oracle import cross_term, tighter_bound

DELTA_TOL = 1e-9


def _read_rows(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="session")
def gue_batch(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_gue")
    cfg = ExperimentConfig(
        kind="gue",
        dim=3,
        t_max=3.0,
        steps=300,
        seeds=tuple(range(50)),
        output_path=str(out),
    )
    start = time.perf_counter()
    summary = run_experiment_gue(cfg)
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "summary": summary, "out": out, "elapsed": elapsed}


@pytest.fixture(scope="session")
def spin_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_spin")
    cfg = ExperimentConfig(
        kind="spin",
        num_spins=2,
        blocks=((1, 2),),
        omega0=1.0,
        omega=1.0,
        t_max=2.0,
        steps=200,
        seeds=(0,),
        output_path=str(out),
    )
    start = time.perf_counter()
    summary = run_experiment_spin(cfg)
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "summary": summary, "out": out, "elapsed": elapsed}


def test_01_gue_ensemble_delta_nonnegative(gue_batch):
    summary = gue_batch["summary"]
    assert summary["ok"]
    assert len(summary["runs"]) == 50
    for run in summary["runs"]:
        assert run["min_delta"] is not None
        assert run["min_delta"] >= -DELTA_TOL
        assert not any(flag.startswith("error:") for flag in run["flags"])
        rows = _read_rows(gue_batch["out"] / f"gue_seed{run['seed']}.csv")
        assert len(rows) == 300
        deltas = [float(row[3]) for row in rows]
        assert min(deltas) >= -DELTA_TOL
        assert abs(deltas[0]) <= DELTA_TOL
    assert gue_batch["elapsed"] < 30.0


def test_02_spin_chain_delta_and_closed_form_fidelity(spin_run):
    summary = spin_run["summary"]
    assert summary["ok"]
    rows = _read_rows(spin_run["out"] / "spin_seed0.csv")
    assert len(rows) == 200
    for row in rows:
        assert float(row[3]) >= -DELTA_TOL
        assert float(row[6]) >= 1.0 - 1e-10
    assert spin_run["elapsed"] < 5.0


def test_03_uncertainty_chain_ordering():
    start = time.perf_counter()
    worst = np.inf
    for dim in (2, 3, 4, 6):
        rng = np.random.default_rng(3000 + dim)
        for _ in range(1000):
            a = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
            b = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
            rho = random_density(rng, dim)
            basis = random_basis(dim, int(rng.integers(2**31)))
            upper = np.sqrt(variance(a, rho) * variance(b, rho))
            tight = tighter_bound(a, b, rho, basis)
            cross = cross_term(a, b, rho)
            comm = a.matrix @ b.matrix - b.matrix @ a.matrix
            lower = 0.5 * abs(np.trace(rho.matrix @ comm))
            worst = min(worst, upper - tight, tight - cross, cross - lower)
    assert worst >= -DELTA_TOL
    assert time.perf_counter() - start < 60.0


def test_04_pure_state_reduction():
    rng = np.random.default_rng(4000)
    worst_bound, worst_tau = 0.0, 0.0
    for trial in range(200):
        dim = 2 + trial % 5
        a = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
        b = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
        psi = random_pure(rng, dim)
        rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
        basis = random_basis(dim, int(rng.integers(2**31)))
        gap = tighter_bound(a, b, rho, basis) - tighter_bound(a, b, psi, basis)
        worst_bound = max(worst_bound, abs(gap))
        # matched trajectories: same Hamiltonian, horizon, grid, and basis
        probe = sample_trajectory(a, psi, 1.0, 101)
        tau = float(probe.times[max(probe.valid_until // 2, 1)])
        pure_report = tqsl_bound(a, psi, tau, basis, steps=80)
        mixed_report = tqsl_bound(a, rho, tau, basis, steps=80)
        worst_tau = max(worst_tau, abs(mixed_report.tau_tqsl - pure_report.tau_tqsl))
    assert worst_bound < 1e-9
    assert worst_tau < 1e-6


def test_05_mt_saturation_for_precession(sigma_x, ket0):
    basis = OrthonormalBasis(np.eye(2))
    for tau in (0.2, 0.5, 1.0):
        report = tqsl_bound(sigma_x, ket0, tau, basis)
        assert report.tau_mt == pytest.approx(tau, abs=1e-8)
        assert report.tau_tqsl >= report.tau_mt


def test_06_centered_sandwich_positivity():
    rng = np.random.default_rng(6000)
    worst = np.inf
    for trial in range(1000):
        dim = 2 + trial % 5
        a = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
        rho = random_density(rng, dim)
        abar = centered(a, rho).matrix
        worst = min(worst, float(np.linalg.eigvalsh(abar @ rho.matrix @ abar)[0]))
    assert worst >= -1e-10


def test_07_quadrature_convergence():
    psi = default_initial_state(3)
    bounded = 0
    for seed in range(50):
        h = sample_gue(GueConfig(dim=3, seed=seed))
        probe = sample_trajectory(h, psi, 3.0, 400)
        tau = float(probe.times[max(probe.valid_until - 2, 1)])
        basis = random_basis(3, seed + 1_000_003)
        coarse = tqsl_bound(h, psi, tau, basis, steps=400)
        fine = tqsl_bound(h, psi, tau, basis, steps=800)
        change = abs(fine.correction_integral - coarse.correction_integral)
        rel = change / max(abs(coarse.correction_integral), 1e-15)
        assert rel < 1e-4
        if coarse.quad_error >= change:
            bounded += 1
    assert bounded >= 48  # Richardson estimate must bound >= 95% of 50 runs


def test_08_gue_second_moment_normalization():
    draws = [sample_gue(GueConfig(dim=3, seed=i)) for i in range(10_000)]
    mean = float(np.mean([np.trace(h.matrix @ h.matrix).real for h in draws]))
    assert abs(mean - 3.0) < 0.1


def test_09_bound_validity_against_actual_time(gue_batch, spin_run):
    paths = sorted(gue_batch["out"].glob("gue_seed*.csv"))
    paths.append(spin_run["out"] / "spin_seed0.csv")
    assert len(paths) == 51
    checked = 0
    for path in paths:
        for row in _read_rows(path):
            if row[5] == "true":
                assert float(row[0]) >= float(row[2]) - 1e-6
                checked += 1
    assert checked > 0


def test_10_identical_seeds_reproduce_csv_bytes(gue_batch, spin_run, tmp_path):
    jobs = (
        (gue_batch, run_experiment_gue, [f"gue_seed{s}.csv" for s in range(50)]),
        (spin_run, run_experiment_spin, ["spin_seed0.csv"]),
    )
    for batch, runner, names in jobs:
        rerun_dir = tmp_path / f"rerun_{batch['cfg'].kind}"
        runner(dataclasses.replace(batch["cfg"], output_path=str(rerun_dir)))
        for name in names:
            assert (rerun_dir / name).read_bytes() == (batch["out"] / name).read_bytes()


def test_11_readme_library_example_runs(capsys):
    # the README's Library block, as written: it calls tqsl_bound and
    # optimize_basis and asserts the endpoint report is a series' last row
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("optimize[")
