"""Experiment runners behind the CLI: sweeps, artifacts, property suite.

Each runner writes plot-ready CSV files plus a JSON summary and returns the
summary dict. Stochastic runs are keyed by explicit seeds, so reruns with
the same config are byte-identical. Per-run computation errors are
quarantined into the run's flags instead of aborting the batch.
"""
from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    BOUND_CSV_HEADER,
    BoundSeries,
    OptimizerConfig,
    _climb,
    _Correction,
    _cumulative_trapezoid,
    _require_clean,
    _series,
    bound_series,
)
from .dynamics import (
    Trajectory,
    _grid,
    _pure_trajectories,
    bargmann_angle_mixed,
    bargmann_angle_pure,
    evolve_mixed,
    sample_trajectory,
)
from .ensembles import (
    GueConfig,
    SpinChainConfig,
    _block_sites,
    _gue_draws,
    random_basis,
    sample_gue,
    spin_chain_evolved_state,
    spin_chain_hamiltonian,
)
from .errors import (
    ConfigError, NonHermitianInput, QslError, _index, _integer_fields, _positive_finite_fields, _trusted,
)
from .states import (
    DensityMatrix,
    Observable,
    PureState,
    _eigenbases,
    _raw_moment,
    centered,
    expectation,
    variance,
)
from .uncertainty import (
    correction_k_mixed,
    correction_k_pure,
    cross_term,
    moment_identity_residual,
    tighter_bound_mixed,
    tighter_bound_pure,
)

DELTA_TOL = 1e-9
BASIS_SEED_OFFSET = 1_000_003
# Seeds x grid points x dimension that a sweep computes as one stack: it
# bounds the block's arrays, so memory does not grow with the seed count.
BLOCK_ELEMENTS = 9000

_KINDS = ("gue", "spin", "verify")
_BASIS_MODES = ("fixed-random", "optimize", "identity")
_SUITE_DIMS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    dim: int = 3
    num_spins: int = 2
    blocks: tuple = ((1, 2),)
    omega0: float = 1.0
    omega: float = 1.0
    t_max: float = 3.0
    steps: int = 300
    seeds: tuple | None = None  # (0,) for verify, (0, 1, 2) otherwise
    basis_mode: str = "fixed-random"
    hbar: float = 1.0
    output_path: str = "out"
    trials: int = 200

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.basis_mode not in _BASIS_MODES:
            raise ConfigError(f"basis_mode must be one of {_BASIS_MODES}, got {self.basis_mode!r}")
        _integer_fields(self, "dim", "num_spins", "steps", "trials")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        _positive_finite_fields(self, "t_max", "hbar")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seeds is None:
            object.__setattr__(self, "seeds", (0,) if self.kind == "verify" else (0, 1, 2))
        try:
            seeds = tuple(_index("seed", s) for s in self.seeds)
        except (TypeError, ConfigError) as err:
            raise ConfigError(f"seeds must be nonnegative integers, got {self.seeds!r}") from err
        if any(s < 0 for s in seeds):
            raise ConfigError(f"seeds must be nonnegative integers, got {min(seeds)}")
        if self.kind in ("gue", "spin") and not seeds:
            raise ConfigError(f"{self.kind} runs need at least one seed")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "blocks", _block_sites(self.blocks))


def default_initial_state(dim: int) -> PureState:
    """Unequal three-level superposition for dim 3 (weights .1/.2/.7),
    uniform superposition otherwise."""
    if dim == 3:
        return PureState(np.sqrt(np.array([0.1, 0.2, 0.7], dtype=complex)))
    return PureState(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def _fixed_bases(cfg: ExperimentConfig, dim: int, seeds: list) -> tuple:
    """The fixed bases of a block of runs as a (k, d, d) stack, and their
    basis_ids."""
    if cfg.basis_mode == "identity":
        return np.broadcast_to(np.eye(dim, dtype=complex), (len(seeds), dim, dim)), ["identity"] * len(seeds)
    basis_seeds = [seed + BASIS_SEED_OFFSET for seed in seeds]
    return _eigenbases(_gue_draws(dim, basis_seeds)), [f"gue-eigenbasis:seed={s}" for s in basis_seeds]


@contextmanager
def _quarantine(run: dict):
    """A QslError inside the block becomes one of the run's error flags."""
    try:
        yield
    except QslError as err:
        run["flags"].append(f"error:{type(err).__name__}:{err}")


def _write_lines(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


def _require_kind(cfg: ExperimentConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise ConfigError(f"expected kind {kind!r}, got {cfg.kind!r}")


def _run_ok(run: dict) -> bool:
    if run.get("min_delta") is None:
        return False
    return run["min_delta"] >= -DELTA_TOL and not any(
        f.startswith("error:") for f in run["flags"]
    )


def run_experiment_gue(cfg: ExperimentConfig) -> dict:
    """One CSV per sampled Hamiltonian, plus summary.json."""
    _require_kind(cfg, "gue")
    psi0 = default_initial_state(cfg.dim)
    times = _grid(cfg.t_max, cfg.steps, cfg.hbar)

    def sample(seeds: list) -> list:
        hs = [_trusted(Observable, matrix=m) for m in _gue_draws(cfg.dim, seeds)]
        return _pure_trajectories(hs, psi0, times, cfg.hbar)

    return _run_sweep(cfg, cfg.dim, sample)


def run_experiment_spin(cfg: ExperimentConfig) -> dict:
    """Spin-chain sweep; CSV rows gain a trailing closed-form fidelity column.
    Every seed shares one Hamiltonian and initial state, so the trajectory
    and its fidelity column are computed once and serve every run."""
    _require_kind(cfg, "spin")
    spin_cfg = SpinChainConfig(
        num_spins=cfg.num_spins, blocks=cfg.blocks, omega0=cfg.omega0, omega=cfg.omega
    )
    h = spin_chain_hamiltonian(spin_cfg, cfg.hbar)
    amps = np.zeros(spin_cfg.dim, dtype=complex)
    amps[0] = 1.0
    psi0 = PureState(amps)

    @functools.cache  # an error is not cached: each run that asks meets it
    def sampled() -> tuple:
        traj = sample_trajectory(h, psi0, cfg.t_max, cfg.steps, cfg.hbar)
        exact = spin_chain_evolved_state(spin_cfg, psi0, traj.times)
        return traj, np.array([min(abs(complex(np.vdot(e, ket))), 1.0) for e, ket in zip(exact, traj.stack)])

    return _run_sweep(cfg, spin_cfg.dim, lambda seeds: [sampled()[0]] * len(seeds), lambda traj: sampled()[1])


def _run_sweep(cfg: ExperimentConfig, dim: int, sample, fidelity=None) -> dict:
    """The sweep behind both runners: `sample(seeds)` gives the pure
    trajectories of a list of seeds, in dimension `dim`, and each run writes
    one `<kind>_seed<seed>.csv`; then summary.json.

    `fidelity`, when given, maps a trajectory to one value per grid row:
    the CSVs gain it as a trailing column and each run its minimum.

    Seeds go in blocks of up to BLOCK_ELEMENTS / (steps * dim), each sampled
    and, with a fixed basis, bounded and written as one stack. A block that
    raises anything is computed again seed by seed, so each seed gets the
    flag a one-seed sweep gives it, and any other error ends the sweep where
    one seed after another would. Optimize runs are prepared, then climbed
    in one lockstep `_climb` and written from their winners.
    """
    out = Path(cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    header = BOUND_CSV_HEADER if fidelity is None else BOUND_CSV_HEADER + ",fidelity"
    runs = [{"seed": seed, "min_delta": None, "max_delta": None, "flags": []} for seed in cfg.seeds]

    def stacked(seeds: list) -> list:
        """Per seed, its trajectory and, with a fixed basis, its bound series."""
        if cfg.basis_mode == "optimize":
            return [(traj, None) for traj in sample(seeds)]
        bases, basis_ids = _fixed_bases(cfg, dim, seeds)
        trajs = sample(seeds)
        return list(zip(trajs, _series(_Correction(*trajs), bases, basis_ids)))

    def emit(run: dict, traj: Trajectory, series: BoundSeries) -> None:
        column = None if fidelity is None else fidelity(traj)
        rows = series.csv_rows()
        if column is not None:
            rows = [f"{row},{value:.12g}" for row, value in zip(rows, column.tolist())]
        name = f"{cfg.kind}_seed{run['seed']}.csv"
        _write_lines(out / name, header, rows)
        if not traj.validity_clean:
            run["flags"].append(f"overlap-minimum@t={traj.times[traj.valid_until]:.6g}")
        run.update(min_delta=float(series.delta.min()), max_delta=float(series.delta.max()))
        if column is not None:
            run["min_fidelity"] = float(column.min())
        run.update(csv=name, basis_id=series.basis_id)

    prepared = []  # optimize mode: (run, trajectory, its _Correction)
    size = max(1, BLOCK_ELEMENTS // (cfg.steps * dim))
    for block in (runs[i : i + size] for i in range(0, len(runs), size)):
        try:
            done = stacked([run["seed"] for run in block])
        except Exception:  # recomputed one seed at a time below
            done = None
        for i, run in enumerate(block):
            with _quarantine(run):
                traj, series = done[i] if done else stacked([run["seed"]])[0]
                if series is not None:
                    emit(run, traj, series)
                else:
                    _require_clean(traj)
                    prepared.append((run, traj, _Correction(traj)))
    if prepared:
        climbed = _climb([c for *_, c in prepared], OptimizerConfig(), [r["seed"] for r, *_ in prepared])
        for (run, traj, _), result in zip(prepared, climbed):
            with _quarantine(run):
                if isinstance(result, Exception):
                    raise result
                emit(run, traj, result[1])
    summary = {"config": asdict(cfg), "runs": runs, "ok": all(_run_ok(r) for r in runs)}
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Property suite: seeded fuzz checks over every module's stated invariants.
# Each check reports its most adverse signed margin; a check passes when the
# margin stays above minus its tolerance.

def random_pure(rng, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim: int) -> DensityMatrix:
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = w @ w.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _verdict(name: str, trials: int, worst_slack: float, tolerance: float) -> dict:
    return {
        "name": name,
        "trials": trials,
        "worst_slack": worst_slack,
        "tolerance": tolerance,
        "passed": worst_slack >= -tolerance,
    }


def _derived_seed(rng) -> int:
    return int(rng.integers(2**63))


def _draw(rng, dim: int, mixed: bool):
    a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    b = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    basis = random_basis(dim, _derived_seed(rng))
    state = random_density(rng, dim) if mixed else random_pure(rng, dim)
    return a, b, state, basis


def _check_chain(trials: int, seed: int, mixed: bool) -> dict:
    rng = np.random.default_rng([seed, 1 if mixed else 0])
    worst = math.inf
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        a, b, state, basis = _draw(rng, dim, mixed)
        da = math.sqrt(variance(a, state))
        db = math.sqrt(variance(b, state))
        if mixed:
            tighter = tighter_bound_mixed(a, b, state, basis)
        else:
            tighter = tighter_bound_pure(a, b, state, basis)
        cross = cross_term(a, b, state)
        am, bm = a.matrix, b.matrix
        half_comm = 0.5 * abs(_raw_moment(am @ bm - bm @ am, state))
        worst = min(worst, da * db - tighter, tighter - cross, cross - half_comm)
    return _verdict("mixed-chain" if mixed else "pure-chain", trials, worst, 1e-9)


def _check_moment_identity(trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        mixed = k % 2 == 1
        a, b, state, _ = _draw(rng, dim, mixed)
        worst = max(worst, abs(moment_identity_residual(a, b, state)))
    return _verdict("moment-identity", trials, -worst, 1e-9)


def _check_f_positivity(trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    worst = math.inf
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
        rho = random_density(rng, dim)
        abar = centered(a, rho).matrix
        f = abar @ rho.matrix @ abar
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (f + f.conj().T))[0]))
    return _verdict("f-positivity", trials, worst, 1e-10)


def _check_side_insensitivity(trials: int, seed: int) -> dict:
    """Diagonal fast route against literal per-projector traces, with the
    projector attached on either side of the centered operator."""
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        a, b, rho, basis = _draw(rng, dim, mixed=True)
        fast = tighter_bound_mixed(a, b, rho, basis)
        abar = centered(a, rho).matrix
        bbar = centered(b, rho).matrix
        r = rho.matrix
        f = abar @ r @ abar
        u = basis.matrix
        for attach in ("left", "right"):
            total = 0.0
            for n in range(dim):
                pn = np.outer(u[:, n], u[:, n].conj())
                bn = pn @ bbar if attach == "left" else bbar @ pn
                sandwich = bn @ r @ bn.conj().T if attach == "left" else bn.conj().T @ r @ bn
                total += math.sqrt(abs(complex(np.trace(f @ sandwich))))
            worst = max(worst, abs(total - fast))
    return _verdict("side-insensitivity", trials, -worst, 1e-9)


def _check_pure_reduction(trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        a, b, psi, basis = _draw(rng, dim, mixed=False)
        diff = abs(
            tighter_bound_mixed(a, b, psi.to_density(), basis)
            - tighter_bound_pure(a, b, psi, basis)
        )
        worst = max(worst, diff)
    return _verdict("pure-reduction", trials, -worst, 1e-9)


def _check_lift_agreement(trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
        psi = random_pure(rng, dim)
        rho = psi.to_density()
        worst = max(
            worst,
            abs(expectation(a, psi) - expectation(a, rho)),
            abs(variance(a, psi) - variance(a, rho)),
        )
    return _verdict("state-lift-agreement", trials, -worst, 1e-10)


def _check_bargmann_symmetry(trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        p1, p2 = random_pure(rng, dim), random_pure(rng, dim)
        worst = max(worst, abs(bargmann_angle_pure(p1, p2) - bargmann_angle_pure(p2, p1)))
        h = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
        rho0 = random_density(rng, dim)
        rhot = evolve_mixed(h, rho0, float(rng.uniform(0.1, 2.0)))
        worst = max(
            worst, abs(bargmann_angle_mixed(rho0, rhot) - bargmann_angle_mixed(rhot, rho0))
        )
    return _verdict("bargmann-symmetry", trials, -worst, 1e-10)


def _check_correction_nonnegative(trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 8])
    worst = math.inf
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        mixed = k % 2 == 1
        a, b, state, basis = _draw(rng, dim, mixed)
        if mixed:
            worst = min(worst, correction_k_mixed(a, b, state, basis))
        else:
            worst = min(worst, correction_k_pure(a, b, state, basis))
    return _verdict("correction-nonnegative", trials, worst, 0.0)


def _check_delta_nonnegative(seed: int) -> dict:
    worst = math.inf
    trials = 5
    for k in range(trials):
        h = sample_gue(GueConfig(dim=3, seed=seed + k))
        basis = random_basis(3, seed + k + BASIS_SEED_OFFSET)
        traj = sample_trajectory(h, default_initial_state(3), 1.5, 100)
        worst = min(worst, float(bound_series(traj, basis).delta.min()))
    return _verdict("delta-nonnegative", trials, worst, 1e-9)


def _check_quadrature_order(seed: int) -> dict:
    def f(t):
        return np.sin(3.0 * t) + t * t

    t1 = np.linspace(0.0, 1.0, 101)
    t2 = np.linspace(0.0, 1.0, 201)
    exact = (1.0 - math.cos(3.0)) / 3.0 + 1.0 / 3.0
    e1 = abs(float(_cumulative_trapezoid(t1, f(t1))[0][-1]) - exact)
    e2 = abs(float(_cumulative_trapezoid(t2, f(t2))[0][-1]) - exact)
    ratio = e1 / e2
    return _verdict("quadrature-order", 1, -abs(ratio - 4.0), 0.5)


def _check_hermiticity_rejection(seed: int) -> dict:
    caught = False
    try:
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    except NonHermitianInput:
        caught = True
    return _verdict("hermiticity-rejection", 1, 0.0 if caught else -1.0, 0.0)


def run_property_suite(cfg: ExperimentConfig) -> dict:
    """Seeded fuzz run over the library's invariants; failures are report
    content, not exceptions."""
    _require_kind(cfg, "verify")
    if len(cfg.seeds) > 1:
        raise ConfigError(f"verify runs take one seed, got {len(cfg.seeds)}")
    seed = cfg.seeds[0] if cfg.seeds else 0
    trials = cfg.trials
    checks = [
        _check_chain(trials, seed, mixed=False),
        _check_chain(trials, seed, mixed=True),
        _check_moment_identity(trials, seed),
        _check_f_positivity(trials, seed),
        _check_side_insensitivity(max(trials // 4, 1), seed),
        _check_pure_reduction(trials, seed),
        _check_lift_agreement(trials, seed),
        _check_bargmann_symmetry(max(trials // 4, 1), seed),
        _check_correction_nonnegative(trials, seed),
        _check_delta_nonnegative(seed),
        _check_quadrature_order(seed),
        _check_hermiticity_rejection(seed),
    ]
    rng = np.random.default_rng([seed, 99])
    doubled = 0.0
    for _ in range(16):
        a, b, rho, _ = _draw(rng, 3, mixed=True)
        doubled = max(doubled, abs(moment_identity_residual(a, b, rho, doubled_mean_product=True)))
    report = {
        "config": asdict(cfg),
        "checks": checks,
        "diagnostics": {"doubled_mean_product_residual_max": doubled},
        "passed": all(c["passed"] for c in checks),
    }
    out = Path(cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify.json", report)
    return report
