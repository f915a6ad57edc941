"""Experiment runners behind the CLI: sweeps, artifacts, property suite.

Each runner writes plot-ready CSV files plus a JSON summary and returns the
summary dict. Stochastic runs are keyed by explicit seeds, so reruns with
the same config are byte-identical. Per-run computation errors are
quarantined into the run's flags instead of aborting the batch.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import signal
import tempfile
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
# A sweep forks into at most this many processes: the core count on which
# forking was measured to pay (BENCH_13.json).
MAX_WORKERS = 2
CGROUP = Path("/sys/fs/cgroup")

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

    if len(cfg.seeds) > 1:  # once, before the sweep may fork; each run meets an error again
        with contextlib.suppress(Exception):
            sampled()
    return _run_sweep(cfg, spin_cfg.dim, lambda seeds: [sampled()[0]] * len(seeds), lambda traj: sampled()[1])


def _run_sweep(cfg: ExperimentConfig, dim: int, sample, fidelity=None) -> dict:
    """The sweep behind both runners: `sample(seeds)` gives the pure
    trajectories of a list of seeds, in dimension `dim`, and each run writes
    one `<kind>_seed<seed>.csv`, then summary.json. `fidelity`, when given,
    maps a trajectory to one value per grid row: the CSVs gain it as a
    trailing column and each run its minimum.

    The seeds split into `_workers` contiguous shares: this process
    computes the first and a forked child each other one. A child spools
    its files and this process writes them, in seed order. A share whose
    child fails in any way is computed here again, so the error and the
    files written are the serial sweep's. In a share, seeds go in blocks of
    up to BLOCK_ELEMENTS / (steps * dim), each sampled and, with a fixed
    basis, bounded and written as one stack. A block that raises anything
    is computed again seed by seed, so each seed gets the flag a one-seed
    sweep gives it, and any other error ends the sweep where one seed after
    another would. Optimize runs are prepared, then climbed in one lockstep
    `_climb` and written from their winners."""
    out = Path(cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    header = BOUND_CSV_HEADER if fidelity is None else BOUND_CSV_HEADER + ",fidelity"
    runs = [{"seed": seed, "min_delta": None, "max_delta": None, "flags": []} for seed in cfg.seeds]
    optimize = cfg.basis_mode == "optimize"

    def stacked(seeds: list) -> list:
        """Per seed, its trajectory and, with a fixed basis, its bound series."""
        if optimize:
            return [(traj, None) for traj in sample(seeds)]
        bases, basis_ids = _fixed_bases(cfg, dim, seeds)
        trajs = sample(seeds)
        return list(zip(trajs, _series(_Correction(*trajs), bases, basis_ids)))

    def emit(run: dict, traj: Trajectory, series: BoundSeries, put) -> None:
        column = None if fidelity is None else fidelity(traj)
        rows = series.csv_rows()
        if column is not None:
            rows = [f"{row},{value:.12g}" for row, value in zip(rows, column.tolist())]
        name = f"{cfg.kind}_seed{run['seed']}.csv"
        put(name, "\n".join([header, *rows]) + "\n")
        if not traj.validity_clean:
            run["flags"].append(f"overlap-minimum@t={traj.times[traj.valid_until]:.6g}")
        run.update(min_delta=float(series.delta.min()), max_delta=float(series.delta.max()))
        if column is not None:
            run["min_fidelity"] = float(column.min())
        run.update(csv=name, basis_id=series.basis_id)

    def compute(share: list, put) -> tuple:
        """Computes a share and hands put(name, text) each of its files in
        seed order. Gives the error that ended it or None, and whether its
        files had begun (optimize: after _climb)."""
        prepared, climbed = [], None  # prepared: (run, trajectory, its _Correction)
        size = max(1, BLOCK_ELEMENTS // (cfg.steps * dim))
        try:
            for block in (share[i : i + size] for i in range(0, len(share), size)):
                try:
                    done = stacked([run["seed"] for run in block])
                except Exception:  # recomputed one seed at a time below
                    done = None
                for i, run in enumerate(block):
                    with _quarantine(run):
                        traj, series = done[i] if done else stacked([run["seed"]])[0]
                        if series is not None:
                            emit(run, traj, series, put)
                        else:
                            _require_clean(traj)
                            prepared.append((run, traj, _Correction(traj)))
            seeds = [run["seed"] for run, *_ in prepared]
            climbed = prepared and _climb([c for *_, c in prepared], OptimizerConfig(), seeds)
            for (run, traj, _), result in zip(prepared, climbed):
                with _quarantine(run):
                    if isinstance(result, Exception):
                        raise result
                    emit(run, traj, result[1], put)
        except Exception as err:
            return err, not optimize or climbed is not None
        return None, True

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8", newline="\n")

    n = len(runs)
    w = _workers(n, n * (OptimizerConfig().restarts if optimize else 1) * cfg.steps * dim)
    shares = [slice(n * k // w, n * (k + 1) // w) for k in range(w)]
    # A share's spool, an unlinked file in `out`, holds its files as JSON
    # lines until they may be written. Serially, no optimize file comes
    # before every climb, so there the first share's files wait too.
    try:
        spools = [tempfile.TemporaryFile("w+", encoding="utf-8", dir=out) for _ in range(w)] if w > 1 else [None]
    except OSError:  # no spool, no fork: this process runs the sweep alone
        w, shares, spools = 1, [slice(0, n)], [None]
    children, outcomes = [None] * w, []

    def fetch(k: int) -> tuple:
        """Share k's outcome: its child's, whose spool ends with its run
        records, or computed here if the child failed in any way."""
        if children[k]:
            pid, children[k] = children[k], None
            if os.waitpid(pid, 0)[1] == 0 and (records := _records(spools[k])) is not None:
                runs[shares[k]] = records
                return None, True
            spools[k].seek(0)
            spools[k].truncate()
        return compute(runs[shares[k]], write if not optimize or w == 1 else functools.partial(_spool, spools[k]))

    try:
        for k in range(1, w):
            with contextlib.suppress(OSError):  # a fork that fails: fetch computes the share here
                children[k] = _fork(compute, runs[shares[k]], spools[k])
        for k in range(w):
            err, begun = fetch(k)
            if optimize and err is not None and not begun:
                raise err  # serially, no optimize file comes before every climb
            outcomes.append((k, err))
            if not optimize or k == w - 1:  # in seed order; optimize: after every climb
                for j, err in outcomes:
                    for name, text in _unspool(spools[j]):
                        write(name, text)
                    if err is not None:
                        raise err
                outcomes.clear()
    finally:  # no child outlives the sweep
        for pid in filter(None, children):
            with contextlib.suppress(OSError):  # one reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for spool in filter(None, spools):
            spool.close()
    summary = {"config": asdict(cfg), "runs": runs, "ok": all(_run_ok(r) for r in runs)}
    _write_json(out / "summary.json", summary)
    return summary


def _workers(seeds: int, work: int) -> int:
    """Processes for a sweep of `seeds` seeds and `work` elements a round
    (members x steps x dim): one per usable core and per BLOCK_ELEMENTS of
    work, which outweighs a fork. Only a single-threaded Linux process
    forks: a BLAS thread pool already runs in parallel and is unsafe to fork."""
    try:
        alone = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
        return max(1, min(_cores() if alone else 1, seeds, work // BLOCK_ELEMENTS))
    except (OSError, AttributeError, ValueError):  # no /proc, no sched_getaffinity, an unreadable quota
        return 1


def _cores() -> int:
    """Usable cores: this process's CPU affinity, capped at MAX_WORKERS and
    at the CPU time its cgroup grants (v2 cpu.max, else v1's CFS quota)."""
    try:
        quota, period = (CGROUP / "cpu.max").read_text().split()
    except OSError:
        try:
            quota, period = ((CGROUP / f"cpu/cpu.cfs_{f}_us").read_text() for f in ("quota", "period"))
        except OSError:  # no cgroup file system
            quota, period = "max", "1"
    granted = math.inf if quota.strip() in ("max", "-1") else int(quota) / int(period)
    return int(min(len(os.sched_getaffinity(0)), MAX_WORKERS, granted))


def _fork(compute, share: list, spool) -> int:
    """The pid of a child that runs compute(share, put), put adding each file
    to `spool`, then adds the share's run records; one that fails exits 1."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        if compute(share, functools.partial(_spool, spool))[0] is None:
            _spool(spool, None, share)
            spool.flush()
            status = 0
    finally:
        os._exit(status)


def _spool(spool, name: str | None, value) -> None:
    """One line on a spool: a file's name and text, or None and run records."""
    spool.write(json.dumps([name, value]) + "\n")


def _records(spool) -> list | None:
    """The run records on a spool's last line, or None if that line is not
    there whole."""
    spool.seek(0)
    last = "null"
    for last in spool:
        pass
    with contextlib.suppress(ValueError, TypeError):  # a truncated spool
        name, records = json.loads(last)
        return records if name is None else None
    return None


def _unspool(spool):
    """The (name, text) of each file on a spool, if there is one."""
    if spool is not None:
        spool.seek(0)
        for line in spool:
            name, text = json.loads(line)
            if name is not None:
                yield name, text


# ---------------------------------------------------------------------------
# Property suite: seeded fuzz checks over every module's stated invariants.
# Each check returns (trials, its most adverse signed margin, tolerance); it
# passes when the margin stays above minus its tolerance.

def random_pure(rng, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim: int) -> DensityMatrix:
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = w @ w.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _verdict(name: str, check) -> dict:
    """The report entry of check(); a QslError inside it fails the check."""
    try:
        trials, worst, tolerance = check()
    except QslError as err:
        return {"name": name, "trials": 0, "worst_slack": None, "tolerance": None, "passed": False,
                "error": f"{type(err).__name__}: {err}"}
    return {"name": name, "trials": trials, "worst_slack": worst, "tolerance": tolerance, "passed": worst >= -tolerance}


def _derived_seed(rng) -> int:
    return int(rng.integers(2**63))


def _draw(rng, dim: int, mixed: bool):
    a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    b = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    basis = random_basis(dim, _derived_seed(rng))
    state = random_density(rng, dim) if mixed else random_pure(rng, dim)
    return a, b, state, basis


def _check_chain(trials: int, seed: int, mixed: bool) -> tuple:
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
    return trials, worst, 1e-9


def _check_moment_identity(trials: int, seed: int) -> tuple:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        mixed = k % 2 == 1
        a, b, state, _ = _draw(rng, dim, mixed)
        worst = max(worst, abs(moment_identity_residual(a, b, state)))
    return trials, -worst, 1e-9


def _check_f_positivity(trials: int, seed: int) -> tuple:
    rng = np.random.default_rng([seed, 3])
    worst = math.inf
    for k in range(trials):
        dim = _SUITE_DIMS[k % len(_SUITE_DIMS)]
        a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
        rho = random_density(rng, dim)
        abar = centered(a, rho).matrix
        f = abar @ rho.matrix @ abar
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (f + f.conj().T))[0]))
    return trials, worst, 1e-10


def _check_side_insensitivity(trials: int, seed: int) -> tuple:
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
    return trials, -worst, 1e-9


def _check_pure_reduction(trials: int, seed: int) -> tuple:
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
    return trials, -worst, 1e-9


def _check_lift_agreement(trials: int, seed: int) -> tuple:
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
    return trials, -worst, 1e-10


def _check_bargmann_symmetry(trials: int, seed: int) -> tuple:
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
    return trials, -worst, 1e-10


def _check_correction_nonnegative(trials: int, seed: int) -> tuple:
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
    return trials, worst, 0.0


def _check_delta_nonnegative(seed: int) -> tuple:
    worst = math.inf
    trials = 5
    for k in range(trials):
        h = sample_gue(GueConfig(dim=3, seed=seed + k))
        basis = random_basis(3, seed + k + BASIS_SEED_OFFSET)
        traj = sample_trajectory(h, default_initial_state(3), 1.5, 100)
        worst = min(worst, float(bound_series(traj, basis).delta.min()))
    return trials, worst, 1e-9


def _check_quadrature_order() -> tuple:
    def f(t):
        return np.sin(3.0 * t) + t * t

    t1 = np.linspace(0.0, 1.0, 101)
    t2 = np.linspace(0.0, 1.0, 201)
    exact = (1.0 - math.cos(3.0)) / 3.0 + 1.0 / 3.0
    e1 = abs(float(_cumulative_trapezoid(t1, f(t1))[0][-1]) - exact)
    e2 = abs(float(_cumulative_trapezoid(t2, f(t2))[0][-1]) - exact)
    ratio = e1 / e2
    return 1, -abs(ratio - 4.0), 0.5


def _check_hermiticity_rejection() -> tuple:
    try:
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    except NonHermitianInput:
        return 1, 0.0, 0.0
    return 1, -1.0, 0.0


def run_property_suite(cfg: ExperimentConfig) -> dict:
    """Seeded fuzz run over the library's invariants; failures are report
    content, not exceptions."""
    _require_kind(cfg, "verify")
    if len(cfg.seeds) > 1:
        raise ConfigError(f"verify runs take one seed, got {len(cfg.seeds)}")
    seed = cfg.seeds[0] if cfg.seeds else 0
    trials = cfg.trials
    quarter = max(trials // 4, 1)
    checks = [_verdict(name, check) for name, check in (
        ("pure-chain", lambda: _check_chain(trials, seed, mixed=False)),
        ("mixed-chain", lambda: _check_chain(trials, seed, mixed=True)),
        ("moment-identity", lambda: _check_moment_identity(trials, seed)),
        ("f-positivity", lambda: _check_f_positivity(trials, seed)),
        ("side-insensitivity", lambda: _check_side_insensitivity(quarter, seed)),
        ("pure-reduction", lambda: _check_pure_reduction(trials, seed)),
        ("state-lift-agreement", lambda: _check_lift_agreement(trials, seed)),
        ("bargmann-symmetry", lambda: _check_bargmann_symmetry(quarter, seed)),
        ("correction-nonnegative", lambda: _check_correction_nonnegative(trials, seed)),
        ("delta-nonnegative", lambda: _check_delta_nonnegative(seed)),
        ("quadrature-order", _check_quadrature_order),
        ("hermiticity-rejection", _check_hermiticity_rejection),
    )]
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
