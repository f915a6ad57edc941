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
import pickle
import signal
import tempfile
from collections import Counter
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
    _csv_rows,
    _cumulative_trapezoid,
    _require_clean,
    _series,
    bound_series,
)
from .dynamics import Trajectory, _grid, _pure_trajectories, sample_trajectory
from .ensembles import (
    GueConfig,
    SpinChainConfig,
    _gue_draws,
    _gue_eigenbases,
    random_basis,
    sample_gue,
    spin_chain_evolved_state,
    spin_chain_hamiltonian,
)
from .errors import (
    ConfigError, NonHermitianInput, QslError, _index, _integer_fields, _positive_finite_fields, _trusted,
)
from .linalg import sqrtm_psd
from .states import (
    DensityMatrix,
    Observable,
    PureState,
    _variance_from_root,
    centered,
    expectation,
    variance,
)
from .uncertainty import _clamp_nonnegative, _k_terms, _moment_split, _tighter_and_cross

BASIS_SEED_OFFSET = 1_000_003
# Seeds x grid points x dimension that a sweep computes as one stack: it
# bounds the block's arrays, so memory does not grow with the seed count.
BLOCK_ELEMENTS = 9000
# A sweep forks into at most this many processes: the core count on which
# forking was measured to pay (BENCH_13.json).
MAX_WORKERS = 2
# Seeds x dim**3 of a block's fixed-basis eigensolve that a helper child
# computes: a 128-dim eigh takes 3 ms, as a fork and its spool take 3-4 ms.
HELPER_WORK = 128**3

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
        repeated = [s for s, n in Counter(seeds).items() if n > 1]
        if repeated:
            raise ConfigError(f"seeds must be distinct, got {repeated[0]} more than once")
        if self.kind in ("gue", "spin") and not seeds:
            raise ConfigError(f"{self.kind} runs need at least one seed")
        if self.kind == "verify" and len(seeds) != 1:
            raise ConfigError(f"verify runs take one seed, got {len(seeds)}")
        object.__setattr__(self, "seeds", seeds)
        # whatever the kind, as dim is: summary.json records every field
        spin = SpinChainConfig(num_spins=self.num_spins, blocks=self.blocks, omega0=self.omega0, omega=self.omega)
        object.__setattr__(self, "blocks", spin.blocks)


def default_initial_state(dim: int) -> PureState:
    """Unequal three-level superposition for dim 3 (weights .1/.2/.7),
    uniform superposition otherwise."""
    if dim == 3:
        return PureState(np.sqrt(np.array([0.1, 0.2, 0.7], dtype=complex)))
    return PureState(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def _fixed_bases(cfg: ExperimentConfig, dim: int, seeds: list, helped=None) -> tuple:
    """The fixed bases of a block of runs as a (k, d, d) stack, and their
    basis_ids; `helped`, if given, is the stack a helper child computed."""
    if cfg.basis_mode == "identity":
        return np.broadcast_to(np.eye(dim, dtype=complex), (len(seeds), dim, dim)), ["identity"] * len(seeds)
    basis_seeds = [seed + BASIS_SEED_OFFSET for seed in seeds]
    stack = _gue_eigenbases(dim, basis_seeds) if helped is None else helped
    return stack, [f"gue-eigenbasis:seed={s}" for s in basis_seeds]


@contextmanager
def _quarantine(run: dict):
    """A QslError inside the block becomes one of the run's error flags."""
    try:
        yield
    except QslError as err:
        run["flags"].append(f"error:{type(err).__name__}:{err}")


def _output_dir(cfg: ExperimentConfig) -> Path:
    """cfg.output_path, created if missing; a ConfigError if it cannot be a directory."""
    out = Path(cfg.output_path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"output directory {cfg.output_path!r}: {err}") from err
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


def _require_kind(cfg: ExperimentConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise ConfigError(f"expected kind {kind!r}, got {cfg.kind!r}")


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
    spin_cfg = SpinChainConfig(num_spins=cfg.num_spins, blocks=cfg.blocks, omega0=cfg.omega0, omega=cfg.omega)
    h = spin_chain_hamiltonian(spin_cfg, cfg.hbar)
    amps = np.zeros(spin_cfg.dim, dtype=complex)
    amps[0] = 1.0
    psi0 = PureState(amps)

    @functools.cache  # an error is not cached: each run that asks meets it
    def sampled() -> tuple:
        traj = sample_trajectory(h, psi0, cfg.t_max, cfg.steps, cfg.hbar)
        exact = spin_chain_evolved_state(spin_cfg, psi0, traj.times)
        return traj, np.minimum(np.abs(np.vecdot(exact, traj.stack)), 1.0)

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

    The seeds split into one contiguous share per usable core (`_cores`,
    read once) and per BLOCK_ELEMENTS of a round's work: this process
    computes the first and writes its files as it goes, and a forked child
    computes each other one and spools its files, which this process then
    writes, in seed order. A share whose child fails in any way is computed
    here again, so the error and the files written are the serial sweep's.
    In a share, seeds go in blocks of up to BLOCK_ELEMENTS / (steps * dim),
    each sampled, prepared as one `_Correction` and bounded by one `_series`
    call, then written: with fixed bases (a large fixed-random block's by a
    forked helper, if a core is spare), or with the winners of one lockstep
    `_climb` over the block's seeds whose overlap does not turn around (each
    of the others raises its own ValidityExceeded); a seed whose climb or
    series fails keeps its own QslError. A block that raises is computed
    again seed by seed, so each seed gets a one-seed sweep's flag, and any
    other error ends the sweep where one seed after another would."""
    out = _output_dir(cfg)
    header = BOUND_CSV_HEADER if fidelity is None else BOUND_CSV_HEADER + ",fidelity"
    runs = [{"seed": seed, "min_delta": None, "max_delta": None, "flags": []} for seed in cfg.seeds]
    optimize = cfg.basis_mode == "optimize"

    def stacked(seeds: list) -> list:
        """Per seed, its trajectory and its bound series or QslError; an
        optimize seed whose overlap turns around gets None, and no climb."""
        if optimize:
            trajs = sample(seeds)
            clean = [i for i, traj in enumerate(trajs) if traj.validity_clean]
            found = [None] * len(trajs)
            if clean:
                correction = _Correction(*(trajs[i] for i in clean))
                bases, basis_ids = _climb(correction, OptimizerConfig(), [seeds[i] for i in clean])
                for i, series in zip(clean, _series(correction, bases, basis_ids)):
                    found[i] = series
            return list(zip(trajs, found))
        with contextlib.ExitStack() as stack:
            pid = spool = None
            if helper and len(seeds) * dim**3 >= HELPER_WORK:
                with contextlib.suppress(OSError):  # no spool: no helper
                    spool = stack.enter_context(tempfile.TemporaryFile(dir=out))
                    pid = _fork(lambda f: pickle.dump(_fixed_bases(cfg, dim, seeds)[0], f), spool, children)
            try:
                trajs = sample(seeds)
            finally:  # serially the bases come first, so their error wins over sampling's
                taken = _taken(spool, np.ndarray) if reaped(pid) else None
                bases, basis_ids = _fixed_bases(cfg, dim, seeds, taken[-1] if taken else None)
        return list(zip(trajs, _series(_Correction(*trajs), bases, basis_ids)))

    grid = [None, None]  # the last t array emitted and its cells: every run shares one

    def emit(run: dict, traj: Trajectory, series: BoundSeries, put) -> None:
        column = None if fidelity is None else fidelity(traj)
        rows = _csv_rows(series, grid)
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

    def compute(share: list, put) -> None:
        """Computes a share and hands put(name, text) each of its files in
        seed order; an error that is not a QslError ends it there."""
        size = max(1, BLOCK_ELEMENTS // (cfg.steps * dim))
        for block in (share[i : i + size] for i in range(0, len(share), size)):
            try:
                done = stacked([run["seed"] for run in block])
            except Exception:  # recomputed one seed at a time below
                done = None
            for i, run in enumerate(block):
                with _quarantine(run):
                    traj, series = done[i] if done else stacked([run["seed"]])[0]
                    if series is None:  # an optimize run whose overlap turns around
                        _require_clean(traj)
                    if isinstance(series, QslError):
                        raise series
                    emit(run, traj, series, put)

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8", newline="\n")

    def shared(k: int, spool) -> None:
        """A share's payload: its files on its spool, then its run records."""
        compute(runs[shares[k]], lambda name, text: pickle.dump((name, text), spool))
        pickle.dump(runs[shares[k]], spool)

    def reaped(pid: int | None) -> bool:
        """Waits for a child, if there is one: whether it exited 0."""
        if pid is None:
            return False
        status = os.waitpid(pid, 0)[1]
        children.remove(pid)
        return status == 0

    n, usable = len(runs), _cores()
    work = n * (OptimizerConfig().restarts if optimize else 1) * cfg.steps * dim  # a round's members x steps x dim
    w = max(1, min(usable, n, work // BLOCK_ELEMENTS))  # a share's work must outweigh its fork
    # a helper is one process more than the shares: there must be a core for it
    helper = cfg.basis_mode == "fixed-random" and usable > w
    shares = [slice(n * k // w, n * (k + 1) // w) for k in range(w)]
    try:  # each child's spool, an unlinked file in `out`
        spools = [None] + [tempfile.TemporaryFile(dir=out) for _ in range(1, w)]
    except OSError:  # no spool, no fork: this process runs the sweep alone
        w, shares, spools = 1, [slice(0, n)], [None]
    children, pids = [], [None] * w  # children: every child not yet reaped
    try:
        for k in range(1, w):  # a fork that fails: the share is computed here
            pids[k] = _fork(functools.partial(shared, k), spools[k], children)
        for k in range(w):
            if reaped(pids[k]) and (items := _taken(spools[k], list)) is not None:
                for name, text in items[:-1]:  # the share's files, then its run records
                    write(name, text)
                runs[shares[k]] = items[-1]
            else:  # this process's share, or one whose child failed in any way
                compute(runs[shares[k]], write)
    finally:  # no child outlives the sweep
        for pid in children:
            with contextlib.suppress(OSError):  # one reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for spool in filter(None, spools):
            spool.close()
    # a run without a series is flagged, and every series passed its row checks
    ok = not any(f.startswith("error:") for run in runs for f in run["flags"])
    summary = {"config": asdict(cfg), "runs": runs, "ok": ok}
    _write_json(out / "summary.json", summary)
    return summary


def _cores() -> int:
    """Cores a sweep may use: this process's CPU affinity, capped at
    MAX_WORKERS. Only a single-threaded Linux process forks, so any other
    gets 1: a BLAS thread pool already runs in parallel and is unsafe to fork."""
    try:
        alone = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
        return min(len(os.sched_getaffinity(0)), MAX_WORKERS) if alone else 1
    except (OSError, AttributeError):  # no /proc, no sched_getaffinity
        return 1


def _fork(payload, spool, children: list) -> int | None:
    """The pid of a child that runs payload(spool), a share's or a helper's
    work, flushes the spool and exits 0, or exits 1 if payload raises. The
    pid joins `children`; a fork that fails (OSError) gives None."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid:
        children.append(pid)
        return pid
    status = 1
    try:
        payload(spool)
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def _taken(spool, kind: type):
    """Every object a child pickled on its spool, in order, up to the first
    not there whole, if the last is a `kind`: a share's files and then its
    run records, or a helper's bases. Only this process and its child hold
    the spool, an unlinked file, so what it holds is safe to unpickle."""
    items = []
    spool.seek(0)
    with contextlib.suppress(EOFError, pickle.UnpicklingError):  # the end, or a truncated object
        while True:
            items.append(pickle.load(spool))
    return items if items and isinstance(items[-1], kind) else None


# ---------------------------------------------------------------------------
# Property suite: seeded fuzz checks over every module's stated invariants.
# Each check returns (trials, its most adverse signed margin, tolerance); it
# passes when the margin stays above minus its tolerance. A seeded check is
# a per-trial margin function that _trial_margins runs.

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


def _trial_margins(trial, trials: int, seed: int, stream: int, tolerance: float) -> tuple:
    """A seeded check: trial(rng, dim, k) for k < trials, each trial's dim
    the next of _SUITE_DIMS, all drawing from default_rng([seed, stream]);
    (trials, the smallest margin, tolerance)."""
    rng = np.random.default_rng([seed, stream])
    worst = math.inf
    for k in range(trials):
        worst = min(worst, float(trial(rng, _SUITE_DIMS[k % len(_SUITE_DIMS)], k)))
    return trials, worst, tolerance


def _chain_margin(rng, dim: int, k: int, mixed: bool) -> float:
    """dA dB >= the tighter bound >= the cross term >= |<[A, B]>| / 2."""
    a, b, state, basis = _draw(rng, dim, mixed)
    root = sqrtm_psd(state.matrix) if mixed else state.amplitudes  # one root for both variances and K
    da, db = (math.sqrt(_variance_from_root(x, state, root)) for x in (a, b))
    # K takes a ket as the 1 x d root psi^dagger
    tighter, cross = _k_terms((root if mixed else root.conj()[None])[None], a.matrix, b.matrix, basis.matrix[None])
    tighter, cross = float(tighter[0, 0]), float(cross[0])
    half_comm = _moment_split(a, b, state)[0]
    return min(da * db - tighter, tighter - cross, cross - half_comm)


def _moment_margin(rng, dim: int, k: int) -> float:
    """|<Abar Bbar>|^2 against its moment split, (|<[A,B]>|/2)^2 +
    (<{A,B}>/2 - <A><B>)^2."""
    a, b, state, _ = _draw(rng, dim, mixed=k % 2 == 1)
    comm_part, anti_part = _moment_split(a, b, state)
    return -abs(_tighter_and_cross(a, b, state)[1] ** 2 - (comm_part ** 2 + anti_part ** 2))


def _f_positivity_margin(rng, dim: int, k: int) -> float:
    a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    rho = random_density(rng, dim)
    abar = centered(a, rho).matrix
    f = abar @ rho.matrix @ abar
    return float(np.linalg.eigvalsh(0.5 * (f + f.conj().T))[0])


def _side_margin(rng, dim: int, k: int) -> float:
    """Diagonal fast route against literal per-projector traces, with the
    projector attached on either side of the centered operator."""
    a, b, rho, basis = _draw(rng, dim, mixed=True)
    fast = _tighter_and_cross(a, b, rho, basis)[0]
    abar = centered(a, rho).matrix
    bbar = centered(b, rho).matrix
    r = rho.matrix
    f = abar @ r @ abar
    u = basis.matrix
    worst = 0.0
    for attach in ("left", "right"):
        total = 0.0
        for n in range(dim):
            pn = np.outer(u[:, n], u[:, n].conj())
            bn = pn @ bbar if attach == "left" else bbar @ pn
            sandwich = bn @ r @ bn.conj().T if attach == "left" else bn.conj().T @ r @ bn
            total += math.sqrt(abs(complex(np.trace(f @ sandwich))))
        worst = max(worst, abs(total - fast))
    return -worst


def _pure_reduction_margin(rng, dim: int, k: int) -> float:
    a, b, psi, basis = _draw(rng, dim, mixed=False)
    return -abs(_tighter_and_cross(a, b, psi.to_density(), basis)[0] - _tighter_and_cross(a, b, psi, basis)[0])


def _lift_margin(rng, dim: int, k: int) -> float:
    a = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    psi = random_pure(rng, dim)
    rho = psi.to_density()
    return -max(abs(expectation(a, psi) - expectation(a, rho)), abs(variance(a, psi) - variance(a, rho)))


def _bargmann_margin(rng, dim: int, k: int) -> float:
    """The angle s0 a two-point trajectory finds from a random ket, then a
    random density matrix, to its state at t equals the angle from that
    state back under -H."""
    h = sample_gue(GueConfig(dim=dim, seed=_derived_seed(rng)))
    t = float(rng.uniform(0.1, 2.0))
    worst = 0.0
    for state in (random_pure(rng, dim), random_density(rng, dim)):
        traj = sample_trajectory(h, state, t, 2)
        end = traj.stack[-1]  # a ket, or the root of a density matrix
        end = PureState(end) if end.ndim == 1 else DensityMatrix(end.conj().T @ end)
        worst = max(worst, abs(traj.s0[-1] - sample_trajectory(Observable(-h.matrix), end, t, 2).s0[-1]))
    return -worst


def _correction_margin(rng, dim: int, k: int) -> float:
    tighter, cross = _tighter_and_cross(*_draw(rng, dim, mixed=k % 2 == 1))
    return float(_clamp_nonnegative(tighter - cross, "correction"))


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
    out = _output_dir(cfg)
    (seed,) = cfg.seeds
    trials, quarter = cfg.trials, max(cfg.trials // 4, 1)
    seeded = (  # a check's random stream is its row here
        ("pure-chain", functools.partial(_chain_margin, mixed=False), trials, 1e-9),
        ("mixed-chain", functools.partial(_chain_margin, mixed=True), trials, 1e-9),
        ("moment-identity", _moment_margin, trials, 1e-9),
        ("f-positivity", _f_positivity_margin, trials, 1e-10),
        ("side-insensitivity", _side_margin, quarter, 1e-9),
        ("pure-reduction", _pure_reduction_margin, trials, 1e-9),
        ("state-lift-agreement", _lift_margin, trials, 1e-10),
        ("bargmann-symmetry", _bargmann_margin, quarter, 1e-10),
        ("correction-nonnegative", _correction_margin, trials, 0.0),
    )
    checks = [
        _verdict(name, functools.partial(_trial_margins, trial, n, seed, stream, tolerance))
        for stream, (name, trial, n, tolerance) in enumerate(seeded)
    ] + [_verdict(name, check) for name, check in (
        ("delta-nonnegative", lambda: _check_delta_nonnegative(seed)),
        ("quadrature-order", _check_quadrature_order),
        ("hermiticity-rejection", _check_hermiticity_rejection),
    )]
    report = {"config": asdict(cfg), "checks": checks, "passed": all(c["passed"] for c in checks)}
    _write_json(out / "verify.json", report)
    return report
