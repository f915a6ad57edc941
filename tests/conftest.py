"""Shared fixtures: Pauli matrices and a couple of canonical states.

random_pure and random_density are the property suite's own draws,
re-exported for the test modules; wishart_density is the benchmark's.
evolve_pure and evolve_mixed are the one-state-at-a-time propagators that
trajectories and the spin oracle are checked against, grid_states reads
a trajectory's states back from its stack, doctored_trajectory builds one
from parts, and check_trajectory checks a trajectory's invariants row by
row. The report header names the OpenBLAS kernel in use beside the one the
goldens were captured on (blas_header)."""
import ctypes
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from tqsl import (
    DensityMatrix, DimensionMismatch, Observable, PureState, Trajectory, expm_i_hermitian, variance,
)
from tqsl.errors import _positive_finite, _trusted
from tqsl.experiments import random_density, random_pure  # noqa: F401
from tqsl.linalg import tolerance_scale

GOLDEN_KERNEL = Path(__file__).with_name("golden") / "blas_kernel.txt"


def blas_core() -> str:
    """The core NumPy's bundled OpenBLAS runs on, as OpenBLAS names it (it
    follows OPENBLAS_CORETYPE), or "unknown" where there is none to ask."""
    try:
        lib = ctypes.CDLL(str(next((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"))))
        corename = lib.scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def blas_header() -> str:
    """One line: the OpenBLAS core in use, and the core that captured the
    byte goldens under tests/golden/, whose bytes hold on that core only."""
    return f"openblas core: {blas_core()} (goldens captured on {GOLDEN_KERNEL.read_text().strip()})"


def pytest_report_header(config):
    return blas_header()


def evolve_pure(h: Observable, psi0: PureState, t: float, hbar: float = 1.0) -> PureState:
    """e^{-iHt/hbar} |psi0>, from the matrix exponential at the one time t."""
    if h.dim != psi0.dim:
        raise DimensionMismatch(f"H dim {h.dim} vs state dim {psi0.dim}")
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    return PureState(expm_i_hermitian(h.matrix, t / hbar) @ psi0.amplitudes)


def evolve_mixed(h: Observable, rho0: DensityMatrix, t: float, hbar: float = 1.0) -> DensityMatrix:
    """e^{-iHt/hbar} rho0 e^{+iHt/hbar}, from scipy's dense exponential."""
    u = scipy.linalg.expm(-1j * h.matrix * (t / hbar))
    return DensityMatrix(u @ rho0.matrix @ u.conj().T)


def grid_states(traj) -> list:
    """A trajectory's grid states: a PureState per ket row of its stack, or
    a DensityMatrix R^dagger R per root R."""
    return [PureState(m) if m.ndim == 1 else DensityMatrix(m.conj().T @ m) for m in traj.stack]


def doctored_trajectory(**fields) -> Trajectory:
    """A Trajectory holding `fields`, its arrays made read-only, built
    through _trusted as sample_trajectory builds one, with no check."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return _trusted(Trajectory, **fields)


def check_trajectory(traj) -> None:
    """Raise unless `traj` holds the invariants of a sampled trajectory,
    each state checked by the library's own implementation of its rule:
    - a grid of at least 2 times ascending from 0; s0, the overlap and the
      state stack share its length, and the stack H's dimension; hbar is
      positive and finite, and valid_until a grid index;
    - s0 starts at 0 and stays in [0, pi], and for kets moves no faster
      than the Fubini-Study speed 2 dH / hbar, to 1e-6;
    - every entry of the stack is finite, and every grid state passes
      PureState or, as R^dagger R of its root R, DensityMatrix
      (grid_states);
    - every grid state has a real <H> (variance runs expectation, to
      EXPECTATION_IMAG_TOL max(1, max|H|)) and the spread delta_h, to
      1e-9 max(1, max|H|)."""
    h, times, s0, n = traj.hamiltonian, traj.times, traj.s0, len(traj.times)
    if traj.stack.shape not in ((n, h.dim), (n, h.dim, h.dim)):
        raise ValueError(f"state stack must be (n, d) or (n, d, d) with n = {n}, d = {h.dim}, "
                         f"got {traj.stack.shape}")
    if s0.shape != (n,) or traj.overlap.shape != (n,):
        raise ValueError("grid arrays must share one length")
    if n < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must ascend from 0 with at least 2 points")
    _positive_finite("hbar", traj.hbar, ValueError)
    if not 0 <= traj.valid_until < n:
        raise ValueError(f"valid_until {traj.valid_until} outside grid")
    if s0[0] > 1e-9 or s0.min() < -1e-12 or s0.max() > math.pi + 1e-12:
        raise ValueError("s0 must start at 0 and stay in [0, pi]")
    if traj.kind == "pure":
        excess = float((np.abs(np.diff(s0)) - (2.0 * traj.delta_h / traj.hbar) * np.diff(times)).max())
        if excess > 1e-6:
            raise ValueError(f"s0 outruns the pure-state rate by {excess:.3e}")
    if not np.isfinite(traj.stack).all():
        raise ValueError("state stack entries must be finite")
    states = grid_states(traj)
    tol = 1e-9 * float(tolerance_scale(h.matrix))
    for k, state in enumerate(states):
        drift = abs(math.sqrt(variance(h, state)) - traj.delta_h)
        if drift > tol:
            raise ValueError(f"energy spread drifts by {drift:.3e} at grid index {k}")


def wishart_density(item: int, dim: int = 8) -> np.ndarray:
    """A full-rank Wishart draw normalised to unit trace: at dim 8, the
    benchmark's mixed-sweep input for `item`."""
    rng = np.random.default_rng([item, 7])
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = w @ w.conj().T
    return m / np.trace(m).real


def with_spectrum(rng, eigenvalues) -> np.ndarray:
    """A Hermitian matrix with the given eigenvalues in a random eigenbasis."""
    d = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * np.asarray(eigenvalues)) @ q.conj().T


@pytest.fixture()
def no_eigvalsh(monkeypatch):
    """Make np.linalg.eigvalsh fail: the positivity check must accept on
    its Cholesky factorization alone."""

    def fail(*args, **kwargs):
        raise AssertionError("the positivity check fell back to eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


@pytest.fixture(scope="session")
def sigma_x() -> Observable:
    return Observable(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


@pytest.fixture(scope="session")
def sigma_y() -> Observable:
    return Observable(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))


@pytest.fixture(scope="session")
def sigma_z() -> Observable:
    return Observable(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


@pytest.fixture(scope="session")
def ket0() -> PureState:
    return PureState(np.array([1.0, 0.0], dtype=complex))


@pytest.fixture(scope="session")
def ket1() -> PureState:
    return PureState(np.array([0.0, 1.0], dtype=complex))


@pytest.fixture(scope="session")
def ket_plus() -> PureState:
    return PureState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))


@pytest.fixture(scope="session")
def qubit_mixed() -> DensityMatrix:
    return DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
