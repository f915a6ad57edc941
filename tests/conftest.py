"""Shared fixtures: Pauli matrices and a couple of canonical states.

random_pure and random_density are the property suite's own draws,
re-exported for the test modules; wishart_density is the benchmark's.
evolve_pure and evolve_mixed are the one-state-at-a-time propagators that
trajectories and the spin oracle are checked against, and grid_states reads
a trajectory's states back from its stack."""
import numpy as np
import pytest
import scipy.linalg

from tqsl import DensityMatrix, DimensionMismatch, Observable, PureState, expm_i_hermitian
from tqsl.experiments import random_density, random_pure  # noqa: F401


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
    a DensityMatrix R @ R per root R."""
    return [PureState(m) if m.ndim == 1 else DensityMatrix(m @ m) for m in traj.stack]


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
