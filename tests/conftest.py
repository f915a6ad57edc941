"""Shared fixtures: Pauli matrices and a couple of canonical states.

random_pure and random_density are the property suite's own draws,
re-exported for the test modules."""
import numpy as np
import pytest

from tqsl import DensityMatrix, Observable, PureState
from tqsl.experiments import random_density, random_pure  # noqa: F401


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
