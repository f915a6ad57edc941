"""States, observables, and the expectation/variance/centering semantics.

Value types validate their physical invariants at construction and are
immutable afterwards, so every downstream formula can assume a well-formed
input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidBasis,
    NonRealExpectation,
    NotPositiveSemidefinite,
)
from .linalg import PSD_CLAMP, _hermitian, as_complex_matrix, sqrtm_psd, tolerance_scale

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
BASIS_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class Observable:
    """Hermitian operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix, (2,), "observable").copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector. Global phase carries no meaning here."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"state vector must be 1-d, got ndim={v.ndim}")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond {NORM_TOL:.0e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.projector())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix, (2,), "density matrix")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {TRACE_TOL:.0e}")
        _require_psd(0.5 * (m + m.conj().T)[None])
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_psd(stack: np.ndarray) -> None:
    """The PSD_CLAMP rule on an (n, d, d) stack of Hermitian matrices, each
    read from its lower triangle: NotPositiveSemidefinite, naming the
    stack's smallest eigenvalue, if that is below -PSD_CLAMP. DensityMatrix
    runs it on its matrix as a one-matrix stack.

    A Cholesky factorization of the stack shifted by PSD_CLAMP/2 accepts it
    without eigenvalues: it succeeds only if every eigenvalue is above
    -PSD_CLAMP/2 less a rounding error of order d eps times the trace, far
    inside the rule for unit-trace states. If it fails, eigvalsh decides."""
    try:
        np.linalg.cholesky(stack + 0.5 * PSD_CLAMP * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(stack)[:, 0].min())
        if min_eig < -PSD_CLAMP:
            raise NotPositiveSemidefinite(f"min eigenvalue {min_eig:.3e}") from None


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class OrthonormalBasis:
    """Complete orthonormal set; column n of `matrix` is the n-th vector.
    Orthonormality, then completeness, each to BASIS_TOL."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise InvalidBasis(f"basis needs d vectors of dimension d, got {m.shape}")
        for name, product in (("orthonormality", m.conj().T @ m), ("completeness", m @ m.conj().T)):
            defect = np.abs(product - np.eye(len(m))).max()
            if defect > BASIS_TOL:
                raise InvalidBasis(f"{name} defect {defect:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=complex))


def _check_dims(a: Observable, state: State) -> None:
    if a.dim != state.dim:
        raise DimensionMismatch(f"observable dim {a.dim} vs state dim {state.dim}")


def _raw_moment(a: np.ndarray, state: State) -> complex:
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, a @ state.amplitudes))
    return complex(np.trace(state.matrix @ a))


def expectation(a: Observable, state: State) -> float:
    """<A> in the given state; the imaginary residue must be round-off only,
    within EXPECTATION_IMAG_TOL relative to A's tolerance_scale."""
    _check_dims(a, state)
    val = _raw_moment(a.matrix, state)
    tol = EXPECTATION_IMAG_TOL * tolerance_scale(a.matrix)
    if abs(val.imag) > tol:
        raise NonRealExpectation(f"imaginary part {val.imag:.3e} exceeds {tol:.3e}")
    return val.real


def variance(a: Observable, state: State) -> float:
    """<Abar^2> with Abar = A - <A>, as a squared norm.

    Centering first and squaring a norm (||Abar Psi||^2 for kets,
    ||Abar sqrt(rho)||_F^2 for density matrices) keeps the result
    nonnegative by construction; the raw-moment difference <A^2> - <A>^2
    cancels catastrophically whenever the true variance is near 0.
    """
    _check_dims(a, state)
    root = state.amplitudes if isinstance(state, PureState) else sqrtm_psd(state.matrix)
    return _variance_from_root(a, state, root)


def _variance_from_root(a: Observable, state: State, root: np.ndarray) -> float:
    """||Abar root||^2, the variance, from the state's ket or sqrt(rho) in hand."""
    abar = a.matrix.copy()  # A - <A> I, which subtracts only exact zeros off the diagonal
    abar.flat[:: a.dim + 1] -= expectation(a, state)
    return float(np.linalg.norm(abar @ root) ** 2)


def centered(a: Observable, state: State) -> Observable:
    """A - <A> * identity, the mean taken in the given state."""
    _check_dims(a, state)
    mean = expectation(a, state)
    return Observable(a.matrix - mean * np.eye(a.dim))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals 1 exactly on pure states."""
    return float(np.trace(rho.matrix @ rho.matrix).real)

