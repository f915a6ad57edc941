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
    NonHermitianInput,
    NonRealExpectation,
    NotPositiveSemidefinite,
)
from .linalg import HERMITICITY_TOL, as_complex_matrix, eigh, hermitian_defect, sqrtm_psd

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
BASIS_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class Observable:
    """Hermitian operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise NonHermitianInput(f"observable must be square, got {m.shape}")
        defect = hermitian_defect(m)
        if defect > HERMITICITY_TOL:
            raise NonHermitianInput(f"Hermiticity defect {defect:.3e}")
        m = m.copy()
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
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise NonHermitianInput(f"density matrix must be square, got {m.shape}")
        defect = hermitian_defect(m)
        if defect > HERMITICITY_TOL:
            raise NonHermitianInput(f"Hermiticity defect {defect:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {TRACE_TOL:.0e}")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if min_eig < -PSD_TOL:
            raise NotPositiveSemidefinite(f"min eigenvalue {min_eig:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class OrthonormalBasis:
    """Complete orthonormal set; column n of `matrix` is the n-th vector."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        (failure,) = basis_failures(m[None])
        if failure is not None:
            raise failure
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def from_vectors(cls, vectors) -> "OrthonormalBasis":
        return cls(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))

    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.matrix[:, n] for n in range(self.dim))


def basis_failures(stack: np.ndarray) -> list:
    """Per matrix of a complex (m, d, d) stack, None or the error that
    OrthonormalBasis raises on it: non-finite entries, then orthonormality,
    then completeness. A stack of non-square matrices raises."""
    if stack.shape[-2] != stack.shape[-1]:
        raise InvalidBasis(f"basis needs d vectors of dimension d, got {stack.shape[-2:]}")
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():  # keep inf * 0 out of the products below
        stack = np.where(finite[:, None, None], stack, 0.0)
    eye = np.eye(stack.shape[-1])
    gram = np.abs(stack.conj().swapaxes(-1, -2) @ stack - eye).max(axis=(-2, -1))
    completeness = np.abs(stack @ stack.conj().swapaxes(-1, -2) - eye).max(axis=(-2, -1))
    return [
        ValueError("matrix entries must be finite") if not ok
        else InvalidBasis(f"orthonormality defect {g:.3e}") if g > BASIS_TOL
        else InvalidBasis(f"completeness defect {c:.3e}") if c > BASIS_TOL
        else None
        for ok, g, c in zip(finite.tolist(), gram.tolist(), completeness.tolist())
    ]


def _check_dims(a: Observable, state: State) -> None:
    if a.dim != state.dim:
        raise DimensionMismatch(f"observable dim {a.dim} vs state dim {state.dim}")


def _raw_moment(a: np.ndarray, state: State) -> complex:
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, a @ state.amplitudes))
    return complex(np.trace(state.matrix @ a))


def expectation(a: Observable, state: State) -> float:
    """<A> in the given state; the imaginary residue must be round-off only."""
    _check_dims(a, state)
    val = _raw_moment(a.matrix, state)
    if abs(val.imag) > EXPECTATION_IMAG_TOL:
        raise NonRealExpectation(f"imaginary part {val.imag:.3e} exceeds {EXPECTATION_IMAG_TOL:.0e}")
    return val.real


def variance(a: Observable, state: State) -> float:
    """<Abar^2> with Abar = A - <A>, as a squared norm.

    Centering first and squaring a norm (||Abar Psi||^2 for kets,
    ||Abar sqrt(rho)||_F^2 for density matrices) keeps the result
    nonnegative by construction; the raw-moment difference <A^2> - <A>^2
    cancels catastrophically whenever the true variance is near 0.
    """
    _check_dims(a, state)
    abar = a.matrix - expectation(a, state) * np.eye(a.dim)
    if isinstance(state, PureState):
        return float(np.linalg.norm(abar @ state.amplitudes) ** 2)
    return float(np.linalg.norm(abar @ sqrtm_psd(state.matrix)) ** 2)


def centered(a: Observable, state: State) -> Observable:
    """A - <A> * identity, the mean taken in the given state."""
    _check_dims(a, state)
    mean = expectation(a, state)
    return Observable(a.matrix - mean * np.eye(a.dim))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals 1 exactly on pure states."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def basis_from_observable(g: Observable) -> OrthonormalBasis:
    """Eigenbasis of a Hermitian operator. Degenerate spectra are fine: any
    orthonormal completion the eigensolver picks satisfies completeness."""
    dec = eigh(g.matrix)
    return OrthonormalBasis(dec.eigenvectors)


# ---------------------------------------------------------------------------
# JSON encoding for matrices and kets: real/imaginary parts as nested lists.

def matrix_to_json(m) -> dict:
    a = as_complex_matrix(m)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(payload: dict) -> np.ndarray:
    m = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    dim = int(payload["dim"])
    if m.shape != (dim, dim):
        raise ValueError(f"declared dim {dim} does not match payload shape {m.shape}")
    return m


def ket_to_json(v) -> dict:
    a = np.asarray(v, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def ket_from_json(payload: dict) -> np.ndarray:
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
