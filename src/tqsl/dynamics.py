"""Unitary evolution on uniform time grids, with Bargmann-angle bookkeeping.

Hamiltonians are time independent, so one eigendecomposition serves a whole
grid. Trajectories carry the geodesic angle s0(t), the overlap it comes
from, the (constant) energy spread, and a validity index marking the first
overlap minimum; integrands derived from s0 are only trustworthy before it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NonRealExpectation,
    NotPositiveSemidefinite,
    _index,
    _positive_finite,
)
from .linalg import HERMITICITY_TOL, eigh, expm_i_hermitian, sqrtm_psd
from .states import (
    EXPECTATION_IMAG_TOL,
    NORM_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    Observable,
    PureState,
    State,
    purity,
    variance,
)

S0_START_TOL = 1e-9
DELTA_H_CONSTANCY_TOL = 1e-9
ANGLE_RATE_SLACK = 1e-6
_MINIMUM_EPS = 1e-12
# Grid points per block when checking a state stack or computing a series
# from it: bounds the (block, d, d) temporaries, so memory does not grow
# with the grid beyond the stack itself.
STACK_BLOCK = 64


def bargmann_angle_pure(psi0: PureState, psit: PureState) -> float:
    """2 arccos |<psi0|psit>|, the Fubini-Study geodesic angle in [0, pi]."""
    if psi0.dim != psit.dim:
        raise DimensionMismatch(f"state dims {psi0.dim} vs {psit.dim}")
    overlap = min(abs(complex(np.vdot(psi0.amplitudes, psit.amplitudes))), 1.0)
    return 2.0 * math.acos(overlap)


def bargmann_angle_mixed(rho0: DensityMatrix, rhot: DensityMatrix) -> float:
    """2 arccos sqrt(Tr(rho0 rhot) / Tr(rho0^2)); pure lifts recover the
    pure-state angle since both traces collapse to overlap moduli."""
    if rho0.dim != rhot.dim:
        raise DimensionMismatch(f"state dims {rho0.dim} vs {rhot.dim}")
    ratio = float(np.trace(rho0.matrix @ rhot.matrix).real) / purity(rho0)
    return 2.0 * math.acos(math.sqrt(min(max(ratio, 0.0), 1.0)))


def evolve_pure(h: Observable, psi0: PureState, t: float, hbar: float = 1.0) -> PureState:
    """e^{-iHt/hbar} |psi0>."""
    if h.dim != psi0.dim:
        raise DimensionMismatch(f"H dim {h.dim} vs state dim {psi0.dim}")
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    return PureState(expm_i_hermitian(h.matrix, t / hbar) @ psi0.amplitudes)


def evolve_mixed(h: Observable, rho0: DensityMatrix, t: float, hbar: float = 1.0) -> DensityMatrix:
    """e^{-iHt/hbar} rho0 e^{+iHt/hbar}."""
    if h.dim != rho0.dim:
        raise DimensionMismatch(f"H dim {h.dim} vs state dim {rho0.dim}")
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    u = expm_i_hermitian(h.matrix, t / hbar)
    return DensityMatrix(u @ rho0.matrix @ u.conj().T)


def _first_overlap_minimum(overlap: np.ndarray) -> int:
    """Index of the first interior overlap minimum, or the last index if the
    overlap never turns around on the grid."""
    turns = (overlap[2:] > overlap[1:-1] + _MINIMUM_EPS) & (
        overlap[1:-1] <= overlap[:-2] + _MINIMUM_EPS
    )
    return int(np.argmax(turns)) + 1 if turns.any() else len(overlap) - 1


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(a_k^dagger b_k) for each k of two (n, d, d) stacks.

    For a Hermitian root R of rho, Tr(rho X) = frobenius_inner(R, R @ X),
    so expectations need only the roots.
    """
    return np.einsum("kij,kij->k", a.conj(), b)


def _require_real(means: np.ndarray) -> None:
    worst = float(np.max(np.abs(means.imag)))
    if worst > EXPECTATION_IMAG_TOL:
        raise NonRealExpectation(
            f"imaginary part {worst:.3e} exceeds {EXPECTATION_IMAG_TOL:.0e}"
        )


def _ket_spreads(h: np.ndarray, kets: np.ndarray, offset: int) -> np.ndarray:
    """Energy spread of each ket, after the PureState checks on the block
    that starts at grid index `offset`."""
    norms = np.linalg.norm(kets, axis=1)
    bad = np.abs(norms - 1.0) > NORM_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"state norm {float(norms[k])!r} at grid index {offset + k} "
            f"differs from 1 beyond {NORM_TOL:.0e}"
        )
    hk = kets @ h.T  # row k is H psi_k
    means = np.einsum("ki,ki->k", kets.conj(), hk)
    _require_real(means)
    return np.linalg.norm(hk - means.real[:, None] * kets, axis=1)


def _root_spreads(h: np.ndarray, roots: np.ndarray, offset: int) -> np.ndarray:
    """Energy spread of each rho = R^2, after the DensityMatrix checks on the
    block that starts at grid index `offset`. Each R must be the positive
    semidefinite root of its rho."""
    defect = float(np.max(np.abs(roots - roots.conj().transpose(0, 2, 1))))
    if defect > HERMITICITY_TOL:
        raise NonHermitianInput(f"Hermiticity defect {defect:.3e}")
    traces = np.sum(np.abs(roots) ** 2, axis=(1, 2))  # Tr(R R^dagger) = Tr rho
    bad = np.abs(traces - 1.0) > TRACE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"trace {float(traces[k])!r} at grid index {offset + k} "
            f"differs from 1 beyond {TRACE_TOL:.0e}"
        )
    min_eig = float(np.linalg.eigvalsh(roots)[:, 0].min())
    if min_eig < -PSD_TOL:
        raise NotPositiveSemidefinite(f"root has min eigenvalue {min_eig:.3e}")
    rh = roots @ h
    means = frobenius_inner(roots, rh)
    _require_real(means)
    # ||Hbar R||_F = ||R Hbar||_F for Hermitian R
    return np.linalg.norm(rh - means.real[:, None, None] * roots, axis=(1, 2))


class _StateView(Sequence):
    """Trajectory.states: the k-th state object is built when it is read."""

    def __init__(self, stack: np.ndarray):
        self._stack = stack

    def __len__(self) -> int:
        return len(self._stack)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        m = self._stack[k]
        return PureState(m) if m.ndim == 1 else DensityMatrix(m @ m)


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a uniform grid, with derived angle data.

    `stack` holds the states as one array: an (n, d) stack of kets for a
    pure trajectory, or the (n, d, d) stack of roots sqrt(rho_t) for a mixed
    one. Every state invariant is checked here once, on the whole stack, and
    `states` is a lazy view that builds PureState / DensityMatrix objects on
    access. valid_until is the last index before the overlap starts growing
    again; rows up to and including it are inside the derivation's
    assumptions.
    """

    hamiltonian: Observable
    hbar: float
    times: np.ndarray
    stack: np.ndarray
    s0: np.ndarray
    overlap: np.ndarray
    delta_h: float
    valid_until: int

    def __post_init__(self):
        _positive_finite("hbar", self.hbar, ValueError)
        times = np.asarray(self.times, dtype=float)
        stack = np.asarray(self.stack, dtype=complex)
        s0 = np.asarray(self.s0, dtype=float)
        overlap = np.asarray(self.overlap, dtype=float)
        n = len(times)
        if not (n == len(s0) == len(overlap) == len(stack)):
            raise ValueError("grid arrays and the state stack must share one length")
        if n < 2 or abs(times[0]) > 1e-12 or np.any(np.diff(times) <= 0):
            raise ValueError("times must ascend from 0 with at least 2 points")
        if s0[0] > S0_START_TOL or np.any(s0 < -1e-12) or np.any(s0 > math.pi + 1e-12):
            raise ValueError("s0 must start at 0 and stay in [0, pi]")
        if not 0 <= self.valid_until < n:
            raise ValueError(f"valid_until {self.valid_until} outside grid")
        dim = self.hamiltonian.dim
        if stack.ndim == 2:
            spreads_of = _ket_spreads
        elif stack.ndim == 3 and stack.shape[1] == stack.shape[2]:
            spreads_of = _root_spreads
        else:
            raise ValueError(f"state stack must be (n, d) or (n, d, d), got {stack.shape}")
        if stack.shape[1] != dim:
            raise DimensionMismatch(f"H dim {dim} vs state dim {stack.shape[1]}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("state stack entries must be finite")
        h = self.hamiltonian.matrix
        spreads = np.concatenate(
            [spreads_of(h, stack[i : i + STACK_BLOCK], i) for i in range(0, n, STACK_BLOCK)]
        )
        drift = float(np.max(np.abs(spreads - self.delta_h)))
        if drift > DELTA_H_CONSTANCY_TOL:
            raise ValueError(f"energy spread drifts by {drift:.3e} along the grid")
        if stack.ndim == 2:
            # Fubini-Study speed is 2*dH/hbar, so s0 is Lipschitz with that
            # rate. The mixed-state angle obeys no such rate in general.
            excess = np.abs(np.diff(s0)) - (2.0 * self.delta_h / self.hbar) * np.diff(times)
            if float(excess.max()) > ANGLE_RATE_SLACK:
                raise ValueError(f"s0 outruns the pure-state rate by {float(excess.max()):.3e}")
        for arr in (times, stack, s0, overlap):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "overlap", overlap)

    @property
    def kind(self) -> str:
        return "pure" if self.stack.ndim == 2 else "mixed"

    @property
    def states(self) -> Sequence:
        """The grid states as PureState / DensityMatrix objects, built on access."""
        return _StateView(self.stack)

    @property
    def validity_clean(self) -> bool:
        return self.valid_until == len(self.times) - 1

    def validity_flags(self) -> np.ndarray:
        return np.arange(len(self.times)) <= self.valid_until


def _propagated_roots(dec, root0: np.ndarray, times: np.ndarray, hbar: float) -> np.ndarray:
    """U_t root0 U_t^dagger on the grid, built in H's eigenbasis block by block."""
    v = dec.eigenvectors
    r0e = v.conj().T @ root0 @ v
    phases = np.exp(-1j * np.outer(times / hbar, dec.eigenvalues))
    roots = np.empty((len(times),) + root0.shape, dtype=complex)
    for i in range(0, len(times), STACK_BLOCK):
        p = phases[i : i + STACK_BLOCK]
        roots[i : i + STACK_BLOCK] = v @ (p[:, :, None] * r0e * p.conj()[:, None, :]) @ v.conj().T
    return roots


def sample_trajectory(
    h: Observable,
    state0: State,
    t_max: float,
    steps: int,
    hbar: float = 1.0,
) -> Trajectory:
    """Evolve state0 over {0, ..., t_max} with `steps` grid points."""
    _positive_finite("t_max", t_max, ValueError)
    _positive_finite("hbar", hbar, ValueError)
    steps = _index("steps", steps, ValueError)
    if steps < 2:
        raise ValueError(f"steps must be >= 2 grid points, got {steps}")
    if h.dim != state0.dim:
        raise DimensionMismatch(f"H dim {h.dim} vs state dim {state0.dim}")
    times = np.linspace(0.0, float(t_max), steps)
    dec = eigh(h.matrix)
    # The t = 0 sample is the initial state itself; writing it (and its unit
    # overlap) exactly keeps arccos from amplifying eigensolver round-off
    # into a spurious starting angle.
    if isinstance(state0, PureState):
        v0 = state0.amplitudes
        c0 = dec.eigenvectors.conj().T @ v0
        phases = np.exp(-1j * np.outer(dec.eigenvalues, times / hbar))
        columns = dec.eigenvectors @ (phases * c0[:, None])
        overlap = np.minimum(np.abs(v0.conj() @ columns), 1.0)
        stack = columns.T.copy()
        stack[0] = v0
    else:
        root0 = sqrtm_psd(state0.matrix)
        stack = _propagated_roots(dec, root0, times, hbar)
        stack[0] = root0
        r0 = state0.matrix
        blocks = [stack[i : i + STACK_BLOCK] for i in range(0, len(times), STACK_BLOCK)]
        cross = np.concatenate([frobenius_inner(b, b @ r0).real for b in blocks])
        overlap = np.sqrt(np.clip(cross / purity(state0), 0.0, 1.0))
    overlap[0] = 1.0
    s0 = 2.0 * np.arccos(overlap)
    return Trajectory(
        hamiltonian=h,
        hbar=float(hbar),
        times=times,
        stack=stack,
        s0=s0,
        overlap=overlap,
        delta_h=math.sqrt(variance(h, state0)),
        valid_until=_first_overlap_minimum(overlap),
    )
