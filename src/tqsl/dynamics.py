"""Unitary evolution on uniform time grids, with Bargmann-angle bookkeeping.

Hamiltonians are time independent, so one eigendecomposition serves a whole
grid. Trajectories carry the geodesic angle s0(t), the overlap it comes
from, the (constant) energy spread, and a validity index marking the first
overlap minimum; integrands derived from s0 are only trustworthy before it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, _index, _library_built, _positive_finite, _trusted
from .linalg import eigh, sqrtm_psd
from .states import Observable, PureState, State, _variance_from_root, purity, variance

_MINIMUM_EPS = 1e-12
# Array elements per block when building or reading a state stack: a block
# holds max(1, STACK_ELEMENTS // d**2) grid points of (d, d) roots, or
# STACK_ELEMENTS // d rows of d-dim kets. It bounds the block's temporaries,
# so memory does not grow with the grid beyond the stack itself, and keeps
# them cache-sized at any d. A complex temporary is 64 KiB, under glibc's
# default 128 KiB mmap threshold, so malloc serves it from the heap instead
# of mapping fresh pages that are faulted in again for every trajectory.
STACK_ELEMENTS = 4096


def _blocks(n: int, row_elements: int) -> list:
    """Slices of range(n) in blocks of STACK_ELEMENTS // row_elements rows
    (at least one), for rows of `row_elements` elements each."""
    size = max(1, STACK_ELEMENTS // row_elements)
    return [slice(i, i + size) for i in range(0, n, size)]


def _first_overlap_minimum(overlap: np.ndarray) -> np.ndarray:
    """Per row of a (k, n) overlap stack, the index of the first interior
    minimum, or the last index if the overlap never turns around on the grid."""
    turns = (overlap[:, 2:] > overlap[:, 1:-1] + _MINIMUM_EPS) & (
        overlap[:, 1:-1] <= overlap[:, :-2] + _MINIMUM_EPS
    )
    # a turn at the last point stands in for "none on the grid"
    return np.argmax(np.column_stack([turns, np.ones(len(turns), dtype=bool)]), axis=1) + 1


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(a_k^dagger b_k) for each k of two (n, d, d) stacks.

    For a root R of rho = R^dagger R, Tr(rho X) = frobenius_inner(R, R @ X),
    so expectations need only the roots.
    """
    return np.einsum("kij,kij->k", a.conj(), b)


def _rmul(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """stack @ m for a C-contiguous (..., d) stack and a (d, k) matrix, or each
    of an (m, d, k) stack (result (m, ...)), as one GEMM per matrix on the
    stack's rows. With OpenBLAS 0.3.31's SkylakeX kernels that gives the bits
    of one matmul per stacked matrix; its Haswell kernels, for one, do not."""
    return (stack.reshape(-1, stack.shape[-1]) @ m).reshape(m.shape[:-2] + stack.shape[:-1] + m.shape[-1:])


def _stacked(arrays: list) -> np.ndarray:
    """Equal-shaped arrays as one (k, ...) stack: a view of a lone array,
    which spares a d = 256 sweep a copy of its Hamiltonian."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass(frozen=True, init=False)
class Trajectory:
    """States sampled on a uniform grid, with derived angle data: a result
    that only sample_trajectory builds, so it has no constructor.

    `stack` holds the states as one read-only array: an (n, d) stack of
    kets for a pure trajectory, or for a mixed one the (n, d, d) stack of
    roots R_t = sqrt(rho0) U_t^dagger of rho_t = R_t^dagger R_t; R_0 is
    sqrt(rho0) itself. No state is checked row by row: they all come from one
    checked eigendecomposition (linalg.eigh), so only round-off could break
    a state invariant.
    valid_until is the last index before the overlap starts growing again;
    rows up to and including it are inside the derivation's assumptions.
    """

    hamiltonian: Observable
    hbar: float
    times: np.ndarray
    stack: np.ndarray
    s0: np.ndarray
    overlap: np.ndarray
    delta_h: float
    valid_until: int

    __init__ = _library_built

    @property
    def kind(self) -> str:
        return "pure" if self.stack.ndim == 2 else "mixed"

    @property
    def validity_clean(self) -> bool:
        return self.valid_until == len(self.times) - 1


def _propagated_roots(dec, root0: np.ndarray, times: np.ndarray, hbar: float) -> np.ndarray:
    """The roots root0 U_t^dagger on the grid, (root0 V) e^{i Lambda t/hbar}
    V^dagger block by block: the fixed root0 V times the phase rows, then
    one GEMM with V^dagger per block."""
    v = dec.eigenvectors
    left, vh = root0 @ v, v.conj().T
    phases = np.exp(1j * np.outer(times / hbar, dec.eigenvalues))
    roots = np.empty((len(times),) + root0.shape, dtype=complex)
    for rows in _blocks(len(times), root0.size):
        roots[rows] = _rmul(left * phases[rows, None, :], vh)
    return roots


def _grid(t_max: float, steps: int, hbar: float) -> np.ndarray:
    """sample_trajectory's checks on its grid arguments, and the grid."""
    _positive_finite("t_max", t_max, ValueError)
    _positive_finite("hbar", hbar, ValueError)
    steps = _index("steps", steps, ValueError)
    if steps < 2:
        raise ValueError(f"steps must be >= 2 grid points, got {steps}")
    return np.linspace(0.0, float(t_max), steps)


def sample_trajectory(
    h: Observable,
    state0: State,
    t_max: float,
    steps: int,
    hbar: float = 1.0,
) -> Trajectory:
    """Evolve state0 over {0, ..., t_max} with `steps` grid points."""
    times = _grid(t_max, steps, hbar)
    if h.dim != state0.dim:
        raise DimensionMismatch(f"H dim {h.dim} vs state dim {state0.dim}")
    if isinstance(state0, PureState):
        return _pure_trajectories([h], state0, times, hbar)[0]
    dec = eigh(h.matrix)
    root0 = sqrtm_psd(state0.matrix)
    stack = _propagated_roots(dec, root0, times, hbar)
    stack[0] = root0  # the t = 0 sample exactly, as in _pure_trajectories
    blocks = [stack[rows] for rows in _blocks(len(times), root0.size)]
    cross = np.concatenate([frobenius_inner(b, _rmul(b, state0.matrix)).real for b in blocks])
    overlap = np.sqrt(np.clip(cross / purity(state0), 0.0, 1.0))
    overlap[0] = 1.0
    s0 = 2.0 * np.arccos(overlap)
    for arr in (times, stack, s0, overlap):
        arr.setflags(write=False)
    return _trusted(Trajectory, hamiltonian=h, hbar=float(hbar), times=times, stack=stack, s0=s0,
                    overlap=overlap, delta_h=math.sqrt(_variance_from_root(h, state0, root0)),
                    valid_until=int(_first_overlap_minimum(overlap[None])[0]))


def _pure_trajectories(hs: list, psi0: PureState, times: np.ndarray, hbar: float) -> list:
    """sample_trajectory's pure branch for Observables `hs` of psi0's
    dimension, on a grid it has checked: one checked eigendecomposition of
    the Hamiltonian stack and one propagation for all of them."""
    hm = _stacked([h.matrix for h in hs])
    dec = eigh(hm)
    v, v0 = dec.eigenvectors, psi0.amplitudes
    c0 = v.conj().swapaxes(1, 2) @ v0
    phases = np.exp(-1j * (dec.eigenvalues[:, :, None] * (times / hbar)))
    columns = v @ (phases * c0[:, :, None])
    overlap = np.minimum(np.abs(v0.conj() @ columns), 1.0)
    # The t = 0 sample is the initial state itself; writing it (and its unit
    # overlap) exactly keeps arccos from amplifying eigensolver round-off
    # into a spurious starting angle.
    kets = columns.swapaxes(1, 2).copy()
    kets[:, 0] = v0
    overlap[:, 0] = 1.0
    s0 = 2.0 * np.arccos(overlap)
    delta_h = [math.sqrt(variance(h, psi0)) for h in hs]
    for arr in (times, kets, s0, overlap):
        arr.setflags(write=False)
    return [
        _trusted(Trajectory, hamiltonian=h, hbar=float(hbar), times=times, stack=k, s0=a,
                 overlap=o, delta_h=float(dh), valid_until=int(vu))
        for h, k, a, o, dh, vu in zip(hs, kets, s0, overlap, delta_h, _first_overlap_minimum(overlap))
    ]
