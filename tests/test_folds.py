"""Bit pins for the one-GEMM folds of the mixed route.

Each product against one shared matrix runs as a single GEMM on the
reshaped block (dynamics._rmul) rather than one matmul per stacked matrix.
The stacked formulas below are the forms those folds replaced; every
folded result must equal them bit for bit, on grids at the edges of
STACK_BLOCK and for one or several bases. The small and odd dimensions
matter: a fold into the GEMM's columns instead (bases side by side, or the
shared left factor of V @ X_t) keeps the bits at d = 8 and 16 but moves
them at d = 2 and 3.

Bit equality is a property of the BLAS kernel, not of the formula. These
pins hold with OpenBLAS 0.3.31's SkylakeX kernels, the ones the goldens
under tests/golden/ were captured with; under its Haswell kernels
(OPENBLAS_CORETYPE=Haswell) most d = 8 and 16 cases fail, and so does every
golden, with or without the folds.
"""
import math

import numpy as np
import pytest

from conftest import random_density
from tqsl import GueConfig, sample_gue, sample_trajectory, variance
from tqsl.dynamics import STACK_BLOCK, _propagated_roots, frobenius_inner
from tqsl.ensembles import _gue_draws
from tqsl.linalg import eigh, sqrtm_psd
from tqsl.uncertainty import _k_terms

DIMS = (2, 3, 8, 16)
STEPS = (2, STACK_BLOCK + 1, 2 * STACK_BLOCK + 2, 400)


def stacked_roots(dec, root0, times, hbar):
    """_propagated_roots with one matmul per grid point."""
    v = dec.eigenvectors
    r0e = v.conj().T @ root0 @ v
    phases = np.exp(-1j * np.outer(times / hbar, dec.eigenvalues))
    roots = np.empty((len(times),) + root0.shape, dtype=complex)
    for i in range(0, len(times), STACK_BLOCK):
        p = phases[i : i + STACK_BLOCK]
        roots[i : i + STACK_BLOCK] = v @ (p[:, :, None] * r0e * p.conj()[:, None, :]) @ v.conj().T
    return roots


def stacked_k_terms(roots, a, b, bases):
    """uncertainty._k_terms with one matmul per root and basis."""
    u = bases[:, None]
    tighter = np.empty((len(bases), len(roots)))
    cross = np.empty(len(roots))
    for i in range(0, len(roots), STACK_BLOCK):
        r = roots[i : i + STACK_BLOCK]
        p = r @ a
        q = r @ b
        p -= frobenius_inner(r, p).real[:, None, None] * r
        q -= frobenius_inner(r, q).real[:, None, None] * r
        f_nn = np.sum(np.abs(p @ u) ** 2, axis=-2)
        g_nn = np.sum(np.abs(q @ u) ** 2, axis=-2)
        tighter[:, i : i + STACK_BLOCK] = np.sqrt(f_nn * g_nn).sum(axis=-1)
        cross[i : i + STACK_BLOCK] = np.abs(frobenius_inner(p, q))
    return tighter, cross


def mixed_case(dim, steps):
    h = sample_gue(GueConfig(dim=dim, seed=dim + steps))
    rho = random_density(np.random.default_rng([dim, steps]), dim)
    return h, rho, sample_trajectory(h, rho, 1.0, steps)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("dim", DIMS)
class TestMixedFolds:
    def test_propagated_roots(self, dim, steps):
        h, rho, _ = mixed_case(dim, steps)
        dec, root0 = eigh(h.matrix), sqrtm_psd(rho.matrix)
        times = np.linspace(0.0, 1.3, steps)
        got = _propagated_roots(dec, root0, times, 0.7)
        assert np.array_equal(got, stacked_roots(dec, root0, times, 0.7))

    @pytest.mark.parametrize("m", [1, 3])
    def test_mixed_k_series(self, dim, steps, m):
        _, _, traj = mixed_case(dim, steps)
        bases = eigh(_gue_draws(dim, list(range(m)))).eigenvectors
        rho0 = traj.stack[0] @ traj.stack[0]
        tighter, cross = _k_terms(traj.stack, rho0, traj.hamiltonian.matrix, bases)
        assert tighter.shape == (m, steps) and cross.shape == (steps,)
        want_tighter, want_cross = stacked_k_terms(traj.stack, rho0, traj.hamiltonian.matrix, bases)
        assert np.array_equal(tighter, want_tighter)
        assert np.array_equal(cross, want_cross)

    def test_overlap(self, dim, steps):
        h, rho, traj = mixed_case(dim, steps)
        roots = stacked_roots(eigh(h.matrix), sqrtm_psd(rho.matrix), traj.times, 1.0)
        roots[0] = traj.stack[0]
        cross = frobenius_inner(roots, roots @ rho.matrix).real
        want = np.sqrt(np.clip(cross / np.trace(rho.matrix @ rho.matrix).real, 0.0, 1.0))
        want[0] = 1.0
        assert np.array_equal(traj.overlap, want)


def test_mixed_trajectory_takes_one_square_root(monkeypatch):
    """eigh of H and one sqrtm of rho0; delta_h is variance's, bit for bit."""
    h, rho, _ = mixed_case(8, 50)
    real, calls = np.linalg.eigh, []

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    traj = sample_trajectory(h, rho, 1.0, 50)
    assert calls == [(8, 8), (8, 8)]
    monkeypatch.undo()
    assert traj.delta_h == math.sqrt(variance(h, rho))
