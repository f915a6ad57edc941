"""Bit pins for the one-GEMM folds of the mixed route.

Each product against one shared matrix runs as a single GEMM on the
reshaped block (dynamics._rmul) rather than one matmul per stacked matrix.
The stacked formulas below are the forms those folds replaced; every
folded result must equal them bit for bit, on grids at the edges of a
d = 16 block (64 grid points of dynamics.STACK_ELEMENTS) and for one or
several bases. The oracles take the whole grid as one stack: TestBlocking
shows that the block size bounds memory only. The small and odd dimensions
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

import tqsl.dynamics
from conftest import random_density
from tqsl import (
    GueConfig, SpinChainConfig, bound_series, default_initial_state, random_basis, sample_gue, sample_trajectory,
    spin_chain_evolved_state, variance,
)
from tqsl.bounds import _COLUMNS
from tqsl.dynamics import STACK_ELEMENTS, _propagated_roots, frobenius_inner
from tqsl.ensembles import _gue_draws
from tqsl.linalg import eigh, sqrtm_psd
from tqsl.uncertainty import _k_terms

DIMS = (2, 3, 8, 16)
EDGE = STACK_ELEMENTS // 16**2  # grid points in a d = 16 block
STEPS = (2, EDGE + 1, 2 * EDGE + 2, 400)


def stacked_roots(dec, root0, times, hbar):
    """_propagated_roots with one matmul per grid point."""
    v = dec.eigenvectors
    r0e = v.conj().T @ root0 @ v
    p = np.exp(-1j * np.outer(times / hbar, dec.eigenvalues))
    return v @ (p[:, :, None] * r0e * p.conj()[:, None, :]) @ v.conj().T


def stacked_k_terms(roots, a, b, bases):
    """uncertainty._k_terms with one matmul per root and basis."""
    u = bases[:, None]
    p = roots @ a
    q = roots @ b
    p -= frobenius_inner(roots, p).real[:, None, None] * roots
    q -= frobenius_inner(roots, q).real[:, None, None] * roots
    f_nn = np.sum(np.abs(p @ u) ** 2, axis=-2)
    g_nn = np.sum(np.abs(q @ u) ** 2, axis=-2)
    return np.sqrt(f_nn * g_nn).sum(axis=-1), np.abs(frobenius_inner(p, q))


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


class TestBlocking:
    """The mixed route and the spin oracle go through their grids in blocks
    of about STACK_ELEMENTS elements. The block size bounds memory only:
    one grid point a block, 7 (a ragged last block), the default and the
    whole grid give the same bits."""

    @staticmethod
    def budgets(row_elements: int, rows: int) -> list:
        return [1, 7 * row_elements, STACK_ELEMENTS, rows * row_elements]

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_mixed_route(self, dim, monkeypatch):
        steps = 400
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        rho = random_density(np.random.default_rng([dim, 24]), dim)
        basis = random_basis(dim, dim + 1)

        def outputs(elements):
            monkeypatch.setattr(tqsl.dynamics, "STACK_ELEMENTS", elements)
            traj = sample_trajectory(h, rho, 1.0, steps)
            series = bound_series(traj, basis)
            return [traj.stack, traj.overlap] + [getattr(series, name) for name in _COLUMNS]

        want = outputs(STACK_ELEMENTS)
        for elements in self.budgets(dim * dim, steps):
            got = outputs(elements)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), elements

    @pytest.mark.parametrize("num_spins", [1, 2, 3, 4, 8])
    def test_spin_chain_evolved_state(self, num_spins, monkeypatch):
        cfg = SpinChainConfig(num_spins=num_spins, blocks=tuple((i, i + 1) for i in range(1, num_spins)))
        psi = default_initial_state(cfg.dim)
        times = np.linspace(0.0, 2.0, 200)
        want = spin_chain_evolved_state(cfg, psi, times)
        for elements in self.budgets(cfg.dim, len(times)):
            monkeypatch.setattr(tqsl.dynamics, "STACK_ELEMENTS", elements)
            assert np.array_equal(spin_chain_evolved_state(cfg, psi, times), want), elements
