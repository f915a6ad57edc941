"""Dense and one-time-at-a-time forms of the spin chain, kept as test
oracles.

`evolved_rows` is the closed-form propagator as it ran before it took a
whole time grid at once: the site and block rotations are applied to a
fresh copy of the amplitudes, and the global phase multiplies the result.
spin_chain_evolved_state must agree with it bit for bit.

`dense_hamiltonian` is the Hamiltonian as it was built before the couplings
were scattered onto the flipped entries: a sum of dense `1 - x_string`
terms. spin_chain_hamiltonian must agree with it bit for bit.
"""
import cmath
import math

import numpy as np


def _flip_mask(num_spins: int, sites) -> int:
    return sum(1 << (num_spins - site) for site in set(sites))


def x_string(num_spins: int, sites) -> np.ndarray:
    """Tensor product with sigma_x on the listed 1-based sites: the 0/1
    permutation matrix of the index flip."""
    idx = np.arange(2 ** num_spins)
    op = np.zeros((len(idx), len(idx)), dtype=complex)
    op[idx, idx ^ _flip_mask(num_spins, sites)] = 1.0
    return op


def dense_hamiltonian(cfg, hbar: float = 1.0) -> np.ndarray:
    """hbar*omega0 * sum_i (1 - x_i) + hbar*omega * sum_j (1 - X_block_j)."""
    eye = np.eye(cfg.dim, dtype=complex)
    h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for site in range(1, cfg.num_spins + 1):
        h += hbar * cfg.omega0 * (eye - x_string(cfg.num_spins, (site,)))
    for block in cfg.blocks:
        h += hbar * cfg.omega * (eye - x_string(cfg.num_spins, block))
    return h


def evolved_ket(cfg, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """The state at time t from the product state `amplitudes`."""
    amps = amplitudes.astype(complex)
    idx = np.arange(cfg.dim)
    c0, s0 = math.cos(cfg.omega0 * t), math.sin(cfg.omega0 * t)
    for site in range(1, cfg.num_spins + 1):
        amps = c0 * amps + 1j * s0 * amps[idx ^ _flip_mask(cfg.num_spins, (site,))]
    c1, s1 = math.cos(cfg.omega * t), math.sin(cfg.omega * t)
    for block in cfg.blocks:
        amps = c1 * amps + 1j * s1 * amps[idx ^ _flip_mask(cfg.num_spins, block)]
    phase = cmath.exp(-1j * (cfg.num_spins * cfg.omega0 + len(cfg.blocks) * cfg.omega) * t)
    return phase * amps


def evolved_rows(cfg, amplitudes: np.ndarray, times) -> np.ndarray:
    """Row k is the state at times[k]."""
    return np.array([evolved_ket(cfg, amplitudes, float(t)) for t in times]).reshape(-1, cfg.dim)
