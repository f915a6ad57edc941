"""The closed-form spin-chain propagator as it ran before it took a whole
time grid at once, kept as a test oracle.

One time at a time: the site and block rotations are applied to a fresh
copy of the amplitudes, and the global phase multiplies the result.
spin_chain_evolved_state must agree with `evolved_rows` bit for bit.
"""
import cmath
import math

import numpy as np


def _flip_mask(num_spins: int, sites) -> int:
    return sum(1 << (num_spins - site) for site in set(sites))


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
