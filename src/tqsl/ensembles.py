"""Random-matrix sampling and the interacting spin-chain model.

GUE matrices follow the density proportional to exp(-(D/2) Tr H^2):
diagonal entries N(0, 1/D), off-diagonal real and imaginary components each
N(0, 1/(2D)). Everything stochastic takes an explicit seed and is
bit-reproducible.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockIndexOutOfRange, ConfigError, NotProductState, _positive_finite_fields
from .linalg import kron
from .states import Observable, OrthonormalBasis, PureState, basis_from_observable

MAX_SPINS = 10
PRODUCT_TOL = 1e-10

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class GueConfig:
    dim: int
    seed: int

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"GUE dimension must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")


def sample_gue(cfg: GueConfig) -> Observable:
    """One Hermitian draw; fixed draw order keeps seeds reproducible."""
    d = cfg.dim
    rng = np.random.default_rng(cfg.seed)
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = rng.normal(0.0, math.sqrt(1.0 / d), size=d)
    rows, cols = np.triu_indices(d, k=1)
    sigma = math.sqrt(1.0 / (2.0 * d))
    re = rng.normal(0.0, sigma, size=len(rows))
    im = rng.normal(0.0, sigma, size=len(rows))
    h[rows, cols] = re + 1j * im
    h[cols, rows] = re - 1j * im
    return Observable(h)


def random_basis(dim: int, seed: int) -> OrthonormalBasis:
    """Eigenbasis of an independent GUE draw."""
    return basis_from_observable(sample_gue(GueConfig(dim=dim, seed=seed)))


@dataclass(frozen=True)
class SpinChainConfig:
    """num_spins sites, single-site terms at omega0, block products at omega.

    Blocks use 1-based site indices; each block couples its sites through
    the product of their x flips.
    """

    num_spins: int
    blocks: tuple = ()
    omega0: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not 1 <= self.num_spins <= MAX_SPINS:
            raise ConfigError(f"num_spins must be in 1..{MAX_SPINS}, got {self.num_spins}")
        _positive_finite_fields(self, "omega0", "omega")
        blocks = tuple(tuple(int(i) for i in block) for block in self.blocks)
        for block in blocks:
            if len(set(block)) != len(block):
                raise BlockIndexOutOfRange(f"repeated site in block {block}")
            for site in block:
                if not 1 <= site <= self.num_spins:
                    raise BlockIndexOutOfRange(
                        f"site {site} outside 1..{self.num_spins} in block {block}"
                    )
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return 2 ** self.num_spins


def _x_string(num_spins: int, sites) -> np.ndarray:
    """Tensor product with sigma_x on the listed 1-based sites."""
    chosen = set(sites)
    op = np.eye(1, dtype=complex)
    for site in range(1, num_spins + 1):
        op = kron(op, _SIGMA_X if site in chosen else np.eye(2, dtype=complex))
    return op


def _flip_mask(num_spins: int, sites) -> int:
    """Basis-index bits that _x_string(num_spins, sites) flips: its kron
    order makes site 1 the most significant bit, so (X @ v)[i] = v[i ^ mask]."""
    return sum(1 << (num_spins - site) for site in set(sites))


def spin_chain_hamiltonian(cfg: SpinChainConfig, hbar: float = 1.0) -> Observable:
    """hbar*omega0 * sum_i (1 - x_i) + hbar*omega * sum_j (1 - X_block_j)."""
    dim = cfg.dim
    eye = np.eye(dim, dtype=complex)
    h = np.zeros((dim, dim), dtype=complex)
    for site in range(1, cfg.num_spins + 1):
        h += hbar * cfg.omega0 * (eye - _x_string(cfg.num_spins, (site,)))
    for block in cfg.blocks:
        h += hbar * cfg.omega * (eye - _x_string(cfg.num_spins, block))
    return Observable(h)


def _require_product_state(psi: PureState, num_spins: int) -> None:
    amps = psi.amplitudes.reshape((2,) * num_spins)
    for i in range(num_spins):
        marg = np.moveaxis(amps, i, 0).reshape(2, -1)
        red = marg @ marg.conj().T
        p = float(np.trace(red @ red).real)
        if p < 1.0 - PRODUCT_TOL:
            raise NotProductState(f"qubit {i + 1} marginal purity {p!r} < 1")


def spin_chain_evolved_state(cfg: SpinChainConfig, psi0: PureState, t: float) -> PureState:
    """Closed-form evolution from the commuting factor structure.

    All Hamiltonian terms are x-strings, so the propagator factorizes into
    a global phase times per-site and per-block rotations; each string
    squares to the identity, giving cos + i sin factors. hbar cancels
    because the couplings carry it explicitly.
    """
    if psi0.dim != cfg.dim:
        raise ConfigError(f"state dim {psi0.dim} does not match {cfg.num_spins} spins")
    _require_product_state(psi0, cfg.num_spins)
    amps = psi0.amplitudes.astype(complex)
    idx = np.arange(cfg.dim)
    c0, s0 = math.cos(cfg.omega0 * t), math.sin(cfg.omega0 * t)
    for site in range(1, cfg.num_spins + 1):
        amps = c0 * amps + 1j * s0 * amps[idx ^ _flip_mask(cfg.num_spins, (site,))]
    c1, s1 = math.cos(cfg.omega * t), math.sin(cfg.omega * t)
    for block in cfg.blocks:
        amps = c1 * amps + 1j * s1 * amps[idx ^ _flip_mask(cfg.num_spins, block)]
    phase = cmath.exp(-1j * (cfg.num_spins * cfg.omega0 + len(cfg.blocks) * cfg.omega) * t)
    return PureState(phase * amps)
