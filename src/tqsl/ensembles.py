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

from .errors import (
    BlockIndexOutOfRange,
    ConfigError,
    NotProductState,
    _index,
    _integer_fields,
    _positive_finite_fields,
    _trusted,
)
from .dynamics import _blocks
from .linalg import eigh
from .states import Observable, OrthonormalBasis, PureState, _require_unit_kets

MAX_SPINS = 10
PRODUCT_TOL = 1e-10


@dataclass(frozen=True)
class GueConfig:
    dim: int
    seed: int

    def __post_init__(self):
        _integer_fields(self, "dim", "seed")
        if self.dim < 2:
            raise ConfigError(f"GUE dimension must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")


def sample_gue(cfg: GueConfig) -> Observable:
    """One Hermitian draw; fixed draw order keeps seeds reproducible."""
    return _trusted(Observable, matrix=_gue_draws(cfg.dim, [cfg.seed])[0])


def _gue_draws(dim: int, seeds) -> np.ndarray:
    """sample_gue's matrix for each seed, as one read-only (k, d, d) stack,
    exactly Hermitian by construction: each lower entry is the conjugate of
    the upper one, on a real diagonal. Every seed has its own generator,
    which draws the diagonal, then the real and the imaginary upper
    triangle."""
    rows, cols = np.triu_indices(dim, k=1)
    m = len(rows)
    z = np.empty((len(seeds), dim + 2 * m))
    for seed, row in zip(seeds, z):
        np.random.default_rng(seed).standard_normal(out=row)
    # Generator.normal(0, s) draws 0 + s * standard_normal, value by value
    z[:, :dim] *= math.sqrt(1.0 / dim)
    z[:, dim:] *= math.sqrt(1.0 / (2.0 * dim))
    z += 0.0
    h = np.zeros((len(z), dim, dim), dtype=complex)
    diag = np.arange(dim)
    h[:, diag, diag] = z[:, :dim]
    re, im = z[:, dim : dim + m], z[:, dim + m :]
    h[:, rows, cols] = re + 1j * im
    h[:, cols, rows] = re - 1j * im
    h.setflags(write=False)
    return h


def random_basis(dim: int, seed: int) -> OrthonormalBasis:
    """Eigenbasis of an independent GUE draw."""
    cfg = GueConfig(dim=dim, seed=seed)
    return _trusted(OrthonormalBasis, matrix=eigh(_gue_draws(cfg.dim, [cfg.seed])).eigenvectors[0])


def _block_sites(blocks) -> tuple:
    """Blocks as tuples of int sites; a bool or non-integer site raises
    ConfigError."""
    return tuple(tuple(_index("block site", i) for i in block) for block in blocks)


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
        _integer_fields(self, "num_spins")
        if not 1 <= self.num_spins <= MAX_SPINS:
            raise ConfigError(f"num_spins must be in 1..{MAX_SPINS}, got {self.num_spins}")
        _positive_finite_fields(self, "omega0", "omega")
        blocks = _block_sites(self.blocks)
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


def _flip_mask(num_spins: int, sites) -> int:
    """Basis-index bits the x-string on the listed 1-based sites flips; site 1
    is the most significant bit (kron order), so (X @ v)[i] = v[i ^ mask]."""
    return sum(1 << (num_spins - site) for site in set(sites))


def spin_chain_hamiltonian(cfg: SpinChainConfig, hbar: float = 1.0) -> Observable:
    """hbar*omega0 * sum_i (1 - x_i) + hbar*omega * sum_j (1 - X_block_j).

    An x-string is the permutation matrix of its index flip, so each term
    adds its coupling on the diagonal and subtracts it on the flipped
    entries, term by term."""
    idx = np.arange(cfg.dim)
    terms = [(hbar * cfg.omega0, (site,)) for site in range(1, cfg.num_spins + 1)]
    terms += [(hbar * cfg.omega, block) for block in cfg.blocks]
    h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for c, sites in terms:
        mask = _flip_mask(cfg.num_spins, sites)
        if mask:  # an empty block's string is the identity, and its term 0
            h[idx, idx] += c
            h[idx, idx ^ mask] -= c
    return Observable(h)


def _require_product_state(psi: PureState, num_spins: int) -> None:
    amps = psi.amplitudes.reshape((2,) * num_spins)
    for i in range(num_spins):
        marg = np.moveaxis(amps, i, 0).reshape(2, -1)
        red = marg @ marg.conj().T
        p = float(np.trace(red @ red).real)
        if p < 1.0 - PRODUCT_TOL:
            raise NotProductState(f"qubit {i + 1} marginal purity {p!r} < 1")


def spin_chain_evolved_state(cfg: SpinChainConfig, psi0: PureState, times) -> np.ndarray:
    """Closed-form evolution to real, finite times (a scalar or a 1-d array),
    as a read-only (n, d) stack whose row k is the state at times[k].

    All Hamiltonian terms are x-strings, so the propagator factorizes into
    a global phase times per-site and per-block rotations; each string
    squares to the identity, giving cos + i sin factors, taken time by time
    from the scalar math functions. hbar cancels because the couplings
    carry it explicitly.
    """
    if psi0.dim != cfg.dim:
        raise ConfigError(f"state dim {psi0.dim} does not match {cfg.num_spins} spins")
    grid = np.asarray(times)
    if grid.ndim > 1 or grid.dtype.kind not in "iuf" or not np.isfinite(grid).all():
        raise ValueError(f"times must be real, finite and at most 1-d, got {times!r}")
    times = grid.astype(float).reshape(-1).tolist()
    _require_product_state(psi0, cfg.num_spins)

    def col(f) -> np.ndarray:
        return np.array([[f(t)] for t in times])

    energy = cfg.num_spins * cfg.omega0 + len(cfg.blocks) * cfg.omega
    phase = col(lambda t: cmath.exp(-1j * energy * t))
    site = col(lambda t: math.cos(cfg.omega0 * t)), col(lambda t: 1j * math.sin(cfg.omega0 * t))
    block = col(lambda t: math.cos(cfg.omega * t)), col(lambda t: 1j * math.sin(cfg.omega * t))
    idx = np.arange(cfg.dim)
    rotations = [(*site, idx ^ _flip_mask(cfg.num_spins, (i,))) for i in range(1, cfg.num_spins + 1)]
    rotations += [(*block, idx ^ _flip_mask(cfg.num_spins, b)) for b in cfg.blocks]
    out = np.empty((len(times), cfg.dim), dtype=complex)
    for rows in _blocks(len(times), cfg.dim):
        amps = np.broadcast_to(psi0.amplitudes, out[rows].shape)
        for c, s, flipped in rotations:
            amps = c[rows] * amps + s[rows] * amps[:, flipped]
        np.multiply(phase[rows], amps, out=out[rows])
        _require_unit_kets(out[rows], rows.start)
    out.setflags(write=False)
    return out
