"""The sequential hill climber that optimize_basis ran before its restarts
ran in lockstep, kept as a test oracle.

Restarts run one after another and candidates one at a time. Each candidate
is built as an OrthonormalBasis and scored by `integrand`, the single-basis
correction kernel as it stood before the kernel took stacks of bases. Only
the basis-free parts prepared by tqsl.bounds._Correction are shared.
optimize_basis must agree with `optimize_sequential` bit for bit.
"""
import numpy as np

from tqsl import (
    DenominatorUnderflow,
    OptimizerConfig,
    OrthonormalBasis,
    SingularIntegrand,
    random_basis,
)
from tqsl.bounds import (
    _INITIAL_STEP, _MIN_STEP, _PATIENCE, _SHRINK, K_EPS, _Correction, _cumulative_trapezoid, _random_directions,
    _require_clean,
)
from tqsl.dynamics import frobenius_inner
from tqsl.linalg import eigh
from tqsl.uncertainty import _clamp_nonnegative


def k_series(c: _Correction, basis: OrthonormalBasis) -> np.ndarray:
    """K(t) on the grid for one basis, clamped, as one (d, d) matrix."""
    u = basis.matrix
    if c.rho0 is None:
        uh = u.conj().T
        prods = (uh @ c.x[0]).conj() * (uh @ c.y[0])
        gap = np.abs(prods).sum(axis=0) - np.abs(prods.sum(axis=0))
        return _clamp_nonnegative(gap, "correction series")
    # the whole grid as one stack: blocking the roots bounds memory only
    r = c.traj.stack
    p = r @ c.rho0
    q = r @ c.traj.hamiltonian.matrix
    p -= frobenius_inner(r, p).real[:, None, None] * r
    q -= frobenius_inner(r, q).real[:, None, None] * r
    f_nn = np.sum(np.abs(p @ u) ** 2, axis=1)
    g_nn = np.sum(np.abs(q @ u) ** 2, axis=1)
    k = np.sqrt(f_nn * g_nn).sum(axis=1) - np.abs(frobenius_inner(p, q))
    return _clamp_nonnegative(k, "correction series")


def integrand(c: _Correction, basis: OrthonormalBasis) -> np.ndarray:
    """The correction integrand for one basis; raises what rejects it."""
    k = k_series(c, basis)
    ok, den, scale = c.ok.ravel(), c.den.ravel(), np.ravel(c.scale)[0]  # trajectory 0's rows
    live = k >= K_EPS
    if c.underflow is not None and np.any(c.underflow & live):
        raise DenominatorUnderflow("purity radical underflows while K is nonzero")
    singular = live & ~ok
    if np.any(singular):
        raise SingularIntegrand(
            f"{int(np.sum(singular))} grid points have K >= {K_EPS:.0e} with a vanishing denominator"
        )
    f = np.zeros(len(k))
    f[ok] = scale * k[ok] / den[ok]
    return f


def tau_tqsl(c: _Correction, basis: OrthonormalBasis) -> float:
    """The bound at the trajectory's endpoint for one basis, integrated by
    the package's one quadrature routine."""
    cum, _ = _cumulative_trapezoid(c.traj.times, integrand(c, basis))
    return float(c.geodesic()[0, -1] + cum[-1])


def rotation(w: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """exp(-i G s) from the eigenvalues w and eigenvectors v of one direction G."""
    return (v * np.exp(-1j * w * float(s))) @ v.conj().T


def optimize_sequential(traj, cfg: OptimizerConfig) -> tuple:
    """(best basis, its basis_id, its tau_tqsl), one restart at a time."""
    _require_clean(traj)
    dim = traj.hamiltonian.dim
    c = _Correction(traj)

    def objective(b: OrthonormalBasis) -> float:
        return float(np.trapezoid(integrand(c, b), traj.times))

    best = None
    for r in range(cfg.restarts):
        if r == 0:
            basis = OrthonormalBasis.identity(dim)
            origin = "identity"
        else:
            basis = random_basis(dim, cfg.seed + r)
            origin = f"gue-eigenbasis:seed={cfg.seed + r}"
        try:
            value = objective(basis)
        except (SingularIntegrand, DenominatorUnderflow):
            continue
        rng = np.random.default_rng([cfg.seed, r])
        w, v = eigh(_random_directions(rng, cfg.iterations, dim))
        step = _INITIAL_STEP
        stall = 0
        moves = 0
        for j in range(cfg.iterations):
            if step < _MIN_STEP:
                break
            candidate = OrthonormalBasis(basis.matrix @ rotation(w[j], v[j], -step))
            try:
                cand_value = objective(candidate)
            except (SingularIntegrand, DenominatorUnderflow):
                cand_value = None
            if cand_value is not None and cand_value > value:
                basis, value, moves = candidate, cand_value, moves + 1
                stall = 0
            else:
                stall += 1
                if stall >= _PATIENCE:
                    step *= _SHRINK
                    stall = 0
        if best is None or value > best[0]:
            best = (value, basis, f"optimize[{origin}, {moves} moves]")
    if best is None:
        raise SingularIntegrand("every optimizer restart hit a singular integrand")
    _, basis, label = best
    return basis, label, tau_tqsl(c, basis)
