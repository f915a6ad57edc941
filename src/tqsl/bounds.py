"""Speed-limit bounds: geodesic terms, correction quadrature, optimization.

Every report decomposes tau_tqsl = geodesic term + correction integral so
the improvement over the plain variance bound, delta, is directly the
integrated correction. The correction integrand carries its prefactors
(2/dH for pure states, 1/(sqrt(purity) dH) with the purity-corrected
denominator for mixed ones), so integrating it yields time units.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import STACK_BLOCK, Trajectory, frobenius_inner, sample_trajectory
from .ensembles import random_basis
from .errors import (
    BoundViolation,
    ConfigError,
    DenominatorUnderflow,
    DimensionMismatch,
    NonFiniteSample,
    NonPositiveMeanEnergy,
    SingularIntegrand,
    ValidityExceeded,
    ZeroEnergyVariance,
)
from .linalg import eigh, expm_i_hermitian
from .states import (
    DensityMatrix,
    Observable,
    OrthonormalBasis,
    PureState,
    State,
    expectation,
    purity,
    variance,
)
from .uncertainty import NONNEG_CLAMP, _clamp_nonnegative

DEFAULT_STEPS = 400
ZERO_SPREAD_TOL = 1e-12
MEAN_ENERGY_TOL = 1e-12
SIN_EPS = 1e-8
K_EPS = 1e-10
RADICAL_EPS = 1e-12
BOOKKEEPING_TOL = 1e-12
BOUND_SLACK = 1e-6

BOUND_CSV_HEADER = "t,tau_mt,tau_tqsl,delta,quad_error,validity"


@dataclass(frozen=True)
class QuadratureInfo:
    scheme: str
    step: float
    estimated_error: float

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "step": self.step,
            "estimated_error": self.estimated_error,
        }


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation at the trajectory endpoint (or one grid row)."""

    tau_actual: float
    tau_mt: float
    correction_integral: float
    tau_tqsl: float
    delta: float
    basis_id: str
    validity: bool
    quadrature: QuadratureInfo

    def __post_init__(self):
        values = (self.tau_actual, self.tau_mt, self.correction_integral, self.tau_tqsl, self.delta)
        if not all(math.isfinite(v) for v in values):
            raise BoundViolation("bound report contains non-finite values")
        if self.correction_integral < 0.0:
            raise BoundViolation(f"correction integral {self.correction_integral!r} < 0")
        if self.delta < -NONNEG_CLAMP:
            raise BoundViolation(f"delta {self.delta!r} below -{NONNEG_CLAMP:.0e}")
        if abs(self.tau_tqsl - (self.tau_mt + self.correction_integral)) > BOOKKEEPING_TOL:
            raise BoundViolation("tau_tqsl is not geodesic term + correction")
        if self.validity and self.tau_actual < self.tau_tqsl - BOUND_SLACK:
            raise BoundViolation(
                f"bound {self.tau_tqsl!r} exceeds actual time {self.tau_actual!r} on a clean trajectory"
            )

    def to_json(self) -> dict:
        return {
            "tau_actual": self.tau_actual,
            "tau_mt": self.tau_mt,
            "correction_integral": self.correction_integral,
            "tau_tqsl": self.tau_tqsl,
            "delta": self.delta,
            "basis_id": self.basis_id,
            "validity": self.validity,
            "quadrature": self.quadrature.to_json(),
        }

    def csv_row(self) -> str:
        return _csv_row(
            self.tau_actual,
            self.tau_mt,
            self.tau_tqsl,
            self.delta,
            self.quadrature.estimated_error,
            self.validity,
        )


def _csv_row(t, tau_mt, tau_tqsl, delta, quad_error, validity) -> str:
    """One BOUND_CSV_HEADER row: 12 significant digits, lowercase flag."""
    flag = "true" if validity else "false"
    return f"{t:.12g},{tau_mt:.12g},{tau_tqsl:.12g},{delta:.12g},{quad_error:.12g},{flag}"


@dataclass(frozen=True, eq=False)
class BoundSeries(Sequence):
    """bound_series result: one read-only column per report field, in grid
    order, sharing one basis_id and quadrature step.

    The BoundReport invariants are checked here once, on whole columns.
    Indexing and iteration build BoundReport rows on demand; csv_rows()
    formats straight from the columns.
    """

    t: np.ndarray
    tau_mt: np.ndarray
    correction: np.ndarray
    tau_tqsl: np.ndarray
    delta: np.ndarray
    quad_error: np.ndarray
    validity: np.ndarray
    basis_id: str
    step: float

    def __post_init__(self):
        names = ("t", "tau_mt", "correction", "tau_tqsl", "delta", "quad_error", "validity")
        cols = {
            name: np.asarray(getattr(self, name), dtype=bool if name == "validity" else float)
            for name in names
        }
        if len({c.shape for c in cols.values()}) != 1 or cols["t"].ndim != 1:
            raise ValueError("bound series columns must be 1-d and share one length")
        t, tau_mt, corr, tau_tqsl, delta = (cols[n] for n in names[:5])
        if not all(np.all(np.isfinite(c)) for c in (t, tau_mt, corr, tau_tqsl, delta)):
            raise BoundViolation("bound report contains non-finite values")
        if np.any(corr < 0.0):
            raise BoundViolation(f"correction integral {float(corr.min())!r} < 0")
        if np.any(delta < -NONNEG_CLAMP):
            raise BoundViolation(f"delta {float(delta.min())!r} below -{NONNEG_CLAMP:.0e}")
        if np.any(np.abs(tau_tqsl - (tau_mt + corr)) > BOOKKEEPING_TOL):
            raise BoundViolation("tau_tqsl is not geodesic term + correction")
        over = cols["validity"] & (t < tau_tqsl - BOUND_SLACK)
        if over.any():
            k = int(np.argmax(over))
            raise BoundViolation(
                f"bound {float(tau_tqsl[k])!r} exceeds actual time {float(t[k])!r} on a clean trajectory"
            )
        for name, col in cols.items():
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k: int) -> BoundReport:
        return BoundReport(
            tau_actual=float(self.t[k]),
            tau_mt=float(self.tau_mt[k]),
            correction_integral=float(self.correction[k]),
            tau_tqsl=float(self.tau_tqsl[k]),
            delta=float(self.delta[k]),
            basis_id=self.basis_id,
            validity=bool(self.validity[k]),
            quadrature=QuadratureInfo("trapezoid", self.step, float(self.quad_error[k])),
        )

    def csv_rows(self) -> list:
        """Every row as BoundReport.csv_row would format it."""
        cols = (self.t, self.tau_mt, self.tau_tqsl, self.delta, self.quad_error, self.validity)
        return [_csv_row(*row) for row in zip(*(c.tolist() for c in cols))]


def _require_spread(delta_h: float) -> None:
    if delta_h <= ZERO_SPREAD_TOL:
        raise ZeroEnergyVariance(f"energy spread {delta_h!r} is numerically zero")


def mt_bound_pure(traj: Trajectory, at_index: int) -> float:
    """hbar * s0 / (2 dH) at one grid index of a pure trajectory."""
    _require_spread(traj.delta_h)
    return traj.hbar * float(traj.s0[at_index]) / (2.0 * traj.delta_h)


def combined_bound_orthogonal(h: Observable, psi0: PureState, hbar: float = 1.0) -> float:
    """max of the variance and mean-energy orthogonalization times."""
    spread = math.sqrt(variance(h, psi0))
    _require_spread(spread)
    mean = expectation(h, psi0)
    if mean <= MEAN_ENERGY_TOL:
        raise NonPositiveMeanEnergy(f"mean energy {mean!r} must be positive")
    return max(math.pi * hbar / (2.0 * spread), math.pi * hbar / (2.0 * mean))


def mixed_geodesic_term(
    rho0: DensityMatrix, rho_tau: DensityMatrix, delta_h: float, hbar: float = 1.0
) -> float:
    """hbar (arccos sqrt(Tr rho0 rho_tau) - arccos sqrt(Tr rho0^2)) / dH.

    Pure lifts collapse this to the plain geodesic term hbar*s0/(2 dH).
    """
    if rho0.dim != rho_tau.dim:
        raise DimensionMismatch(f"state dims {rho0.dim} vs {rho_tau.dim}")
    _require_spread(delta_h)
    cross = min(max(float(np.trace(rho0.matrix @ rho_tau.matrix).real), 0.0), 1.0)
    p0 = min(purity(rho0), 1.0)
    value = hbar * (math.acos(math.sqrt(cross)) - math.acos(math.sqrt(p0))) / delta_h
    if value < -NONNEG_CLAMP:
        raise BoundViolation(f"geodesic term {value:.3e} below -{NONNEG_CLAMP:.0e}")
    return max(value, 0.0)


def integrate_correction(samples) -> tuple[float, float]:
    """Composite trapezoid over (t, value) samples, plus a Richardson error
    estimate from comparing against the half-resolution grid."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("need an (n >= 2) x 2 array of (t, value) samples")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteSample("integrand samples contain NaN or Inf")
    t, f = arr[:, 0], arr[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly ascending")
    full = float(np.trapezoid(f, t))
    idx = _half_grid_indices(len(t))
    half = float(np.trapezoid(f[idx], t[idx]))
    return full, abs(full - half) / 3.0


def _half_grid_indices(n: int) -> list:
    idx = list(range(0, n, 2))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def _mixed_k_series(traj: Trajectory, rho0: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """K(t) on the whole grid for A = rho0, B = H, from the root stack.

    The batched form of uncertainty.correction_k_mixed: with P = R Abar and
    Q = R Bbar, the diagonals are the column norms of P U and Q U, and the
    cross term is |Tr(Abar rho Bbar)| = |sum conj(P) * Q|.
    """
    hm = traj.hamiltonian.matrix
    u = basis.matrix
    k = np.empty(len(traj.times))
    for i in range(0, len(k), STACK_BLOCK):
        r = traj.stack[i : i + STACK_BLOCK]
        p = r @ rho0
        q = r @ hm
        p -= frobenius_inner(r, p).real[:, None, None] * r
        q -= frobenius_inner(r, q).real[:, None, None] * r
        f_nn = np.sum(np.abs(p @ u) ** 2, axis=1)
        g_nn = np.sum(np.abs(q @ u) ** 2, axis=1)
        cross = np.abs(frobenius_inner(p, q))
        k[i : i + STACK_BLOCK] = np.sqrt(f_nn * g_nn).sum(axis=1) - cross
    return _clamp_nonnegative(k, "correction series")


class _Correction:
    """correction_samples and the geodesic term, prepared for one trajectory.

    What does not depend on the basis is computed here, once: the
    denominator, its gate and the prefactor, the initial state's purity for
    a mixed trajectory, and for a pure one the X and Y columns of the K
    series. A basis then costs only its own projections and the checks on
    its K series, in `integrand`.

    The mixed route's centred stacks P = R Abar and Q = R Bbar are not kept:
    holding two more (n, d, d) stacks slowed the one-shot evaluation every
    mixed bound_series makes and raised its peak memory, and only the
    optimizer would reuse them.
    """

    def __init__(self, traj: Trajectory):
        _require_spread(traj.delta_h)
        self.traj = traj
        self.dim = traj.hamiltonian.dim
        if traj.kind == "pure":
            # K = sum |conj(U^dagger X) * (U^dagger Y)| - |sum ...| per grid
            # column: completeness makes the plain sum the unresolved cross
            # term. A C-contiguous (d, n) copy: multiplying a transposed view
            # instead changes the BLAS summation order, and the optimizer
            # compares values.
            cols = np.ascontiguousarray(traj.stack.T)
            a = traj.stack[0]
            hm = traj.hamiltonian.matrix
            o = a.conj() @ cols
            pop = (o.conj() * o).real
            self.x = np.outer(a, o) - cols * pop[None, :]
            mean_h = float(np.vdot(a, hm @ a).real)
            self.y = hm @ cols - mean_h * cols
            self.rho0 = None
            den = np.sin(traj.s0)
            den_gate = den
            self.underflow = None
            self.scale = 2.0 / traj.delta_h
        else:
            rho0 = traj.states[0]
            self.rho0 = rho0.matrix
            self.purity = p = purity(rho0)
            c = traj.overlap
            radical = np.maximum(1.0 - p * c * c, 0.0)
            self.underflow = radical < RADICAL_EPS
            den = c * np.sqrt(radical)
            # pure lifts give den = sin(s0)/2, so gate at twice the
            # denominator to keep the singularity policy identical across
            # both routes
            den_gate = 2.0 * den
            self.scale = 1.0 / (math.sqrt(p) * traj.delta_h)
        self.ok = den_gate >= SIN_EPS
        self.den_ok = den[self.ok]

    def k_series(self, basis: OrthonormalBasis) -> np.ndarray:
        """K(t) on the whole grid for A = the initial state, B = H."""
        if self.rho0 is not None:
            return _mixed_k_series(self.traj, self.rho0, basis)
        uh = basis.matrix.conj().T
        prods = (uh @ self.x).conj() * (uh @ self.y)
        gap = np.abs(prods).sum(axis=0) - np.abs(prods.sum(axis=0))
        return _clamp_nonnegative(gap, "correction series")

    def integrand(self, basis: OrthonormalBasis) -> np.ndarray:
        """The correction integrand on the grid, prefactor included."""
        if basis.dim != self.dim:
            raise DimensionMismatch(f"basis dim {basis.dim} vs H dim {self.dim}")
        k = self.k_series(basis)
        live = k >= K_EPS
        if self.underflow is not None and np.any(self.underflow & live):
            raise DenominatorUnderflow("purity radical underflows while K is nonzero")
        singular = live & ~self.ok
        if np.any(singular):
            raise SingularIntegrand(
                f"{int(np.sum(singular))} grid points have K >= {K_EPS:.0e} with a vanishing denominator"
            )
        f = np.zeros(len(k))
        f[self.ok] = self.scale * k[self.ok] / self.den_ok
        return f

    def geodesic(self) -> np.ndarray:
        """The geodesic term at every grid point: mt_bound_pure for a pure
        trajectory, mixed_geodesic_term for a mixed one."""
        traj = self.traj
        if self.rho0 is None:
            return traj.hbar * traj.s0 / (2.0 * traj.delta_h)
        # overlap * sqrt(P) = sqrt(Tr(rho0 rho_t)); it starts at exactly 1 and
        # stays <= 1, so the term starts at 0 and never goes negative
        angle = np.arccos(traj.overlap * math.sqrt(min(self.purity, 1.0)))
        return traj.hbar * (angle - angle[0]) / traj.delta_h


def correction_samples(traj: Trajectory, basis: OrthonormalBasis) -> np.ndarray:
    """(t, integrand) rows for the correction term, prefactors included.

    Grid points where the denominator underflows while K is itself below
    round-off contribute 0 (the t = 0 limit); a vanishing denominator with
    K genuinely nonzero is outside the derivation and raises.
    """
    return np.column_stack([traj.times, _Correction(traj).integrand(basis)])


def _report_at_end(correction: _Correction, basis: OrthonormalBasis, basis_id: str) -> BoundReport:
    traj = correction.traj
    value, err = integrate_correction(np.column_stack([traj.times, correction.integrand(basis)]))
    tau_mt = float(correction.geodesic()[-1])
    tau_tqsl = tau_mt + value
    return BoundReport(
        tau_actual=float(traj.times[-1]),
        tau_mt=tau_mt,
        correction_integral=value,
        tau_tqsl=tau_tqsl,
        delta=tau_tqsl - tau_mt,
        basis_id=basis_id,
        validity=traj.validity_clean,
        quadrature=QuadratureInfo("trapezoid", float(traj.times[1] - traj.times[0]), err),
    )


def _require_clean(traj: Trajectory) -> None:
    if not traj.validity_clean:
        turn = traj.times[traj.valid_until]
        raise ValidityExceeded(
            f"overlap turns around at t = {turn:.6g}, before the requested endpoint"
        )


def tqsl_bound(
    h: Observable,
    state0: State,
    tau: float,
    basis: OrthonormalBasis,
    steps: int = DEFAULT_STEPS,
    hbar: float = 1.0,
    *,
    basis_id: str = "user",
) -> BoundReport:
    """Evaluate the tightened bound at time tau for a pure or mixed initial
    state."""
    traj = sample_trajectory(h, state0, tau, steps, hbar)
    _require_clean(traj)
    return _report_at_end(_Correction(traj), basis, basis_id)


def bound_series(traj: Trajectory, basis: OrthonormalBasis, basis_id: str = "user") -> BoundSeries:
    """The bound at every grid row, as columns, with cumulative correction
    quadrature.

    Rows past the trajectory's validity index are still reported (flagged
    false) so sweeps can plot the whole window.
    """
    correction = _Correction(traj)
    t, f = traj.times, correction.integrand(basis)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))])
    idx = _half_grid_indices(len(t))
    th, fh = t[idx], f[idx]
    cum_half = np.concatenate([[0.0], np.cumsum(0.5 * (fh[1:] + fh[:-1]) * np.diff(th))])
    tau_mt = correction.geodesic()
    tau_tqsl = tau_mt + cum
    return BoundSeries(
        t=t,
        tau_mt=tau_mt,
        correction=cum,
        tau_tqsl=tau_tqsl,
        delta=tau_tqsl - tau_mt,
        quad_error=np.abs(cum - np.interp(t, th, cum_half)) / 3.0,
        validity=traj.validity_flags(),
        basis_id=basis_id,
        step=float(t[1] - t[0]),
    )


@dataclass(frozen=True)
class OptimizerConfig:
    """Random-restart hill climbing over the unitary group."""

    restarts: int = 4
    iterations: int = 120
    seed: int = 0
    initial_step: float = 0.4
    shrink: float = 0.5
    patience: int = 8
    min_step: float = 1e-4

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("need at least one restart")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if not 0.0 < self.shrink < 1.0:
            raise ConfigError("shrink must lie in (0, 1)")
        if self.initial_step <= 0 or self.min_step <= 0:
            raise ConfigError("step sizes must be positive")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


def optimize_basis(traj: Trajectory, opt_config: OptimizerConfig = None) -> tuple:
    """Maximize the correction integral over complete orthonormal bases;
    returns the best basis and its bound at the trajectory's endpoint.

    Restart 0 is the identity basis; later restarts start from eigenbases
    of independent random Hermitian draws. Candidates rotate the current
    basis by e^{i step G} with G a random Hermitian direction; the step
    shrinks after `patience` rejections. Best effort: the returned bound
    dominates every basis probed, nothing more is claimed.
    """
    cfg = opt_config if opt_config is not None else OptimizerConfig()
    _require_clean(traj)
    dim = traj.hamiltonian.dim
    correction = _Correction(traj)

    def objective(b: OrthonormalBasis) -> float:
        return float(np.trapezoid(correction.integrand(b), traj.times))

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
        directions = eigh(_random_directions(rng, cfg.iterations, dim))
        step = cfg.initial_step
        stall = 0
        moves = 0
        for j in range(cfg.iterations):
            if step < cfg.min_step:
                break
            candidate = OrthonormalBasis(basis.matrix @ expm_i_hermitian(directions[j], -step))
            try:
                cand_value = objective(candidate)
            except (SingularIntegrand, DenominatorUnderflow):
                cand_value = None
            if cand_value is not None and cand_value > value:
                basis, value, moves = candidate, cand_value, moves + 1
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    step *= cfg.shrink
                    stall = 0
        if best is None or value > best[0]:
            best = (value, basis, f"optimize[{origin}, {moves} moves]")
    if best is None:
        raise SingularIntegrand("every optimizer restart hit a singular integrand")
    _, basis, label = best
    return basis, _report_at_end(correction, basis, label)


def _random_directions(rng, count: int, dim: int) -> np.ndarray:
    """`count` random Hermitian directions of unit Frobenius norm, drawn in
    the order a one-at-a-time loop would draw them."""
    z = rng.normal(size=(count, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    g += np.swapaxes(g.conj(), 1, 2)
    for m in g:
        m /= np.linalg.norm(m)
    return g
