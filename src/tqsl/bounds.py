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
    SingularIntegrand,
    ValidityExceeded,
    ZeroEnergyVariance,
    _integer_fields,
    _positive_finite_fields,
)
from .linalg import eigh, expm_i_hermitian
from .states import Observable, OrthonormalBasis, State, basis_failures, purity
from .uncertainty import NONNEG_CLAMP

DEFAULT_STEPS = 400
ZERO_SPREAD_TOL = 1e-12
SIN_EPS = 1e-8
K_EPS = 1e-10
RADICAL_EPS = 1e-12
BOOKKEEPING_TOL = 1e-12
BOUND_SLACK = 1e-6

BOUND_CSV_HEADER = "t,tau_mt,tau_tqsl,delta,quad_error,validity"


@dataclass(frozen=True)
class QuadratureInfo:
    """Composite trapezoid: the grid step and the Richardson error estimate."""

    step: float
    estimated_error: float


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
        rows = (np.array([v], dtype=float) for v in values)
        _check_rows(*rows, np.array([self.validity], dtype=bool))

    def csv_row(self) -> str:
        return _csv_row(
            self.tau_actual,
            self.tau_mt,
            self.tau_tqsl,
            self.delta,
            self.quadrature.estimated_error,
            self.validity,
        )


def _check_rows(t, tau_mt, correction, tau_tqsl, delta, validity) -> None:
    """The report invariants on float columns, one entry per row, with a
    bool validity column: finite values, a nonnegative correction, delta
    above -NONNEG_CLAMP, tau_tqsl = tau_mt + correction, and the bound at
    most the actual time t on valid rows."""
    if not all(np.all(np.isfinite(c)) for c in (t, tau_mt, correction, tau_tqsl, delta)):
        raise BoundViolation("bound report contains non-finite values")
    if np.any(correction < 0.0):
        raise BoundViolation(f"correction integral {float(correction.min())!r} < 0")
    if np.any(delta < -NONNEG_CLAMP):
        raise BoundViolation(f"delta {float(delta.min())!r} below -{NONNEG_CLAMP:.0e}")
    if np.any(np.abs(tau_tqsl - (tau_mt + correction)) > BOOKKEEPING_TOL):
        raise BoundViolation("tau_tqsl is not geodesic term + correction")
    over = validity & (t < tau_tqsl - BOUND_SLACK)
    if over.any():
        k = int(np.argmax(over))
        raise BoundViolation(
            f"bound {float(tau_tqsl[k])!r} exceeds actual time {float(t[k])!r} on a clean trajectory"
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
    Indexing and iteration build BoundReport rows on demand, without
    checking them again; csv_rows() formats straight from the columns.
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
        _check_rows(*(cols[n] for n in names[:5]), cols["validity"])
        for name, col in cols.items():
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k: int) -> BoundReport:
        """Row k. Its columns passed the report check, so it is not checked again."""
        row = object.__new__(BoundReport)
        for name, value in (
            ("tau_actual", float(self.t[k])),
            ("tau_mt", float(self.tau_mt[k])),
            ("correction_integral", float(self.correction[k])),
            ("tau_tqsl", float(self.tau_tqsl[k])),
            ("delta", float(self.delta[k])),
            ("basis_id", self.basis_id),
            ("validity", bool(self.validity[k])),
            ("quadrature", QuadratureInfo(self.step, float(self.quad_error[k]))),
        ):
            object.__setattr__(row, name, value)
        return row

    def csv_rows(self) -> list:
        """Every row as BoundReport.csv_row would format it."""
        cols = (self.t, self.tau_mt, self.tau_tqsl, self.delta, self.quad_error, self.validity)
        return [_csv_row(*row) for row in zip(*(c.tolist() for c in cols))]


def _cumulative_trapezoid(t: np.ndarray, f: np.ndarray) -> tuple:
    """The composite trapezoid of f over the grid t, cumulative from t[0],
    and at every row its Richardson error estimate |full - half| / 3, where
    half integrates the half-resolution grid (every other point, plus the
    last one) and is interpolated back onto t."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))])
    idx = np.append(np.arange(0, len(t) - 1, 2), len(t) - 1)
    th, fh = t[idx], f[idx]
    cum_half = np.concatenate([[0.0], np.cumsum(0.5 * (fh[1:] + fh[:-1]) * np.diff(th))])
    return cum, np.abs(cum - np.interp(t, th, cum_half)) / 3.0


def _mixed_k_series(traj: Trajectory, rho0: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """K(t) on the whole grid for A = rho0, B = H, from the root stack, one
    row per basis matrix of an (m, d, d) stack; not yet clamped.

    The batched form of uncertainty.correction_k_mixed: with P = R Abar and
    Q = R Bbar, the diagonals are the column norms of P U and Q U, and the
    cross term is |Tr(Abar rho Bbar)| = |sum conj(P) * Q|.
    """
    hm = traj.hamiltonian.matrix
    u = bases[:, None]
    k = np.empty((len(bases), len(traj.times)))
    for i in range(0, k.shape[1], STACK_BLOCK):
        r = traj.stack[i : i + STACK_BLOCK]
        p = r @ rho0
        q = r @ hm
        p -= frobenius_inner(r, p).real[:, None, None] * r
        q -= frobenius_inner(r, q).real[:, None, None] * r
        f_nn = np.sum(np.abs(p @ u) ** 2, axis=-2)
        g_nn = np.sum(np.abs(q @ u) ** 2, axis=-2)
        cross = np.abs(frobenius_inner(p, q))
        k[:, i : i + STACK_BLOCK] = np.sqrt(f_nn * g_nn).sum(axis=-1) - cross
    return k


def _kernel_failure(low: float, underflow: bool, singular: int):
    """The first check a basis's K series fails, as an error, or None."""
    if low < -NONNEG_CLAMP:
        return BoundViolation(f"correction series = {low:.3e} below -{NONNEG_CLAMP:.0e}")
    if underflow:
        return DenominatorUnderflow("purity radical underflows while K is nonzero")
    if singular:
        return SingularIntegrand(
            f"{singular} grid points have K >= {K_EPS:.0e} with a vanishing denominator"
        )
    return None


class _Correction:
    """The correction integrand and the geodesic term, prepared for one
    trajectory.

    What does not depend on the basis is computed here, once: the
    denominator, its gate and the prefactor, the initial state's purity for
    a mixed trajectory, and for a pure one the X and Y columns of the K
    series. A stack of bases then costs only its own projections and the
    checks on its K series, in `integrands`.

    The mixed route's centred stacks P = R Abar and Q = R Bbar are not kept:
    holding two more (n, d, d) stacks slowed the one-shot evaluation every
    mixed bound_series makes and raised its peak memory, and only the
    optimizer would reuse them.
    """

    def __init__(self, traj: Trajectory):
        if traj.delta_h <= ZERO_SPREAD_TOL:
            raise ZeroEnergyVariance(f"energy spread {traj.delta_h!r} is numerically zero")
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
        self.gated = ~self.ok
        self.den = den

    def k_series(self, bases: np.ndarray) -> np.ndarray:
        """K(t), not yet clamped, for A = the initial state, B = H: one grid
        row per basis matrix of an (m, d, d) stack."""
        if self.rho0 is not None:
            return _mixed_k_series(self.traj, self.rho0, bases)
        uh = bases.conj().swapaxes(-1, -2)
        prods = (uh @ self.x).conj() * (uh @ self.y)
        return np.abs(prods).sum(axis=-2) - np.abs(prods.sum(axis=-2))

    def integrands(self, bases: np.ndarray) -> tuple:
        """The integrand, prefactor included, for each basis matrix of an
        (m, d, d) stack: the (m, n) values, and per member None or the first
        of BoundViolation (K dips below round-off), DenominatorUnderflow and
        SingularIntegrand (K is live where the radical underflows or the
        denominator vanishes). A failed member's values mean nothing."""
        if bases.shape[-1] != self.dim:
            raise DimensionMismatch(f"basis dim {bases.shape[-1]} vs H dim {self.dim}")
        k = self.k_series(bases)
        low = k.min(axis=1)
        k = np.maximum(k, 0.0)
        live = k >= K_EPS
        singular = (live & self.gated).sum(axis=1)
        if self.underflow is None:
            underflow = np.zeros(len(k), dtype=bool)
        else:
            underflow = (live & self.underflow).any(axis=1)
        failures = [
            _kernel_failure(*member)
            for member in zip(low.tolist(), underflow.tolist(), singular.tolist())
        ]
        f = np.zeros(k.shape)
        np.divide(self.scale * k, self.den, out=f, where=self.ok)
        return f, failures

    def integrand(self, basis: OrthonormalBasis) -> np.ndarray:
        """The integrand for one basis: the m = 1 case of `integrands`,
        with its failure raised."""
        (f,), (failure,) = self.integrands(basis.matrix[None])
        if failure is not None:
            raise failure
        return f

    def geodesic(self) -> np.ndarray:
        """The geodesic term at every grid point, the Mandelstam-Tamm part of
        the bound: hbar s0 / (2 dH) for a pure trajectory, and
        hbar (arccos sqrt(Tr rho0 rho_t) - arccos sqrt(Tr rho0^2)) / dH for
        a mixed one, which a pure lift collapses to the pure form."""
        traj = self.traj
        if self.rho0 is None:
            return traj.hbar * traj.s0 / (2.0 * traj.delta_h)
        # overlap * sqrt(P) = sqrt(Tr(rho0 rho_t)); it starts at exactly 1 and
        # stays <= 1, so the term starts at 0 and never goes negative
        angle = np.arccos(traj.overlap * math.sqrt(min(self.purity, 1.0)))
        return traj.hbar * (angle - angle[0]) / traj.delta_h


def _series(correction: _Correction, basis: OrthonormalBasis, basis_id: str) -> BoundSeries:
    """The BoundSeries of one basis on a prepared correction: the one place
    a bound is integrated, so every endpoint report is a series' last row."""
    traj = correction.traj
    cum, err = _cumulative_trapezoid(traj.times, correction.integrand(basis))
    tau_mt = correction.geodesic()
    tau_tqsl = tau_mt + cum
    return BoundSeries(
        t=traj.times,
        tau_mt=tau_mt,
        correction=cum,
        tau_tqsl=tau_tqsl,
        delta=tau_tqsl - tau_mt,
        quad_error=err,
        validity=traj.validity_flags(),
        basis_id=basis_id,
        step=float(traj.times[1] - traj.times[0]),
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
    state: the last row of bound_series on the same trajectory and basis."""
    traj = sample_trajectory(h, state0, tau, steps, hbar)
    _require_clean(traj)
    return _series(_Correction(traj), basis, basis_id)[-1]


def bound_series(traj: Trajectory, basis: OrthonormalBasis, basis_id: str = "user") -> BoundSeries:
    """The bound at every grid row, as columns, with cumulative correction
    quadrature.

    Rows past the trajectory's validity index are still reported (flagged
    false) so sweeps can plot the whole window.
    """
    return _series(_Correction(traj), basis, basis_id)


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
        _integer_fields(self, "restarts", "iterations", "seed", "patience")
        if self.restarts < 1:
            raise ConfigError("need at least one restart")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.shrink < 1.0:
            raise ConfigError("shrink must lie in (0, 1)")
        _positive_finite_fields(self, "initial_step", "min_step")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


_REJECTED = (SingularIntegrand, DenominatorUnderflow)  # reject a candidate, not the restart


def optimize_basis(traj: Trajectory, opt_config: OptimizerConfig = None) -> tuple:
    """Maximize the correction integral over complete orthonormal bases;
    returns the best basis and its bound at the trajectory's endpoint, the
    last row of bound_series(traj, basis, report.basis_id).

    Restart 0 is the identity basis; later restarts start from eigenbases
    of independent random Hermitian draws. Candidates rotate the current
    basis by e^{i step G} with G a random Hermitian direction; the step
    shrinks after `patience` rejections. Best effort: the returned bound
    dominates every basis probed, nothing more is claimed.

    The independent restarts run in lockstep: each round rotates, checks
    and scores one candidate per live restart in one stacked evaluation.
    A singular start skips its restart; any other error stops it, and the
    lowest-numbered restart's error is raised at the end, as running the
    restarts one after another would.
    """
    cfg = opt_config if opt_config is not None else OptimizerConfig()
    _require_clean(traj)
    dim = traj.hamiltonian.dim
    correction = _Correction(traj)
    n = cfg.restarts
    starts = [np.eye(dim, dtype=complex)] + [random_basis(dim, cfg.seed + r).matrix for r in range(1, n)]
    bases = np.stack(starts)
    values, failures = _score(correction, bases, [None] * n)
    errors = [None if isinstance(f, _REJECTED) else f for f in failures]
    live = [f is None for f in failures]
    streams = (np.random.default_rng([cfg.seed, r]) for r in range(n))
    directions = eigh(np.concatenate([_random_directions(g, cfg.iterations, dim) for g in streams]))
    step, stall, moves = [cfg.initial_step] * n, [0] * n, [0] * n
    for j in range(cfg.iterations):
        idx = [r for r in range(n) if live[r] and step[r] >= cfg.min_step]
        if not idx:
            break
        sel = [r * cfg.iterations + j for r in idx]
        candidates = bases[idx] @ expm_i_hermitian(directions[sel], [-step[r] for r in idx])
        cand_values, failures = _score(correction, candidates, basis_failures(candidates))
        for r, candidate, value, failure in zip(idx, candidates, cand_values, failures):
            if failure is not None and not isinstance(failure, _REJECTED):
                errors[r], live[r] = failure, False
            elif failure is None and value > values[r]:
                bases[r], values[r], moves[r], stall[r] = candidate, value, moves[r] + 1, 0
            else:
                stall[r] += 1
                if stall[r] >= cfg.patience:
                    step[r], stall[r] = step[r] * cfg.shrink, 0
    for error in errors:
        if error is not None:
            raise error
    # max keeps the first of equal values, as a strict > over restarts does
    best = max((r for r in range(n) if live[r]), key=values.__getitem__, default=None)
    if best is None:
        raise SingularIntegrand("every optimizer restart hit a singular integrand")
    origin = "identity" if best == 0 else f"gue-eigenbasis:seed={cfg.seed + best}"
    basis = OrthonormalBasis(bases[best])
    return basis, _series(correction, basis, f"optimize[{origin}, {moves[best]} moves]")[-1]


def _score(correction: _Correction, bases: np.ndarray, failures: list) -> tuple:
    """The objective, the trapezoid integral of the integrand, of each
    basis matrix in an (m, d, d) stack, or nan for a member that already
    has a failure; `failures` gains those the integrands report."""
    ok = [i for i, failure in enumerate(failures) if failure is None]
    values = np.full(len(bases), math.nan)
    if ok:
        f, found = correction.integrands(bases[ok])
        values[ok] = np.trapezoid(f, correction.traj.times)
        for i, failure in zip(ok, found):
            failures[i] = failure
    return values.tolist(), failures


def _random_directions(rng, count: int, dim: int) -> np.ndarray:
    """`count` random Hermitian directions of unit Frobenius norm, drawn in
    the order a one-at-a-time loop would draw them."""
    z = rng.normal(size=(count, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    g += np.swapaxes(g.conj(), 1, 2)
    for m in g:
        m /= np.linalg.norm(m)
    return g
