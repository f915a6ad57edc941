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

from .dynamics import Trajectory, _stacked, sample_trajectory
from .ensembles import _gue_draws
from .errors import (
    BoundViolation,
    ConfigError,
    DenominatorUnderflow,
    DimensionMismatch,
    QslError,
    SingularIntegrand,
    ValidityExceeded,
    ZeroEnergyVariance,
    _index,
    _integer_fields,
    _library_built,
    _trusted,
)
from .linalg import EigenDecomposition, eigh, expm_i_hermitian
from .states import Observable, OrthonormalBasis, State, basis_failures
from .uncertainty import NONNEG_CLAMP, _k_terms

DEFAULT_STEPS = 400
ZERO_SPREAD_TOL = 1e-12
SIN_EPS = 1e-8
K_EPS = 1e-10
RADICAL_EPS = 1e-12
BOOKKEEPING_TOL = 1e-12
BOUND_SLACK = 1e-6

BOUND_CSV_HEADER = "t,tau_mt,tau_tqsl,delta,quad_error,validity"
_CSV_FORMAT = "%.12g,%.12g,%.12g,%.12g,%.12g,%s"
_COLUMNS = ("t", "tau_mt", "correction", "tau_tqsl", "delta", "quad_error", "validity")


@dataclass(frozen=True, init=False)
class BoundReport:
    """One bound evaluation at the trajectory endpoint (or one grid row): a
    row of a BoundSeries, which only the library builds. `step` is the
    quadrature's grid step and `quad_error` its Richardson error estimate."""

    tau_actual: float
    tau_mt: float
    correction_integral: float
    tau_tqsl: float
    delta: float
    basis_id: str
    validity: bool
    step: float
    quad_error: float

    __init__ = _library_built

    def csv_row(self) -> str:
        """One BOUND_CSV_HEADER row: 12 significant digits, lowercase flag."""
        return _CSV_FORMAT % (self.tau_actual, self.tau_mt, self.tau_tqsl, self.delta, self.quad_error,
                              "true" if self.validity else "false")


def _check_rows(t, tau_mt, correction, tau_tqsl, delta, validity) -> None:
    """The report invariants on float columns, one entry per row, with a
    bool validity column, or on (k, n) stacks of such columns sharing one t:
    finite values, a nonnegative correction, delta
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
        k = np.unravel_index(np.argmax(over), over.shape)
        raise BoundViolation(f"bound {float(tau_tqsl[k])!r} exceeds actual time "
                             f"{float(np.broadcast_to(t, over.shape)[k])!r} on a clean trajectory")


@dataclass(frozen=True, eq=False, init=False)
class BoundSeries(Sequence):
    """bound_series result: one read-only column per report field, in grid
    order, sharing one basis_id and quadrature step. Only the library
    builds one, so it has no constructor.

    The report invariants are checked once, on whole columns, before the
    series is built (_check_rows in _series). Indexing and iteration build
    BoundReport rows on demand, without checking them again; iteration and
    csv_rows() read whole columns.
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

    __init__ = _library_built

    def __len__(self) -> int:
        return len(self.t)

    def _row(self, t, tau_mt, correction, tau_tqsl, delta, quad_error, validity) -> BoundReport:
        """A row of Python values from columns that passed the report check,
        so it is not checked again."""
        row = object.__new__(BoundReport)  # _trusted's work, without a call per row
        vars(row).update(
            tau_actual=t, tau_mt=tau_mt, correction_integral=correction, tau_tqsl=tau_tqsl, delta=delta,
            basis_id=self.basis_id, validity=validity, step=self.step, quad_error=quad_error,
        )
        return row

    def _rows(self, k: slice):
        return map(self._row, *(getattr(self, name)[k].tolist() for name in _COLUMNS))

    def __getitem__(self, k):
        """Row k, or the rows of a slice as a list; any other index raises TypeError."""
        if isinstance(k, slice):
            return list(self._rows(k))
        k = _index("index", k, TypeError)
        return self._row(*(getattr(self, name)[k].item() for name in _COLUMNS))

    def __iter__(self):
        return self._rows(slice(None))

    def csv_rows(self) -> list:
        """Every row as BoundReport.csv_row would format it."""
        cols = (self.t, self.tau_mt, self.tau_tqsl, self.delta, self.quad_error)
        flags = np.where(self.validity, "true", "false").tolist()
        return [_CSV_FORMAT % row for row in zip(*(c.tolist() for c in cols), flags)]


def _cumulative_trapezoid(t: np.ndarray, f: np.ndarray) -> tuple:
    """The composite trapezoid of f over the grid t, cumulative from t[0],
    and at every row its Richardson error estimate |full - half| / 3, where
    half integrates the half-resolution grid (every other point, plus the
    last one) and is interpolated back onto t. f may also be a (..., n)
    stack, integrated row by row."""

    def cumulative(t, f):
        cum = np.zeros(f.shape)
        np.cumsum(0.5 * (f[..., 1:] + f[..., :-1]) * np.diff(t), axis=-1, out=cum[..., 1:])
        return cum

    idx = np.append(np.arange(0, len(t) - 1, 2), len(t) - 1)
    cum, half = cumulative(t, f), cumulative(t[idx], f[..., idx])
    coarse = np.reshape([np.interp(t, t[idx], row) for row in half.reshape(-1, len(idx))], f.shape)
    return cum, np.abs(cum - coarse) / 3.0


class _Correction:
    """The correction integrand and the geodesic term, prepared for k pure
    trajectories on one grid, as stacks with one row per trajectory, or for
    one mixed trajectory.

    What does not depend on the basis is computed here, once: the
    denominator, its gate and the prefactor, the initial state's purity for
    a mixed trajectory, for pure ones the X and Y columns of the K series,
    and the weights: the trapezoid rule's weight at each grid point times
    the prefactor over the denominator, 0 where the integrand is gated. A
    stack of bases then costs only its own projections and the checks on
    its K series (`_checked`): `integrands` gives the integrand, and
    `scores` the optimizer's objective, one weighted sum of K per basis.

    The mixed route's centred stacks P = R Abar and Q = R Bbar are not kept:
    holding two more (n, d, d) stacks slowed the one-shot evaluation every
    mixed bound_series makes and raised its peak memory, and only the
    optimizer would reuse them.
    """

    def __init__(self, *trajs: Trajectory):
        for traj in trajs:  # relative to max|H|, with no floor: dH scales with H
            if traj.delta_h <= ZERO_SPREAD_TOL * np.abs(traj.hamiltonian.matrix).max():
                raise ZeroEnergyVariance(f"energy spread {traj.delta_h!r} is numerically zero")
        self.traj = traj = trajs[0]
        self.dim = traj.hamiltonian.dim
        self.valid_until = np.array([[t.valid_until] for t in trajs])
        if traj.kind == "pure":
            # K = sum |conj(U^dagger X) * (U^dagger Y)| - |sum ...| per grid
            # column: completeness makes the plain sum the unresolved cross
            # term. C-contiguous (d, n) copies: multiplying transposed views
            # instead changes the BLAS summation order, and the optimizer
            # compares values.
            cols = np.array([t.stack.T for t in trajs])
            a = np.stack([t.stack[0] for t in trajs])
            hm = _stacked([t.hamiltonian.matrix for t in trajs])
            o = (a.conj()[:, None] @ cols)[:, 0]
            pop = (o.conj() * o).real
            self.x = a[:, :, None] * o[:, None] - cols * pop[:, None]
            mean_h = np.array([[[np.vdot(v, h @ v).real]] for v, h in zip(a, hm)])
            self.y = hm @ cols - mean_h * cols
            self.rho0 = None
            self.s0 = np.stack([t.s0 for t in trajs])
            self.delta_h = np.array([[t.delta_h] for t in trajs])
            den = den_gate = np.sin(self.s0)
            self.underflow = np.zeros(den.shape, dtype=bool)
            self.scale = 2.0 / self.delta_h
        else:
            (traj,) = trajs
            # the first state from its checked root, without checking it again
            r0 = traj.stack[0]
            self.rho0 = r0 @ r0
            self.purity = p = float(np.trace(self.rho0 @ self.rho0).real)
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
        self.forbidden = self.gated | self.underflow  # where a live K fails
        self.den = den
        w = np.convolve(np.diff(traj.times), [0.5, 0.5])  # trapezoid weights
        self.weight = np.divide(self.scale * w, den, out=np.zeros(np.shape(den)), where=self.ok)

    def k_series(self, bases: np.ndarray) -> np.ndarray:
        """K(t), not yet clamped, for A = the initial state, B = H: one grid
        row per basis matrix of an (m, d, d) stack."""
        if self.rho0 is not None:
            tighter, cross = _k_terms(self.traj.stack, self.rho0, self.traj.hamiltonian.matrix, bases)
            return tighter - cross
        uh = bases.conj().swapaxes(-1, -2)
        prods = (uh @ self.x).conj() * (uh @ self.y)
        return np.abs(prods).sum(axis=-2) - np.abs(prods.sum(axis=-2))

    def _checked(self, bases: np.ndarray) -> tuple:
        """K, clamped, for each basis matrix of an (m, d, d) stack, and per
        member None or the first of BoundViolation (K dips below round-off),
        DenominatorUnderflow and SingularIntegrand (K is live where the
        radical underflows or the denominator vanishes). The verdicts are
        arrays; an error is built only for a member that fails."""
        if bases.shape[-1] != self.dim:
            raise DimensionMismatch(f"basis dim {bases.shape[-1]} vs H dim {self.dim}")
        k = self.k_series(bases)
        low = k.min(axis=1)
        np.maximum(k, 0.0, out=k)
        live = k >= K_EPS
        failures = [None] * len(k)
        for i in np.flatnonzero((low < -NONNEG_CLAMP) | (live & self.forbidden).any(axis=1)).tolist():
            if low[i] < -NONNEG_CLAMP:
                failures[i] = BoundViolation(f"correction series = {low[i]:.3e} below -{NONNEG_CLAMP:.0e}")
            elif (live & self.underflow)[i].any():
                failures[i] = DenominatorUnderflow("purity radical underflows while K is nonzero")
            else:
                failures[i] = SingularIntegrand(f"{(live & self.gated)[i].sum()} grid points have "
                                                f"K >= {K_EPS:.0e} with a vanishing denominator")
        return k, failures

    def integrands(self, bases: np.ndarray) -> tuple:
        """The integrand, prefactor included, for each basis matrix of an
        (m, d, d) stack: the (m, n) values, and per member the failure
        `_checked` finds, or None. A failed member's values mean nothing."""
        k, failures = self._checked(bases)
        f = np.zeros(k.shape)
        np.divide(self.scale * k, self.den, out=f, where=self.ok)
        return f, failures

    def scores(self, bases: np.ndarray) -> tuple:
        """The climber's objective for each basis matrix of an (m, d, d)
        stack, the trapezoid of its integrand as one weighted sum of K, and
        per member the failure `_checked` finds, or None. It differs from
        np.trapezoid of `integrands` only by rounding."""
        k, failures = self._checked(bases)
        return np.vecdot(k, self.weight), failures

    def geodesic(self) -> np.ndarray:
        """The geodesic term at every grid point, one row per trajectory, the
        Mandelstam-Tamm part of the bound: hbar s0 / (2 dH) for a pure
        trajectory, and hbar (arccos sqrt(Tr rho0 rho_t) - arccos
        sqrt(Tr rho0^2)) / dH for a mixed one, which a pure lift collapses to
        the pure form."""
        traj = self.traj
        if self.rho0 is None:
            return traj.hbar * self.s0 / (2.0 * self.delta_h)
        # overlap * sqrt(P) = sqrt(Tr(rho0 rho_t)); it starts at exactly 1 and
        # stays <= 1, so the term starts at 0 and never goes negative
        angle = np.arccos(traj.overlap * math.sqrt(min(self.purity, 1.0)))
        return (traj.hbar * (angle - angle[0]) / traj.delta_h)[None]


def _series(correction: _Correction, bases: np.ndarray, basis_ids: list) -> list:
    """The BoundSeries of basis i of a (k, d, d) stack on trajectory i of a
    prepared correction: the one place a bound is integrated, so every
    endpoint report is a series' last row. The columns are computed and
    checked as (k, n) stacks, and the first failure raises; the series are
    built from the checked stacks without checking them again."""
    f, failures = correction.integrands(bases)
    failure = next(filter(None, failures), None)
    if failure is not None:
        raise failure
    times = correction.traj.times
    cum, err = _cumulative_trapezoid(times, f)
    tau_mt = correction.geodesic()
    tau_tqsl = tau_mt + cum
    columns = (tau_mt, cum, tau_tqsl, tau_tqsl - tau_mt, err, np.arange(len(times)) <= correction.valid_until)
    _check_rows(times, *columns[:4], columns[-1])
    for col in columns:
        col.setflags(write=False)
    step = float(times[1] - times[0])
    return [
        _trusted(BoundSeries, t=times, **dict(zip(_COLUMNS[1:], member)), basis_id=basis_id, step=step)
        for *member, basis_id in zip(*columns, basis_ids)
    ]


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
    return bound_series(traj, basis, basis_id)[-1]


def bound_series(traj: Trajectory, basis: OrthonormalBasis, basis_id: str = "user") -> BoundSeries:
    """The bound at every grid row, as columns, with cumulative correction
    quadrature.

    Rows past the trajectory's validity index are still reported (flagged
    false) so sweeps can plot the whole window.
    """
    (series,) = _series(_Correction(traj), basis.matrix[None], [basis_id])
    return series


# The climber's step schedule: the first rotation step, the factor that
# shrinks it after _PATIENCE rejections in a row, and the step below which
# a restart stops.
_INITIAL_STEP, _SHRINK, _PATIENCE, _MIN_STEP = 0.4, 0.5, 8, 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Random-restart hill climbing over the unitary group."""

    restarts: int = 4
    iterations: int = 120
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, "restarts", "iterations", "seed")
        if self.restarts < 1:
            raise ConfigError("need at least one restart")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_REJECTED = (SingularIntegrand, DenominatorUnderflow)  # reject a candidate, not the restart


def optimize_basis(traj: Trajectory, opt_config: OptimizerConfig = None) -> tuple:
    """Maximize the correction integral over complete orthonormal bases;
    returns the best basis and its bound at the trajectory's endpoint, the
    last row of bound_series(traj, basis, report.basis_id).

    Restart 0 is the identity basis; later restarts start from eigenbases
    of independent random Hermitian draws. Candidates rotate the current
    basis by e^{i step G} with G a random Hermitian direction; the step,
    0.4 at first, halves after 8 rejections in a row, and a restart stops
    below 1e-4 (_INITIAL_STEP, _SHRINK, _PATIENCE, _MIN_STEP). Best
    effort: the returned bound dominates every basis probed, nothing more
    is claimed.

    The restarts run in lockstep (`_climb`). A singular start skips its
    restart; any other error stops it, and the lowest-numbered restart's
    error is raised at the end, as one restart after another would.
    """
    cfg = opt_config if opt_config is not None else OptimizerConfig()
    _require_clean(traj)
    (result,) = _climb([_Correction(traj)], cfg, [cfg.seed])
    if isinstance(result, Exception):
        raise result
    basis, series = result
    return basis, series[-1]


def _climb(corrections: list, cfg: OptimizerConfig, seeds: list) -> list:
    """optimize_basis on prepared trajectories of one dimension and grid
    length, seeds[i] standing in for cfg.seed on trajectory i: per
    trajectory, (best basis, its BoundSeries) or the error optimize_basis
    raises on it alone. Every restart of every trajectory is a member of one
    lockstep, its state held in per-member arrays; a round makes one stacked
    exponential and basis check, and one `scores` call per trajectory, which
    scores each candidate as one weighted sum of its K series, with weights
    prepared once per trajectory."""
    n, dim = cfg.restarts, corrections[0].dim
    owner = np.repeat(np.arange(len(corrections)), n)
    ends = np.arange(len(corrections) + 1)

    def score(bases, members, failures):
        """Each member's objective (`scores`); `failures` gains the kernel's
        verdicts, and a member that had one already scores 0. Members come
        sorted by trajectory, so one searchsorted splits them."""
        values = np.zeros(len(bases))
        rows = np.flatnonzero([failure is None for failure in failures])
        cuts = np.searchsorted(owner[members[rows]], ends).tolist()
        for correction, lo, hi in zip(corrections, cuts, cuts[1:]):
            if hi > lo:
                mine = rows[lo:hi]
                values[mine], found = correction.scores(bases[mine])
                for k, failure in zip(mine.tolist(), found):
                    failures[k] = failure
        return values, failures

    bases = np.tile(np.eye(dim, dtype=complex), (len(seeds), n, 1, 1))
    starts = eigh(_gue_draws(dim, [s + r for s in seeds for r in range(1, n)])).eigenvectors
    bases[:, 1:] = starts.reshape(len(seeds), n - 1, dim, dim)  # random_basis(dim, s + r)
    bases = bases.reshape(-1, dim, dim)
    values, failures = score(bases, np.arange(len(owner)), [None] * len(bases))
    errors = [None if isinstance(f, _REJECTED) else f for f in failures]
    live = np.array([f is None for f in failures])
    # one eigh per trajectory: one for all of them raised the peak memory
    directions = EigenDecomposition.concatenate([eigh(np.concatenate(
        [_random_directions(np.random.default_rng([s, r]), cfg.iterations, dim) for r in range(n)]
    )) for s in seeds])
    step, (stall, moves) = np.full(len(owner), _INITIAL_STEP), np.zeros((2, len(owner)), dtype=int)
    for j in range(cfg.iterations):
        idx = np.flatnonzero(live & (step >= _MIN_STEP))
        if not len(idx):
            break
        candidates = bases[idx] @ expm_i_hermitian(directions[idx * cfg.iterations + j], -step[idx])
        cand_values, found = score(candidates, idx, basis_failures(candidates))
        stopped = np.array([f is not None and not isinstance(f, _REJECTED) for f in found])
        for k in np.flatnonzero(stopped).tolist():
            errors[idx[k]], live[idx[k]] = found[k], False
        better = np.array([f is None for f in found]) & (cand_values > values[idx])
        up, waiting = idx[better], idx[~better & ~stopped]
        bases[up], values[up], stall[up] = candidates[better], cand_values[better], 0
        moves[up] += 1
        stall[waiting] += 1
        shrink = waiting[stall[waiting] >= _PATIENCE]
        step[shrink], stall[shrink] = step[shrink] * _SHRINK, 0
    results, values = [], values.tolist()
    for i, correction in enumerate(corrections):
        members = range(i * n, (i + 1) * n)
        # max keeps the first of equal values, as a strict > over restarts does
        best = max((k for k in members if live[k]), key=values.__getitem__, default=None)
        result = next((errors[k] for k in members if errors[k] is not None), None)
        if result is None and best is None:
            result = SingularIntegrand("every optimizer restart hit a singular integrand")
        if result is None:
            origin = "identity" if best == i * n else f"gue-eigenbasis:seed={seeds[i] + best - i * n}"
            basis = OrthonormalBasis(bases[best])
            try:
                label = f"optimize[{origin}, {moves[best]} moves]"
                result = basis, _series(correction, basis.matrix[None], [label])[0]
            except QslError as err:
                result = err
        results.append(result)
    return results


def _random_directions(rng, count: int, dim: int) -> np.ndarray:
    """`count` random Hermitian directions of unit Frobenius norm, drawn in
    the order a one-at-a-time loop would draw them. The norms are stacked
    forms of np.linalg.norm's: real parts' dot plus imaginary parts' dot."""
    z = rng.normal(size=(count, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    g += np.swapaxes(g.conj(), 1, 2)
    flat = g.reshape(count, 1, dim * dim)
    g /= np.sqrt(flat.real @ flat.real.swapaxes(1, 2) + flat.imag @ flat.imag.swapaxes(1, 2))
    return g
