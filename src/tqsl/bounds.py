"""Speed-limit bounds: geodesic terms, correction quadrature, optimization.

Every report decomposes tau_tqsl = geodesic term + correction integral so
the improvement over the plain variance bound, delta, is directly the
integrated correction. The correction integrand carries its prefactors
(2/dH for pure states, 1/(sqrt(purity) dH) with the purity-corrected
denominator for mixed ones), so integrating it yields time units.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dynamics import Trajectory, _stacked, sample_trajectory
from .ensembles import _gue_eigenbases
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
from .linalg import eigh, expm_i_hermitian
from .states import Observable, OrthonormalBasis, State
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
_CSV_AFTER_T = _CSV_FORMAT.replace("%.12g", "%s", 1)  # the same row after its formatted t cell
_COLUMNS = ("t", "tau_mt", "correction", "tau_tqsl", "delta", "validity", "quad_error")  # in BoundReport's order


class BoundReport(namedtuple("BoundReport", "tau_actual tau_mt correction_integral tau_tqsl delta "
                                            "basis_id validity step quad_error")):
    """One bound evaluation at the trajectory endpoint (or one grid row): a
    row of a BoundSeries, an immutable named tuple that only the library
    builds. `step` is the quadrature's grid step and `quad_error` its
    Richardson error estimate."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("BoundReport() takes no arguments: only the library builds one")

    def __reduce__(self):
        return BoundReport._make, (tuple(self),)

    def csv_row(self) -> str:
        """One BOUND_CSV_HEADER row: 12 significant digits, lowercase flag."""
        return _CSV_FORMAT % (self.tau_actual, self.tau_mt, self.tau_tqsl, self.delta, self.quad_error,
                              "true" if self.validity else "false")


def _csv_rows(series, grid: list) -> list:
    """A series' rows as BoundReport.csv_row formats them. `grid` holds a t
    array and its formatted cells, refilled unless series.t is that array:
    a sweep whose series share one grid formats it once."""
    if series.t is not grid[0]:
        grid[:] = series.t, ["%.12g" % v for v in series.t.tolist()]
    cols = (c.tolist() for c in (series.tau_mt, series.tau_tqsl, series.delta, series.quad_error))
    flags = np.where(series.validity, "true", "false").tolist()
    return [_CSV_AFTER_T % row for row in zip(grid[1], *cols, flags)]


def _check_rows(t, tau_mt, correction, tau_tqsl, delta, validity) -> BoundViolation | None:
    """The report invariants on float columns, one entry per row, with a
    bool validity column, or on (k, n) stacks of such columns sharing one t:
    finite values, a nonnegative correction, delta
    above -NONNEG_CLAMP, tau_tqsl = tau_mt + correction, and the bound at
    most the actual time t on valid rows. Returns the first failing check's
    BoundViolation, or None."""
    if not all(np.all(np.isfinite(c)) for c in (t, tau_mt, correction, tau_tqsl, delta)):
        return BoundViolation("bound report contains non-finite values")
    if np.any(correction < 0.0):
        return BoundViolation(f"correction integral {float(correction.min())!r} < 0")
    if np.any(delta < -NONNEG_CLAMP):
        return BoundViolation(f"delta {float(delta.min())!r} below -{NONNEG_CLAMP:.0e}")
    if np.any(np.abs(tau_tqsl - (tau_mt + correction)) > BOOKKEEPING_TOL):
        return BoundViolation("tau_tqsl is not geodesic term + correction")
    over = validity & (t < tau_tqsl - BOUND_SLACK)
    if over.any():
        k = np.unravel_index(np.argmax(over), over.shape)
        return BoundViolation(f"bound {float(tau_tqsl[k])!r} exceeds actual time "
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

    def _rows(self, k):
        """The rows at k, a slice or a list of indices, from columns that
        passed the report check, so they are not checked again."""
        *head, validity, quad_error = (getattr(self, name)[k].tolist() for name in _COLUMNS)
        fields = zip(*head, repeat(self.basis_id), validity, repeat(self.step), quad_error)
        return map(tuple.__new__, repeat(BoundReport), fields)

    def __getitem__(self, k):
        """Row k, or the rows of a slice as a list; any other index raises TypeError."""
        if isinstance(k, slice):
            return list(self._rows(k))
        return next(self._rows([_index("index", k, TypeError)]))

    def __iter__(self):
        return self._rows(slice(None))

    def csv_rows(self) -> list:
        """Every row as BoundReport.csv_row would format it."""
        return _csv_rows(self, [None, None])


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
    trajectories on one grid or for one mixed trajectory, as (k, n) stacks
    with one row per trajectory (k = 1 for the mixed one).

    What does not depend on the basis is computed here, once: the
    denominator, its gate and the prefactor, the initial state's purity for
    a mixed trajectory, for pure ones the X and Y columns of the K series,
    and the weights: the trapezoid rule's weight at each grid point times
    the prefactor over the denominator, 0 where the integrand is gated. A
    stack of bases then costs only its own projections and the checks on
    its K series (`_verdicts`): `integrands` gives the integrand. Stacked
    trajectories must share trajectory 0's grid and hbar.

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
        if any(t.hbar != traj.hbar or not np.array_equal(t.times, traj.times) for t in trajs[1:]):
            raise ValueError("stacked trajectories must share trajectory 0's time grid and hbar")
        self.dim = traj.hamiltonian.dim
        self.valid_until = np.array([[t.valid_until] for t in trajs])
        self.overlap = np.stack([t.overlap for t in trajs])
        self.delta_h = np.array([[t.delta_h] for t in trajs])
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
            self.purity = 1.0
            den = den_gate = np.sin(np.stack([t.s0 for t in trajs]))
            self.underflow = np.zeros(den.shape, dtype=bool)
            self.scale = 2.0 / self.delta_h
        else:
            (traj,) = trajs
            # the first state from its checked root, without checking it again
            r0 = traj.stack[0]
            self.rho0 = r0.conj().T @ r0
            self.purity = p = float(np.trace(self.rho0 @ self.rho0).real)
            c = self.overlap
            radical = np.maximum(1.0 - p * c * c, 0.0)
            self.underflow = radical < RADICAL_EPS
            den = c * np.sqrt(radical)
            # pure lifts give den = sin(s0)/2, so gate at twice the
            # denominator to keep the singularity policy identical across
            # both routes
            den_gate = 2.0 * den
            self.scale = 1.0 / (math.sqrt(p) * traj.delta_h)
        self.ok = den_gate >= SIN_EPS
        self.forbidden = ~self.ok | self.underflow  # where a live K fails
        self.den = den
        w = np.convolve(np.diff(traj.times), [0.5, 0.5])  # trapezoid weights
        self.weight = np.divide(self.scale * w, den, out=np.zeros(np.shape(den)), where=self.ok)

    def k_series(self, bases: np.ndarray) -> np.ndarray:
        """K(t), not yet clamped, for A = the initial state, B = H: one grid
        row per basis matrix of an (m, d, d) stack, on one trajectory or
        basis i on trajectory i (`_k_pure` on a pure one)."""
        if self.rho0 is not None:
            tighter, cross = _k_terms(self.traj.stack, self.rho0, self.traj.hamiltonian.matrix, bases)
            return tighter - cross
        return _k_pure(bases, self.x, self.y)

    def integrands(self, bases: np.ndarray) -> tuple:
        """The integrand, prefactor included, for each basis matrix of an
        (m, d, d) stack: the (m, n) values, and per member the failure
        `_verdicts` finds, or None. A failed member's values mean nothing."""
        if bases.shape[-1] != self.dim:
            raise DimensionMismatch(f"basis dim {bases.shape[-1]} vs H dim {self.dim}")
        k = self.k_series(bases)
        failures = _verdicts(k, *(np.broadcast_to(a, k.shape) for a in (self.forbidden, self.underflow)))[2]
        f = np.zeros(k.shape)
        np.divide(self.scale * k, self.den, out=f, where=self.ok)
        return f, [failures.get(i) for i in range(len(k))]

    def geodesic(self) -> np.ndarray:
        """The geodesic term at every grid point, one row per trajectory, the
        Mandelstam-Tamm part of the bound: hbar (arccos sqrt(Tr rho0 rho_t)
        - arccos sqrt(Tr rho0^2)) / dH, which for a pure trajectory (purity
        1, overlap |<psi0|psi_t>|) is hbar s0 / (2 dH)."""
        # overlap * sqrt(P) = sqrt(Tr(rho0 rho_t)); it starts at exactly 1 and
        # stays <= 1, so the term starts at 0 and never goes negative
        angle = np.arccos(self.overlap * math.sqrt(min(self.purity, 1.0)))
        return self.traj.hbar * (angle - angle[:, :1]) / self.delta_h


def _k_pure(bases: np.ndarray, x: np.ndarray, y: np.ndarray, work: tuple = None) -> np.ndarray:
    """K, not yet clamped, of an (m, d, d) stack of bases on the X and Y of
    t pure trajectories, m / t bases each, into `_k_work` arrays: one GEMM
    with X and one with Y, `(t, m/t*d, d) @ (t, d, n)`."""
    uh, gx, gy, cross, k = work or _k_work(len(x), len(bases) // len(x), *x.shape[1:])
    np.conjugate(bases.swapaxes(-1, -2), out=uh.reshape(bases.shape))
    np.multiply(np.conjugate(np.matmul(uh, x, out=gx), out=gx), np.matmul(uh, y, out=gy), out=gx)
    prods = gx.reshape(len(k), *x.shape[1:])
    mags = gy.view(float).reshape(-1)[:gy.size].reshape(prods.shape)  # in Y's product, no longer read
    np.abs(prods, out=mags).sum(axis=1, out=k)  # then mags[:, 0] is free for the cross term
    return np.subtract(k, np.abs(prods.sum(axis=1, out=cross), out=mags[:, 0]), out=k)


def _k_work(t: int, per: int, dim: int, steps: int) -> tuple:
    """`_k_pure`'s work arrays for `per` bases on each of t trajectories, the K rows last."""
    return (np.empty((t, per * dim, dim), complex), *np.empty((2, t, per * dim, steps), complex),
            np.empty((t * per, steps), complex), np.empty((t * per, steps)))


def _verdicts(k: np.ndarray, forbidden: np.ndarray, underflow: np.ndarray) -> tuple:
    """The checks on an (m, n) block of K rows, row i against row i of the
    (m, n) masks, in one pass: K is clamped in place. Returns the `ok` mask
    of members that pass, the `stop` mask of members whose K dips below
    round-off, and {member: error} for each member that fails: the first of
    BoundViolation (stop), DenominatorUnderflow and SingularIntegrand (K is
    live where the radical underflows or the denominator vanishes)."""
    low = k.min(axis=1)
    np.maximum(k, 0.0, out=k)
    live = k >= K_EPS
    stop = low < -NONNEG_CLAMP
    ok = ~stop & ~(live & forbidden).any(axis=1)
    failures = {}
    for i in np.flatnonzero(~ok).tolist():
        if stop[i]:
            failures[i] = BoundViolation(f"correction series = {low[i]:.3e} below -{NONNEG_CLAMP:.0e}")
        elif (live[i] & underflow[i]).any():
            failures[i] = DenominatorUnderflow("purity radical underflows while K is nonzero")
        else:
            failures[i] = SingularIntegrand(f"{(live[i] & forbidden[i]).sum()} grid points have "
                                            f"K >= {K_EPS:.0e} with a vanishing denominator")
    return ok, stop, failures


def _series(correction: _Correction, bases: np.ndarray, basis_ids: list) -> list:
    """The BoundSeries of basis i of a (k, d, d) stack on trajectory i of a
    prepared correction: the one place a bound is integrated, so every
    endpoint report is a series' last row. The columns are computed and
    checked as (k, n) stacks, member by member only if that check fails. A
    member that fails gets the QslError it raises alone in place of its
    series: basis_ids[i] if that is one (a failed climb), else its K
    series' failure, else its rows' first failing check."""
    f, failures = correction.integrands(bases)
    errors = [b if isinstance(b, QslError) else e for b, e in zip(basis_ids, failures)]
    times = correction.traj.times
    cum, err = _cumulative_trapezoid(times, f)
    tau_mt = correction.geodesic()
    tau_tqsl = tau_mt + cum
    columns = (tau_mt, cum, tau_tqsl, tau_tqsl - tau_mt, np.arange(len(times)) <= correction.valid_until, err)
    ok = [i for i, e in enumerate(errors) if e is None]
    if _check_rows(times, *(c[ok] for c in columns[:5])):
        for i in ok:
            errors[i] = _check_rows(times, *(c[i : i + 1] for c in columns[:5]))
    for col in columns:
        col.setflags(write=False)
    step = float(times[1] - times[0])
    return [
        error or _trusted(BoundSeries, t=times, **dict(zip(_COLUMNS[1:], member)), basis_id=basis_id, step=step)
        for *member, basis_id, error in zip(*columns, basis_ids, errors)
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
    if isinstance(series, QslError):
        raise series
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
    correction = _Correction(traj)
    bases, basis_ids = _climb(correction, cfg, [cfg.seed])
    (series,) = _series(correction, bases, basis_ids)
    if isinstance(series, QslError):
        raise series
    return _trusted(OrthonormalBasis, matrix=bases[0]), series[-1]


def _climb(correction: _Correction, cfg: OptimizerConfig, seeds: list) -> tuple:
    """optimize_basis's climb on each trajectory of a prepared correction,
    seeds[i] standing in for cfg.seed on trajectory i: the checked winners
    as a read-only (k, d, d) stack, and their basis_ids; a trajectory that
    fails has the identity and its lowest-numbered restart's error instead.
    The restarts of every trajectory are the members of one lockstep whose
    rounds keep one shape: one exponential for every member, idle ones too,
    one K pass over every member (`_k_pure` into work arrays allocated once
    per climb, or a mixed trajectory's `k_series`), then one `_verdicts`
    pass and one `np.vecdot` on the active members' K rows. Candidates are
    checked bases times rotations from checked eigensystems, so only each
    trajectory's winner is checked."""
    n, dim, steps = cfg.restarts, correction.dim, correction.weight.shape[-1]
    size = len(seeds) * n
    work = _k_work(len(seeds), n, dim, steps) if correction.rho0 is None else None
    # each member's trajectory's weights and masks
    rows = [np.repeat(getattr(correction, a), n, axis=0) for a in ("weight", "forbidden", "underflow")]

    def scored(bases, active):  # the active members' verdicts, failures and scores
        k = correction.k_series(bases) if work is None else _k_pure(bases, correction.x, correction.y, work)
        k, w, *masks = [k, *rows] if active.all() else [a[active] for a in (k, *rows)]
        return (*_verdicts(k, *masks), np.vecdot(k, w))  # _verdicts clamps k before vecdot reads it

    bases = np.tile(np.eye(dim, dtype=complex), (len(seeds), n, 1, 1))
    starts = _gue_eigenbases(dim, [s + r for s in seeds for r in range(1, n)])
    bases[:, 1:] = starts.reshape(len(seeds), n - 1, dim, dim)  # random_basis(dim, s + r)
    bases = bases.reshape(-1, dim, dim)
    live, stop, failures, values = scored(bases, np.ones(size, dtype=bool))
    errors = [failures[i] if stop[i] else None for i in range(size)]
    # an eigh per trajectory (one for all raised the peak memory); rounds[j]: each member's direction j
    decs = [eigh(np.concatenate(
        [_random_directions(np.random.default_rng([s, r]), cfg.iterations, dim) for r in range(n)]
    )) for s in seeds]
    rounds = [np.concatenate(a).reshape(size, cfg.iterations, *a[0].shape[1:]).swapaxes(0, 1)
              for a in zip(*decs)]
    step, (stall, moves) = np.full(size, _INITIAL_STEP), np.zeros((2, size), dtype=int)
    for j in range(cfg.iterations):
        active = live & (step >= _MIN_STEP)
        if not active.any():
            break
        candidates = bases @ expm_i_hermitian(decs[0]._make(a[j] for a in rounds), -step)
        ok, stop, failures, cand_values = scored(candidates, active)
        idx = np.flatnonzero(active)
        for k in np.flatnonzero(stop).tolist():
            errors[idx[k]] = failures[k]
        live[idx[stop]] = False
        better = ok & (cand_values > values[idx])
        up, waiting = idx[better], idx[~better & ~stop]
        bases[up], values[up], stall[up] = candidates[up], cand_values[better], 0
        moves[up] += 1
        stall[waiting] += 1
        shrink = waiting[stall[waiting] >= _PATIENCE]
        step[shrink], stall[shrink] = step[shrink] * _SHRINK, 0
    winners, basis_ids, values = [], [], values.tolist()
    for i, seed in enumerate(seeds):
        members = range(i * n, (i + 1) * n)
        error = next((errors[k] for k in members if errors[k] is not None), None)
        # max keeps the first of equal values, as a strict > over restarts does
        best = max((k for k in members if live[k]), key=values.__getitem__, default=None)
        try:
            if error is not None or best is None:
                raise error or SingularIntegrand("every optimizer restart hit a singular integrand")
            winners.append(OrthonormalBasis(bases[best]).matrix)
            origin = "identity" if best == i * n else f"gue-eigenbasis:seed={seed + best - i * n}"
            basis_ids.append(f"optimize[{origin}, {moves[best]} moves]")
        except QslError as err:
            winners.append(np.eye(dim, dtype=complex))
            basis_ids.append(err)
    winners = np.stack(winners)
    winners.setflags(write=False)
    return winners, basis_ids


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
