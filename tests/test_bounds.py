"""Speed-limit bounds, correction quadrature, reports, basis optimization."""
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tqsl import (
    BoundReport,
    BoundSeries,
    BoundViolation,
    ConfigError,
    DenominatorUnderflow,
    DensityMatrix,
    DimensionMismatch,
    GueConfig,
    InvalidBasis,
    Observable,
    OptimizerConfig,
    OrthonormalBasis,
    QslError,
    SingularIntegrand,
    ValidityExceeded,
    ZeroEnergyVariance,
    bound_series,
    default_initial_state,
    optimize_basis,
    random_basis,
    sample_gue,
    sample_trajectory,
    sqrtm_psd,
    tqsl_bound,
    variance,
)
import sequential_optimizer as oracle
import tqsl.bounds
from conftest import doctored_trajectory, evolve_mixed, evolve_pure, grid_states, random_density, random_pure
from tqsl.bounds import (
    _check_rows, _climb, _Correction, _cumulative_trapezoid, _random_directions, _require_clean,
    _series,
)
from tqsl.errors import _trusted
from tqsl.states import basis_failures, purity
from uncertainty_oracle import correction_k

SIN_EPS = 1e-8


def integrand(correction: _Correction, basis: OrthonormalBasis) -> np.ndarray:
    """The integrand for one basis, the m = 1 case of `integrands`, with
    the member's failure raised."""
    (f,), (failure,) = correction.integrands(basis.matrix[None])
    if failure is not None:
        raise failure
    return f


def gue_trajectory(seed=0, tau=1.0, steps=60, dim=3):
    h = sample_gue(GueConfig(dim=dim, seed=seed))
    return h, sample_trajectory(h, default_initial_state(dim), tau, steps)


def wishart_trajectory(dim=4, seed=2, tau=0.8, steps=80):
    h = sample_gue(GueConfig(dim=dim, seed=seed))
    rho = random_density(np.random.default_rng([seed, dim]), dim)
    return sample_trajectory(h, rho, tau, steps)


def singular_trajectory(dim=3, seed=0):
    """Pure trajectory doctored so that s0 returns to 0 at its last point
    while K does not vanish there."""
    h = sample_gue(GueConfig(dim=dim, seed=seed))
    psi = default_initial_state(dim)
    states = (psi, evolve_pure(h, psi, 0.8), evolve_pure(h, psi, 1.6))
    s_mid = 2.0 * math.acos(
        min(abs(complex(np.vdot(psi.amplitudes, states[1].amplitudes))), 1.0)
    )
    s0 = np.array([0.0, s_mid, 0.0])
    return doctored_trajectory(
        hamiltonian=h,
        hbar=1.0,
        times=np.array([0.0, 0.8, 1.6]),
        stack=np.array([s.amplitudes for s in states]),
        s0=s0,
        overlap=np.cos(s0 / 2.0),
        delta_h=math.sqrt(variance(h, psi)),
        valid_until=2,
    )


def underflow_trajectory():
    """Near-pure mixed d=3 trajectory doctored to revive at its last point,
    where the purity radical underflows while K does not."""
    h = sample_gue(GueConfig(dim=3, seed=5))
    psi = default_initial_state(3)
    eps = 5e-14
    r0 = DensityMatrix(
        (1 - eps) * np.outer(psi.amplitudes, psi.amplitudes.conj()) + eps * np.eye(3) / 3
    )
    st1 = evolve_mixed(h, r0, 0.6)
    st2 = evolve_mixed(h, r0, 1.2)
    ratio = np.trace(r0.matrix @ st1.matrix).real / purity(r0)  # the mixed angle's cos^2(s0/2)
    s0 = np.array([0.0, 2.0 * math.acos(math.sqrt(ratio)), 0.0])
    return doctored_trajectory(
        hamiltonian=h,
        hbar=1.0,
        times=np.array([0.0, 0.6, 1.2]),
        stack=np.array([sqrtm_psd(r.matrix) for r in (r0, st1, st2)]),
        s0=s0,
        overlap=np.cos(s0 / 2.0),
        delta_h=math.sqrt(variance(h, r0)),
        valid_until=2,
    )


def geodesic(h, state0, tau, steps, hbar=1.0):
    """The geodesic term on the grid, through the public bound_series."""
    traj = sample_trajectory(h, state0, tau, steps, hbar)
    return bound_series(traj, OrthonormalBasis.identity(h.dim)).tau_mt


class TestMtBound:
    def test_zero_at_start(self, sigma_x, ket0):
        assert geodesic(sigma_x, ket0, 1.0, 11)[0] == 0.0

    def test_precession_saturates(self, sigma_x, ket0):
        # s0 = 2t and dH = 1, so the bound equals the elapsed time exactly
        tau_mt = geodesic(sigma_x, ket0, 1.0, 101)
        assert tau_mt[100] == pytest.approx(1.0, abs=1e-10)
        assert tau_mt[50] == pytest.approx(0.5, abs=1e-10)

    def test_orthogonalization_gives_pi_over_two(self, sigma_x, ket0):
        assert geodesic(sigma_x, ket0, math.pi / 2, 101)[100] == pytest.approx(math.pi / 2, abs=1e-7)

    def test_rejects_zero_spread(self, ket0):
        with pytest.raises(ZeroEnergyVariance):
            geodesic(Observable(np.eye(2)), ket0, 1.0, 5)


class TestMixedGeodesicTerm:
    def test_zero_for_unmoved_state(self, sigma_z, qubit_mixed):
        # sigma_z commutes with the diagonal state, so it never moves: the
        # term is exactly 0 at t = 0 and propagation round-off after it
        tau_mt = geodesic(sigma_z, qubit_mixed, 1.0, 11)
        assert tau_mt[0] == 0.0
        np.testing.assert_allclose(tau_mt, 0.0, rtol=0, atol=1e-15)

    def test_pure_lift_recovers_plain_geodesic(self):
        h = sample_gue(GueConfig(dim=3, seed=1))
        psi = default_initial_state(3)
        lifted = geodesic(h, psi.to_density(), 1.2, 80)[-1]
        assert lifted == pytest.approx(geodesic(h, psi, 1.2, 80)[-1], abs=1e-7)

    def test_precessing_qubit_closed_form(self, sigma_x, qubit_mixed):
        # Tr(rho0 rho_t) = 0.5 + 0.18 cos 2t, purity 0.68, dH = 1
        tau = 0.7
        want = math.acos(math.sqrt(0.5 + 0.18 * math.cos(2 * tau))) - math.acos(math.sqrt(0.68))
        for steps in (11, 400):
            got = geodesic(sigma_x, qubit_mixed, tau, steps)[-1]
            assert got == pytest.approx(want, abs=1e-12)
            assert got == pytest.approx(0.153520738090, abs=1e-9)

    def test_scales_with_hbar(self, sigma_x, qubit_mixed):
        # the same states at three times the time: e^{-iHt/hbar} with hbar = 3
        assert geodesic(sigma_x, qubit_mixed, 2.1, 11, hbar=3.0)[-1] == pytest.approx(
            3.0 * geodesic(sigma_x, qubit_mixed, 0.7, 11)[-1]
        )

    def test_rejects_zero_spread(self, qubit_mixed):
        with pytest.raises(ZeroEnergyVariance):
            geodesic(Observable(np.eye(2)), qubit_mixed, 1.0, 5)


class TestIntegrateCorrection:
    """bounds._cumulative_trapezoid, the one quadrature behind every series
    and report, checked at every row. Even rows lie on the half-resolution
    grid; an odd row's error estimate also carries the gap of interpolating
    the half-grid integral linearly onto it."""

    def test_constant_is_exact(self):
        t = np.linspace(0.0, 2.0, 21)
        value, est = _cumulative_trapezoid(t, np.full(21, 1.5))
        np.testing.assert_allclose(value, 1.5 * t, rtol=0, atol=1e-14)
        np.testing.assert_allclose(est, 0.0, rtol=0, atol=1e-14)

    def test_linear_is_exact(self):
        t = np.linspace(0.0, 1.0, 17)
        value, est = _cumulative_trapezoid(t, 3.0 * t)
        np.testing.assert_allclose(value, 1.5 * t * t, rtol=0, atol=1e-14)
        np.testing.assert_allclose(est[::2], 0.0, rtol=0, atol=1e-14)
        # 1.5 t^2 interpolated from its two neighbours is off by 1.5 h^2
        h = t[1]
        np.testing.assert_allclose(est[1::2], 0.5 * h * h, rtol=1e-12)

    def test_second_order_convergence(self):
        errors = {}
        for n in (51, 101):
            t = np.linspace(0.0, 1.0, n)
            value, est = _cumulative_trapezoid(t, t * t)
            errors[n] = err = np.abs(value - t**3 / 3.0)
            # the trapezoid error of t^2 is t h^2 / 6 at every row
            np.testing.assert_allclose(err, t * t[1] ** 2 / 6.0, rtol=1e-9)
            # the Richardson estimate is exact on the half grid and three
            # times the error between its points
            np.testing.assert_allclose(est[::2], err[::2], rtol=1e-9)
            np.testing.assert_allclose(est[1::2], 3.0 * err[1::2], rtol=1e-9)
        np.testing.assert_allclose(errors[51][1:] / errors[101][2::2], 4.0, rtol=1e-9)

    def test_even_point_count(self):
        # the half grid appends the final point when n is even, so the last
        # row shares its estimate with the row before it
        t = np.linspace(0.0, 1.0, 10)
        value, est = _cumulative_trapezoid(t, np.exp(t))
        err = np.abs(value - (np.exp(t) - 1.0))
        np.testing.assert_allclose(value, np.exp(t) - 1.0, rtol=0, atol=1e-2)
        np.testing.assert_allclose(est[2:-1:2], err[2:-1:2], rtol=1e-2)
        assert est[-1] == pytest.approx(est[-2], rel=1e-12)


class TestCorrectionSamples:
    def test_qubit_precession_has_no_correction(self, sigma_x, ket0):
        # the two per-vector products stay phase aligned for a qubit, so K
        # vanishes identically and the tighter bound reduces to the plain one
        traj = sample_trajectory(sigma_x, ket0, 1.5, 101)
        for basis in (OrthonormalBasis.identity(2), random_basis(2, 3)):
            f = integrand(_Correction(traj), basis)
            np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_matches_per_point_recomputation(self):
        # dual route: the vectorized series against correction_k with
        # A = initial projector evaluated state by state
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=40)
        basis = random_basis(3, 5)
        f = integrand(_Correction(traj), basis)
        states = grid_states(traj)
        proj = Observable(states[0].projector())
        scale = 2.0 / traj.delta_h
        for k in range(len(traj.times)):
            den = math.sin(traj.s0[k])
            want = 0.0
            if den >= SIN_EPS:
                want = scale * correction_k(proj, h, states[k], basis) / den
            assert f[k] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_batched_mixed_series_matches_per_state_oracle(self, dim):
        # the stacked kernel on the trajectory against correction_k on each state
        rng = np.random.default_rng(40 + dim)
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        traj = sample_trajectory(h, random_density(rng, dim), 1.3, 150)
        basis = random_basis(dim, 17)
        states = grid_states(traj)
        (got,) = _Correction(traj).k_series(basis.matrix[None])
        a = Observable(states[0].matrix)
        want = [correction_k(a, h, rho, basis) for rho in states]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_times_column_is_the_grid(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 11)
        f = integrand(_Correction(traj), OrthonormalBasis.identity(2))
        assert f.shape == traj.times.shape

    def test_singular_interior_point_raises(self):
        # doctored trajectory whose angle returns to 0 while K stays finite:
        # the sin(s0) denominator vanishes where K does not, which the
        # derivation cannot absorb
        with pytest.raises(SingularIntegrand, match="vanishing denominator"):
            integrand(_Correction(singular_trajectory()), random_basis(3, 7))

    def test_near_pure_radical_underflow_raises(self):
        # a state this close to pure makes 1 - P cos^2(s0/2) underflow at the
        # doctored revival point while K is still well above round-off
        with pytest.raises(DenominatorUnderflow, match="radical"):
            integrand(_Correction(underflow_trajectory()), random_basis(3, 7))

    @pytest.mark.parametrize(
        "make, error",
        [(singular_trajectory, SingularIntegrand), (underflow_trajectory, DenominatorUnderflow)],
    )
    def test_prepared_correction_checks_every_basis(self, make, error):
        # the optimizer prepares once per trajectory and then scores many
        # bases: each basis must still be checked on its own K series
        prepared = _Correction(make())
        for seed in (7, 8, 9):
            with pytest.raises(error):
                integrand(prepared, random_basis(3, seed))

    def test_rejects_basis_dimension_mismatch(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 5)
        with pytest.raises(DimensionMismatch):
            integrand(_Correction(traj), OrthonormalBasis.identity(3))

    def test_rejects_zero_spread(self, ket0):
        traj = sample_trajectory(Observable(np.eye(2)), ket0, 1.0, 5)
        with pytest.raises(ZeroEnergyVariance):
            integrand(_Correction(traj), OrthonormalBasis.identity(2))

    def test_mixed_first_state_is_read_from_the_stack(self, monkeypatch):
        # the root is checked with the trajectory, so no DensityMatrix is
        # rebuilt; the matrix and purity are the ones that state would give
        traj = wishart_trajectory()
        want = grid_states(traj)[0]

        def rebuilt(self):
            raise AssertionError("the first state was rebuilt")

        monkeypatch.setattr(DensityMatrix, "__post_init__", rebuilt)
        c = _Correction(traj)
        assert c.rho0.tobytes() == want.matrix.tobytes()
        assert repr(c.purity) == repr(purity(want))


def check_row(tau_actual, tau_mt, correction_integral, tau_tqsl, delta, validity=True) -> None:
    """_check_rows on one report row, as 1-row columns."""
    values = (tau_actual, tau_mt, correction_integral, tau_tqsl, delta)
    _check_rows(*(np.array([v], dtype=float) for v in values), np.array([validity]))


class TestBoundReport:
    """The report invariants on one row, through _check_rows."""

    def test_accepts_consistent_report(self):
        check_row(tau_actual=1.0, tau_mt=0.6, correction_integral=0.2, tau_tqsl=0.8, delta=0.2)

    def test_rejects_non_finite(self):
        with pytest.raises(BoundViolation, match="non-finite"):
            check_row(
                tau_actual=1.0, tau_mt=math.nan, correction_integral=0.0, tau_tqsl=0.0, delta=0.0,
                validity=False,
            )

    def test_rejects_negative_correction(self):
        with pytest.raises(BoundViolation, match="correction"):
            check_row(
                tau_actual=1.0, tau_mt=0.5, correction_integral=-0.1, tau_tqsl=0.4, delta=-0.1,
                validity=False,
            )

    def test_rejects_broken_bookkeeping(self):
        with pytest.raises(BoundViolation, match="geodesic term"):
            check_row(
                tau_actual=1.0, tau_mt=0.5, correction_integral=0.1, tau_tqsl=0.7, delta=0.2,
                validity=False,
            )

    def test_rejects_bound_above_actual_time_when_valid(self):
        kwargs = dict(tau_actual=0.5, tau_mt=0.6, correction_integral=0.2, tau_tqsl=0.8, delta=0.2)
        with pytest.raises(BoundViolation, match="actual time"):
            check_row(validity=True, **kwargs)
        # the same numbers are reportable on a flagged row
        check_row(validity=False, **kwargs)

    def test_csv_row_format(self):
        cols = dict(t=[1.0], tau_mt=[0.6], correction=[0.2], tau_tqsl=[0.8], delta=[0.2], quad_error=[1e-7])
        series = _trusted(
            BoundSeries, **{k: np.array(v) for k, v in cols.items()}, validity=np.array([True]),
            basis_id="user", step=0.01,
        )
        assert series[0].csv_row() == "1,0.6,0.8,0.2,1e-07,true"
        assert series.csv_rows() == ["1,0.6,0.8,0.2,1e-07,true"]

    @staticmethod
    def f_string_row(t, tau_mt, tau_tqsl, delta, quad_error, validity):
        """The row as it was formatted before one printf-style format string."""
        flag = "true" if validity else "false"
        return f"{t:.12g},{tau_mt:.12g},{tau_tqsl:.12g},{delta:.12g},{quad_error:.12g},{flag}"

    def test_csv_row_matches_f_string_format(self):
        # a report row and csv_rows() format alike
        values = [0.0, -0.0, 5e-324, 1 / 3, 123456789012345.0, math.inf, -math.inf, math.nan, -1e-17]
        for i, v in enumerate(values):
            row = (v, values[i - 1], values[i - 2], -v, values[i - 3], i % 2 == 0)
            cols = dict(zip(("t", "tau_mt", "tau_tqsl", "delta", "quad_error", "validity"), row))
            series = _trusted(BoundSeries, **{k: np.array([c]) for k, c in cols.items()},
                              correction=np.zeros(1), basis_id="user", step=0.01)
            assert series[0].csv_row() == series.csv_rows()[0] == self.f_string_row(*row)


class TestTqslPure:
    """tqsl_bound on pure initial states."""

    def test_precession_saturates_geodesic(self, sigma_x, ket0):
        for tau in (0.2, 0.5, 1.0):
            rep = tqsl_bound(sigma_x, ket0, tau, OrthonormalBasis.identity(2), steps=100)
            assert rep.tau_mt == pytest.approx(tau, abs=1e-8)
            assert rep.tau_tqsl >= rep.tau_mt
            assert rep.delta < 1e-12
            assert rep.validity

    def test_hbar_threads_through(self, sigma_x, ket0):
        rep = tqsl_bound(sigma_x, ket0, 0.4, OrthonormalBasis.identity(2), steps=50, hbar=2.0)
        assert rep.tau_mt == pytest.approx(0.4, abs=1e-10)

    def test_bookkeeping(self):
        h = sample_gue(GueConfig(dim=3, seed=0))
        rep = tqsl_bound(h, default_initial_state(3), 1.0, random_basis(3, 5), steps=80)
        assert rep.tau_actual == 1.0
        assert rep.tau_tqsl == pytest.approx(rep.tau_mt + rep.correction_integral, abs=1e-14)
        assert rep.delta == pytest.approx(rep.correction_integral, abs=1e-14)
        assert rep.delta > 0
        assert rep.tau_tqsl <= rep.tau_actual + 1e-6
        assert rep.basis_id == "user"

    @pytest.mark.parametrize(
        "tau, steps, hbar, match",
        [
            (1.0, 2.5, 1.0, "steps must be an integer"),
            (1.0, True, 1.0, "steps must be an integer"),
            (math.nan, 10, 1.0, "t_max must be positive and finite"),
            (1.0, 10, math.nan, "hbar must be positive and finite"),
            (1.0, 10, math.inf, "hbar must be positive and finite"),
        ],
    )
    def test_rejects_bad_grid_arguments(self, sigma_x, ket0, tau, steps, hbar, match):
        with pytest.raises(ValueError, match=match):
            tqsl_bound(sigma_x, ket0, tau, OrthonormalBasis.identity(2), steps, hbar)

    def test_rejects_run_past_validity(self, sigma_x, ket0):
        with pytest.raises(ValidityExceeded, match="turns around"):
            tqsl_bound(sigma_x, ket0, 2.0, OrthonormalBasis.identity(2), steps=100)


class TestTqslMixed:
    """tqsl_bound on mixed initial states."""

    def test_pure_lift_agrees_field_by_field(self):
        h = sample_gue(GueConfig(dim=3, seed=2))
        psi = default_initial_state(3)
        basis = random_basis(3, 5)
        pure = tqsl_bound(h, psi, 1.2, basis, steps=120)
        lifted = tqsl_bound(h, psi.to_density(), 1.2, basis, steps=120)
        assert lifted.tau_mt == pytest.approx(pure.tau_mt, abs=1e-6)
        assert lifted.correction_integral == pytest.approx(pure.correction_integral, abs=1e-6)
        assert lifted.tau_tqsl == pytest.approx(pure.tau_tqsl, abs=1e-6)
        assert lifted.validity == pure.validity

    def test_genuinely_mixed_qubit(self, sigma_x, qubit_mixed):
        rep = tqsl_bound(sigma_x, qubit_mixed, 0.7, OrthonormalBasis.identity(2), steps=200)
        assert rep.tau_mt == pytest.approx(0.153520738090, abs=1e-6)
        assert rep.delta >= 0.0
        assert rep.tau_tqsl <= 0.7 + 1e-6
        assert rep.validity

    def test_rejects_run_past_validity(self, sigma_x, qubit_mixed):
        with pytest.raises(ValidityExceeded):
            tqsl_bound(sigma_x, qubit_mixed, 2.0, OrthonormalBasis.identity(2), steps=100)


def endpoint_draw(k):
    """Draw k: a GUE Hamiltonian of dim 3-5, a pure initial state for even
    k and a Wishart one for odd k, a random basis, a grid size and hbar."""
    dim = 3 + k % 3
    h = sample_gue(GueConfig(dim=dim, seed=100 + k))
    if k % 2:
        state = random_density(np.random.default_rng([k, 9]), dim)
    else:
        state = default_initial_state(dim)
    return h, state, random_basis(dim, 500 + k), 60 + k, 2.0 if k % 4 == 3 else 1.0


class TestReportIsLastSeriesRow:
    """Every endpoint report is the last row of the matching bound_series,
    field for field and bit for bit."""

    @pytest.mark.parametrize("k", range(20))
    def test_tqsl_bound(self, k):
        h, state, basis, steps, hbar = endpoint_draw(k)
        rep = tqsl_bound(h, state, 0.7, basis, steps, hbar, basis_id="draw")
        traj = sample_trajectory(h, state, 0.7, steps, hbar)
        assert rep == bound_series(traj, basis, "draw")[-1]

    @pytest.mark.parametrize("k", range(20))
    def test_optimize_basis(self, k):
        h, state, _, steps, hbar = endpoint_draw(k)
        traj = sample_trajectory(h, state, 0.7, steps, hbar)
        basis, rep = optimize_basis(traj, OptimizerConfig(restarts=2, iterations=30, seed=k))
        assert rep == bound_series(traj, basis, rep.basis_id)[-1]


class TestBoundSeries:
    def test_a_stack_checks_every_member(self, monkeypatch):
        # member 2 of 4 series on one grid gains 10 on its correction, past
        # the actual time: the one report check on the stacked columns finds it
        trajs = [gue_trajectory(seed=s, tau=1.0, steps=40)[1] for s in range(4)]
        bases = np.stack([random_basis(3, 5 + s).matrix for s in range(4)])
        _series(_Correction(*trajs), bases, ["a", "b", "c", "d"])
        real = tqsl.bounds._cumulative_trapezoid

        def inflated(t, f):
            cum, err = real(t, f)
            cum[2] += 10.0
            return cum, err

        monkeypatch.setattr(tqsl.bounds, "_cumulative_trapezoid", inflated)
        with pytest.raises(BoundViolation, match="exceeds actual time"):
            _series(_Correction(*trajs), bases, ["a", "b", "c", "d"])

    def test_first_row_is_all_zero(self):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=40)
        series = bound_series(traj, random_basis(3, 5))
        first = series[0]
        assert first.tau_actual == 0.0
        assert first.tau_mt == 0.0
        assert first.correction_integral == 0.0
        assert first.delta == 0.0
        assert first.validity

    def test_correction_is_nondecreasing(self):
        h, traj = gue_trajectory(seed=3, tau=1.0, steps=60)
        series = bound_series(traj, random_basis(3, 5))
        corr = [r.correction_integral for r in series]
        assert all(b >= a - 1e-15 for a, b in zip(corr, corr[1:]))

    def test_endpoint_matches_single_report(self):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=60)
        basis = random_basis(3, 5)
        series = bound_series(traj, basis, basis_id="shared")
        rep = tqsl_bound(h, default_initial_state(3), 1.0, basis, steps=60, basis_id="shared")
        assert rep == series[-1]

    def test_rows_past_validity_are_flagged(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 2.0, 101)
        series = bound_series(traj, OrthonormalBasis.identity(2))
        assert len(series) == 101
        flags = [r.validity for r in series]
        assert flags[: traj.valid_until + 1] == [True] * (traj.valid_until + 1)
        assert not any(flags[traj.valid_until + 1 :])

    def test_basis_id_threads_through(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 11)
        series = bound_series(traj, OrthonormalBasis.identity(2), basis_id="identity")
        assert {r.basis_id for r in series} == {"identity"}

    def test_csv_rows_match_report_rows(self):
        h, traj = gue_trajectory(seed=4, tau=3.0, steps=120)
        series = bound_series(traj, random_basis(3, 5), basis_id="b")
        assert not traj.validity_clean
        assert series.csv_rows() == [r.csv_row() for r in series]
        assert len(series.csv_rows()) == len(series) == 120

    @pytest.mark.parametrize("mixed", [False, True])
    def test_iteration_matches_indexing(self, mixed):
        if mixed:
            traj = wishart_trajectory(dim=3, steps=70)
        else:
            h, traj = gue_trajectory(seed=4, tau=3.0, steps=130)
            assert not traj.validity_clean
        series = bound_series(traj, random_basis(3, 5), basis_id="b")
        rows = list(series)
        indexed = [series[k] for k in range(len(series))]
        assert rows == indexed

        def types(r):
            return [type(getattr(r, f.name)) for f in dataclasses.fields(r)]

        want = [float] * 5 + [str, bool, float, float]
        assert all(types(a) == types(b) == want for a, b in zip(rows, indexed))
        assert rows[-1] == series[-1]
        assert list(reversed(series)) == rows[::-1]
        for k in range(len(series)):
            assert series[k].quad_error == series.quad_error[k]
            assert series[k].step == series.step

    @pytest.mark.parametrize("k", [slice(1, 3), slice(None), slice(-5, None), slice(None, None, -7),
                                   slice(2, 2), slice(100, 200)])
    def test_slices_are_lists_of_rows(self, k):
        series = bound_series(wishart_trajectory(dim=3, steps=70), random_basis(3, 5), basis_id="b")
        got = series[k]
        assert type(got) is list
        assert got == list(series)[k]

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), "2", None, True, (1, 2)])
    def test_non_integer_index_raises_type_error(self, k):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=20)
        series = bound_series(traj, random_basis(3, 5))
        with pytest.raises(TypeError, match="index must be an integer"):
            series[k]

    def test_integer_like_indices(self):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=20)
        series = bound_series(traj, random_basis(3, 5))
        assert series[np.int64(3)] == series[3] == list(series)[3]
        assert series[-20] == series[0]
        for k in (20, -21):
            with pytest.raises(IndexError):
                series[k]

    def test_columns_are_read_only(self):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=20)
        series = bound_series(traj, random_basis(3, 5))
        with pytest.raises(ValueError):
            series.tau_tqsl[0] = 1.0
        assert series[-1].tau_tqsl == series.tau_tqsl[-1]

    @pytest.mark.parametrize(
        "column, row, value, match",
        [
            ("tau_mt", 3, math.nan, "non-finite"),
            ("correction", 3, -0.1, "correction"),
            ("delta", 3, -0.1, "delta"),
            ("tau_tqsl", 3, 5.0, "geodesic term"),
        ],
    )
    def test_rejects_broken_columns(self, column, row, value, match):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=20)
        series = bound_series(traj, random_basis(3, 5))
        cols = {name: np.array(getattr(series, name)) for name in (
            "t", "tau_mt", "correction", "tau_tqsl", "delta", "quad_error", "validity"
        )}
        intact = {name: cols[name].copy() for name in cols}
        cols[column][row] = value
        names = ("tau_mt", "correction", "tau_tqsl", "delta")
        with pytest.raises(BoundViolation, match=match):
            _check_rows(cols["t"], *(cols[name] for name in names), cols["validity"])
        # the same column as member 1 of a (2, n) stack sharing one t
        with pytest.raises(BoundViolation, match=match):
            _check_rows(cols["t"], *(np.stack([intact[name], cols[name]]) for name in names),
                        np.stack([intact["validity"], cols["validity"]]))

    def test_rejects_bound_above_actual_time_when_valid(self):
        cols = dict(
            t=np.array([0.0, 0.5]),
            tau_mt=np.array([0.0, 0.6]),
            correction=np.array([0.0, 0.2]),
            tau_tqsl=np.array([0.0, 0.8]),
            delta=np.array([0.0, 0.2]),
        )
        with pytest.raises(BoundViolation, match="actual time"):
            _check_rows(*cols.values(), np.array([True, True]))
        # the same numbers are reportable on a flagged row
        _check_rows(*cols.values(), np.array([True, False]))


REPORT_BREAKS = {
    "non-finite": dict(tau_mt=math.nan),
    "negative correction": dict(tau_mt=0.5, correction_integral=-0.1, tau_tqsl=0.4, delta=-0.1),
    "negative delta": dict(tau_mt=0.7, correction_integral=0.1, tau_tqsl=0.8, delta=-0.1),
    "bookkeeping": dict(tau_tqsl=0.9),
    # over the actual time by 1.5 slack units (BOUND_SLACK = 1e-6)
    "above actual time": dict(tau_actual=0.8 - 1.5e-6),
}


def report_row(**changes):
    fields = dict(tau_actual=1.0, tau_mt=0.6, correction_integral=0.2, tau_tqsl=0.8, delta=0.2)
    fields.update(changes)
    return fields


def checked_row(series, k):
    """Row k of a series from its column values: checked as a one-row
    report (check_row), then built through _trusted."""
    fields = dict(
        tau_actual=float(series.t[k]),
        tau_mt=float(series.tau_mt[k]),
        correction_integral=float(series.correction[k]),
        tau_tqsl=float(series.tau_tqsl[k]),
        delta=float(series.delta[k]),
        validity=bool(series.validity[k]),
    )
    check_row(**fields)
    return _trusted(BoundReport, **fields, basis_id=series.basis_id,
                    step=series.step, quad_error=float(series.quad_error[k]))


# a report row that holds with any actual time of at least 0.4
SOUND_ROW = dict(tau_mt=0.3, correction_integral=0.1, tau_tqsl=0.4, delta=0.1)


def stacked_rows(t, *rows):
    """_check_rows on a (k, 1) stack, one member per report row, sharing
    the actual time t."""
    names = ("tau_mt", "correction_integral", "tau_tqsl", "delta")
    _check_rows(np.array([t]), *(np.array([[row[name]] for row in rows]) for name in names),
                np.ones((len(rows), 1), dtype=bool))


class TestOneReportCheck:
    """A report row and a stack of series columns share one check of the
    report invariants, _check_rows."""

    @pytest.mark.parametrize("case", sorted(REPORT_BREAKS))
    def test_report_and_one_row_series_raise_alike(self, case):
        fields = report_row(**REPORT_BREAKS[case])
        with pytest.raises(BoundViolation) as from_report:
            check_row(**fields)
        # the same row as member 1 of three on one grid row
        t = fields.pop("tau_actual")
        with pytest.raises(BoundViolation) as from_series:
            stacked_rows(t, SOUND_ROW, fields, SOUND_ROW)
        assert type(from_series.value) is type(from_report.value)
        assert str(from_series.value) == str(from_report.value)

    def test_bound_within_slack_is_accepted(self):
        fields = report_row(tau_actual=0.8 - 0.5e-6)
        check_row(**fields)
        t = fields.pop("tau_actual")
        stacked_rows(t, SOUND_ROW, fields, SOUND_ROW)

    @pytest.mark.parametrize(
        "make", [lambda: gue_trajectory(seed=4, tau=3.0, steps=120)[1], wishart_trajectory]
    )
    def test_rows_equal_checked_reports(self, make):
        traj = make()
        series = bound_series(traj, random_basis(traj.hamiltonian.dim, 5), basis_id="b")
        for k in range(len(series)):
            row = series[k]
            assert type(row) is BoundReport and type(row.step) is type(row.quad_error) is float
            assert row == checked_row(series, k)
        assert series[-1] == checked_row(series, len(series) - 1)

    def test_rows_are_not_checked_again(self, monkeypatch):
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=20)
        series = bound_series(traj, random_basis(3, 5))

        def refuse(*columns):
            raise AssertionError("a series row was checked again")

        monkeypatch.setattr(tqsl.bounds, "_check_rows", refuse)
        assert [r.tau_tqsl for r in series] == series.tau_tqsl.tolist()
        assert series[-1].tau_tqsl == series.tau_tqsl[-1]
        assert len(series.csv_rows()) == len(series)


class TestOptimizeBasis:
    def test_zero_iterations_returns_identity(self):
        h = sample_gue(GueConfig(dim=3, seed=0))
        psi = default_initial_state(3)
        cfg = OptimizerConfig(restarts=1, iterations=0)
        basis, rep = optimize_basis(sample_trajectory(h, psi, 1.0, 60), cfg)
        np.testing.assert_allclose(basis.matrix, np.eye(3), atol=1e-12)
        assert rep.basis_id == "optimize[identity, 0 moves]"
        plain = tqsl_bound(h, psi, 1.0, OrthonormalBasis.identity(3), steps=60)
        assert rep.correction_integral == pytest.approx(plain.correction_integral, abs=1e-14)

    def test_dominates_probed_bases(self):
        h = sample_gue(GueConfig(dim=3, seed=0))
        psi = default_initial_state(3)
        cfg = OptimizerConfig(restarts=2, iterations=25, seed=3)
        basis, rep = optimize_basis(sample_trajectory(h, psi, 1.0, 60), cfg)
        probes = [
            tqsl_bound(h, psi, 1.0, OrthonormalBasis.identity(3), steps=60),
            tqsl_bound(h, psi, 1.0, random_basis(3, 4), steps=60),
        ]
        assert rep.correction_integral >= max(p.correction_integral for p in probes) - 1e-12
        assert rep.basis_id.startswith("optimize[")

    def test_deterministic(self):
        h = sample_gue(GueConfig(dim=3, seed=1))
        psi = default_initial_state(3)
        cfg = OptimizerConfig(restarts=2, iterations=15, seed=11)
        b1, r1 = optimize_basis(sample_trajectory(h, psi, 0.9, 50), cfg)
        b2, r2 = optimize_basis(sample_trajectory(h, psi, 0.9, 50), cfg)
        np.testing.assert_array_equal(b1.matrix, b2.matrix)
        assert r1.tau_tqsl == r2.tau_tqsl
        assert r1.basis_id == r2.basis_id

    def test_objective_is_permutation_invariant(self):
        # reordering basis vectors permutes the sum over projectors only
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=40)
        basis = random_basis(3, 5)
        shuffled = OrthonormalBasis(basis.matrix[:, [2, 0, 1]])
        a = integrand(_Correction(traj), basis)
        b = integrand(_Correction(traj), shuffled)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_pinned_mixed_state_result(self):
        # captured before the correction kernel was prepared once per
        # trajectory and the directions were decomposed in one batch: the
        # hill climb compares floats, so any change in the values moves it.
        # tau_tqsl was recaptured (...685 -> ...674, basis_id unchanged) when
        # the report became the last row of the cumulative quadrature.
        h = sample_gue(GueConfig(dim=4, seed=2))
        rho = random_density(np.random.default_rng([2, 4]), 4)
        cfg = OptimizerConfig(restarts=3, iterations=40, seed=2)
        traj = sample_trajectory(h, rho, 0.8, 80)
        basis, rep = optimize_basis(traj, cfg)
        assert rep.basis_id == "optimize[gue-eigenbasis:seed=4, 7 moves]"
        assert repr(rep.tau_tqsl) == "0.32020880606861674"
        assert rep == bound_series(traj, basis, rep.basis_id)[-1]

    def test_directions_follow_the_one_at_a_time_stream(self):
        # drawing all directions up front must consume the generator in the
        # order the per-candidate loop did: real part, then imaginary part
        got = _random_directions(np.random.default_rng([0, 1]), 5, 3)
        rng = np.random.default_rng([0, 1])
        for g in got:
            want = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            want = want + want.conj().T
            want /= np.linalg.norm(want)
            np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_direction_norms_are_the_loop_norms_bit_for_bit(self, dim):
        # one stacked product per norm, against np.linalg.norm one matrix at
        # a time, on the streams OptimizerConfig() draws for seeds 0-9
        cfg = OptimizerConfig()
        for seed, r in itertools.product(range(10), range(cfg.restarts)):
            got = _random_directions(np.random.default_rng([seed, r]), cfg.iterations, dim)
            z = np.random.default_rng([seed, r]).normal(size=(cfg.iterations, 2, dim, dim))
            want = z[:, 0] + 1j * z[:, 1]
            want += np.swapaxes(want.conj(), 1, 2)
            for m in want:
                m /= np.linalg.norm(m)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_propagates_validity_error(self, sigma_x, ket0):
        with pytest.raises(ValidityExceeded):
            optimize_basis(sample_trajectory(sigma_x, ket0, 2.0, 60))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 2.5),
            ("iterations", 3.5),
            ("restarts", True),
            ("seed", -1),
        ],
    )
    def test_config_rejects(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[-1]):
            OptimizerConfig(**{field: value})

    def test_config_takes_integer_like_counts(self):
        cfg = OptimizerConfig(restarts=np.int64(2), seed=np.uint8(3))
        assert (cfg.restarts, cfg.seed) == (2, 3)
        assert type(cfg.restarts) is int and type(cfg.seed) is int

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ConfigError):
            OptimizerConfig(iterations=-1)


def assert_same_result(traj, cfg):
    basis, rep = optimize_basis(traj, cfg)
    want_basis, want_id, want_tau = oracle.optimize_sequential(traj, cfg)
    assert basis.matrix.tobytes() == want_basis.matrix.tobytes()
    assert rep.basis_id == want_id
    assert repr(rep.tau_tqsl) == repr(want_tau)


class TestLockstepRestarts:
    """optimize_basis runs its restarts in lockstep; the sequential hill
    climber in tests/sequential_optimizer.py is the oracle."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_oracle(self, dim, seed):
        h = sample_gue(GueConfig(dim=dim, seed=seed))
        traj = sample_trajectory(h, default_initial_state(dim), 0.8, 100)
        assert_same_result(traj, OptimizerConfig(seed=seed))

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_sequential_oracle_at_the_benchmark_shape(self, seed):
        # what the gue-optimize benchmark runs on each seed of its pool
        h = sample_gue(GueConfig(dim=3, seed=seed))
        traj = sample_trajectory(h, default_initial_state(3), 1.0, 300)
        assert traj.validity_clean
        assert_same_result(traj, OptimizerConfig(seed=seed))

    def test_matches_sequential_oracle_mixed(self):
        assert_same_result(wishart_trajectory(), OptimizerConfig(restarts=3, iterations=60, seed=2))

    @pytest.mark.parametrize("make", [lambda: gue_trajectory(seed=1, steps=80)[1], wishart_trajectory])
    def test_stacked_integrand_equals_single_calls(self, make):
        traj = make()
        dim = traj.hamiltonian.dim
        correction = _Correction(traj)
        bases = [OrthonormalBasis.identity(dim)] + [random_basis(dim, s) for s in (5, 6, 7)]
        values, failures = correction.integrands(np.stack([b.matrix for b in bases]))
        assert failures == [None] * 4
        for row, basis in zip(values, bases):
            assert row.tobytes() == integrand(correction, basis).tobytes()
            assert row.tobytes() == oracle.integrand(correction, basis).tobytes()

    def test_stacked_integrand_reports_failures_per_member(self):
        correction = _Correction(singular_trajectory())
        bases = np.stack([random_basis(3, s).matrix for s in (7, 8)])
        _, failures = correction.integrands(bases)
        assert [type(f) for f in failures] == [SingularIntegrand, SingularIntegrand]
        with pytest.raises(SingularIntegrand, match=re.escape(str(failures[0]))):
            integrand(correction, random_basis(3, 7))

    def test_basis_check_blames_only_the_bad_member(self):
        good = [random_basis(3, s).matrix for s in (1, 2, 3)]
        stack = np.stack([good[0], 1.1 * good[1], good[2]])
        failures = basis_failures(stack)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], InvalidBasis)
        assert "orthonormality defect" in str(failures[1])
        stack[2, 0, 0] = np.nan
        failures = basis_failures(stack)
        assert failures[0] is None
        assert isinstance(failures[1], InvalidBasis)
        assert type(failures[2]) is ValueError and "finite" in str(failures[2])

    def test_basis_check_matches_the_constructor(self):
        m = random_basis(3, 1).matrix.copy()
        m[:, 2] = m[:, 1]
        (failure,) = basis_failures(m[None])
        with pytest.raises(InvalidBasis, match=re.escape(str(failure))):
            OrthonormalBasis(m)

    def test_lowest_numbered_restart_error_is_raised(self, monkeypatch):
        # restart 2 fails in the first round, restart 1 two rounds later;
        # one restart after another, restart 1's error comes first
        calls = []
        real = basis_failures

        def failing(stack):
            failures = real(stack)
            calls.append(len(stack))
            if len(calls) == 1:
                failures[2] = InvalidBasis("restart 2")
            if len(calls) == 3:
                failures[1] = InvalidBasis("restart 1")
            return failures

        monkeypatch.setattr(tqsl.bounds, "basis_failures", failing)
        h, traj = gue_trajectory(seed=0, steps=60)
        with pytest.raises(InvalidBasis, match="restart 1"):
            optimize_basis(traj, OptimizerConfig(restarts=3, iterations=10))
        assert calls[:3] == [3, 2, 2]

    def test_singular_start_is_skipped(self, monkeypatch):
        # the winning restart's start is rejected as singular: it is dropped
        # and no candidate of it is scored
        sizes = []
        real = _Correction.scores

        def scores(self, bases):
            values, failures = real(self, bases)
            if not sizes:
                failures[1] = SingularIntegrand("start")
            sizes.append(len(bases))
            return values, failures

        h, traj = gue_trajectory(seed=0, steps=60)
        cfg = OptimizerConfig(restarts=3, iterations=10)
        _, full = optimize_basis(traj, cfg)
        assert full.basis_id.startswith("optimize[gue-eigenbasis:seed=1,")
        monkeypatch.setattr(_Correction, "scores", scores)
        _, rep = optimize_basis(traj, cfg)
        assert sizes[0] == 3 and max(sizes[1:-1]) == 2
        assert "seed=1," not in rep.basis_id
        assert rep.tau_tqsl < full.tau_tqsl

    def test_ties_keep_the_earlier_basis(self, monkeypatch):
        # a candidate that only ties is rejected, and of tied restarts the
        # lowest-numbered one wins, as a strict > one at a time gives
        def flat(self, bases):
            return np.zeros(len(bases)), [None] * len(bases)

        monkeypatch.setattr(_Correction, "scores", flat)
        h, traj = gue_trajectory(seed=0, steps=60)
        basis, rep = optimize_basis(traj, OptimizerConfig(restarts=3, iterations=20))
        assert rep.basis_id == "optimize[identity, 0 moves]"
        assert basis.matrix.tobytes() == np.eye(3, dtype=complex).tobytes()

    def test_every_singular_start_raises(self):
        with pytest.raises(SingularIntegrand, match="every optimizer restart"):
            optimize_basis(singular_trajectory(), OptimizerConfig(restarts=2, iterations=5))


def _stack(dim, seeds, scaled=None):
    """The identity, then random_basis(dim, s) for each seed; the member
    at index `scaled` is halved, which no longer makes a basis."""
    bases = np.stack([np.eye(dim, dtype=complex)] + [random_basis(dim, s).matrix for s in seeds])
    if scaled is not None:
        bases[scaled] *= 0.5
    return bases


SCORE_CASES = {
    "pure-d2": (lambda: gue_trajectory(seed=1, steps=80, dim=2)[1:], lambda: _stack(2, (5, 6, 7))),
    "pure-d3": (lambda: gue_trajectory(seed=1, steps=80, dim=3)[1:], lambda: _stack(3, (5, 6, 7))),
    "pure-d8": (lambda: gue_trajectory(seed=1, steps=80, dim=8)[1:], lambda: _stack(8, (5, 6, 7))),
    # one row per trajectory: member i is scored on trajectory i
    "pure-stack": (lambda: [gue_trajectory(seed=s, steps=80)[1] for s in (1, 2, 3)], lambda: _stack(3, (5, 6))),
    # the halved member's K dips below -NONNEG_CLAMP
    "wishart": (lambda: [wishart_trajectory()], lambda: _stack(4, (5, 6, 7), scaled=2)),
    "singular": (lambda: [singular_trajectory()], lambda: _stack(3, (7, 8))),
    "underflow": (lambda: [underflow_trajectory()], lambda: _stack(3, (7, 8))),
}


class TestScores:
    """The climber scores a basis as one weighted sum of its K series: the
    trapezoid of its integrand, up to rounding, with the same verdicts."""

    @pytest.mark.parametrize("case", SCORE_CASES)
    def test_scores_are_the_trapezoid_of_integrands(self, case):
        trajs, bases = (make() for make in SCORE_CASES[case])
        correction = _Correction(*trajs)
        values, failures = correction.scores(bases)
        f, want = correction.integrands(bases)
        assert [(type(x), str(x)) for x in failures] == [(type(x), str(x)) for x in want]
        kinds = {
            "wishart": [None, None, BoundViolation, None],
            "singular": [SingularIntegrand] * 3,
            "underflow": [DenominatorUnderflow] * 3,
        }.get(case, [None] * len(bases))
        assert [None if x is None else type(x) for x in failures] == kinds
        for value, row, failure in zip(values, f, failures):
            if failure is None:
                assert value == pytest.approx(np.trapezoid(row, trajs[0].times), rel=1e-12, abs=0)

    @pytest.mark.parametrize("make", [lambda: gue_trajectory(seed=1, steps=80)[1], wishart_trajectory])
    def test_the_winners_score_is_its_correction_integral(self, monkeypatch, make):
        scored = {}
        real = _Correction.scores

        def scores(self, bases):
            values, failures = real(self, bases)
            scored.update(zip(map(np.ndarray.tobytes, bases), values.tolist()))
            return values, failures

        monkeypatch.setattr(_Correction, "scores", scores)
        traj = make()
        basis, rep = optimize_basis(traj, OptimizerConfig(restarts=3, iterations=40, seed=2))
        assert rep.basis_id != "optimize[identity, 0 moves]"
        best = scored[basis.matrix.tobytes()]
        assert best == pytest.approx(rep.correction_integral, rel=1e-12, abs=0)


def _alone(traj, cfg):
    """optimize_basis on one trajectory: (basis, report) or its error."""
    try:
        return optimize_basis(traj, cfg)
    except QslError as err:
        return err


def _climbed(trajectories, cfg, seeds):
    """What an optimize sweep does: each trajectory prepared on its own, its
    errors kept; then one _climb over the prepared ones."""
    outcomes, prepared = [], []
    for traj in trajectories:
        try:
            _require_clean(traj)
            prepared.append((len(outcomes), _Correction(traj)))
            outcomes.append(None)
        except QslError as err:
            outcomes.append(err)
    picked = [seeds[k] for k, _ in prepared]
    climbed = _climb([c for _, c in prepared], cfg, picked) if prepared else []
    for (k, _), result in zip(prepared, climbed):
        outcomes[k] = result
    return outcomes


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (basis, series), (want_basis, report) = got, want
    assert basis.matrix.tobytes() == want_basis.matrix.tobytes()
    assert series.basis_id == report.basis_id
    assert series[-1] == report


def sweep_trajectory(kind, seed, dim, steps):
    """One member of a random sweep; every kind but "pure" and "mixed" may
    fail, before the climb or in it."""
    if kind == "singular":
        return singular_trajectory(dim, seed)
    if kind == "zero-spread":
        return sample_trajectory(Observable(np.eye(dim)), default_initial_state(dim), 0.8, steps)
    h = sample_gue(GueConfig(dim=dim, seed=seed))
    if kind.startswith("mixed"):
        state = random_density(np.random.default_rng([seed, dim]), dim)
    else:
        state = default_initial_state(dim)
    return sample_trajectory(h, state, 3.0 if kind.endswith("long") else 0.8, steps)


class TestClimbAcrossTrajectories:
    """An optimize sweep climbs every restart of every trajectory in one
    lockstep; each trajectory's outcome is the one optimize_basis gives on
    it alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 4]),
        steps=st.sampled_from([3, 40]),
        members=st.lists(
            st.tuples(
                st.sampled_from(["pure", "pure-long", "mixed", "mixed-long", "zero-spread", "singular"]),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_each_trajectory_as_if_alone(self, dim, steps, members):
        # a singular trajectory has 3 grid points; the other kinds take its
        # length, and the grids need not be equal
        members = [(k, s) for k, s in members if k != "singular" or steps == 3]
        assume(members)
        cfg = OptimizerConfig(restarts=3, iterations=20)
        trajectories = [sweep_trajectory(k, s, dim, steps) for k, s in members]
        seeds = [s for _, s in members]
        got = _climbed(trajectories, cfg, seeds)
        for traj, seed, outcome in zip(trajectories, seeds, got):
            assert_same_outcome(outcome, _alone(traj, dataclasses.replace(cfg, seed=seed)))

    def test_covers_every_outcome(self):
        # the property above meets each error, a repeated seed, mixed and
        # pure members, and members that finish
        kinds = ["pure", "pure-long", "mixed", "zero-spread", "singular", "pure", "pure"]
        seeds = [0, 3, 2, 3, 0, 2, 2]
        trajectories = [sweep_trajectory(k, s, 3, 3) for k, s in zip(kinds, seeds)]
        cfg = OptimizerConfig(restarts=2, iterations=10)
        got = _climbed(trajectories, cfg, seeds)
        assert [type(g).__name__ for g in got] == [
            "tuple", "ValidityExceeded", "tuple", "ZeroEnergyVariance", "SingularIntegrand",
            "tuple", "tuple",
        ]
        assert got[5][0].matrix.tobytes() == got[6][0].matrix.tobytes()
        for traj, seed, outcome in zip(trajectories, seeds, got):
            assert_same_outcome(outcome, _alone(traj, dataclasses.replace(cfg, seed=seed)))

    def test_an_error_stops_only_its_own_trajectory(self, monkeypatch):
        # round 1 rotates restarts 0-2 of trajectory 0, then those of
        # trajectory 1: failing member 3 fails trajectory 1's restart 0
        real = basis_failures
        rounds = []

        def failing(stack):
            failures = real(stack)
            rounds.append(len(stack))
            if len(rounds) == 1:
                failures[3] = InvalidBasis("member 3")
            return failures

        trajectories = [gue_trajectory(seed=s, steps=60)[1] for s in (0, 1, 2)]
        cfg = OptimizerConfig(restarts=3, iterations=10)
        want = [_alone(t, dataclasses.replace(cfg, seed=s)) for t, s in zip(trajectories, (4, 5, 6))]
        monkeypatch.setattr(tqsl.bounds, "basis_failures", failing)
        got = _climbed(trajectories, cfg, [4, 5, 6])
        assert rounds[:2] == [9, 8]
        assert (type(got[1]), str(got[1])) == (InvalidBasis, "member 3")
        assert_same_outcome(got[0], want[0])
        assert_same_outcome(got[2], want[2])
