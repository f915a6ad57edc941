"""Speed-limit bounds, correction quadrature, reports, basis optimization."""
import math

import numpy as np
import pytest

from tqsl import (
    BoundReport,
    BoundSeries,
    BoundViolation,
    ConfigError,
    DenominatorUnderflow,
    DensityMatrix,
    DimensionMismatch,
    GueConfig,
    NonFiniteSample,
    NonPositiveMeanEnergy,
    Observable,
    OptimizerConfig,
    OrthonormalBasis,
    PureState,
    QuadratureInfo,
    SingularIntegrand,
    Trajectory,
    ValidityExceeded,
    ZeroEnergyVariance,
    bargmann_angle_mixed,
    bound_series,
    combined_bound_orthogonal,
    correction_k_mixed,
    correction_k_pure,
    correction_samples,
    default_initial_state,
    evolve_mixed,
    evolve_pure,
    integrate_correction,
    mixed_geodesic_term,
    mt_bound_pure,
    optimize_basis,
    random_basis,
    sample_gue,
    sample_trajectory,
    sqrtm_psd,
    tqsl_bound,
    variance,
)
from conftest import random_density, random_pure
from tqsl.bounds import _Correction, _mixed_k_series, _random_directions

SIN_EPS = 1e-8


def gue_trajectory(seed=0, tau=1.0, steps=60, dim=3):
    h = sample_gue(GueConfig(dim=dim, seed=seed))
    return h, sample_trajectory(h, default_initial_state(dim), tau, steps)


def singular_trajectory():
    """Pure d=3 trajectory doctored so that s0 returns to 0 at its last
    point while K does not vanish there."""
    h = sample_gue(GueConfig(dim=3, seed=0))
    psi = default_initial_state(3)
    states = (psi, evolve_pure(h, psi, 0.8), evolve_pure(h, psi, 1.6))
    s_mid = 2.0 * math.acos(
        min(abs(complex(np.vdot(psi.amplitudes, states[1].amplitudes))), 1.0)
    )
    s0 = np.array([0.0, s_mid, 0.0])
    return Trajectory(
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
    s0 = np.array([0.0, bargmann_angle_mixed(r0, st1), 0.0])
    return Trajectory(
        hamiltonian=h,
        hbar=1.0,
        times=np.array([0.0, 0.6, 1.2]),
        stack=np.array([sqrtm_psd(r.matrix) for r in (r0, st1, st2)]),
        s0=s0,
        overlap=np.cos(s0 / 2.0),
        delta_h=math.sqrt(variance(h, r0)),
        valid_until=2,
    )


class TestMtBound:
    def test_zero_at_start(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 11)
        assert mt_bound_pure(traj, 0) == 0.0

    def test_precession_saturates(self, sigma_x, ket0):
        # s0 = 2t and dH = 1, so the bound equals the elapsed time exactly
        traj = sample_trajectory(sigma_x, ket0, 1.0, 101)
        assert mt_bound_pure(traj, 100) == pytest.approx(1.0, abs=1e-10)
        assert mt_bound_pure(traj, 50) == pytest.approx(0.5, abs=1e-10)

    def test_orthogonalization_gives_pi_over_two(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, math.pi / 2, 101)
        assert mt_bound_pure(traj, 100) == pytest.approx(math.pi / 2, abs=1e-7)

    def test_rejects_zero_spread(self, ket0):
        traj = sample_trajectory(Observable(np.eye(2)), ket0, 1.0, 5)
        with pytest.raises(ZeroEnergyVariance):
            mt_bound_pure(traj, 4)


class TestCombinedBound:
    def test_balanced_qubit_gives_pi_over_two(self, ket_plus):
        h = Observable(np.diag([0.0, 2.0]))
        assert combined_bound_orthogonal(h, ket_plus) == pytest.approx(math.pi / 2)

    def test_spread_route_wins(self):
        # mean 1.6 > spread 0.8, so the variance time is the larger one
        h = Observable(np.diag([0.0, 2.0]))
        psi = PureState(np.array([math.sqrt(0.2), math.sqrt(0.8)]))
        assert combined_bound_orthogonal(h, psi) == pytest.approx(math.pi / 1.6)

    def test_mean_route_wins(self):
        # mean 0.2 < spread 0.6, so the mean-energy time takes over
        h = Observable(np.diag([0.0, 2.0]))
        psi = PureState(np.array([math.sqrt(0.9), math.sqrt(0.1)]))
        assert combined_bound_orthogonal(h, psi) == pytest.approx(math.pi / 0.4)

    def test_scales_with_hbar(self, ket_plus):
        h = Observable(np.diag([0.0, 2.0]))
        assert combined_bound_orthogonal(h, ket_plus, hbar=2.0) == pytest.approx(math.pi)

    def test_rejects_nonpositive_mean(self, sigma_z, ket_plus):
        with pytest.raises(NonPositiveMeanEnergy):
            combined_bound_orthogonal(sigma_z, ket_plus)
        with pytest.raises(NonPositiveMeanEnergy):
            # mean -0.6 with spread 0.8, so the mean check is the one that fires
            combined_bound_orthogonal(sigma_z, PureState(np.array([math.sqrt(0.2), math.sqrt(0.8)])))

    def test_rejects_zero_spread(self, sigma_z, ket0):
        # checked before the mean, even though the mean here is positive
        with pytest.raises(ZeroEnergyVariance):
            combined_bound_orthogonal(sigma_z, ket0)


class TestMixedGeodesicTerm:
    def test_zero_for_unmoved_state(self, qubit_mixed):
        assert mixed_geodesic_term(qubit_mixed, qubit_mixed, 1.0) == 0.0

    def test_pure_lift_recovers_plain_geodesic(self):
        h, traj = gue_trajectory(seed=1, tau=1.2, steps=80)
        rho0 = traj.states[0].to_density()
        rho_tau = traj.states[-1].to_density()
        lifted = mixed_geodesic_term(rho0, rho_tau, traj.delta_h)
        assert lifted == pytest.approx(mt_bound_pure(traj, len(traj.times) - 1), abs=1e-7)

    def test_precessing_qubit_closed_form(self, sigma_x, qubit_mixed):
        # Tr(rho0 rho_t) = 0.5 + 0.18 cos 2t, purity 0.68, dH = 1
        tau = 0.7
        rho_tau = evolve_mixed(sigma_x, qubit_mixed, tau)
        want = math.acos(math.sqrt(0.5 + 0.18 * math.cos(2 * tau))) - math.acos(math.sqrt(0.68))
        got = mixed_geodesic_term(qubit_mixed, rho_tau, 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.153520738090, abs=1e-9)

    def test_scales_with_hbar(self, sigma_x, qubit_mixed):
        rho_tau = evolve_mixed(sigma_x, qubit_mixed, 0.7)
        assert mixed_geodesic_term(qubit_mixed, rho_tau, 1.0, hbar=3.0) == pytest.approx(
            3.0 * mixed_geodesic_term(qubit_mixed, rho_tau, 1.0)
        )

    def test_rejects_dimension_mismatch(self, qubit_mixed):
        with pytest.raises(DimensionMismatch):
            mixed_geodesic_term(qubit_mixed, DensityMatrix(np.eye(3) / 3), 1.0)

    def test_rejects_zero_spread(self, qubit_mixed):
        with pytest.raises(ZeroEnergyVariance):
            mixed_geodesic_term(qubit_mixed, qubit_mixed, 0.0)


class TestIntegrateCorrection:
    def test_constant_is_exact(self):
        t = np.linspace(0.0, 2.0, 21)
        value, est = integrate_correction(np.column_stack([t, np.full(21, 1.5)]))
        assert value == pytest.approx(3.0, abs=1e-14)
        assert est == pytest.approx(0.0, abs=1e-14)

    def test_linear_is_exact(self):
        t = np.linspace(0.0, 1.0, 17)
        value, est = integrate_correction(np.column_stack([t, 3.0 * t]))
        assert value == pytest.approx(1.5, abs=1e-14)
        assert est == pytest.approx(0.0, abs=1e-14)

    def test_second_order_convergence(self):
        errors = {}
        for n in (51, 101):
            t = np.linspace(0.0, 1.0, n)
            value, est = integrate_correction(np.column_stack([t, t * t]))
            errors[n] = abs(value - 1.0 / 3.0)
            # Richardson estimate should track the true error closely here
            assert 0.5 * errors[n] <= est <= 2.0 * errors[n]
        assert errors[51] / errors[101] == pytest.approx(4.0, rel=0.05)

    def test_even_point_count(self):
        # half grid appends the final point when n is even
        t = np.linspace(0.0, 1.0, 10)
        value, _ = integrate_correction(np.column_stack([t, np.exp(t)]))
        assert value == pytest.approx(math.e - 1.0, abs=1e-2)

    def test_rejects_non_finite(self):
        t = np.linspace(0.0, 1.0, 5)
        f = np.ones(5)
        f[3] = np.nan
        with pytest.raises(NonFiniteSample):
            integrate_correction(np.column_stack([t, f]))

    def test_rejects_unsorted_times(self):
        samples = np.array([[0.0, 1.0], [0.5, 1.0], [0.5, 1.0]])
        with pytest.raises(ValueError, match="ascending"):
            integrate_correction(samples)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="samples"):
            integrate_correction(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="samples"):
            integrate_correction(np.ones((4, 3)))


class TestCorrectionSamples:
    def test_qubit_precession_has_no_correction(self, sigma_x, ket0):
        # the two per-vector products stay phase aligned for a qubit, so K
        # vanishes identically and the tighter bound reduces to the plain one
        traj = sample_trajectory(sigma_x, ket0, 1.5, 101)
        for basis in (OrthonormalBasis.identity(2), random_basis(2, 3)):
            samples = correction_samples(traj, basis)
            np.testing.assert_allclose(samples[:, 1], 0.0, atol=1e-12)

    def test_matches_per_point_recomputation(self):
        # dual route: the vectorized series against correction_k_pure with
        # A = initial projector evaluated state by state
        h, traj = gue_trajectory(seed=0, tau=1.0, steps=40)
        basis = random_basis(3, 5)
        samples = correction_samples(traj, basis)
        proj = Observable(traj.states[0].projector())
        scale = 2.0 / traj.delta_h
        for k in range(len(traj.times)):
            den = math.sin(traj.s0[k])
            want = 0.0
            if den >= SIN_EPS:
                want = scale * correction_k_pure(proj, h, traj.states[k], basis) / den
            assert samples[k, 1] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_batched_mixed_series_matches_per_state_oracle(self, dim):
        # the stacked einsum route against correction_k_mixed on each state
        rng = np.random.default_rng(40 + dim)
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        traj = sample_trajectory(h, random_density(rng, dim), 1.3, 150)
        basis = random_basis(dim, 17)
        rho0 = traj.states[0]
        got = _mixed_k_series(traj, rho0.matrix, basis)
        a = Observable(rho0.matrix)
        want = [correction_k_mixed(a, h, rho, basis) for rho in traj.states]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_times_column_is_the_grid(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 11)
        samples = correction_samples(traj, OrthonormalBasis.identity(2))
        np.testing.assert_allclose(samples[:, 0], traj.times, atol=0)

    def test_singular_interior_point_raises(self):
        # doctored trajectory whose angle returns to 0 while K stays finite:
        # the sin(s0) denominator vanishes where K does not, which the
        # derivation cannot absorb
        with pytest.raises(SingularIntegrand, match="vanishing denominator"):
            correction_samples(singular_trajectory(), random_basis(3, 7))

    def test_near_pure_radical_underflow_raises(self):
        # a state this close to pure makes 1 - P cos^2(s0/2) underflow at the
        # doctored revival point while K is still well above round-off
        with pytest.raises(DenominatorUnderflow, match="radical"):
            correction_samples(underflow_trajectory(), random_basis(3, 7))

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
                prepared.integrand(random_basis(3, seed))

    def test_rejects_basis_dimension_mismatch(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 5)
        with pytest.raises(DimensionMismatch):
            correction_samples(traj, OrthonormalBasis.identity(3))

    def test_rejects_zero_spread(self, ket0):
        traj = sample_trajectory(Observable(np.eye(2)), ket0, 1.0, 5)
        with pytest.raises(ZeroEnergyVariance):
            correction_samples(traj, OrthonormalBasis.identity(2))


class TestBoundReport:
    def quad(self, err=0.0):
        return QuadratureInfo("trapezoid", 0.01, err)

    def test_accepts_consistent_report(self):
        BoundReport(
            tau_actual=1.0,
            tau_mt=0.6,
            correction_integral=0.2,
            tau_tqsl=0.8,
            delta=0.2,
            basis_id="user",
            validity=True,
            quadrature=self.quad(),
        )

    def test_rejects_non_finite(self):
        with pytest.raises(BoundViolation, match="non-finite"):
            BoundReport(
                tau_actual=1.0,
                tau_mt=math.nan,
                correction_integral=0.0,
                tau_tqsl=0.0,
                delta=0.0,
                basis_id="user",
                validity=False,
                quadrature=self.quad(),
            )

    def test_rejects_negative_correction(self):
        with pytest.raises(BoundViolation, match="correction"):
            BoundReport(
                tau_actual=1.0,
                tau_mt=0.5,
                correction_integral=-0.1,
                tau_tqsl=0.4,
                delta=-0.1,
                basis_id="user",
                validity=False,
                quadrature=self.quad(),
            )

    def test_rejects_broken_bookkeeping(self):
        with pytest.raises(BoundViolation, match="geodesic term"):
            BoundReport(
                tau_actual=1.0,
                tau_mt=0.5,
                correction_integral=0.1,
                tau_tqsl=0.7,
                delta=0.2,
                basis_id="user",
                validity=False,
                quadrature=self.quad(),
            )

    def test_rejects_bound_above_actual_time_when_valid(self):
        kwargs = dict(
            tau_actual=0.5,
            tau_mt=0.6,
            correction_integral=0.2,
            tau_tqsl=0.8,
            delta=0.2,
            basis_id="user",
            quadrature=self.quad(),
        )
        with pytest.raises(BoundViolation, match="actual time"):
            BoundReport(validity=True, **kwargs)
        # the same numbers are reportable on a flagged row
        BoundReport(validity=False, **kwargs)

    def test_csv_row_format(self):
        rep = BoundReport(
            tau_actual=1.0,
            tau_mt=0.6,
            correction_integral=0.2,
            tau_tqsl=0.8,
            delta=0.2,
            basis_id="user",
            validity=True,
            quadrature=self.quad(err=1e-7),
        )
        assert rep.csv_row() == "1,0.6,0.8,0.2,1e-07,true"

    def test_to_json_keys(self):
        rep = BoundReport(
            tau_actual=1.0,
            tau_mt=0.6,
            correction_integral=0.2,
            tau_tqsl=0.8,
            delta=0.2,
            basis_id="b",
            validity=False,
            quadrature=self.quad(),
        )
        data = rep.to_json()
        assert sorted(data) == [
            "basis_id",
            "correction_integral",
            "delta",
            "quadrature",
            "tau_actual",
            "tau_mt",
            "tau_tqsl",
            "validity",
        ]
        assert sorted(data["quadrature"]) == ["estimated_error", "scheme", "step"]


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


class TestBoundSeries:
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
        last = series[-1]
        assert last.tau_tqsl == pytest.approx(rep.tau_tqsl, abs=1e-12)
        assert last.correction_integral == pytest.approx(rep.correction_integral, abs=1e-12)
        assert last.quadrature.estimated_error == pytest.approx(
            rep.quadrature.estimated_error, abs=1e-12
        )

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
        cols[column][row] = value
        with pytest.raises(BoundViolation, match=match):
            BoundSeries(**cols, basis_id="b", step=series.step)

    def test_rejects_bound_above_actual_time_when_valid(self):
        cols = dict(
            t=np.array([0.0, 0.5]),
            tau_mt=np.array([0.0, 0.6]),
            correction=np.array([0.0, 0.2]),
            tau_tqsl=np.array([0.0, 0.8]),
            delta=np.array([0.0, 0.2]),
            quad_error=np.zeros(2),
        )
        with pytest.raises(BoundViolation, match="actual time"):
            BoundSeries(**cols, validity=np.array([True, True]), basis_id="b", step=0.5)
        # the same numbers are reportable on a flagged row
        BoundSeries(**cols, validity=np.array([True, False]), basis_id="b", step=0.5)


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
        a = correction_samples(traj, basis)
        b = correction_samples(traj, shuffled)
        np.testing.assert_allclose(a[:, 1], b[:, 1], atol=1e-10)

    def test_pinned_mixed_state_result(self):
        # captured before the correction kernel was prepared once per
        # trajectory and the directions were decomposed in one batch: the
        # hill climb compares floats, so any change in the values moves it
        h = sample_gue(GueConfig(dim=4, seed=2))
        rho = random_density(np.random.default_rng([2, 4]), 4)
        cfg = OptimizerConfig(restarts=3, iterations=40, seed=2)
        _, rep = optimize_basis(sample_trajectory(h, rho, 0.8, 80), cfg)
        assert rep.basis_id == "optimize[gue-eigenbasis:seed=4, 7 moves]"
        assert repr(rep.tau_tqsl) == "0.32020880606861685"

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

    def test_propagates_validity_error(self, sigma_x, ket0):
        with pytest.raises(ValidityExceeded):
            optimize_basis(sample_trajectory(sigma_x, ket0, 2.0, 60))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ConfigError):
            OptimizerConfig(iterations=-1)
        with pytest.raises(ConfigError):
            OptimizerConfig(shrink=1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(initial_step=0.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(min_step=0.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(patience=0)
