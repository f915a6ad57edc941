"""Evolution, Bargmann angles, and trajectory bookkeeping."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from tqsl import (
    BoundReport,
    BoundSeries,
    DensityMatrix,
    DimensionMismatch,
    GueConfig,
    NonRealExpectation,
    Observable,
    OrthonormalBasis,
    PureState,
    Trajectory,
    ZeroEnergyVariance,
    bound_series,
    default_initial_state,
    eigh,
    expectation,
    random_basis,
    sample_gue,
    sample_trajectory,
)
from conftest import (
    check_trajectory, doctored_trajectory, evolve_mixed, evolve_pure, grid_states, random_density,
    random_pure, wishart_density,
)
from tqsl.errors import _trusted
from tqsl.states import EXPECTATION_IMAG_TOL


def final_angle(h: Observable, state, t: float) -> float:
    """The Bargmann angle s0 from `state` to its evolved state at t."""
    return float(sample_trajectory(h, state, t, 2).s0[-1])


def reversed_angle(h: Observable, state, t: float) -> float:
    """The angle from the state at t back to `state`, under -H."""
    end = grid_states(sample_trajectory(h, state, t, 2))[-1]
    return final_angle(Observable(-h.matrix), end, t)


class TestBargmannAngle:
    """The angle s0 as a trajectory carries it."""

    def test_identical_states_give_zero(self, sigma_x, sigma_z, ket0, ket_plus, qubit_mixed):
        assert sample_trajectory(sigma_x, ket0, 1.0, 5).s0[0] == 0.0
        # stationary states: arccos amplifies eigensolver round-off, so an
        # overlap within 1e-16 of 1 only gives an angle of ~1e-8
        assert final_angle(sigma_x, ket_plus, 0.9) == pytest.approx(0.0, abs=1e-7)
        assert final_angle(sigma_z, qubit_mixed, 0.9) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_states_give_pi(self, sigma_x, ket0):
        assert final_angle(sigma_x, ket0, math.pi / 2) == pytest.approx(math.pi)

    def test_precession_angle_is_twice_time(self, sigma_x, ket0):
        for t in (0.2, 0.7, 1.4):
            assert final_angle(sigma_x, ket0, t) == pytest.approx(2.0 * t, abs=1e-12)

    def test_pure_symmetry(self):
        rng = np.random.default_rng(30)
        h = sample_gue(GueConfig(dim=4, seed=8))
        psi = random_pure(rng, 4)
        assert final_angle(h, psi, 1.1) == pytest.approx(reversed_angle(h, psi, 1.1), abs=1e-12)

    def test_mixed_symmetric_for_unitary_pairs(self):
        # equal purity on both sides, so the normalization does not break the
        # exchange; arbitrary unequal-purity pairs have no such symmetry
        rng = np.random.default_rng(31)
        rho0 = random_density(rng, 3)
        h = sample_gue(GueConfig(dim=3, seed=9))
        assert final_angle(h, rho0, 1.1) == pytest.approx(reversed_angle(h, rho0, 1.1), abs=1e-12)

    def test_mixed_qubit_closed_form(self, sigma_x, qubit_mixed):
        # Tr(rho0 rho_t) = 0.5 + 0.18 cos 2t and purity 0.68 for diag(.8, .2)
        # precessing under sigma_x
        for t in (0.4, math.pi / 2, 2.0):
            want = 2.0 * math.acos(math.sqrt((0.5 + 0.18 * math.cos(2 * t)) / 0.68))
            assert final_angle(sigma_x, qubit_mixed, t) == pytest.approx(want, abs=1e-12)


class TestEvolve:
    def test_zero_time_is_identity(self, sigma_x, ket_plus):
        out = evolve_pure(sigma_x, ket_plus, 0.0)
        np.testing.assert_allclose(out.amplitudes, ket_plus.amplitudes, atol=1e-12)

    def test_precession_closed_form(self, sigma_x, ket0):
        t = 0.7
        out = evolve_pure(sigma_x, ket0, t)
        want = np.array([math.cos(t), -1j * math.sin(t)])
        np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)

    def test_eigenstate_is_stationary(self, sigma_z, ket0):
        out = evolve_pure(sigma_z, ket0, 2.3)
        assert abs(np.vdot(out.amplitudes, ket0.amplitudes)) == pytest.approx(1.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(33)
        h = sample_gue(GueConfig(dim=5, seed=21))
        out = evolve_pure(h, random_pure(rng, 5), 2.3)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(34)
        for dim in (2, 3, 5):
            h = sample_gue(GueConfig(dim=dim, seed=dim))
            psi = random_pure(rng, dim)
            t, hbar = 1.7, 0.7
            want = scipy.linalg.expm(-1j * h.matrix * (t / hbar)) @ psi.amplitudes
            got = evolve_pure(h, psi, t, hbar=hbar).amplitudes
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rejects_negative_time(self, sigma_x, ket0):
        with pytest.raises(ValueError, match=">= 0"):
            evolve_pure(sigma_x, ket0, -0.1)

    def test_rejects_dimension_mismatch(self, sigma_x):
        with pytest.raises(DimensionMismatch):
            evolve_pure(sigma_x, PureState(np.array([1.0, 0, 0])), 1.0)

    def test_maximally_mixed_is_invariant(self):
        h = sample_gue(GueConfig(dim=4, seed=3))
        rho = DensityMatrix(np.eye(4) / 4)
        out = grid_states(sample_trajectory(h, rho, 1.9, 2))[-1]
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_mixed_evolution_lifts_pure(self):
        rng = np.random.default_rng(35)
        h = sample_gue(GueConfig(dim=3, seed=4))
        psi = random_pure(rng, 3)
        via_pure = evolve_pure(h, psi, 1.3).to_density()
        via_mixed = grid_states(sample_trajectory(h, psi.to_density(), 1.3, 2))[-1]
        np.testing.assert_allclose(via_mixed.matrix, via_pure.matrix, atol=1e-9)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(36)
        h = sample_gue(GueConfig(dim=4, seed=5))
        rho = random_density(rng, 4)
        out = grid_states(sample_trajectory(h, rho, 2.7, 2))[-1]
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
        )


class TestSampleTrajectory:
    def test_minimal_grid(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 0.5, 2)
        assert len(traj.times) == 2
        assert traj.validity_clean
        assert traj.kind == "pure"

    def test_grid_is_uniform(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.5, 31)
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.5, 31), atol=0)

    def test_precession_angle_along_grid(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.5, 101)
        assert traj.s0[0] == 0.0
        assert traj.overlap[0] == 1.0
        np.testing.assert_allclose(traj.s0, 2.0 * traj.times, atol=1e-8)
        assert traj.delta_h == pytest.approx(1.0)
        assert traj.validity_clean

    def test_validity_marks_first_overlap_minimum(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 2.0, 201)
        assert not traj.validity_clean
        t_turn = traj.times[traj.valid_until]
        assert abs(t_turn - math.pi / 2) < 0.02
        flags = bound_series(traj, OrthonormalBasis(np.eye(2, dtype=complex))).validity
        assert flags[: traj.valid_until + 1].all()
        assert not flags[traj.valid_until + 1 :].any()

    def test_refined_grid_agrees_on_shared_points(self):
        h = sample_gue(GueConfig(dim=3, seed=7))
        rng = np.random.default_rng(37)
        psi = random_pure(rng, 3)
        coarse = sample_trajectory(h, psi, 1.5, 51)
        fine = sample_trajectory(h, psi, 1.5, 101)
        np.testing.assert_allclose(coarse.times, fine.times[::2], atol=1e-12)
        np.testing.assert_allclose(coarse.s0, fine.s0[::2], atol=1e-10)

    def test_mixed_qubit_overlap_closed_form(self, sigma_x, qubit_mixed):
        traj = sample_trajectory(sigma_x, qubit_mixed, 1.0, 41)
        want = np.sqrt((0.5 + 0.18 * np.cos(2 * traj.times)) / 0.68)
        np.testing.assert_allclose(traj.overlap, want, atol=1e-12)
        assert traj.kind == "mixed"

    def test_mixed_lift_matches_pure_samples(self):
        h = sample_gue(GueConfig(dim=3, seed=8))
        rng = np.random.default_rng(38)
        psi = random_pure(rng, 3)
        pure = sample_trajectory(h, psi, 1.5, 41)
        lifted = sample_trajectory(h, psi.to_density(), 1.5, 41)
        np.testing.assert_allclose(lifted.s0, pure.s0, atol=1e-9)
        assert lifted.delta_h == pytest.approx(pure.delta_h, abs=1e-12)

    def test_input_validation(self, sigma_x, ket0):
        with pytest.raises(ValueError, match="t_max"):
            sample_trajectory(sigma_x, ket0, 0.0, 10)
        with pytest.raises(ValueError, match="grid points"):
            sample_trajectory(sigma_x, ket0, 1.0, 1)
        with pytest.raises(DimensionMismatch):
            sample_trajectory(sigma_x, PureState(np.array([1.0, 0, 0])), 1.0, 10)
        with pytest.raises(DimensionMismatch):
            sample_trajectory(sigma_x, DensityMatrix(np.eye(3) / 3), 1.0, 10)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("steps", 2.5, "steps must be an integer"),
            ("steps", True, "steps must be an integer"),
            ("t_max", -0.1, "t_max must be positive and finite"),
            ("t_max", math.nan, "t_max must be positive and finite"),
            ("t_max", math.inf, "t_max must be positive and finite"),
            ("hbar", math.nan, "hbar must be positive and finite"),
            ("hbar", math.inf, "hbar must be positive and finite"),
            ("hbar", 0.0, "hbar must be positive and finite"),
        ],
    )
    def test_rejects_bad_grid_arguments(self, sigma_x, ket0, qubit_mixed, field, value, match):
        # rejected before any propagation, not truncated or left to fail later
        args = {"t_max": 1.0, "steps": 10, "hbar": 1.0, field: value}
        for state in (ket0, qubit_mixed):
            with pytest.raises(ValueError, match=match):
                sample_trajectory(sigma_x, state, **args)

    def test_arrays_are_read_only(self, sigma_x, ket0, qubit_mixed):
        for state in (ket0, qubit_mixed):
            traj = sample_trajectory(sigma_x, state, 1.0, 5)
            for arr in (traj.times, traj.stack, traj.s0, traj.overlap):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 5.0

    def test_takes_integer_like_steps(self, sigma_x, ket0):
        assert len(sample_trajectory(sigma_x, ket0, 1.0, np.int64(10)).times) == 10

    def test_mixed_angle_can_outrun_pure_rate(self):
        # Pinned counterexample: this mixed trajectory's angle moves faster
        # than 2*dH/hbar between two grid points, which is why the Lipschitz
        # check applies to pure trajectories only.
        rho = random_density(np.random.default_rng(131), 3)
        h = sample_gue(GueConfig(dim=3, seed=131))
        traj = sample_trajectory(h, rho, 2.0, 400)
        rate_cap = (2.0 * traj.delta_h / traj.hbar) * np.diff(traj.times)
        assert float((np.abs(np.diff(traj.s0)) / rate_cap).max()) > 1.0


def overlap_closed_form(h: np.ndarray, rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sqrt(Tr(rho0 rho_t) / Tr(rho0^2)) from H = V diag(lambda) V^dagger:
    Tr(rho0 rho_t) = sum_ab |rho~_ab|^2 cos((lambda_a - lambda_b) t), with
    rho~ = V^dagger rho0 V and hbar = 1."""
    w, v = np.linalg.eigh(h)
    weights = np.abs(v.conj().T @ rho @ v) ** 2
    cross = np.einsum("ab,kab->k", weights, np.cos(np.subtract.outer(w, w) * times[:, None, None]))
    return np.sqrt(np.clip(cross / np.trace(rho @ rho).real, 0.0, 1.0))


class TestMixedOverlapClosedForm:
    """The mixed overlap against its closed form on the benchmark's four
    d = 8 Wishart inputs (the tests/golden/mixed/ items) and a near-pure
    d = 3 state, 400 steps to t = 1. The two-sided roots U_t sqrt(rho0)
    U_t^dagger that R_t = sqrt(rho0) U_t^dagger replaced reached 1.0e-15 at
    worst here, so the tolerance is twice that."""

    CASES = {
        **{f"wishart-{i}": (lambda i=i: (sample_gue(GueConfig(dim=8, seed=i)).matrix, wishart_density(i)))
           for i in range(4)},
        "near-pure": lambda: (sample_gue(GueConfig(dim=3, seed=4)).matrix,
                              (1.0 - 1e-10) * default_initial_state(3).projector() + 1e-10 * np.eye(3) / 3.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_overlap_matches_the_closed_form(self, case):
        h, rho = self.CASES[case]()
        traj = sample_trajectory(Observable(h), DensityMatrix(rho), 1.0, 400)
        np.testing.assert_allclose(traj.overlap, overlap_closed_form(h, rho, traj.times), rtol=0, atol=2e-15)


def trajectory_parts(traj):
    """The fields of a trajectory, as writable copies."""
    return dict(
        hamiltonian=traj.hamiltonian,
        hbar=traj.hbar,
        times=np.array(traj.times),
        stack=np.array(traj.stack),
        s0=np.array(traj.s0),
        overlap=np.array(traj.overlap),
        delta_h=traj.delta_h,
        valid_until=traj.valid_until,
    )


class TestTrajectoryValidation:
    """check_trajectory, the test-side invariant oracle for sampled
    trajectories: it passes an unmodified rebuild of a sampled trajectory
    and rejects each doctored one, so that its passing elsewhere shows the
    invariants hold."""

    @pytest.fixture()
    def parts(self, sigma_x, ket0):
        return trajectory_parts(sample_trajectory(sigma_x, ket0, 1.5, 11))

    @pytest.fixture()
    def mixed_parts(self, sigma_x, qubit_mixed):
        return trajectory_parts(sample_trajectory(sigma_x, qubit_mixed, 1.5, 11))

    def test_reconstruction_passes(self, parts, mixed_parts):
        check_trajectory(doctored_trajectory(**parts))
        check_trajectory(doctored_trajectory(**mixed_parts))

    def test_rejects_nonzero_start_angle(self, parts):
        parts["s0"][0] = 0.1
        with pytest.raises(ValueError, match="start at 0"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_angle_faster_than_rate(self, parts):
        parts["s0"][5] += 1.0
        with pytest.raises(ValueError, match="outruns"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_wrong_spread(self, parts):
        parts["delta_h"] += 0.5
        with pytest.raises(ValueError, match="drifts"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_bad_validity_index(self, parts):
        parts["valid_until"] = len(parts["times"])
        with pytest.raises(ValueError, match="outside"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_nonpositive_hbar(self, parts):
        parts["hbar"] = 0.0
        with pytest.raises(ValueError, match="hbar"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_unsorted_times(self, parts):
        parts["times"][1] = 0.0
        with pytest.raises(ValueError, match="ascend"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_length_mismatch(self, parts):
        parts["s0"] = parts["s0"][:-1]
        with pytest.raises(ValueError, match="length"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_non_unit_ket(self, parts):
        parts["stack"][7] *= 1.01
        with pytest.raises(ValueError, match="state norm"):
            check_trajectory(doctored_trajectory(**parts))

    def test_rejects_non_finite_ket(self, parts):
        parts["stack"][4, 1] = np.nan
        with pytest.raises(ValueError, match="entries must be finite"):
            check_trajectory(doctored_trajectory(**parts))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_root(self, mixed_parts, bad):
        mixed_parts["stack"][9][1, 0] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            check_trajectory(doctored_trajectory(**mixed_parts))

    def test_rejects_non_unit_trace_root(self, mixed_parts):
        mixed_parts["stack"][6] *= 1.01
        with pytest.raises(ValueError, match="trace"):
            check_trajectory(doctored_trajectory(**mixed_parts))

    def test_accepts_any_root_of_each_state(self, mixed_parts):
        # R and W R are roots of one state R^dagger R for a unitary W: a
        # non-Hermitian root, or one that is not positive, is no defect
        rng = np.random.default_rng(3)
        w, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        stack = mixed_parts["stack"]
        stack[3] = w @ stack[3]
        stack[5] = -stack[5]
        check_trajectory(doctored_trajectory(**mixed_parts))

    def test_rejects_a_root_of_another_state(self, mixed_parts):
        # R W is a root of W^dagger rho W, a unit-trace state whose
        # sigma_x spread is no longer the trajectory's
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        mixed_parts["stack"][5] = mixed_parts["stack"][5] @ hadamard
        with pytest.raises(ValueError, match="drifts by .* at grid index 5"):
            check_trajectory(doctored_trajectory(**mixed_parts))

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_pure_lift_roots_pass_on_the_cholesky_accept(self, dim, no_eigvalsh):
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        rho0 = random_pure(np.random.default_rng(dim), dim).to_density()
        traj = sample_trajectory(h, rho0, 2.0, 150)
        assert traj.kind == "mixed"
        check_trajectory(traj)

    @pytest.mark.parametrize("eps", [1e-10, 1e-14])
    def test_near_pure_roots_pass_on_the_cholesky_accept(self, eps, no_eigvalsh):
        # the near-pure quadrature case: GUE seed 4, (1-eps)|psi><psi| + eps I/3
        psi = default_initial_state(3)
        rho0 = DensityMatrix((1.0 - eps) * psi.projector() + eps * np.eye(3) / 3.0)
        traj = sample_trajectory(sample_gue(GueConfig(dim=3, seed=4)), rho0, 1.0, 400)
        assert traj.kind == "mixed"
        check_trajectory(traj)

    def test_rejects_misshapen_stack(self, parts, mixed_parts):
        parts["stack"] = parts["stack"][:, :, None]
        with pytest.raises(ValueError, match="stack must be"):
            check_trajectory(doctored_trajectory(**parts))
        mixed_parts["stack"] = np.zeros((11, 3, 3), dtype=complex)
        with pytest.raises(ValueError, match="stack must be"):
            check_trajectory(doctored_trajectory(**mixed_parts))


class TestSampledTrajectoriesAreTrusted:
    """sample_trajectory's states come from one checked eigendecomposition,
    so it makes no per-row state check, and only it builds a trajectory."""

    @pytest.mark.parametrize("cls", [Trajectory, BoundSeries, BoundReport])
    def test_result_types_have_no_constructor(self, cls):
        names = cls._fields if cls is BoundReport else [f.name for f in dataclasses.fields(cls)]
        fields = dict.fromkeys(names)
        with pytest.raises(TypeError):
            cls(**fields)
        with pytest.raises(TypeError):
            cls(*fields.values())
        with pytest.raises(TypeError):
            cls()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_wrong_eigensystem_raises(self, monkeypatch, mixed):
        h = sample_gue(GueConfig(dim=3, seed=0))
        state = DensityMatrix(wishart_density(0, 3)) if mixed else default_initial_state(3)
        eigh = np.linalg.eigh

        def shifted(m):
            w, v = eigh(m)
            return w + 1e-6, v

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ValueError, match="eigensystem residual"):
            sample_trajectory(h, state, 1.0, 50)


SCALES = [1e-16, 1e-12, 1e-9, 1e-3, 1e3, 1e6, 1e8, 1e9, 1e10, 1e12]


class TestScaleCovariance:
    """c H over a window tau / c is H's evolution over tau, so tau_tqsl / tau
    must not move with c, and the sampled trajectory must hold its
    invariants (check_trajectory) at every c: GUE seed 0, basis seed 7,
    tau = 1, 400 steps."""

    @staticmethod
    def endpoint(state, c: float) -> float:
        h = Observable(c * sample_gue(GueConfig(dim=3, seed=0)).matrix)
        traj = sample_trajectory(h, state, 1.0 / c, 400)
        check_trajectory(traj)
        series = bound_series(traj, random_basis(3, 7))
        return series[len(series) - 1].tau_tqsl * c

    @pytest.mark.parametrize("c", SCALES)
    def test_pure_bound_is_scale_free(self, c):
        psi = default_initial_state(3)
        assert self.endpoint(psi, c) == pytest.approx(self.endpoint(psi, 1.0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("c", SCALES)
    def test_mixed_bound_is_scale_free(self, c):
        rho = DensityMatrix(wishart_density(0, 3))
        assert self.endpoint(rho, c) == pytest.approx(self.endpoint(rho, 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_eigenstate_spread_is_zero_at_every_scale(self, c):
        # the zero-spread gate is relative to max|H|, so an eigenstate's
        # round-off spread, which scales with c, raises at every c
        h = c * sample_gue(GueConfig(dim=3, seed=0)).matrix
        traj = sample_trajectory(Observable(h), PureState(eigh(h).eigenvectors[:, 1]), 1.0 / c, 400)
        with pytest.raises(ZeroEnergyVariance, match="numerically zero"):
            bound_series(traj, random_basis(3, 7))


class TestImaginaryTolerance:
    """An imaginary <H> beyond EXPECTATION_IMAG_TOL x max(1, max|H|) raises
    NonRealExpectation, from the moment itself and so from the trajectory
    oracle; round-off on a Hermitian H of max|H| = 1e12 does not."""

    @pytest.fixture()
    def traj(self):
        h = sample_gue(GueConfig(dim=3, seed=0)).matrix
        big = Observable(h * (1e12 / np.abs(h).max()))
        return sample_trajectory(big, default_initial_state(3), 1e-12, 100)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_skew_part_against_the_scaled_tolerance(self, traj, factor):
        h = traj.hamiltonian.matrix
        # <H + i x I> = <H> + i x, and max|H + i x I| stays 1e12 to 1e-16
        skewed = _trusted(Observable, matrix=h + 1j * factor * EXPECTATION_IMAG_TOL * 1e12 * np.eye(3))
        doctored = doctored_trajectory(**{**trajectory_parts(traj), "hamiltonian": skewed})
        if factor < 1.0:
            check_trajectory(doctored)
            expectation(skewed, default_initial_state(3))
            return
        with pytest.raises(NonRealExpectation, match="imaginary part 2.000e\\+04 exceeds 1.000e\\+04"):
            check_trajectory(doctored)
        with pytest.raises(NonRealExpectation):
            expectation(skewed, default_initial_state(3))

    def test_hermitian_h_at_1e12_passes(self, traj):
        check_trajectory(traj)
        assert np.isfinite(expectation(traj.hamiltonian, default_initial_state(3)))


class TestStatesView:
    """The grid states read back from a trajectory's stack."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_pure_states_match_evolve_pure(self, dim):
        rng = np.random.default_rng(50 + dim)
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        psi = random_pure(rng, dim)
        traj = sample_trajectory(h, psi, 1.7, 40, hbar=0.8)
        for state, t in zip(grid_states(traj), traj.times):
            want = evolve_pure(h, psi, float(t), hbar=0.8).amplitudes
            np.testing.assert_allclose(state.amplitudes, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_mixed_states_match_evolve_mixed(self, dim):
        rng = np.random.default_rng(60 + dim)
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        rho = random_density(rng, dim)
        traj = sample_trajectory(h, rho, 1.7, 40, hbar=0.8)
        for state, t in zip(grid_states(traj), traj.times):
            want = evolve_mixed(h, rho, float(t), hbar=0.8).matrix
            np.testing.assert_allclose(state.matrix, want, rtol=0, atol=1e-12)
