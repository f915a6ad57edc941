"""Evolution, Bargmann angles, and trajectory bookkeeping."""
import math

import numpy as np
import pytest
import scipy.linalg

from tqsl import (
    DensityMatrix,
    DimensionMismatch,
    GueConfig,
    NonHermitianInput,
    NotPositiveSemidefinite,
    Observable,
    PureState,
    Trajectory,
    bargmann_angle_mixed,
    bargmann_angle_pure,
    evolve_mixed,
    evolve_pure,
    sample_gue,
    sample_trajectory,
)
from conftest import random_density, random_pure


class TestBargmannAngle:
    def test_identical_states_give_zero(self, ket0, ket_plus, qubit_mixed):
        assert bargmann_angle_pure(ket0, ket0) == 0.0
        # arccos amplifies the norm round-off of 1/sqrt(2) amplitudes, so
        # states that are not exactly unit-norm only reach ~1e-8
        assert bargmann_angle_pure(ket_plus, ket_plus) == pytest.approx(0.0, abs=1e-7)
        assert bargmann_angle_mixed(qubit_mixed, qubit_mixed) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_states_give_pi(self, ket0, ket1):
        assert bargmann_angle_pure(ket0, ket1) == pytest.approx(math.pi)

    def test_precession_angle_is_twice_time(self, sigma_x, ket0):
        for t in (0.2, 0.7, 1.4):
            psit = evolve_pure(sigma_x, ket0, t)
            assert bargmann_angle_pure(ket0, psit) == pytest.approx(2.0 * t, abs=1e-12)

    def test_pure_symmetry(self):
        rng = np.random.default_rng(30)
        a, b = random_pure(rng, 4), random_pure(rng, 4)
        assert bargmann_angle_pure(a, b) == pytest.approx(bargmann_angle_pure(b, a))

    def test_mixed_symmetric_for_unitary_pairs(self):
        # equal purity on both sides, so the normalization does not break the
        # exchange; arbitrary unequal-purity pairs have no such symmetry
        rng = np.random.default_rng(31)
        rho0 = random_density(rng, 3)
        h = sample_gue(GueConfig(dim=3, seed=9))
        rhot = evolve_mixed(h, rho0, 1.1)
        assert bargmann_angle_mixed(rho0, rhot) == pytest.approx(
            bargmann_angle_mixed(rhot, rho0), abs=1e-12
        )

    def test_mixed_qubit_closed_form(self, sigma_x, qubit_mixed):
        # Tr(rho0 rho_t) = 0.5 + 0.18 cos 2t and purity 0.68 for diag(.8, .2)
        # precessing under sigma_x
        for t in (0.4, math.pi / 2, 2.0):
            rhot = evolve_mixed(sigma_x, qubit_mixed, t)
            want = 2.0 * math.acos(math.sqrt((0.5 + 0.18 * math.cos(2 * t)) / 0.68))
            assert bargmann_angle_mixed(qubit_mixed, rhot) == pytest.approx(want, abs=1e-12)

    def test_mixed_agrees_with_pure_on_lifts(self):
        rng = np.random.default_rng(32)
        a, b = random_pure(rng, 4), random_pure(rng, 4)
        assert bargmann_angle_mixed(a.to_density(), b.to_density()) == pytest.approx(
            bargmann_angle_pure(a, b), abs=1e-9
        )

    def test_dimension_mismatch(self, ket0):
        with pytest.raises(DimensionMismatch):
            bargmann_angle_pure(ket0, PureState(np.array([1.0, 0, 0])))
        with pytest.raises(DimensionMismatch):
            bargmann_angle_mixed(
                DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)
            )


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

    def test_rejects_negative_time(self, sigma_x, ket0, qubit_mixed):
        with pytest.raises(ValueError, match=">= 0"):
            evolve_pure(sigma_x, ket0, -0.1)
        with pytest.raises(ValueError, match=">= 0"):
            evolve_mixed(sigma_x, qubit_mixed, -0.1)

    def test_rejects_dimension_mismatch(self, sigma_x):
        with pytest.raises(DimensionMismatch):
            evolve_pure(sigma_x, PureState(np.array([1.0, 0, 0])), 1.0)

    def test_maximally_mixed_is_invariant(self):
        h = sample_gue(GueConfig(dim=4, seed=3))
        rho = DensityMatrix(np.eye(4) / 4)
        out = evolve_mixed(h, rho, 1.9)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_mixed_evolution_lifts_pure(self):
        rng = np.random.default_rng(35)
        h = sample_gue(GueConfig(dim=3, seed=4))
        psi = random_pure(rng, 3)
        via_pure = evolve_pure(h, psi, 1.3).to_density()
        via_mixed = evolve_mixed(h, psi.to_density(), 1.3)
        np.testing.assert_allclose(via_mixed.matrix, via_pure.matrix, atol=1e-9)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(36)
        h = sample_gue(GueConfig(dim=4, seed=5))
        rho = random_density(rng, 4)
        out = evolve_mixed(h, rho, 2.7)
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
        flags = traj.validity_flags()
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

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("steps", 2.5, "steps must be an integer"),
            ("steps", True, "steps must be an integer"),
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


def trajectory_parts(traj):
    """Constructor arguments of a trajectory, as writable copies."""
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
    @pytest.fixture()
    def parts(self, sigma_x, ket0):
        return trajectory_parts(sample_trajectory(sigma_x, ket0, 1.5, 11))

    @pytest.fixture()
    def mixed_parts(self, sigma_x, qubit_mixed):
        return trajectory_parts(sample_trajectory(sigma_x, qubit_mixed, 1.5, 11))

    def test_reconstruction_passes(self, parts, mixed_parts):
        Trajectory(**parts)
        Trajectory(**mixed_parts)

    def test_rejects_nonzero_start_angle(self, parts):
        parts["s0"][0] = 0.1
        with pytest.raises(ValueError, match="start at 0"):
            Trajectory(**parts)

    def test_rejects_angle_faster_than_rate(self, parts):
        parts["s0"][5] += 1.0
        with pytest.raises(ValueError, match="outruns"):
            Trajectory(**parts)

    def test_rejects_wrong_spread(self, parts):
        parts["delta_h"] += 0.5
        with pytest.raises(ValueError, match="drifts"):
            Trajectory(**parts)

    def test_rejects_bad_validity_index(self, parts):
        parts["valid_until"] = len(parts["times"])
        with pytest.raises(ValueError, match="outside"):
            Trajectory(**parts)

    def test_rejects_nonpositive_hbar(self, parts):
        parts["hbar"] = 0.0
        with pytest.raises(ValueError, match="hbar"):
            Trajectory(**parts)

    def test_rejects_unsorted_times(self, parts):
        parts["times"][1] = 0.0
        with pytest.raises(ValueError, match="ascend"):
            Trajectory(**parts)

    def test_rejects_length_mismatch(self, parts):
        parts["s0"] = parts["s0"][:-1]
        with pytest.raises(ValueError, match="length"):
            Trajectory(**parts)

    def test_arrays_are_read_only(self, sigma_x, ket0):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 5)
        with pytest.raises(ValueError):
            traj.times[0] = 5.0
        with pytest.raises(ValueError):
            traj.s0[0] = 5.0
        with pytest.raises(ValueError):
            traj.stack[0, 0] = 5.0

    def test_rejects_non_unit_ket(self, parts):
        parts["stack"][7] *= 1.01
        with pytest.raises(ValueError, match="norm .* grid index 7"):
            Trajectory(**parts)

    def test_rejects_non_finite_ket(self, parts):
        parts["stack"][4, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Trajectory(**parts)

    def test_rejects_non_unit_trace_root(self, mixed_parts):
        mixed_parts["stack"][6] *= 1.01
        with pytest.raises(ValueError, match="trace .* grid index 6"):
            Trajectory(**mixed_parts)

    def test_rejects_non_psd_root(self, mixed_parts):
        # same rho = R^2, but R is no longer its positive root
        w, v = np.linalg.eigh(mixed_parts["stack"][5])
        mixed_parts["stack"][5] = (v * (w * np.array([-1.0, 1.0]))) @ v.conj().T
        with pytest.raises(NotPositiveSemidefinite):
            Trajectory(**mixed_parts)

    def test_rejects_non_hermitian_root(self, mixed_parts):
        mixed_parts["stack"][3][0, 1] += 0.01
        with pytest.raises(NonHermitianInput):
            Trajectory(**mixed_parts)

    def test_rejects_misshapen_stack(self, parts, mixed_parts):
        parts["stack"] = parts["stack"][:, :, None]
        with pytest.raises(ValueError, match="stack must be"):
            Trajectory(**parts)
        mixed_parts["stack"] = np.zeros((11, 3, 3), dtype=complex)
        with pytest.raises(DimensionMismatch):
            Trajectory(**mixed_parts)


class TestStatesView:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_pure_states_match_evolve_pure(self, dim):
        rng = np.random.default_rng(50 + dim)
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        psi = random_pure(rng, dim)
        traj = sample_trajectory(h, psi, 1.7, 40, hbar=0.8)
        assert len(traj.states) == 40
        for k, t in enumerate(traj.times):
            want = evolve_pure(h, psi, float(t), hbar=0.8).amplitudes
            np.testing.assert_allclose(traj.states[k].amplitudes, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_mixed_states_match_evolve_mixed(self, dim):
        rng = np.random.default_rng(60 + dim)
        h = sample_gue(GueConfig(dim=dim, seed=dim))
        rho = random_density(rng, dim)
        traj = sample_trajectory(h, rho, 1.7, 40, hbar=0.8)
        for k, t in enumerate(traj.times):
            want = evolve_mixed(h, rho, float(t), hbar=0.8).matrix
            np.testing.assert_allclose(traj.states[k].matrix, want, rtol=0, atol=1e-12)

    def test_view_indexes_like_a_tuple(self, sigma_x, ket0, qubit_mixed):
        traj = sample_trajectory(sigma_x, ket0, 1.0, 5)
        states = traj.states
        assert isinstance(states[-1], PureState)
        np.testing.assert_array_equal(states[-1].amplitudes, states[4].amplitudes)
        assert len(states[1:3]) == 2
        assert len(list(states)) == 5
        with pytest.raises(IndexError):
            states[5]
        assert isinstance(sample_trajectory(sigma_x, qubit_mixed, 1.0, 5).states[2], DensityMatrix)

