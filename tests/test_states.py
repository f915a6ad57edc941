"""State/observable value types and their moment semantics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsl import (
    DensityMatrix,
    DimensionMismatch,
    GueConfig,
    InvalidBasis,
    NonHermitianInput,
    NotPositiveSemidefinite,
    Observable,
    OrthonormalBasis,
    PureState,
    centered,
    eigh,
    expectation,
    purity,
    random_basis,
    sample_gue,
    sample_trajectory,
    variance,
)
from conftest import random_density, random_pure, with_spectrum
from tqsl.linalg import PSD_CLAMP
from tqsl.states import _require_psd


class TestObservable:
    def test_dim(self, sigma_x):
        assert sigma_x.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonHermitianInput):
            Observable(np.zeros((2, 3)))

    def test_matrix_is_read_only(self, sigma_x):
        with pytest.raises(ValueError):
            sigma_x.matrix[0, 0] = 7.0


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError, match="1-d"):
            PureState(np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(np.array([np.inf, 0.0]))

    def test_projector_and_lift(self, ket0):
        rho = ket0.to_density()
        np.testing.assert_array_equal(rho.matrix, ket0.projector())
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.parametrize("low", [-0.9, -1.1])
    def test_psd_threshold(self, low):
        rho = with_spectrum(np.random.default_rng(3), [0.6 - low * PSD_CLAMP, 0.4, low * PSD_CLAMP])
        if low > -1.0:
            DensityMatrix(rho)
        else:
            with pytest.raises(NotPositiveSemidefinite) as err:
                DensityMatrix(rho)
            assert str(err.value) == "min eigenvalue -1.100e-10"

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_pure_lifts_pass_on_the_cholesky_accept(self, dim, no_eigvalsh):
        DensityMatrix(random_pure(np.random.default_rng(dim), dim).projector())


class TestRequirePsd:
    @staticmethod
    def eigenvalue_rule(stack):
        """The check as eigenvalues alone decide it: None or the message."""
        min_eig = float(np.linalg.eigvalsh(stack)[:, 0].min())
        return f"min eigenvalue {min_eig:.3e}" if min_eig < -PSD_CLAMP else None

    @pytest.mark.parametrize("low", [-5.0, -1.1, -1.001, -0.999, -0.9, -0.6, -0.5, -0.4, 0.0, 1e-3])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_same_verdict_and_message_as_eigenvalues(self, low, dim):
        rng = np.random.default_rng([dim, 7])
        stack = np.stack([with_spectrum(rng, rng.uniform(0.0, 1.0, dim)) for _ in range(5)])
        stack[3] = with_spectrum(rng, [low * PSD_CLAMP, *rng.uniform(0.0, 1.0, dim - 1)])
        want = self.eigenvalue_rule(stack)
        assert (want is None) == (low >= -1.0)
        if want is None:
            _require_psd(stack)
        else:
            with pytest.raises(NotPositiveSemidefinite) as err:
                _require_psd(stack)
            assert str(err.value) == want


class TestOrthonormalBasis:
    def test_identity(self):
        basis = OrthonormalBasis.identity(3)
        assert basis.dim == 3
        np.testing.assert_array_equal(basis.matrix, np.eye(3))

    def test_rejects_non_orthogonal(self):
        column = np.array([1.0, 0.0])
        with pytest.raises(InvalidBasis, match="orthonormality defect"):
            OrthonormalBasis(np.column_stack([column, column]))

    def test_rejects_incomplete_set(self):
        with pytest.raises(InvalidBasis, match="d vectors"):
            OrthonormalBasis(np.array([[1.0], [0.0]]))

    def test_rejects_a_scaled_unitary(self):
        with pytest.raises(InvalidBasis, match="orthonormality defect"):
            OrthonormalBasis(1.1 * random_basis(3, 2).matrix)

    def test_rejects_non_finite_entries(self):
        m = random_basis(3, 3).matrix.copy()
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite") as err:
            OrthonormalBasis(m)
        assert type(err.value) is ValueError


class TestMoments:
    def test_expectation_eigenstate(self, sigma_z, ket0):
        assert expectation(sigma_z, ket0) == pytest.approx(1.0)

    def test_expectation_off_diagonal(self, sigma_x, ket0):
        assert expectation(sigma_x, ket0) == pytest.approx(0.0, abs=1e-15)

    def test_expectation_maximally_mixed_is_normalized_trace(self):
        h = sample_gue(GueConfig(dim=4, seed=1))
        rho = DensityMatrix(np.eye(4) / 4.0)
        want = float(np.trace(h.matrix).real) / 4.0
        assert expectation(h, rho) == pytest.approx(want, abs=1e-12)

    def test_expectation_dimension_mismatch(self, sigma_x):
        with pytest.raises(DimensionMismatch):
            expectation(sigma_x, PureState(np.array([1.0, 0.0, 0.0])))

    def test_variance_eigenstate(self, sigma_z, ket0):
        assert variance(sigma_z, ket0) == 0.0

    def test_variance_sigma_x_on_ket0(self, sigma_x, ket0):
        assert variance(sigma_x, ket0) == pytest.approx(1.0)

    def test_projector_variance_tracks_angle(self, sigma_x, ket0):
        # A = |psi(0)><psi(0)| on the evolved state has variance sin^2(s0)/4
        a = Observable(ket0.projector())
        traj = sample_trajectory(sigma_x, ket0, 1.1, 12)
        for ket, s0 in zip(traj.stack, traj.s0):
            assert variance(a, PureState(ket)) == pytest.approx(0.25 * np.sin(s0) ** 2, abs=1e-12)

    def test_variance_equals_centered_second_moment(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            a = sample_gue(GueConfig(dim=dim, seed=dim))
            state = random_density(rng, dim)
            abar = centered(a, state)
            second = Observable(abar.matrix @ abar.matrix)
            assert variance(a, state) == pytest.approx(expectation(second, state), abs=1e-10)


class TestCentered:
    def test_shifts_by_mean(self, sigma_z, ket0):
        np.testing.assert_allclose(centered(sigma_z, ket0).matrix, sigma_z.matrix - np.eye(2))

    def test_traceless_on_maximally_mixed_unchanged(self, sigma_x):
        rho = DensityMatrix(np.eye(2) / 2.0)
        np.testing.assert_allclose(centered(sigma_x, rho).matrix, sigma_x.matrix)

    def test_idempotent(self, sigma_y, ket_plus):
        once = centered(sigma_y, ket_plus)
        np.testing.assert_allclose(centered(once, ket_plus).matrix, once.matrix, atol=1e-12)

    def test_centered_mean_vanishes(self):
        rng = np.random.default_rng(5)
        a = sample_gue(GueConfig(dim=3, seed=77))
        state = random_pure(rng, 3)
        assert abs(expectation(centered(a, state), state)) < 1e-10


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(5) / 5.0)) == pytest.approx(0.2)

    def test_two_level_example(self, qubit_mixed):
        assert purity(qubit_mixed) == pytest.approx(0.68)

    def test_diagonal_quarters(self):
        assert purity(DensityMatrix(np.diag([0.25, 0.75]))) == pytest.approx(0.625)


class TestBasisFromObservable:
    """An observable's eigenbasis, as linalg.eigh finds it."""

    def test_sigma_z_gives_computational_basis(self, sigma_z):
        basis = OrthonormalBasis(eigh(sigma_z.matrix).eigenvectors)
        # ascending eigenvalues put |1> first; compare moduli to ignore phase
        want = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(np.abs(basis.matrix), want, atol=1e-12)

    def test_degenerate_spectrum_still_complete(self):
        basis = OrthonormalBasis(eigh(np.eye(4)).eigenvectors)
        defect = np.max(np.abs(basis.matrix @ basis.matrix.conj().T - np.eye(4)))
        assert defect < 1e-9

    def test_random_hermitian_gram(self):
        vecs = eigh(sample_gue(GueConfig(dim=3, seed=23)).matrix).eigenvectors
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(3))) < 1e-9

    def test_a_stack_checks_every_member(self, monkeypatch):
        # eigenvectors of member 2 of 5 come back stretched: the stack's one
        # check must find them
        stack = np.stack([sample_gue(GueConfig(dim=3, seed=s)).matrix for s in range(5)])
        eigh(stack)
        real = np.linalg.eigh

        def stretched(m):
            w, v = real(m)
            v[2] *= 1.01
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        with pytest.raises(ValueError, match="not orthonormal"):
            eigh(stack)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_lift_preserves_moments(raw):
    # |psi><psi| must reproduce the vector state's moments
    v = np.array(raw[:4]) + 1j * np.array(raw[4:])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return
    psi = PureState(v / norm)
    a = sample_gue(GueConfig(dim=4, seed=13))
    rho = psi.to_density()
    assert abs(expectation(a, psi) - expectation(a, rho)) < 1e-10
    assert abs(variance(a, psi) - variance(a, rho)) < 1e-10
