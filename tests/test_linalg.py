"""Matrix-kernel tests: eigensystems, exponentials, PSD roots.

scipy.linalg.expm serves as an independent oracle for the eigendecomposition
route wherever both are applicable.
"""
import numpy as np
import pytest
import scipy.linalg

from tqsl import (
    GueConfig,
    NonHermitianInput,
    NotPositiveSemidefinite,
    eigh,
    expm_i_hermitian,
    hermitian_defect,
    sample_gue,
    sqrtm_psd,
)
from tqsl.linalg import as_complex_matrix, require_hermitian


def reconstruct(dec) -> np.ndarray:
    """V diag(w) V^dagger, of one decomposition or of each in a stack."""
    w, v = dec
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def patched_eigh(monkeypatch, doctor):
    """np.linalg.eigh returns doctor(w, v) of its true result."""
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: doctor(*real(m)))


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


class TestCoercion:
    def test_accepts_nested_lists(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.dtype == complex and m.shape == (2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-d"):
            as_complex_matrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_complex_matrix([[np.nan, 0.0], [0.0, 0.0]])

    def test_hermitian_defect_of_hermitian_is_zero(self):
        assert hermitian_defect(np.array([[1.0, 2j], [-2j, 3.0]])) == 0.0

    def test_require_hermitian_symmetrizes(self):
        eps = 1e-12
        m = require_hermitian([[1.0, 1.0 + eps], [1.0, 2.0]])
        assert hermitian_defect(m) == 0.0

    def test_require_hermitian_rejects_beyond_tolerance(self):
        with pytest.raises(NonHermitianInput):
            require_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_require_hermitian_rejects_non_square(self):
        with pytest.raises(NonHermitianInput, match="square"):
            require_hermitian(np.zeros((2, 3)))


class TestEigh:
    def test_identity_eigenvalues(self):
        dec = eigh(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])

    def test_sigma_x_eigensystem(self, sigma_x):
        dec = eigh(sigma_x.matrix)
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
        minus, plus = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
        # eigenvectors are (|0> -+ |1>)/sqrt2 up to a global phase
        assert abs(abs(np.vdot(minus, [1, -1] / np.sqrt(2))) - 1.0) < 1e-12
        assert abs(abs(np.vdot(plus, [1, 1] / np.sqrt(2))) - 1.0) < 1e-12

    def test_gue_reconstruction(self):
        h = sample_gue(GueConfig(dim=3, seed=11)).matrix
        dec = eigh(h)
        assert np.linalg.norm(reconstruct(dec) - h) < 1e-9

    def test_reconstruction_up_to_dim_16(self):
        rng = np.random.default_rng(42)
        for dim in (2, 5, 9, 16):
            h = random_hermitian(rng, dim)
            dec = eigh(h)
            rel = np.linalg.norm(reconstruct(dec) - h) / np.linalg.norm(h)
            assert rel < 1e-9

    def test_eigenvalues_ascend(self):
        rng = np.random.default_rng(3)
        w = eigh(random_hermitian(rng, 6)).eigenvalues
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            eigh([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_stretched_columns(self, monkeypatch):
        patched_eigh(monkeypatch, lambda w, v: (w, 2.0 * v))
        with pytest.raises(ValueError, match="orthonormal"):
            eigh(np.eye(2))

    def test_rejects_nan_columns(self, monkeypatch):
        patched_eigh(monkeypatch, lambda w, v: (w, np.full_like(v, np.nan)))
        with pytest.raises(ValueError, match="orthonormal"):
            eigh(np.eye(2))

    def test_rejects_nan_eigenvalues(self, monkeypatch):
        # the columns stay orthonormal: only the residual check sees NaN
        patched_eigh(monkeypatch, lambda w, v: (np.full_like(w, np.nan), v))
        with pytest.raises(ValueError, match="eigensystem residual"):
            eigh(np.eye(2))

    def test_returns_numpys_named_pair(self):
        dec = eigh(np.eye(2))
        assert type(dec) is type(np.linalg.eigh(np.eye(2)))
        w, v = dec
        assert w is dec.eigenvalues and v is dec.eigenvectors

    def test_arrays_are_read_only(self):
        dec = eigh(np.eye(2))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 5.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 5.0

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e12])
    def test_residual_is_relative_to_max_entry(self, scale):
        h = scale * sample_gue(GueConfig(dim=8, seed=3)).matrix
        assert eigh(h).eigenvalues.shape == (8,)

    def test_rejects_shifted_eigenvalues(self, monkeypatch):
        # orthonormal columns pass the Gram check; only the residual
        # max|HV - V diag(w)| sees that they no longer go with w
        h = sample_gue(GueConfig(dim=3, seed=0)).matrix
        patched_eigh(monkeypatch, lambda w, v: (w + 1e-6, v))
        with pytest.raises(ValueError, match="eigensystem residual"):
            eigh(h)
        with pytest.raises(ValueError, match="eigensystem residual"):
            eigh(np.stack([h, h]))


class TestStackedEigh:
    def directions(self, count=12, dim=3):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        return g + g.conj().transpose(0, 2, 1)

    def test_matches_per_matrix_bitwise(self):
        stack = self.directions()
        dec = eigh(stack)
        assert dec.eigenvalues.shape == (12, 3) and dec.eigenvectors.shape == (12, 3, 3)
        for j, g in enumerate(stack):
            one = eigh(g)
            np.testing.assert_array_equal(dec.eigenvalues[j], one.eigenvalues)
            np.testing.assert_array_equal(dec.eigenvectors[j], one.eigenvectors)

    def test_member_exponential_matches_matrix_route_bitwise(self):
        stack = self.directions()
        dec = eigh(stack)
        for j in (0, 5, 11):
            member = dec._make(a[j] for a in dec)
            np.testing.assert_array_equal(
                expm_i_hermitian(member, -0.4), expm_i_hermitian(stack[j], -0.4)
            )

    def test_stacked_exponential_matches_members_bitwise(self):
        # the optimizer's route: the rows of one stacked pair, one step each
        stack = self.directions()
        dec = eigh(stack)
        rows, steps = np.array([0, 5, 11]), np.array([-0.4, 0.2, -0.1])
        got = expm_i_hermitian(dec._make(a[rows] for a in dec), steps)
        for k, j in enumerate(rows):
            np.testing.assert_array_equal(got[k], expm_i_hermitian(stack[j], steps[k]))

    def test_a_nested_tuple_is_a_matrix(self):
        nested = ((0.0, 1.0), (1.0, 0.0))
        np.testing.assert_array_equal(expm_i_hermitian(nested, 0.3), expm_i_hermitian(np.array(nested), 0.3))

    def test_rejects_one_non_hermitian_member(self):
        stack = self.directions()
        stack[7, 0, 1] += 1e-6
        with pytest.raises(NonHermitianInput):
            eigh(stack)

    def test_rejects_non_square_stack(self):
        with pytest.raises(NonHermitianInput, match="square"):
            eigh(np.zeros((4, 2, 3)))

    def test_rejects_one_bad_member(self, monkeypatch):
        def doctor(w, v):
            v = v.copy()
            v[2] = np.ones((2, 2))
            return w, v

        patched_eigh(monkeypatch, doctor)
        with pytest.raises(ValueError, match="orthonormal"):
            eigh(np.stack([np.eye(2)] * 3))

    def test_rejects_one_nan_member(self, monkeypatch):
        def doctor(w, v):
            v = v.copy()
            v[1, 0, 0] = np.nan
            return w, v

        patched_eigh(monkeypatch, doctor)
        with pytest.raises(ValueError, match="orthonormal"):
            eigh(np.stack([np.eye(2)] * 3))

    def test_reconstruction_of_each_member(self):
        stack = self.directions(count=4, dim=5)
        rebuilt = reconstruct(eigh(stack))
        assert np.max(np.abs(rebuilt - stack)) < 1e-12

    def test_empty_stack(self):
        dec = eigh(np.zeros((0, 3, 3)))
        assert dec.eigenvalues.shape == (0, 3)


class TestExpm:
    def test_zero_generator(self):
        np.testing.assert_allclose(expm_i_hermitian(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-15)

    def test_sigma_z_quarter_turn(self, sigma_z):
        u = expm_i_hermitian(sigma_z.matrix, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_unitarity_on_gue(self):
        h = sample_gue(GueConfig(dim=4, seed=2)).matrix
        u = expm_i_hermitian(h, 1.3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9

    def test_inverse_is_negative_time(self):
        h = sample_gue(GueConfig(dim=3, seed=9)).matrix
        prod = expm_i_hermitian(h, 0.8) @ expm_i_hermitian(h, -0.8)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-9

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 5):
            h = random_hermitian(rng, dim)
            ours = expm_i_hermitian(h, 0.9)
            reference = scipy.linalg.expm(-1j * h * 0.9)
            np.testing.assert_allclose(ours, reference, atol=1e-10)


class TestSqrtmPsd:
    def test_scalar_matrix(self):
        np.testing.assert_allclose(sqrtm_psd(np.eye(2) / 2), np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_diagonal(self):
        root = sqrtm_psd(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(root, np.diag([0.5, np.sqrt(0.75)]), atol=1e-14)

    def test_projector_is_fixed_point(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(sqrtm_psd(p), p, atol=1e-12)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(6)
        for dim in (2, 4, 7):
            w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = w @ w.conj().T
            root = sqrtm_psd(m)
            assert np.max(np.abs(root @ root - m)) < 1e-9

    def test_clamps_round_off_negatives(self):
        root = sqrtm_psd(np.diag([1.0, -1e-12]))
        assert np.all(np.isfinite(root))

    def test_rejects_genuinely_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            sqrtm_psd(np.diag([1.0, -1e-6]))
