"""Uncertainty-bound chain: RS bound, cross term, tighter bounds, K.

The chain is read through tests/uncertainty_oracle.py, whose functions are
the one-root case of the package's K kernel. The per-vector sums are
re-derived with explicit loops wherever the kernel uses a vectorized route,
so the two computations check each other. The kernel evaluates kets and
density matrices alike, so each explicit-loop reference runs on both kinds
of state.
"""
import math

import numpy as np
import pytest

from tqsl import (
    BoundViolation,
    DensityMatrix,
    DimensionMismatch,
    GueConfig,
    Observable,
    OrthonormalBasis,
    PureState,
    centered,
    eigh,
    random_basis,
    sample_gue,
    sqrtm_psd,
    variance,
)
from conftest import random_density, random_pure
from tqsl.uncertainty import NONNEG_CLAMP, _clamp_nonnegative, _k_terms
from uncertainty_oracle import (
    correction_k,
    cross_term,
    moment_identity_residual,
    robertson_schrodinger_bound,
    tighter_bound,
    uncertainty_report,
)


def draw(rng, dim, mixed):
    a = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
    b = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
    basis = random_basis(dim, int(rng.integers(2**31)))
    state = random_density(rng, dim) if mixed else random_pure(rng, dim)
    return a, b, state, basis


def density_matrix(state) -> np.ndarray:
    """rho of a ket or a density matrix."""
    return state.projector() if isinstance(state, PureState) else state.matrix


class TestRobertsonSchrodinger:
    def test_pauli_pair_on_ket0(self, sigma_x, sigma_y, ket0):
        assert robertson_schrodinger_bound(sigma_x, sigma_y, ket0) == pytest.approx(1.0)

    def test_commuting_diagonal_pair(self, ket0):
        a = Observable(np.diag([1.0, 2.0]))
        b = Observable(np.diag([3.0, -1.0]))
        assert robertson_schrodinger_bound(a, b, ket0) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_on_plus_state(self, sigma_x, sigma_y, ket_plus):
        assert robertson_schrodinger_bound(sigma_x, sigma_y, ket_plus) == pytest.approx(0.0, abs=1e-12)
        assert variance(sigma_x, ket_plus) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, sigma_x, sigma_y):
        with pytest.raises(DimensionMismatch):
            robertson_schrodinger_bound(sigma_x, sigma_y, PureState(np.array([1.0, 0, 0])))


class TestCrossTerm:
    def test_pauli_pair_on_ket0(self, sigma_x, sigma_y, ket0):
        assert cross_term(sigma_x, sigma_y, ket0) == pytest.approx(1.0)

    def test_equal_operators_give_variance(self, sigma_z, ket_plus):
        assert cross_term(sigma_z, sigma_z, ket_plus) == pytest.approx(variance(sigma_z, ket_plus))

    def test_vanishes_on_maximally_mixed(self, sigma_x, sigma_y):
        rho = DensityMatrix(np.eye(2) / 2.0)
        assert cross_term(sigma_x, sigma_y, rho) == pytest.approx(0.0, abs=1e-12)


class TestTighterPure:
    def test_saturates_for_pauli_pair(self, sigma_x, sigma_y, ket0):
        for seed in (0, 1, 2):
            basis = random_basis(2, seed)
            assert tighter_bound(sigma_x, sigma_y, ket0, basis) == pytest.approx(1.0)

    def test_computational_basis_value(self, sigma_x, sigma_y, ket0):
        basis = OrthonormalBasis.identity(2)
        assert tighter_bound(sigma_x, sigma_y, ket0, basis) == pytest.approx(1.0)

    def test_equal_operators_on_eigenstate(self, sigma_z, ket0):
        basis = OrthonormalBasis.identity(2)
        assert tighter_bound(sigma_z, sigma_z, ket0, basis) == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_sum(self):
        # the ket's per-vector products, against the ket and its density matrix
        rng = np.random.default_rng(10)
        a, b, psi, basis = draw(rng, 3, mixed=False)
        abar = centered(a, psi).matrix
        bbar = centered(b, psi).matrix
        total = 0.0
        for n in range(3):
            u = basis.matrix[:, n]
            total += abs(np.vdot(psi.amplitudes, abar @ u) * np.vdot(u, bbar @ psi.amplitudes))
        for state in (psi, psi.to_density()):
            assert tighter_bound(a, b, state, basis) == pytest.approx(total, abs=1e-12)

    def test_chain_on_random_draws(self):
        rng = np.random.default_rng(12)
        for k in range(40):
            a, b, psi, basis = draw(rng, 2 + k % 5, mixed=False)
            upper = math.sqrt(variance(a, psi) * variance(b, psi))
            tighter = tighter_bound(a, b, psi, basis)
            cross = cross_term(a, b, psi)
            assert upper - tighter >= -1e-9
            assert tighter - cross >= -1e-9


class TestTighterMixed:
    def test_maximally_mixed_saturates_in_any_basis(self, sigma_x, sigma_y):
        # Delta A * Delta B = 1 and each term contributes sqrt(1/4) twice,
        # independent of the resolving basis.
        rho = DensityMatrix(np.eye(2) / 2.0)
        for basis in (OrthonormalBasis.identity(2), OrthonormalBasis(eigh(sigma_y.matrix).eigenvectors)):
            assert tighter_bound(sigma_x, sigma_y, rho, basis) == pytest.approx(1.0)

    def test_reduces_to_pure_on_lifts(self):
        rng = np.random.default_rng(13)
        for k in range(25):
            a, b, psi, basis = draw(rng, 2 + k % 4, mixed=False)
            diff = abs(tighter_bound(a, b, psi.to_density(), basis) - tighter_bound(a, b, psi, basis))
            assert diff < 1e-9

    def test_matches_per_projector_traces(self):
        # sqrt(f_nn g_nn) against literal traces, writing each factor with
        # the projector on a different side of the sandwich; adjointness of
        # Pn Mbar and Mbar Pn under Tr(rho . ) makes the placements equal.
        rng = np.random.default_rng(14)
        a, b, rho, basis = draw(rng, 4, mixed=True)
        for state in (rho, random_pure(rng, 4)):
            fast = tighter_bound(a, b, state, basis)
            abar = centered(a, state).matrix
            bbar = centered(b, state).matrix
            r = density_matrix(state)
            total = 0.0
            for n in range(4):
                u = basis.matrix[:, n]
                pn = np.outer(u, u.conj())
                f_n = np.trace(abar @ r @ abar @ pn).real
                g_n = np.trace(r @ bbar @ pn @ bbar).real
                total += math.sqrt(max(f_n, 0.0) * max(g_n, 0.0))
            assert fast == pytest.approx(total, abs=1e-9)

    def test_each_term_dominates_its_cross_piece(self):
        # Cauchy-Schwarz term by term: sqrt(f_nn g_nn) >= |Tr(rho Abar Pn Bbar)|,
        # and the cross pieces sum to the unresolved cross term.
        rng = np.random.default_rng(24)
        a, b, rho, basis = draw(rng, 3, mixed=True)
        for state in (rho, random_pure(rng, 3)):
            abar = centered(a, state).matrix
            bbar = centered(b, state).matrix
            r = density_matrix(state)
            pieces = []
            for n in range(3):
                u = basis.matrix[:, n]
                pn = np.outer(u, u.conj())
                piece = np.trace(r @ abar @ pn @ bbar)
                f_n = np.trace(abar @ r @ abar @ pn).real
                g_n = np.trace(bbar @ r @ bbar @ pn).real
                assert abs(piece) <= math.sqrt(max(f_n, 0.0) * max(g_n, 0.0)) + 1e-12
                pieces.append(piece)
            assert abs(sum(pieces)) == pytest.approx(cross_term(a, b, state), abs=1e-10)

    def test_chain_on_random_draws(self):
        rng = np.random.default_rng(15)
        for k in range(40):
            a, b, rho, basis = draw(rng, 2 + k % 5, mixed=True)
            upper = math.sqrt(variance(a, rho) * variance(b, rho))
            tighter = tighter_bound(a, b, rho, basis)
            cross = cross_term(a, b, rho)
            assert upper - tighter >= -1e-9
            assert tighter - cross >= -1e-9


def old_pure_products(a, b, psi, basis):
    """The ket formula the one-root kernel replaced: per-vector products
    <psi|Abar|n><n|Bbar|psi>."""
    abar = centered(a, psi).matrix
    bbar = centered(b, psi).matrix
    uh = basis.matrix.conj().T
    v = psi.amplitudes
    return (uh @ (abar @ v)).conj() * (uh @ (bbar @ v))


def old_mixed_diagonals(a, b, rho, basis):
    """The density-matrix formula the one-root kernel replaced: the
    diagonals ||sqrt(rho) Mbar |n>||^2, and Tr(Abar rho Bbar)."""
    abar = centered(a, rho).matrix
    bbar = centered(b, rho).matrix
    root = sqrtm_psd(rho.matrix)
    u = basis.matrix
    f_nn = np.sum(np.abs(root @ (abar @ u)) ** 2, axis=0)
    g_nn = np.sum(np.abs(root @ (bbar @ u)) ** 2, axis=0)
    return f_nn, g_nn, np.trace(abar @ rho.matrix @ bbar)


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
class TestOneRootKernel:
    """The per-state chain is the one-root case of _k_terms: a ket psi is
    the 1 x d root psi^dagger, a density matrix the root sqrt(rho)."""

    def test_ket_root(self, dim):
        a, b, psi, basis = draw(np.random.default_rng([dim, 1]), dim, mixed=False)
        tighter, cross = _k_terms(psi.amplitudes.conj()[None, None], a.matrix, b.matrix, basis.matrix[None])
        prods = old_pure_products(a, b, psi, basis)
        assert tighter.shape == (1, 1) and cross.shape == (1,)
        np.testing.assert_allclose(tighter[0, 0], np.abs(prods).sum(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(cross[0], abs(prods.sum()), rtol=1e-12, atol=0)

    def test_density_root(self, dim):
        a, b, rho, basis = draw(np.random.default_rng([dim, 2]), dim, mixed=True)
        tighter, cross = _k_terms(sqrtm_psd(rho.matrix)[None], a.matrix, b.matrix, basis.matrix[None])
        f_nn, g_nn, moment = old_mixed_diagonals(a, b, rho, basis)
        np.testing.assert_allclose(tighter[0, 0], np.sqrt(f_nn * g_nn).sum(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(cross[0], abs(moment), rtol=1e-12, atol=0)

    def test_ket_matches_its_density_matrix(self, dim):
        a, b, psi, basis = draw(np.random.default_rng([dim, 3]), dim, mixed=False)
        want = tighter_bound(a, b, psi, basis)
        assert tighter_bound(a, b, psi.to_density(), basis) == pytest.approx(want, rel=1e-12, abs=0)


class TestCorrectionK:
    def test_pure_vanishes_when_a_annihilates(self, sigma_x, ket0):
        # A = |psi><psi| evaluated in |psi> itself: Abar|psi> = 0
        a = Observable(ket0.projector())
        assert correction_k(a, sigma_x, ket0, OrthonormalBasis.identity(2)) == 0.0

    def test_pure_vanishes_when_saturated(self, sigma_x, sigma_y, ket0):
        assert correction_k(
            sigma_x, sigma_y, ket0, OrthonormalBasis.identity(2)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_pure_is_the_gap(self):
        rng = np.random.default_rng(16)
        a, b, psi, basis = draw(rng, 3, mixed=False)
        want = tighter_bound(a, b, psi, basis) - cross_term(a, b, psi)
        assert correction_k(a, b, psi, basis) == pytest.approx(want, abs=1e-12)

    def test_mixed_vanishes_for_commuting_diagonals(self):
        a = Observable(np.diag([1.0, -1.0, 0.5]))
        b = Observable(np.diag([0.3, 0.9, -0.2]))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        k = correction_k(a, b, rho, OrthonormalBasis.identity(3))
        assert k == pytest.approx(0.0, abs=1e-12)

    def test_mixed_reduces_to_pure(self, sigma_x, sigma_y, ket0):
        basis = OrthonormalBasis.identity(2)
        pure = correction_k(sigma_x, sigma_y, ket0, basis)
        lifted = correction_k(sigma_x, sigma_y, ket0.to_density(), basis)
        assert lifted == pytest.approx(pure, abs=1e-9)

    def test_mixed_nonnegative_on_draws(self):
        rng = np.random.default_rng(17)
        for k in range(60):
            a, b, rho, basis = draw(rng, 2 + k % 5, mixed=True)
            assert correction_k(a, b, rho, basis) >= 0.0


class TestUncertaintyReport:
    def test_report_fields_are_consistent(self):
        rng = np.random.default_rng(18)
        for mixed in (False, True):
            a, b, state, basis = draw(rng, 3, mixed)
            rep = uncertainty_report(a, b, state, basis)
            assert rep.delta_a * rep.delta_b >= rep.tighter_bound - 1e-9
            assert rep.tighter_bound >= rep.cross_term - 1e-9
            assert rep.correction_k == pytest.approx(
                rep.tighter_bound - rep.cross_term, abs=1e-9
            )

    def test_rs_and_cross_agree(self):
        # same quantity through centered-product and raw-moment routes
        rng = np.random.default_rng(19)
        for mixed in (False, True):
            for k in range(20):
                a, b, state, _ = draw(rng, 2 + k % 4, mixed)
                assert robertson_schrodinger_bound(a, b, state) == pytest.approx(
                    cross_term(a, b, state), abs=1e-9
                )


class TestMomentIdentity:
    def test_holds_for_pure_and_mixed(self):
        rng = np.random.default_rng(20)
        for mixed in (False, True):
            for k in range(20):
                a, b, state, _ = draw(rng, 2 + k % 4, mixed)
                assert abs(moment_identity_residual(a, b, state)) < 1e-9


class TestClampNonnegative:
    """The one clamp behind every K value and K series."""

    def test_round_off_negatives_become_zero(self):
        assert _clamp_nonnegative(-0.5 * NONNEG_CLAMP, "k") == 0.0
        assert _clamp_nonnegative(0.25, "k") == 0.25
        got = _clamp_nonnegative(np.array([0.5, -0.5 * NONNEG_CLAMP, 0.0]), "k series")
        np.testing.assert_array_equal(got, [0.5, 0.0, 0.0])

    @pytest.mark.parametrize("value", [-2.0 * NONNEG_CLAMP, np.array([0.1, -2.0 * NONNEG_CLAMP])])
    def test_deeper_dip_raises(self, value):
        with pytest.raises(BoundViolation, match="k = -2.000e-09 below"):
            _clamp_nonnegative(value, "k")
