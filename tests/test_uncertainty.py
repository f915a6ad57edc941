"""Uncertainty-bound chain: RS bound, cross term, tighter bounds, K.

The per-vector sums are re-derived with explicit loops wherever the library
uses a vectorized route, so the two computations check each other.
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
    UncertaintyReport,
    centered,
    correction_k_mixed,
    correction_k_pure,
    cross_term,
    eigh,
    moment_identity_residual,
    random_basis,
    robertson_schrodinger_bound,
    sample_gue,
    tighter_bound_mixed,
    tighter_bound_pure,
    uncertainty_report,
    variance,
)
from conftest import random_density, random_pure
from tqsl.uncertainty import NONNEG_CLAMP, _clamp_nonnegative


def draw(rng, dim, mixed):
    a = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
    b = sample_gue(GueConfig(dim=dim, seed=int(rng.integers(2**31))))
    basis = random_basis(dim, int(rng.integers(2**31)))
    state = random_density(rng, dim) if mixed else random_pure(rng, dim)
    return a, b, state, basis


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
            assert tighter_bound_pure(sigma_x, sigma_y, ket0, basis) == pytest.approx(1.0)

    def test_computational_basis_value(self, sigma_x, sigma_y, ket0):
        basis = OrthonormalBasis.identity(2)
        assert tighter_bound_pure(sigma_x, sigma_y, ket0, basis) == pytest.approx(1.0)

    def test_equal_operators_on_eigenstate(self, sigma_z, ket0):
        basis = OrthonormalBasis.identity(2)
        assert tighter_bound_pure(sigma_z, sigma_z, ket0, basis) == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(10)
        a, b, psi, basis = draw(rng, 3, mixed=False)
        abar = centered(a, psi).matrix
        bbar = centered(b, psi).matrix
        total = 0.0
        for n in range(3):
            u = basis.matrix[:, n]
            total += abs(np.vdot(psi.amplitudes, abar @ u) * np.vdot(u, bbar @ psi.amplitudes))
        assert tighter_bound_pure(a, b, psi, basis) == pytest.approx(total, abs=1e-12)

    def test_chain_on_random_draws(self):
        rng = np.random.default_rng(12)
        for k in range(40):
            a, b, psi, basis = draw(rng, 2 + k % 5, mixed=False)
            upper = math.sqrt(variance(a, psi) * variance(b, psi))
            tighter = tighter_bound_pure(a, b, psi, basis)
            cross = cross_term(a, b, psi)
            assert upper - tighter >= -1e-9
            assert tighter - cross >= -1e-9


class TestTighterMixed:
    def test_maximally_mixed_saturates_in_any_basis(self, sigma_x, sigma_y):
        # Delta A * Delta B = 1 and each term contributes sqrt(1/4) twice,
        # independent of the resolving basis.
        rho = DensityMatrix(np.eye(2) / 2.0)
        for basis in (OrthonormalBasis.identity(2), OrthonormalBasis(eigh(sigma_y.matrix).eigenvectors)):
            assert tighter_bound_mixed(sigma_x, sigma_y, rho, basis) == pytest.approx(1.0)

    def test_reduces_to_pure_on_lifts(self):
        rng = np.random.default_rng(13)
        for k in range(25):
            a, b, psi, basis = draw(rng, 2 + k % 4, mixed=False)
            diff = abs(
                tighter_bound_mixed(a, b, psi.to_density(), basis)
                - tighter_bound_pure(a, b, psi, basis)
            )
            assert diff < 1e-9

    def test_matches_per_projector_traces(self):
        # sqrt(f_nn g_nn) against literal traces, writing each factor with
        # the projector on a different side of the sandwich; adjointness of
        # Pn Mbar and Mbar Pn under Tr(rho . ) makes the placements equal.
        rng = np.random.default_rng(14)
        a, b, rho, basis = draw(rng, 4, mixed=True)
        fast = tighter_bound_mixed(a, b, rho, basis)
        abar = centered(a, rho).matrix
        bbar = centered(b, rho).matrix
        r = rho.matrix
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
        abar = centered(a, rho).matrix
        bbar = centered(b, rho).matrix
        r = rho.matrix
        pieces = []
        for n in range(3):
            u = basis.matrix[:, n]
            pn = np.outer(u, u.conj())
            piece = np.trace(r @ abar @ pn @ bbar)
            f_n = np.trace(abar @ r @ abar @ pn).real
            g_n = np.trace(bbar @ r @ bbar @ pn).real
            assert abs(piece) <= math.sqrt(max(f_n, 0.0) * max(g_n, 0.0)) + 1e-12
            pieces.append(piece)
        assert abs(sum(pieces)) == pytest.approx(cross_term(a, b, rho), abs=1e-10)

    def test_chain_on_random_draws(self):
        rng = np.random.default_rng(15)
        for k in range(40):
            a, b, rho, basis = draw(rng, 2 + k % 5, mixed=True)
            upper = math.sqrt(variance(a, rho) * variance(b, rho))
            tighter = tighter_bound_mixed(a, b, rho, basis)
            cross = cross_term(a, b, rho)
            assert upper - tighter >= -1e-9
            assert tighter - cross >= -1e-9


class TestCorrectionK:
    def test_pure_vanishes_when_a_annihilates(self, sigma_x, ket0):
        # A = |psi><psi| evaluated in |psi> itself: Abar|psi> = 0
        a = Observable(ket0.projector())
        assert correction_k_pure(a, sigma_x, ket0, OrthonormalBasis.identity(2)) == 0.0

    def test_pure_vanishes_when_saturated(self, sigma_x, sigma_y, ket0):
        assert correction_k_pure(
            sigma_x, sigma_y, ket0, OrthonormalBasis.identity(2)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_pure_is_the_gap(self):
        rng = np.random.default_rng(16)
        a, b, psi, basis = draw(rng, 3, mixed=False)
        want = tighter_bound_pure(a, b, psi, basis) - cross_term(a, b, psi)
        assert correction_k_pure(a, b, psi, basis) == pytest.approx(want, abs=1e-12)

    def test_mixed_vanishes_for_commuting_diagonals(self):
        a = Observable(np.diag([1.0, -1.0, 0.5]))
        b = Observable(np.diag([0.3, 0.9, -0.2]))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        k = correction_k_mixed(a, b, rho, OrthonormalBasis.identity(3))
        assert k == pytest.approx(0.0, abs=1e-12)

    def test_mixed_reduces_to_pure(self, sigma_x, sigma_y, ket0):
        basis = OrthonormalBasis.identity(2)
        pure = correction_k_pure(sigma_x, sigma_y, ket0, basis)
        lifted = correction_k_mixed(sigma_x, sigma_y, ket0.to_density(), basis)
        assert lifted == pytest.approx(pure, abs=1e-9)

    def test_mixed_nonnegative_on_draws(self):
        rng = np.random.default_rng(17)
        for k in range(60):
            a, b, rho, basis = draw(rng, 2 + k % 5, mixed=True)
            assert correction_k_mixed(a, b, rho, basis) >= 0.0


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

    def test_rejects_broken_chain(self):
        with pytest.raises(BoundViolation):
            UncertaintyReport(
                delta_a=1.0,
                delta_b=1.0,
                tighter_bound=2.0,
                rs_bound=0.5,
                cross_term=0.5,
                correction_k=1.5,
            )

    def test_rejects_wrong_gap(self):
        with pytest.raises(BoundViolation, match="gap"):
            UncertaintyReport(
                delta_a=1.0,
                delta_b=1.0,
                tighter_bound=0.8,
                rs_bound=0.5,
                cross_term=0.5,
                correction_k=0.0,
            )

    def test_rejects_negative_field(self):
        with pytest.raises(BoundViolation):
            UncertaintyReport(
                delta_a=-1.0,
                delta_b=1.0,
                tighter_bound=0.5,
                rs_bound=0.5,
                cross_term=0.5,
                correction_k=0.0,
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
