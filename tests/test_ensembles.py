"""GUE sampling and the x-string spin chain."""
import math

import numpy as np
import pytest
import scipy.linalg

from tqsl import (
    BlockIndexOutOfRange,
    ConfigError,
    GueConfig,
    NotProductState,
    Observable,
    PureState,
    SpinChainConfig,
    evolve_pure,
    hermitian_defect,
    random_basis,
    sample_gue,
    spin_chain_evolved_state,
    spin_chain_hamiltonian,
)


class TestGueConfig:
    def test_rejects_small_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            GueConfig(dim=1, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            GueConfig(dim=3, seed=-1)


class TestSampleGue:
    def test_is_exactly_hermitian(self):
        for seed in range(5):
            h = sample_gue(GueConfig(dim=4, seed=seed))
            assert hermitian_defect(h.matrix) == 0.0

    def test_bit_reproducible(self):
        a = sample_gue(GueConfig(dim=5, seed=42))
        b = sample_gue(GueConfig(dim=5, seed=42))
        assert np.array_equal(a.matrix, b.matrix)

    def test_seeds_give_distinct_draws(self):
        a = sample_gue(GueConfig(dim=3, seed=0))
        b = sample_gue(GueConfig(dim=3, seed=1))
        assert not np.allclose(a.matrix, b.matrix)

    def test_frozen_draw_order(self):
        # pins the sampler's draw order; reruns must reproduce artifacts
        # byte for byte, so a silent reordering here is a real break
        h = sample_gue(GueConfig(dim=3, seed=0)).matrix
        assert h[0, 0] == pytest.approx(0.07259037699354177 + 0j, abs=1e-15)
        assert h[0, 1] == pytest.approx(0.04282529349718742 + 0.5323557891891787j, abs=1e-15)

    def test_trace_statistics(self):
        # E[Tr H] = 0 and E[Tr H^2] = D under the exp(-(D/2) Tr H^2) density
        traces, squares = [], []
        for seed in range(2000):
            m = sample_gue(GueConfig(dim=3, seed=seed)).matrix
            traces.append(float(np.trace(m).real))
            squares.append(float(np.trace(m @ m).real))
        assert abs(np.mean(traces)) < 0.1
        assert np.mean(squares) == pytest.approx(3.0, abs=0.15)


class TestRandomBasis:
    def test_orthonormal_and_complete(self):
        for dim in (2, 3, 5):
            u = random_basis(dim, seed=13).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)

    def test_deterministic(self):
        a = random_basis(4, seed=5)
        b = random_basis(4, seed=5)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seed_dependence(self):
        a = random_basis(3, seed=1)
        b = random_basis(3, seed=2)
        assert not np.allclose(np.abs(a.matrix), np.abs(b.matrix))


class TestSpinChainConfig:
    def test_rejects_bad_spin_count(self):
        with pytest.raises(ConfigError, match="num_spins"):
            SpinChainConfig(num_spins=0)
        with pytest.raises(ConfigError, match="num_spins"):
            SpinChainConfig(num_spins=11)

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ConfigError, match="positive"):
            SpinChainConfig(num_spins=2, omega0=0.0)
        with pytest.raises(ConfigError, match="positive"):
            SpinChainConfig(num_spins=2, omega=-1.0)

    @pytest.mark.parametrize("field", ["omega0", "omega"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_couplings(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
            SpinChainConfig(num_spins=2, **{field: value})

    def test_rejects_repeated_block_site(self):
        with pytest.raises(BlockIndexOutOfRange, match="repeated"):
            SpinChainConfig(num_spins=3, blocks=((1, 1),))

    def test_rejects_out_of_range_site(self):
        with pytest.raises(BlockIndexOutOfRange, match="outside"):
            SpinChainConfig(num_spins=2, blocks=((1, 3),))

    def test_normalizes_blocks_to_tuples(self):
        cfg = SpinChainConfig(num_spins=3, blocks=[[1, 2], [2, 3]])
        assert cfg.blocks == ((1, 2), (2, 3))

    def test_dim(self):
        assert SpinChainConfig(num_spins=4).dim == 16


class TestSpinChainHamiltonian:
    def test_single_spin_spectrum(self):
        h = spin_chain_hamiltonian(SpinChainConfig(num_spins=1, omega0=1.3))
        np.testing.assert_allclose(np.linalg.eigvalsh(h.matrix), [0.0, 2.6], atol=1e-12)

    def test_two_spin_one_block_spectrum(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        h = spin_chain_hamiltonian(cfg)
        np.testing.assert_allclose(np.linalg.eigvalsh(h.matrix), [0.0, 4.0, 4.0, 4.0], atol=1e-12)

    def test_asymmetric_couplings_spectrum(self):
        # energies omega0*(2 - s1 - s2) + omega*(1 - s1 s2) over s = +-1
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),), omega0=1.3, omega=0.7)
        h = spin_chain_hamiltonian(cfg)
        np.testing.assert_allclose(np.linalg.eigvalsh(h.matrix), [0.0, 4.0, 4.0, 5.2], atol=1e-12)

    def test_hbar_scales_linearly(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        h1 = spin_chain_hamiltonian(cfg, hbar=1.0)
        h2 = spin_chain_hamiltonian(cfg, hbar=2.0)
        np.testing.assert_allclose(h2.matrix, 2.0 * h1.matrix, atol=1e-12)

    def test_all_terms_commute(self):
        cfg = SpinChainConfig(num_spins=3, blocks=((1, 2), (2, 3)))
        h = spin_chain_hamiltonian(cfg).matrix
        for sites in ((1,), (2,), (3,), (1, 2), (2, 3)):
            x = np.eye(1, dtype=complex)
            for s in range(1, 4):
                pauli = np.array([[0, 1], [1, 0]], dtype=complex)
                x = np.kron(x, pauli if s in sites else np.eye(2))
            assert np.max(np.abs(h @ x - x @ h)) < 1e-12


class TestSpinChainEvolvedState:
    def ket(self, *bits):
        v = np.zeros(2 ** len(bits), dtype=complex)
        v[int("".join(map(str, bits)), 2)] = 1.0
        return PureState(v)

    def test_zero_time_is_identity(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        psi = self.ket(0, 0)
        out = spin_chain_evolved_state(cfg, psi, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_matches_dense_exponential(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),), omega0=1.3, omega=0.7)
        h = spin_chain_hamiltonian(cfg)
        psi = self.ket(0, 0)
        for t in (0.3, 0.9, 1.7):
            want = scipy.linalg.expm(-1j * h.matrix * t) @ psi.amplitudes
            got = spin_chain_evolved_state(cfg, psi, t).amplitudes
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_three_site_block_matches_evolution(self):
        cfg = SpinChainConfig(num_spins=3, blocks=((1, 2, 3),))
        h = spin_chain_hamiltonian(cfg)
        plus = PureState(np.ones(2, dtype=complex) / math.sqrt(2.0))
        psi = PureState(np.kron(np.kron(plus.amplitudes, [1.0, 0.0]), [1.0, 0.0]))
        for t in (0.4, 1.1):
            want = evolve_pure(h, psi, t).amplitudes
            got = spin_chain_evolved_state(cfg, psi, t).amplitudes
            fid = abs(complex(np.vdot(got, want)))
            assert fid >= 1.0 - 1e-10
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_fidelity_along_grid(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        h = spin_chain_hamiltonian(cfg)
        psi = self.ket(0, 0)
        for t in np.linspace(0.0, 2.0, 50):
            want = evolve_pure(h, psi, float(t))
            got = spin_chain_evolved_state(cfg, psi, float(t))
            assert abs(complex(np.vdot(got.amplitudes, want.amplitudes))) >= 1.0 - 1e-10

    def test_rejects_entangled_state(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        bell = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        with pytest.raises(NotProductState, match="purity"):
            spin_chain_evolved_state(cfg, bell, 1.0)

    def test_rejects_dimension_mismatch(self):
        cfg = SpinChainConfig(num_spins=2)
        with pytest.raises(ConfigError, match="dim"):
            spin_chain_evolved_state(cfg, self.ket(0), 1.0)
