"""GUE sampling and the x-string spin chain."""
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from tqsl import (
    BlockIndexOutOfRange,
    ConfigError,
    ExperimentConfig,
    GueConfig,
    NotProductState,
    Observable,
    PureState,
    SpinChainConfig,
    hermitian_defect,
    random_basis,
    sample_gue,
    sample_trajectory,
    spin_chain_evolved_state,
    spin_chain_hamiltonian,
)
from conftest import evolve_pure
from tqsl.experiments import _fixed_bases
from tqsl.linalg import eigh
from spin_oracle_loop import dense_hamiltonian, evolved_ket, evolved_rows, x_string


class TestGueConfig:
    def test_rejects_small_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            GueConfig(dim=1, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            GueConfig(dim=3, seed=-1)

    @pytest.mark.parametrize("field, value", [("dim", 2.5), ("dim", True), ("seed", 1.5), ("seed", True)])
    def test_rejects_non_integer_fields(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            GueConfig(**{"dim": 3, "seed": 0, field: value})

    def test_takes_integer_like_fields(self):
        cfg = GueConfig(dim=np.int64(3), seed=np.uint8(2))
        assert (cfg.dim, cfg.seed) == (3, 2)
        assert type(cfg.dim) is int and type(cfg.seed) is int


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

    def test_rejects_fractional_seed(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            random_basis(3, 1.5)

    def test_seed_dependence(self):
        a = random_basis(3, seed=1)
        b = random_basis(3, seed=2)
        assert not np.allclose(np.abs(a.matrix), np.abs(b.matrix))

    @pytest.mark.parametrize("dim", [3, 8, 64, 256])
    def test_bits_match_the_checked_eigh_route(self, dim):
        # the basis is decomposed and checked once, by linalg.eigh
        for seed in (0, 1):
            want = eigh(sample_gue(GueConfig(dim=dim, seed=seed)).matrix).eigenvectors
            got = random_basis(dim, seed).matrix
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_a_failed_eigenbasis_raises_eighs_error(self, monkeypatch):
        # eigenvectors that come back stretched fail linalg.eigh's Gram
        # check, for one basis and for a sweep's stack of fixed bases
        real = np.linalg.eigh

        def stretched(m):
            w, v = real(m)
            v[..., 0] *= 1.01
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        with pytest.raises(ValueError, match="not orthonormal"):
            random_basis(3, 0)
        with pytest.raises(ValueError, match="not orthonormal"):
            _fixed_bases(ExperimentConfig(kind="gue"), 3, [0, 1])


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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_spins": 2.5}, "num_spins must be an integer"),
            ({"num_spins": True}, "num_spins must be an integer"),
            ({"blocks": ((1.7, 2),)}, "block site must be an integer"),
            ({"blocks": ((True, 2),)}, "block site must be an integer"),
        ],
    )
    def test_rejects_non_integer_fields(self, kwargs, match):
        # a fractional count or site is rejected, not truncated
        with pytest.raises(ConfigError, match=match):
            SpinChainConfig(**{"num_spins": 2, **kwargs})

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


    @pytest.mark.parametrize(
        "cfg, hbar",
        [
            (SpinChainConfig(num_spins=1, omega0=1.3), 1.0),
            (SpinChainConfig(num_spins=2, blocks=((1, 2),)), 1.0),
            (SpinChainConfig(num_spins=2, blocks=((1, 2),), omega0=1.3, omega=0.7), 1.0),
            (SpinChainConfig(num_spins=2, blocks=((1, 2),)), 2.0),
            (SpinChainConfig(num_spins=3, blocks=((1, 2), (2, 3))), 1.0),
            (SpinChainConfig(num_spins=3, blocks=((1, 3), (1, 2, 3)), omega0=0.3, omega=1.7), 0.9),
            # an empty block adds nothing: adding and subtracting 4.0 would
            # round the diagonal's last bit
            (SpinChainConfig(num_spins=2, blocks=((1, 2), ()), omega0=1.9, omega=4.0), 1.0),
            # the benchmark's chain
            (SpinChainConfig(num_spins=8, blocks=tuple((i, i + 1) for i in range(1, 8))), 1.0),
        ],
    )
    def test_matches_dense_sum_bit_for_bit(self, cfg, hbar):
        got = spin_chain_hamiltonian(cfg, hbar).matrix
        assert np.array_equal(got.view(np.uint64), dense_hamiltonian(cfg, hbar).view(np.uint64))


class TestXString:
    @staticmethod
    def kron_chain(num_spins, sites):
        pauli = np.array([[0, 1], [1, 0]], dtype=complex)
        x = np.eye(1, dtype=complex)
        for s in range(1, num_spins + 1):
            x = np.kron(x, pauli if s in sites else np.eye(2, dtype=complex))
        return x

    @pytest.mark.parametrize("num_spins", [1, 2, 3, 4])
    def test_matches_kron_chain_on_every_subset(self, num_spins):
        for r in range(num_spins + 1):
            for sites in itertools.combinations(range(1, num_spins + 1), r):
                want = self.kron_chain(num_spins, sites)
                assert np.array_equal(x_string(num_spins, sites), want), sites

    def test_matches_kron_chain_at_eight_spins(self):
        rng = np.random.default_rng(9)
        for r in (1, 2, 3, 5, 8):
            sites = tuple(sorted(rng.choice(np.arange(1, 9), size=r, replace=False).tolist()))
            assert np.array_equal(x_string(8, sites), self.kron_chain(8, sites)), sites


class TestSpinChainEvolvedState:
    def ket(self, *bits):
        v = np.zeros(2 ** len(bits), dtype=complex)
        v[int("".join(map(str, bits)), 2)] = 1.0
        return PureState(v)

    def test_zero_time_is_identity(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        psi = self.ket(0, 0)
        out = spin_chain_evolved_state(cfg, psi, np.zeros(3))
        np.testing.assert_allclose(out, np.tile(psi.amplitudes, (3, 1)), atol=1e-15)

    def test_matches_dense_exponential(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),), omega0=1.3, omega=0.7)
        h = spin_chain_hamiltonian(cfg)
        psi = self.ket(0, 0)
        times = np.array([0.3, 0.9, 1.7, -0.6])  # the closed form holds backwards too
        want = np.array([scipy.linalg.expm(-1j * h.matrix * t) @ psi.amplitudes for t in times])
        np.testing.assert_allclose(spin_chain_evolved_state(cfg, psi, times), want, atol=1e-10)

    def test_three_site_block_matches_evolution(self):
        cfg = SpinChainConfig(num_spins=3, blocks=((1, 2, 3),))
        h = spin_chain_hamiltonian(cfg)
        plus = PureState(np.ones(2, dtype=complex) / math.sqrt(2.0))
        psi = PureState(np.kron(np.kron(plus.amplitudes, [1.0, 0.0]), [1.0, 0.0]))
        times = np.array([0.4, 1.1])
        want = np.array([evolve_pure(h, psi, t).amplitudes for t in times])
        got = spin_chain_evolved_state(cfg, psi, times)
        fid = np.abs(np.einsum("ki,ki->k", got.conj(), want))
        assert np.all(fid >= 1.0 - 1e-10)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_fidelity_along_grid(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        h = spin_chain_hamiltonian(cfg)
        psi = self.ket(0, 0)
        traj = sample_trajectory(h, psi, 2.0, 50)
        got = spin_chain_evolved_state(cfg, psi, traj.times)
        fid = np.abs(np.einsum("ki,ki->k", got.conj(), traj.stack))
        assert np.all(fid >= 1.0 - 1e-10)

    @pytest.mark.parametrize(
        "num_spins, blocks, omega0, omega, steps",
        [
            (8, tuple((i, i + 1) for i in range(1, 8)), 1.0, 1.0, 200),
            (5, ((1, 2, 3), (2, 5)), 0.7, 1.9, 301),
        ],
    )
    def test_matches_per_time_loop_bit_for_bit(self, num_spins, blocks, omega0, omega, steps):
        cfg = SpinChainConfig(num_spins=num_spins, blocks=blocks, omega0=omega0, omega=omega)
        psi = self.ket(*([0] * num_spins))
        times = np.linspace(0.0, 2.0, steps)
        got = spin_chain_evolved_state(cfg, psi, times)
        assert got.shape == (steps, cfg.dim)
        assert np.array_equal(got, evolved_rows(cfg, psi.amplitudes, times))

    def test_scalar_time_is_one_row(self):
        cfg = SpinChainConfig(num_spins=3, blocks=((1, 3),), omega0=0.8)
        psi = self.ket(0, 1, 0)
        for t in (0.0, 1.25, np.float64(-0.5), 2):
            got = spin_chain_evolved_state(cfg, psi, t)
            assert got.shape == (1, 8)
            assert np.array_equal(got[0], evolved_ket(cfg, psi.amplitudes, float(t)))

    def test_empty_grid_gives_no_rows(self):
        cfg = SpinChainConfig(num_spins=2)
        assert spin_chain_evolved_state(cfg, self.ket(0, 0), np.array([])).shape == (0, 4)

    def test_stack_is_read_only(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        out = spin_chain_evolved_state(cfg, self.ket(0, 0), np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 0.0

    @pytest.mark.parametrize(
        "times",
        [
            math.inf,
            -math.inf,
            math.nan,
            np.array([0.0, 0.5, math.nan]),
            np.array([0.0, math.inf]),
            np.zeros((2, 2)),
            1.0 + 0.5j,
            np.array([0.0, 1.0j]),
            "3",
            None,
            True,
        ],
    )
    def test_rejects_bad_times(self, times):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        with pytest.raises(ValueError, match="times"):
            spin_chain_evolved_state(cfg, self.ket(0, 0), times)

    def test_rejects_entangled_state(self):
        cfg = SpinChainConfig(num_spins=2, blocks=((1, 2),))
        bell = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        with pytest.raises(NotProductState, match="purity"):
            spin_chain_evolved_state(cfg, bell, 1.0)

    def test_rejects_dimension_mismatch(self):
        cfg = SpinChainConfig(num_spins=2)
        with pytest.raises(ConfigError, match="dim"):
            spin_chain_evolved_state(cfg, self.ket(0), 1.0)
