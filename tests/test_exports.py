"""The names the package exports, pinned so that any change to them is a
reviewed diff. CI prints the same count (modules not counted)."""
import types

import pytest

import tqsl
import tqsl.uncertainty

PUBLIC_NAMES = [
    "BOUND_CSV_HEADER",
    "BlockIndexOutOfRange",
    "BoundReport",
    "BoundSeries",
    "BoundViolation",
    "ConfigError",
    "DenominatorUnderflow",
    "DensityMatrix",
    "DimensionMismatch",
    "EigenDecomposition",
    "ExperimentConfig",
    "GueConfig",
    "InvalidBasis",
    "NonHermitianInput",
    "NonRealExpectation",
    "NotPositiveSemidefinite",
    "NotProductState",
    "Observable",
    "OptimizerConfig",
    "OrthonormalBasis",
    "PureState",
    "QslError",
    "SingularIntegrand",
    "SpinChainConfig",
    "Trajectory",
    "ValidityExceeded",
    "ZeroEnergyVariance",
    "bound_series",
    "centered",
    "default_initial_state",
    "eigh",
    "expectation",
    "expm_i_hermitian",
    "hermitian_defect",
    "optimize_basis",
    "purity",
    "random_basis",
    "run_experiment_gue",
    "run_experiment_spin",
    "run_property_suite",
    "sample_gue",
    "sample_trajectory",
    "spin_chain_evolved_state",
    "spin_chain_hamiltonian",
    "sqrtm_psd",
    "tqsl_bound",
    "variance",
]


def test_public_names():
    got = sorted(
        n for n in dir(tqsl) if not n.startswith("_") and not isinstance(getattr(tqsl, n), types.ModuleType)
    )
    assert got == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47


def test_quadrature_info_is_gone():
    # a report row carries its quadrature step and error as its own fields
    assert not hasattr(tqsl, "QuadratureInfo")
    assert not hasattr(tqsl.bounds, "QuadratureInfo")
    with pytest.raises(ImportError):
        from tqsl import QuadratureInfo  # noqa: F401


@pytest.mark.parametrize("module", [tqsl, tqsl.uncertainty])
def test_per_state_uncertainty_api_is_gone(module):
    # the per-state chain lives in tests/uncertainty_oracle.py
    for name in (
        "UncertaintyReport", "uncertainty_report", "tighter_bound", "cross_term", "correction_k",
        "robertson_schrodinger_bound", "moment_identity_residual", "CHAIN_SLACK",
    ):
        assert not hasattr(module, name), name
