"""Tightened quantum speed limits from basis-resolved uncertainty relations.

The package computes Mandelstam-Tamm style bounds together with their
tightened versions for pure and mixed states under unitary evolution, and
ships experiment runners that reproduce the delta = tau_tqsl - tau_mt >= 0
sweeps for random Hamiltonians and a small interacting spin chain.
"""

from .bounds import (
    BOUND_CSV_HEADER,
    BoundReport,
    BoundSeries,
    OptimizerConfig,
    bound_series,
    optimize_basis,
    tqsl_bound,
)
from .dynamics import Trajectory, sample_trajectory
from .ensembles import (
    GueConfig,
    SpinChainConfig,
    random_basis,
    sample_gue,
    spin_chain_evolved_state,
    spin_chain_hamiltonian,
)
from .errors import (
    BlockIndexOutOfRange,
    BoundViolation,
    ConfigError,
    DenominatorUnderflow,
    DimensionMismatch,
    InvalidBasis,
    NonHermitianInput,
    NonRealExpectation,
    NotPositiveSemidefinite,
    NotProductState,
    QslError,
    SingularIntegrand,
    ValidityExceeded,
    ZeroEnergyVariance,
)
from .experiments import (
    ExperimentConfig,
    default_initial_state,
    run_experiment_gue,
    run_experiment_spin,
    run_property_suite,
)
from .linalg import (
    eigh,
    expm_i_hermitian,
    hermitian_defect,
    sqrtm_psd,
)
from .states import (
    DensityMatrix,
    Observable,
    OrthonormalBasis,
    PureState,
    centered,
    expectation,
    purity,
    variance,
)

__version__ = "0.1.0"
