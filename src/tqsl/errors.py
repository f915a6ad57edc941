"""Exception types shared across the package, the integer and
positive-finite checks that configs (ConfigError) and sample_trajectory
(ValueError) apply to their inputs, and `_trusted`, which builds a value
from parts that have passed its checks.

Every precondition failure raises a distinct class so callers (and the
property suite) can tell a rejected input from a genuine numerical bug.
"""
import math
import operator


class QslError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QslError):
    """Operands live in Hilbert spaces of different dimension."""


class NonHermitianInput(QslError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveSemidefinite(QslError):
    """Eigenvalue below the negative round-off window."""


class NonRealExpectation(QslError):
    """Expectation value carries an imaginary part beyond tolerance."""


class InvalidBasis(QslError):
    """Vector set fails orthonormality or completeness."""


class ZeroEnergyVariance(QslError):
    """Energy variance too small for any speed limit to be meaningful."""


class ValidityExceeded(QslError):
    """Requested time lies past the trajectory's derivation-validity range."""


class SingularIntegrand(QslError):
    """Correction integrand hit a vanishing denominator with nonzero numerator."""


class DenominatorUnderflow(QslError):
    """Mixed-state correction radical underflowed while the correction is nonzero."""


class BlockIndexOutOfRange(QslError):
    """Spin-chain block references a site outside the chain."""


class NotProductState(QslError):
    """State is not a tensor product of single-qubit states."""


class BoundViolation(QslError):
    """A provably nonnegative quantity came out below the round-off window."""


class ConfigError(QslError):
    """Experiment configuration failed validation."""


def _index(name: str, value, error=ConfigError) -> int:
    """operator.index(value); a bool or a non-integer raises `error`."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _positive_finite(name: str, value, error=ConfigError) -> None:
    """A positive, finite number passes; anything else raises `error`."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value!r}")


def _integer_fields(cfg, *names: str) -> None:
    """Replace each named field of a frozen config by its operator.index
    value; a bool or a non-integer raises ConfigError."""
    for name in names:
        object.__setattr__(cfg, name, _index(name, getattr(cfg, name)))


def _positive_finite_fields(cfg, *names: str) -> None:
    """Each named field of a config must be a positive, finite number."""
    for name in names:
        _positive_finite(name, getattr(cfg, name))


def _library_built(self, *args, **kwargs):
    """__init__ of a result only the library builds (by `_trusted`): a call raises."""
    raise TypeError(f"{type(self).__name__}() takes no arguments: only the library builds one")


def _trusted(cls, **fields):
    """A `cls` instance holding `fields`, which have already passed the
    checks its constructor makes (on a stack they belong to), without making
    them again."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj
