"""The per-state uncertainty chain, read off the package's private helpers.

Each function is the one-root case of tqsl.uncertainty._k_terms (through
_tighter_and_cross) or the raw-moment split (_moment_split), so a test of
these functions exercises the kernel the mixed bound runs. The helpers take
their inputs as checked: matching dimensions and real expectations.
"""
import math
from typing import NamedTuple

from tqsl import variance
from tqsl.uncertainty import _clamp_nonnegative, _moment_split, _tighter_and_cross


def cross_term(a, b, state) -> float:
    """|<Abar Bbar>|, the unresolved centered product strength."""
    return _tighter_and_cross(a, b, state)[1]


def tighter_bound(a, b, state, basis) -> float:
    """Sum over the basis of sqrt(<n|Abar rho Abar|n> <n|Bbar rho Bbar|n>),
    for a ket or a density matrix; it sits between |<Abar Bbar>| and dA*dB."""
    return _tighter_and_cross(a, b, state, basis)[0]


def correction_k(a, b, state, basis) -> float:
    """K, the gap between the basis-resolved sum and the unresolved modulus."""
    tighter, cross = _tighter_and_cross(a, b, state, basis)
    return float(_clamp_nonnegative(tighter - cross, "correction"))


def robertson_schrodinger_bound(a, b, state) -> float:
    """Square root of the commutator/anticommutator split, from raw moments."""
    return math.hypot(*_moment_split(a, b, state))


def moment_identity_residual(a, b, state) -> float:
    """Signed residual of |<Abar Bbar>|^2 against its moment split,
    (|<[A,B]>|/2)^2 + (<{A,B}>/2 - <A><B>)^2."""
    comm_part, anti_part = _moment_split(a, b, state)
    return cross_term(a, b, state) ** 2 - (comm_part ** 2 + anti_part ** 2)


class UncertaintyReport(NamedTuple):
    """The whole chain for a pair of observables: delta_a * delta_b >=
    tighter_bound >= cross_term, with correction_k the last gap; rs_bound is
    cross_term by the raw-moment route."""

    delta_a: float
    delta_b: float
    tighter_bound: float
    rs_bound: float
    cross_term: float
    correction_k: float


def uncertainty_report(a, b, state, basis) -> UncertaintyReport:
    return UncertaintyReport(
        delta_a=math.sqrt(variance(a, state)),
        delta_b=math.sqrt(variance(b, state)),
        tighter_bound=tighter_bound(a, b, state, basis),
        rs_bound=robertson_schrodinger_bound(a, b, state),
        cross_term=cross_term(a, b, state),
        correction_k=correction_k(a, b, state, basis),
    )
