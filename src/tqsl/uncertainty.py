"""Variance-product uncertainty bounds and the basis-resolved correction.

The centered product mean splits into commutator and anticommutator parts,
and its modulus is the Robertson-Schrodinger strength. Resolving the second
operator over a complete orthonormal set before taking moduli gives a sum
that can only grow (triangle inequality term by term), which is the tighter
bound. The gap between the two is the correction functional K >= 0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BoundViolation, DimensionMismatch
from .linalg import sqrtm_psd
from .states import (
    DensityMatrix,
    Observable,
    OrthonormalBasis,
    PureState,
    State,
    _raw_moment,
    centered,
    expectation,
    variance,
)

CHAIN_SLACK = 1e-9
NONNEG_CLAMP = 1e-9


@dataclass(frozen=True)
class UncertaintyReport:
    """One evaluation of the full bound chain for a pair of observables.

    delta_a * delta_b >= tighter_bound >= cross_term, and correction_k is
    the gap tighter_bound - cross_term. rs_bound is computed from raw
    moments and coincides with cross_term up to round-off; both routes are
    kept so tests can compare them.
    """

    delta_a: float
    delta_b: float
    tighter_bound: float
    rs_bound: float
    cross_term: float
    correction_k: float

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value) or value < 0.0:
                raise BoundViolation(f"{name} = {value!r} must be finite and >= 0")
        if self.tighter_bound > self.delta_a * self.delta_b + CHAIN_SLACK:
            raise BoundViolation(
                f"tighter bound {self.tighter_bound!r} exceeds variance product "
                f"{self.delta_a * self.delta_b!r}"
            )
        if self.cross_term > self.tighter_bound + CHAIN_SLACK:
            raise BoundViolation(
                f"cross term {self.cross_term!r} exceeds tighter bound {self.tighter_bound!r}"
            )
        if self.rs_bound > self.cross_term + CHAIN_SLACK:
            raise BoundViolation(
                f"rs bound {self.rs_bound!r} exceeds cross term {self.cross_term!r}"
            )
        if abs(self.correction_k - (self.tighter_bound - self.cross_term)) > CHAIN_SLACK:
            raise BoundViolation("correction_k is not the tighter/cross gap")


def _check_pair(a: Observable, b: Observable, state: State) -> None:
    if a.dim != b.dim or a.dim != state.dim:
        raise DimensionMismatch(
            f"dims differ: A {a.dim}, B {b.dim}, state {state.dim}"
        )


def _check_basis(state: State, basis: OrthonormalBasis) -> None:
    if basis.dim != state.dim:
        raise DimensionMismatch(f"basis dim {basis.dim} vs state dim {state.dim}")


def _product_moment(a: Observable, b: Observable, state: State) -> complex:
    """Mean of the centered operator product: <Abar Bbar>."""
    abar = centered(a, state).matrix
    bbar = centered(b, state).matrix
    if isinstance(state, PureState):
        v = state.amplitudes
        return complex(np.vdot(abar @ v, bbar @ v))
    return complex(np.trace(abar @ state.matrix @ bbar))


def _clamp_nonnegative(value, what: str):
    """A number or array that is >= 0 in exact arithmetic, with round-off
    negatives set to 0; a dip below -NONNEG_CLAMP raises."""
    low = float(np.minimum.reduce(value, axis=None))
    if low < -NONNEG_CLAMP:
        raise BoundViolation(f"{what} = {low:.3e} below -{NONNEG_CLAMP:.0e}")
    return np.maximum(value, 0.0)


def robertson_schrodinger_bound(a: Observable, b: Observable, state: State) -> float:
    """Square root of the commutator/anticommutator split, from raw moments."""
    _check_pair(a, b, state)
    am, bm = a.matrix, b.matrix
    comm = _raw_moment(am @ bm - bm @ am, state)
    anti = _raw_moment(am @ bm + bm @ am, state)
    mean_a = expectation(a, state)
    mean_b = expectation(b, state)
    return math.hypot(0.5 * abs(comm), 0.5 * anti.real - mean_a * mean_b)


def cross_term(a: Observable, b: Observable, state: State) -> float:
    """|<Abar Bbar>|, the unresolved centered product strength."""
    _check_pair(a, b, state)
    return abs(_product_moment(a, b, state))


def _pure_products(
    a: Observable, b: Observable, psi: PureState, basis: OrthonormalBasis
) -> np.ndarray:
    """Per-vector products <Psi|Abar|psi_n><psi_n|Bbar|Psi>, whose moduli
    sum to the tighter bound.

    Summed without moduli they reproduce <Abar Bbar> exactly (completeness),
    which is what makes the correction K nonnegative term by term.
    """
    _check_pair(a, b, psi)
    _check_basis(psi, basis)
    abar = centered(a, psi).matrix
    bbar = centered(b, psi).matrix
    uh = basis.matrix.conj().T
    v = psi.amplitudes
    return (uh @ (abar @ v)).conj() * (uh @ (bbar @ v))


def tighter_bound_pure(
    a: Observable, b: Observable, psi: PureState, basis: OrthonormalBasis
) -> float:
    """Sum of per-vector moduli; sits between |<Abar Bbar>| and dA*dB."""
    return float(np.sum(np.abs(_pure_products(a, b, psi, basis))))


def correction_k_pure(
    a: Observable, b: Observable, psi: PureState, basis: OrthonormalBasis
) -> float:
    """Gap between the basis-resolved sum and the unresolved modulus."""
    prods = _pure_products(a, b, psi, basis)
    gap = float(np.sum(np.abs(prods)) - abs(np.sum(prods)))
    return float(_clamp_nonnegative(gap, "pure correction"))


def _mixed_diagonals(
    a: Observable, b: Observable, rho: DensityMatrix, basis: OrthonormalBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of Abar rho Abar and Bbar rho Bbar in the given basis.

    Each entry is evaluated as ||sqrt(rho) Mbar psi_n||^2 rather than as a
    diagonal of the triple product: the value is the same, but it stays
    nonnegative by construction instead of through cancellation, which
    matters when rho is (nearly) pure and the exact value is 0.
    """
    _check_pair(a, b, rho)
    _check_basis(rho, basis)
    abar = centered(a, rho).matrix
    bbar = centered(b, rho).matrix
    root = sqrtm_psd(rho.matrix)
    u = basis.matrix
    f_nn = np.sum(np.abs(root @ (abar @ u)) ** 2, axis=0)
    g_nn = np.sum(np.abs(root @ (bbar @ u)) ** 2, axis=0)
    return f_nn, g_nn


def tighter_bound_mixed(
    a: Observable, b: Observable, rho: DensityMatrix, basis: OrthonormalBasis
) -> float:
    """Sum over the basis of sqrt of paired positive diagonals.

    Each term is sqrt(Tr(Abar rho Abar P_n Bbar rho Bbar P_n)) with P_n the
    n-th basis projector; attaching the projector to the other side of Bbar
    transposes the same product, so no side argument is needed here.
    """
    f_nn, g_nn = _mixed_diagonals(a, b, rho, basis)
    return float(np.sum(np.sqrt(f_nn * g_nn)))


def correction_k_mixed(
    a: Observable, b: Observable, rho: DensityMatrix, basis: OrthonormalBasis
) -> float:
    """Gap between the basis-resolved mixed bound and |Tr(Abar rho Bbar)|."""
    gap = tighter_bound_mixed(a, b, rho, basis) - cross_term(a, b, rho)
    return float(_clamp_nonnegative(gap, "mixed correction"))


def uncertainty_report(
    a: Observable, b: Observable, state: State, basis: OrthonormalBasis
) -> UncertaintyReport:
    """Evaluate the whole chain once and package it with its invariants."""
    delta_a = math.sqrt(variance(a, state))
    delta_b = math.sqrt(variance(b, state))
    if isinstance(state, PureState):
        tighter = tighter_bound_pure(a, b, state, basis)
    else:
        tighter = tighter_bound_mixed(a, b, state, basis)
    cross = cross_term(a, b, state)
    return UncertaintyReport(
        delta_a=delta_a,
        delta_b=delta_b,
        tighter_bound=tighter,
        rs_bound=robertson_schrodinger_bound(a, b, state),
        cross_term=cross,
        correction_k=float(_clamp_nonnegative(tighter - cross, "correction")),
    )


def moment_identity_residual(
    a: Observable, b: Observable, state: State, doubled_mean_product: bool = False
) -> float:
    """Signed residual of |<Abar Bbar>|^2 against its moment split.

    The split is (|<[A,B]>|/2)^2 + (<{A,B}>/2 - <A><B>)^2. The doubled
    variant replaces <A><B> by 2<A><B>; it is kept purely as a diagnostic
    and is generally far from zero.
    """
    _check_pair(a, b, state)
    am, bm = a.matrix, b.matrix
    comm = _raw_moment(am @ bm - bm @ am, state)
    anti = _raw_moment(am @ bm + bm @ am, state)
    factor = 2.0 if doubled_mean_product else 1.0
    mean_a = expectation(a, state)
    mean_b = expectation(b, state)
    split = (0.5 * abs(comm)) ** 2 + (0.5 * anti.real - factor * mean_a * mean_b) ** 2
    return abs(_product_moment(a, b, state)) ** 2 - split
