"""Variance-product uncertainty bounds and the basis-resolved correction.

The centered product mean splits into commutator and anticommutator parts,
and its modulus is the Robertson-Schrodinger strength. Resolving the second
operator over a complete orthonormal set before taking moduli gives a sum
that can only grow (triangle inequality term by term), which is the tighter
bound. The gap between the two is the correction functional K >= 0.

One kernel, _k_terms, computes both sides of K on a stack of roots. The
mixed bound route runs it on a trajectory's roots; the per-state functions
here run its one-root case, so kets and density matrices share one formula.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import STACK_BLOCK, _rmul, frobenius_inner
from .errors import BoundViolation, DimensionMismatch
from .linalg import sqrtm_psd
from .states import Observable, OrthonormalBasis, PureState, State, _raw_moment, expectation, variance

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


def _clamp_nonnegative(value, what: str):
    """A number or array that is >= 0 in exact arithmetic, with round-off
    negatives set to 0; a dip below -NONNEG_CLAMP raises."""
    low = float(np.minimum.reduce(value, axis=None))
    if low < -NONNEG_CLAMP:
        raise BoundViolation(f"{what} = {low:.3e} below -{NONNEG_CLAMP:.0e}")
    return np.maximum(value, 0.0)


def _moment_split(a: Observable, b: Observable, state: State) -> tuple:
    """|<[A,B]>|/2 and <{A,B}>/2 - <A><B>, from raw moments."""
    _check_pair(a, b, state)
    am, bm = a.matrix, b.matrix
    comm = _raw_moment(am @ bm - bm @ am, state)
    anti = _raw_moment(am @ bm + bm @ am, state)
    return 0.5 * abs(comm), 0.5 * anti.real - expectation(a, state) * expectation(b, state)


def robertson_schrodinger_bound(a: Observable, b: Observable, state: State) -> float:
    """Square root of the commutator/anticommutator split, from raw moments."""
    return math.hypot(*_moment_split(a, b, state))


def _k_terms(roots: np.ndarray, a: np.ndarray, b: np.ndarray, bases: np.ndarray) -> tuple:
    """The two sides of K = tighter - cross for each state of an (n, r, d)
    stack of roots R, rho = R^dagger R, in each basis of an (m, d, d) stack:
    the basis-resolved sums, (m, n), and the cross terms |<Abar Bbar>|, (n,).

    With P = R Abar and Q = R Bbar, the diagonals of Abar rho Abar and
    Bbar rho Bbar are the column norms of P U and Q U, nonnegative by
    construction rather than through cancellation, and the cross term is
    |Tr(P^dagger Q)|. Each root centres its own products, <A> = Tr(R^dagger
    R A), and the roots go STACK_BLOCK at a time.
    """
    tighter = np.empty((len(bases), len(roots)))
    cross = np.empty(len(roots))
    for i in range(0, len(roots), STACK_BLOCK):
        r = roots[i : i + STACK_BLOCK]
        p = _rmul(r, a)
        q = _rmul(r, b)
        p -= frobenius_inner(r, p).real[:, None, None] * r
        q -= frobenius_inner(r, q).real[:, None, None] * r
        f_nn = np.sum(np.abs(_rmul(p, bases)) ** 2, axis=-2)
        g_nn = np.sum(np.abs(_rmul(q, bases)) ** 2, axis=-2)
        tighter[:, i : i + STACK_BLOCK] = np.sqrt(f_nn * g_nn).sum(axis=-1)
        cross[i : i + STACK_BLOCK] = np.abs(frobenius_inner(p, q))
    return tighter, cross


def _tighter_and_cross(a: Observable, b: Observable, state: State, basis: OrthonormalBasis = None) -> tuple:
    """The tighter bound in `basis` and the cross term of one state, from
    the one-root case of _k_terms: a ket psi is the 1 x d root psi^dagger,
    a density matrix the root sqrt(rho). With no basis the tighter bound is
    an empty sum, 0.0."""
    _check_pair(a, b, state)
    if basis is not None and basis.dim != state.dim:
        raise DimensionMismatch(f"basis dim {basis.dim} vs state dim {state.dim}")
    expectation(a, state)  # raises NonRealExpectation; the kernel reads real parts only
    expectation(b, state)
    if isinstance(state, PureState):
        root = state.amplitudes.conj()[None, None]
    else:
        root = sqrtm_psd(state.matrix)[None]
    bases = np.empty((0, state.dim, state.dim)) if basis is None else basis.matrix[None]
    tighter, cross = _k_terms(root, a.matrix, b.matrix, bases)
    return float(tighter.sum()), float(cross[0])


def cross_term(a: Observable, b: Observable, state: State) -> float:
    """|<Abar Bbar>|, the unresolved centered product strength."""
    return _tighter_and_cross(a, b, state)[1]


def tighter_bound(a: Observable, b: Observable, state: State, basis: OrthonormalBasis) -> float:
    """Sum over the basis of sqrt(<n|Abar rho Abar|n> <n|Bbar rho Bbar|n>),
    for a ket or a density matrix; it sits between |<Abar Bbar>| and dA*dB.

    For a ket each term is |<psi|Abar|n><n|Bbar|psi>|, and the terms summed
    without moduli give <Abar Bbar> (completeness). Attaching the projector
    |n><n| to the other side of Bbar transposes the same product, so no
    side argument is needed.
    """
    return _tighter_and_cross(a, b, state, basis)[0]


def correction_k(a: Observable, b: Observable, state: State, basis: OrthonormalBasis) -> float:
    """K, the gap between the basis-resolved sum and the unresolved modulus."""
    tighter, cross = _tighter_and_cross(a, b, state, basis)
    return float(_clamp_nonnegative(tighter - cross, "correction"))


def uncertainty_report(
    a: Observable, b: Observable, state: State, basis: OrthonormalBasis
) -> UncertaintyReport:
    """Evaluate the whole chain once and package it with its invariants."""
    tighter, cross = _tighter_and_cross(a, b, state, basis)
    return UncertaintyReport(
        delta_a=math.sqrt(variance(a, state)),
        delta_b=math.sqrt(variance(b, state)),
        tighter_bound=tighter,
        rs_bound=robertson_schrodinger_bound(a, b, state),
        cross_term=cross,
        correction_k=float(_clamp_nonnegative(tighter - cross, "correction")),
    )


def moment_identity_residual(a: Observable, b: Observable, state: State) -> float:
    """Signed residual of |<Abar Bbar>|^2 against its moment split,
    (|<[A,B]>|/2)^2 + (<{A,B}>/2 - <A><B>)^2."""
    comm_part, anti_part = _moment_split(a, b, state)
    return cross_term(a, b, state) ** 2 - (comm_part ** 2 + anti_part ** 2)
