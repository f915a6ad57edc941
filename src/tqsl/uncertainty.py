"""Variance-product uncertainty bounds and the basis-resolved correction.

The centered product mean splits into commutator and anticommutator parts,
and its modulus is the Robertson-Schrodinger strength. Resolving the second
operator over a complete orthonormal set before taking moduli gives a sum
that can only grow (triangle inequality term by term), which is the tighter
bound. The gap between the two is the correction functional K >= 0.

One kernel, _k_terms, computes both sides of K on a stack of roots. The
mixed bound route runs it on a trajectory's roots, and verify's chain
checks run its one-root case, so kets and density matrices share one
formula.
"""
from __future__ import annotations

import numpy as np

from .dynamics import _blocks, _rmul, frobenius_inner
from .errors import BoundViolation
from .linalg import sqrtm_psd
from .states import Observable, OrthonormalBasis, PureState, State, _raw_moment, expectation

NONNEG_CLAMP = 1e-9


def _clamp_nonnegative(value, what: str):
    """A number or array that is >= 0 in exact arithmetic, with round-off
    negatives set to 0; a dip below -NONNEG_CLAMP raises."""
    low = float(np.minimum.reduce(value, axis=None))
    if low < -NONNEG_CLAMP:
        raise BoundViolation(f"{what} = {low:.3e} below -{NONNEG_CLAMP:.0e}")
    return np.maximum(value, 0.0)


def _moment_split(a: Observable, b: Observable, state: State) -> tuple:
    """|<[A,B]>|/2 and <{A,B}>/2 - <A><B>, from raw moments."""
    means = expectation(a, state) * expectation(b, state)  # first: it checks the dimensions
    am, bm = a.matrix, b.matrix
    comm = _raw_moment(am @ bm - bm @ am, state)
    anti = _raw_moment(am @ bm + bm @ am, state)
    return 0.5 * abs(comm), 0.5 * anti.real - means


def _k_terms(roots: np.ndarray, a: np.ndarray, b: np.ndarray, bases: np.ndarray) -> tuple:
    """The two sides of K = tighter - cross for each state of an (n, r, d)
    stack of roots R, rho = R^dagger R, in each basis of an (m, d, d) stack:
    the basis-resolved sums, (m, n), and the cross terms |<Abar Bbar>|, (n,).

    With P = R Abar and Q = R Bbar, the diagonals of Abar rho Abar and
    Bbar rho Bbar are the column norms of P U and Q U, nonnegative by
    construction rather than through cancellation, and the cross term is
    |Tr(P^dagger Q)|. Each root centres its own products, <A> = Tr(R^dagger
    R A), and the roots go in blocks of dynamics.STACK_ELEMENTS elements.
    """
    tighter = np.empty((len(bases), len(roots)))
    cross = np.empty(len(roots))
    for rows in _blocks(len(roots), roots[0].size):
        r = roots[rows]
        p = _rmul(r, a)
        q = _rmul(r, b)
        p -= frobenius_inner(r, p).real[:, None, None] * r
        q -= frobenius_inner(r, q).real[:, None, None] * r
        f_nn = np.sum(np.abs(_rmul(p, bases)) ** 2, axis=-2)
        g_nn = np.sum(np.abs(_rmul(q, bases)) ** 2, axis=-2)
        tighter[:, rows] = np.sqrt(f_nn * g_nn).sum(axis=-1)
        cross[rows] = np.abs(frobenius_inner(p, q))
    return tighter, cross


def _tighter_and_cross(a: Observable, b: Observable, state: State, basis: OrthonormalBasis = None) -> tuple:
    """The tighter bound in `basis`, sum_n sqrt(<n|Abar rho Abar|n>
    <n|Bbar rho Bbar|n>), and the cross term |<Abar Bbar>| of one state,
    from the one-root case of _k_terms: a ket psi is the 1 x d root
    psi^dagger, a density matrix the root sqrt(rho). With no basis the
    tighter bound is an empty sum, 0.0. The inputs are taken as checked:
    matching dimensions and real expectations."""
    if isinstance(state, PureState):
        root = state.amplitudes.conj()[None, None]
    else:
        root = sqrtm_psd(state.matrix)[None]
    bases = np.empty((0, state.dim, state.dim)) if basis is None else basis.matrix[None]
    tighter, cross = _k_terms(root, a.matrix, b.matrix, bases)
    return float(tighter.sum()), float(cross[0])
