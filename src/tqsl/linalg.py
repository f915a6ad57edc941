"""Dense complex-matrix kernel: Hermitian eigensystems and what hangs off them.

All heavy lifting is delegated to LAPACK through numpy; this module adds the
tolerance policy (Hermiticity, PSD clamping) that the physics layers rely on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput, NotPositiveSemidefinite, _trusted

HERMITICITY_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
PSD_CLAMP = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    return _finite_complex(a, (2,), "a 2-d matrix")


def _finite_complex(a, ndims: tuple, expected: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ndims:
        raise ValueError(f"expected {expected}, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_defect(m: np.ndarray) -> float:
    """Largest entry of |M - M^dagger|, over a whole stack if M is one."""
    return float(np.max(np.abs(m - _dagger(m)))) if m.size else 0.0


def require_hermitian(m) -> np.ndarray:
    """Return the symmetrized matrix (M + M^dagger)/2, or raise.

    M may also be a (k, d, d) stack; it is then checked and symmetrized as
    a whole. Symmetrizing absorbs round-off from tensor-product
    construction; anything beyond HERMITICITY_TOL is a caller bug.
    """
    a = _finite_complex(m, (2, 3), "a 2-d matrix or a 3-d stack")
    if a.shape[-2] != a.shape[-1]:
        raise NonHermitianInput(f"matrix is not square: {a.shape}")
    defect = hermitian_defect(a)
    if defect > HERMITICITY_TOL:
        raise NonHermitianInput(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return 0.5 * (a + _dagger(a))


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending real eigenvalues and the matching orthonormal column vectors.

    For a (k, d, d) stack of matrices the arrays are (k, d) and (k, d, d),
    and dec[j] is the decomposition of matrix j.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = _finite_complex(self.eigenvectors, (2, 3), "a 2-d matrix or a 3-d stack")
        gram = _dagger(v) @ v - np.eye(v.shape[-1])
        gram_defect = np.abs(gram).max(initial=0.0)
        if gram_defect > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: defect {gram_defect:.3e}")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    def __getitem__(self, j) -> "EigenDecomposition":
        """Member j of a stacked decomposition, or the sub-stack an index
        array selects, checked with the stack."""
        if self.eigenvectors.ndim != 3:
            raise TypeError("only a stacked decomposition can be indexed")
        return _trusted(EigenDecomposition, eigenvalues=self.eigenvalues[j], eigenvectors=self.eigenvectors[j])

    @staticmethod
    def concatenate(decs) -> "EigenDecomposition":
        """Stacked decompositions end to end, checked with them, not again."""
        return _trusted(EigenDecomposition, **{
            name: np.concatenate([getattr(d, name) for d in decs]) for name in ("eigenvalues", "eigenvectors")
        })


def tolerance_scale(m: np.ndarray) -> np.ndarray:
    """max(1, max|M|), or per matrix of a (k, d, d) stack: the factor that
    scales an absolute tolerance with the size of an operator's entries."""
    return np.abs(m).max(axis=(-2, -1), initial=1.0)


def eigh(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    (k, d, d) stack, eigenvalues ascending.

    Besides the eigenvectors' Gram check, each matrix's residual
    max|HV - V diag(w)| must be within ORTHONORMALITY_TOL relative to its
    tolerance_scale. Everything propagated from the decomposition is then
    exact up to round-off, so the propagated states need no checks of
    their own."""
    m = require_hermitian(h)
    w, v = np.linalg.eigh(m)
    dec = EigenDecomposition(w, v)
    residual = np.abs(m @ v - v * w[..., None, :]).max(axis=(-2, -1), initial=0.0) / tolerance_scale(m)
    if np.any(residual > ORTHONORMALITY_TOL):
        raise ValueError(f"eigensystem residual {float(residual.max()):.3e} relative to max(1, max|H|)")
    return dec


def expm_i_hermitian(h, s) -> np.ndarray:
    """exp(-i H s) for Hermitian H, computed through the eigensystem. H may
    be given as its EigenDecomposition, which is then not recomputed. For a
    (k, d, d) stack, s may also give one step per member."""
    dec = h if isinstance(h, EigenDecomposition) else eigh(h)
    phases = np.exp(-1j * dec.eigenvalues * np.asarray(s, dtype=float)[..., None])
    v = dec.eigenvectors
    return (v * phases[..., None, :]) @ _dagger(v)


def sqrtm_psd(rho) -> np.ndarray:
    """Positive square root of a PSD Hermitian matrix.

    Eigenvalues within round-off of zero are treated as exact zeros: negatives
    down to -PSD_CLAMP, and positives below dim * eps * max eigenvalue.  The
    sqrt would otherwise turn eps-sized eigenvalue noise into sqrt(eps)-sized
    junk directions in the root, which matters for rank-deficient inputs such
    as pure-state density matrices.  Anything below -PSD_CLAMP raises.
    """
    dec = eigh(rho)
    w = dec.eigenvalues
    if w[0] < -PSD_CLAMP:
        raise NotPositiveSemidefinite(f"min eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.0e}")
    w = np.maximum(w, 0.0)
    w[w < len(w) * np.finfo(float).eps * w[-1]] = 0.0
    v = dec.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T
