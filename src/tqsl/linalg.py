"""Dense complex-matrix kernel: Hermitian eigensystems and what hangs off them.

All heavy lifting is delegated to LAPACK through numpy; this module adds the
tolerance policy (Hermiticity, PSD clamping) that the physics layers rely on.
"""
from __future__ import annotations

import numpy as np

from .errors import NonHermitianInput, NotPositiveSemidefinite

HERMITICITY_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
PSD_CLAMP = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    return _finite_complex(a, (2,))


def _finite_complex(a, ndims: tuple) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ndims:
        raise ValueError(f"expected a 2-d matrix{' or a 3-d stack' if 3 in ndims else ''}, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_defect(m: np.ndarray) -> float:
    """Largest entry of |M - M^dagger|, over a whole stack if M is one."""
    return float(np.max(np.abs(m - _dagger(m)))) if m.size else 0.0


def _hermitian(m, ndims: tuple, noun: str) -> np.ndarray:
    """The one Hermitian check: m as a finite complex array of one of the
    ranks `ndims`, square and within HERMITICITY_TOL of its conjugate
    transpose (over a whole stack), not symmetrized; or raise, naming the
    input as `noun`."""
    a = _finite_complex(m, ndims)
    if a.shape[-2] != a.shape[-1]:
        raise NonHermitianInput(f"{noun} must be square, got {a.shape}")
    defect = hermitian_defect(a)
    if defect > HERMITICITY_TOL:
        raise NonHermitianInput(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return a


def require_hermitian(m) -> np.ndarray:
    """Return the symmetrized matrix (M + M^dagger)/2, or raise.

    M may also be a (k, d, d) stack; it is then checked and symmetrized as
    a whole. Symmetrizing absorbs round-off from tensor-product
    construction; anything beyond HERMITICITY_TOL is a caller bug.
    """
    a = _hermitian(m, (2, 3), "matrix")
    return 0.5 * (a + _dagger(a))


def tolerance_scale(m: np.ndarray) -> np.ndarray:
    """max(1, max|M|), or per matrix of a (k, d, d) stack: the factor that
    scales an absolute tolerance with the size of an operator's entries."""
    return np.abs(m).max(axis=(-2, -1), initial=1.0)


def eigh(h):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    (k, d, d) stack: NumPy's named pair (eigenvalues, eigenvectors), the
    eigenvalues ascending, both arrays read-only. For a stack they are
    (k, d) and (k, d, d).

    The eigenvector columns must be orthonormal, and each matrix's residual
    max|HV - V diag(w)| small, both within ORTHONORMALITY_TOL, the residual
    relative to the matrix's tolerance_scale. Both checks fail on NaN.
    Everything propagated from the decomposition is then exact up to
    round-off, so the propagated states need no checks of their own."""
    m = require_hermitian(h)
    w, v = dec = np.linalg.eigh(m)
    gram = np.abs(_dagger(v) @ v - np.eye(v.shape[-1])).max(initial=0.0)
    if not gram <= ORTHONORMALITY_TOL:
        raise ValueError(f"eigenvector columns not orthonormal: defect {gram:.3e}")
    residual = np.abs(m @ v - v * w[..., None, :]).max(axis=(-2, -1), initial=0.0) / tolerance_scale(m)
    if not np.all(residual <= ORTHONORMALITY_TOL):
        raise ValueError(f"eigensystem residual {float(residual.max()):.3e} relative to max(1, max|H|)")
    w.setflags(write=False)
    v.setflags(write=False)
    return dec


def expm_i_hermitian(h, s) -> np.ndarray:
    """exp(-i H s) for Hermitian H, computed through the eigensystem. H may
    be a matrix, a (k, d, d) stack, or the pair eigh returns for either,
    which is then not recomputed; the pair is told by its `eigenvectors`
    field, as a nested tuple is a matrix. For a stack, s may also give one
    step per member."""
    w, v = h if hasattr(h, "eigenvectors") else eigh(h)
    phases = np.exp(-1j * w * np.asarray(s, dtype=float)[..., None])
    return (v * phases[..., None, :]) @ _dagger(v)


def sqrtm_psd(rho) -> np.ndarray:
    """Positive square root of a PSD Hermitian matrix.

    Eigenvalues within round-off of zero are treated as exact zeros: negatives
    down to -PSD_CLAMP, and positives below dim * eps * max eigenvalue.  The
    sqrt would otherwise turn eps-sized eigenvalue noise into sqrt(eps)-sized
    junk directions in the root, which matters for rank-deficient inputs such
    as pure-state density matrices.  Anything below -PSD_CLAMP raises.
    """
    w, v = eigh(rho)
    if w[0] < -PSD_CLAMP:
        raise NotPositiveSemidefinite(f"min eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.0e}")
    w = np.maximum(w, 0.0)
    w[w < len(w) * np.finfo(float).eps * w[-1]] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T
