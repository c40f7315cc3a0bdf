"""Dense complex matrix services used by every oracle in the package.

Thin validated wrappers over LAPACK via numpy.linalg, the only dependency.
There is no matrix exponential: coherent states are rotations built from one
hermitian_eigh of J_y per spin. Matrices here are small (at most a few hundred
rows), so robustness and clear error messages matter more than speed.

Tolerances are fixed once, here, and imported by the other modules:
SYMMETRY_TOL for Hermiticity, DECOMP_TOL for decomposition residuals.
"""

from __future__ import annotations

import numpy as np

SYMMETRY_TOL = 1e-12
DECOMP_TOL = 1e-10


class LinalgDomainError(ValueError):
    """Raised when an input violates a documented precondition."""


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise LinalgDomainError("expected a nonempty 2-d matrix, got shape %r" % (a.shape,))
    return a


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(np.abs(a).max(), 1.0)
    return np.abs(a - a.conj().T).max() <= SYMMETRY_TOL * scale


def hermitian_eigvals(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Input must be square and Hermitian within SYMMETRY_TOL (relative to the
    largest entry). The eigenvalue sum is checked against the trace.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise LinalgDomainError("hermitian_eigvals: matrix is %dx%d, not square" % a.shape)
    if not is_hermitian(a):
        dev = np.abs(a - a.conj().T).max()
        raise LinalgDomainError("hermitian_eigvals: not Hermitian (max |M - M^dag| = %.3e)" % dev)
    vals = np.linalg.eigvalsh(a)
    tr = a.trace().real
    scale = max(abs(tr), np.abs(vals).sum(), 1.0)
    if abs(vals.sum() - tr) > DECOMP_TOL * scale:
        raise LinalgDomainError("hermitian_eigvals: eigenvalue sum disagrees with trace")
    return vals


def hermitian_eigh(m):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1] or not is_hermitian(a):
        raise LinalgDomainError("hermitian_eigh: input must be square Hermitian")
    return np.linalg.eigh(a)


def operator_norm(m) -> float:
    """Largest singular value, i.e. sqrt of the top eigenvalue of M^dag M."""
    a = as_matrix(m)
    return float(np.linalg.norm(a, 2))
