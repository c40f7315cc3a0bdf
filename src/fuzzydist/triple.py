"""Spectral triples on the fuzzy sphere.

Two representations are supported:

* config: the algebra of dim x dim matrices acting by left multiplication
  on the configuration space tensored with a C^2 spinor factor. The Dirac
  operator is (1/r) sigma_j (x_j/lam - (k/2) x_j/r); k is the monopole index.

* quantum: the same matrix coordinates acting on the space of dim x dim
  matrices (vectorized row-major, dimension dim^2), again with a spinor
  factor. Algebra elements are dim^2 x dim^2 matrices on that space.

The quantum-side coordinate action is materialized as left multiplication,
J_j = kron(x_j, I)/lam. An adjoint (left-minus-right) materialization was
tried and rejected: it does not reproduce the known closed-form commutator
norms for displacements between vectorized basis states, while the left
action does, sector by sector. See the distance modules for those checks.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, commutator, is_hermitian, operator_norm
from .sphere import FuzzySphere, SphereDomainError, _matrix_of, _pauli


class UnsupportedFeatureError(ValueError):
    pass


class SpectralTriple:
    """Bundle of (representation, Dirac operator) for one fuzzy sphere."""

    def __init__(self, sphere: FuzzySphere, representation: str, k: int, dirac: np.ndarray,
                 algebra_dim: int):
        self.sphere = sphere
        self.representation = representation
        self.k = k
        self.dirac = dirac
        self.algebra_dim = algebra_dim  # matrix size of algebra elements

    def represent(self, a) -> np.ndarray:
        """pi(a) = diag(a, a) on the doubled (spinor) space."""
        m = as_matrix(a)
        if m.shape != (self.algebra_dim, self.algebra_dim):
            raise SphereDomainError(
                "algebra element shape %r does not match representation dim %d"
                % (m.shape, self.algebra_dim))
        return np.kron(np.eye(2), m)

    def __repr__(self):
        return "SpectralTriple(n=%s, rep=%s, k=%d)" % (self.sphere.n, self.representation, self.k)


def build_dirac(sphere: FuzzySphere, representation: str = "config", k: int = 0) -> SpectralTriple:
    """Assemble the Dirac operator for the requested representation."""
    if representation not in ("config", "quantum"):
        raise SphereDomainError("representation must be 'config' or 'quantum'")
    if k != int(k):
        raise SphereDomainError("monopole index k must be an integer")
    k = int(k)
    paulis = _pauli()
    r = sphere.radius
    lam = sphere.lam
    coords = (sphere.x1, sphere.x2, sphere.x3)

    if representation == "config":
        dim = sphere.dim
        D = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for s, x in zip(paulis, coords):
            J = x / lam - (k / 2.0) * x / r
            D += np.kron(s, J)
        D /= r
    else:
        if k != 0:
            raise UnsupportedFeatureError("quantum representation supports k = 0 only")
        dim = sphere.dim ** 2
        eye = np.eye(sphere.dim)
        D = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for s, x in zip(paulis, coords):
            D += np.kron(s, np.kron(x, eye)) / lam
        D /= r

    if not is_hermitian(D):
        raise SphereDomainError("Dirac operator failed the Hermiticity check")
    return SpectralTriple(sphere, representation, k, D, dim)


def dirac_commutator(triple: SpectralTriple, a) -> np.ndarray:
    """[D, pi(a)]."""
    return commutator(triple.dirac, triple.represent(_matrix_of(a)))


def lipschitz_seminorm(triple: SpectralTriple, a) -> float:
    """Operator norm of [D, pi(a)]; the Lipschitz constraint functional."""
    return operator_norm(dirac_commutator(triple, a))


def dirac_eigenvalue_pattern(n, lam: float = 1.0):
    """Expected k=0 config Dirac spectrum: (1/r) n and (1/r)(-(n+1)).

    Returns ((value, multiplicity), (value, multiplicity)) with the positive
    branch first. The pattern follows from the total-spin decomposition of
    (spin n) x (spin 1/2).
    """
    from .sphere import _halfint
    n = _halfint(n)
    nf = n.twice / 2.0
    r = lam * np.sqrt(float(n.times_self_plus_one()))
    return ((nf / r, n.twice + 2), (-(nf + 1.0) / r, n.twice))
