"""Spectral triples on the fuzzy sphere.

Both representations use D = sigma.x/(lam r), with sigma.x = [[x3, x-], [x+, -x3]]
written from the ladder bands of the coordinates:

* config: dim x dim matrices acting by left multiplication on the
  configuration space tensored with a C^2 spinor factor; D_c = sigma.x/(lam r).

* quantum: the same coordinates acting by left multiplication on the space of
  dim x dim matrices (vectorized row-major, dimension dim^2), again with a
  spinor factor; D_q = D_c (x) I_dim. An adjoint (left-minus-right) action was
  tried and rejected: unlike the left action, it does not reproduce the known
  closed-form commutator norms between vectorized basis states.

Every [D, pi(a)], with pi(a) = I_2 (x) a, is formed by _commutator as
D pi(a) - (D pi(a))^dag, which holds for Hermitian a (D is Hermitian by
construction): dirac_commutator checks a, internal callers pass Hermitian stacks.
"""

from __future__ import annotations

import numpy as np

from .linalg import SYMMETRY_TOL, is_hermitian, operator_norm
from .sphere import FuzzySphere, SphereDomainError, _matrix_of


class SpectralTriple:
    """Bundle of (representation, Dirac operator) for one fuzzy sphere."""

    def __init__(self, sphere: FuzzySphere, representation: str, dirac: np.ndarray,
                 algebra_dim: int):
        self.sphere = sphere
        self.representation = representation
        self.dirac = dirac
        self.algebra_dim = algebra_dim  # matrix size of algebra elements

    def __repr__(self):
        return "SpectralTriple(n=%s, rep=%s)" % (self.sphere.n, self.representation)


def build_dirac(sphere: FuzzySphere, representation: str = "config", k: int = 0) -> SpectralTriple:
    """Assemble D_c = sigma.x/(lam r), or D_q = D_c (x) I for the quantum representation.

    k must be 0: the triple has no monopole sector, and any other k raises.
    """
    if representation not in ("config", "quantum"):
        raise SphereDomainError("representation must be 'config' or 'quantum'")
    if k != 0:
        raise SphereDomainError("monopole index k = %r is not supported, only k = 0" % (k,))
    sigma_x = np.block([[sphere.x3, sphere.xminus], [sphere.xplus, -sphere.x3]])
    D = sigma_x / sphere.lam / sphere.radius
    if not is_hermitian(D):
        raise SphereDomainError("Dirac operator failed the Hermiticity check")
    if representation == "config":
        return SpectralTriple(sphere, representation, D, sphere.dim)
    return SpectralTriple(sphere, representation, np.kron(D, np.eye(sphere.dim)), sphere.dim ** 2)


def _commutator(triple: SpectralTriple, a: np.ndarray) -> np.ndarray:
    """[D, pi(a)] for Hermitian a or each slice of a stack: D pi(a) is one product
    with D viewed as a (4 dim) x dim matrix, and [D, pi(a)] = D pi(a) - (D pi(a))^dag."""
    dim = triple.algebra_dim
    da = (triple.dirac.reshape(4 * dim, dim) @ a).reshape(a.shape[:-2] + (2 * dim, 2 * dim))
    return da - da.conj().swapaxes(-1, -2)


def dirac_commutator(triple: SpectralTriple, a) -> np.ndarray:
    """[D, pi(a)] for a Hermitian algebra element or a stack of them; SphereDomainError
    unless a is dim x dim and Hermitian within SYMMETRY_TOL of its largest entry."""
    m = _matrix_of(a)
    dim = triple.algebra_dim
    if m.shape[-2:] != (dim, dim):
        raise SphereDomainError("algebra element shape %r does not match representation dim %d"
                                % (m.shape, dim))
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if dev > SYMMETRY_TOL * max(np.abs(m).max(initial=0.0), 1.0):
        raise SphereDomainError("algebra element is not Hermitian (max |a - a^dag| = %.3e)" % dev)
    return _commutator(triple, m)


def lipschitz_seminorm(triple: SpectralTriple, a) -> float:
    """Operator norm of [D, pi(a)]; the Lipschitz constraint functional."""
    return operator_norm(dirac_commutator(triple, a))


def dirac_eigenvalue_pattern(n, lam: float = 1.0):
    """Expected config Dirac spectrum: (1/r) n and (1/r)(-(n+1)).

    Returns ((value, multiplicity), (value, multiplicity)) with the positive
    branch first. The pattern follows from the total-spin decomposition of
    (spin n) x (spin 1/2).
    """
    from .sphere import _halfint
    n = _halfint(n)
    nf = n.twice / 2.0
    r = lam * np.sqrt(float(n.times_self_plus_one()))
    return ((nf / r, n.twice + 2), (-(nf + 1.0) / r, n.twice))
