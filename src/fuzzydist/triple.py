"""Spectral triples on the fuzzy sphere.

Both representations use D = sigma.x/(lam r), with sigma.x = [[x3, x-], [x+, -x3]]
written from the real ladder bands of the coordinates, so D is real symmetric, float64:

* config: dim x dim matrices acting by left multiplication on the
  configuration space tensored with a C^2 spinor factor; D_c = sigma.x/(lam r).

* quantum: the same coordinates acting by left multiplication on the space of
  dim x dim matrices (vectorized row-major, dimension dim^2), again with a
  spinor factor; D_q = D_c (x) I_dim. An adjoint (left-minus-right) action was
  tried and rejected: unlike the left action, it does not reproduce the known
  closed-form commutator norms between vectorized basis states.

Every [D, pi(a)], with pi(a) = I_2 (x) a, is formed by _commutator as
D pi(a) - (D pi(a))^dag, which holds for Hermitian a (D is symmetric by
construction): _hermitian_element checks a for dirac_commutator and the distance routes,
internal callers pass Hermitian stacks.
"""

from __future__ import annotations

import numpy as np

from .linalg import SYMMETRY_TOL, operator_norm
from .sphere import FuzzySphere, SphereDomainError, _halfint, _matrix_of


class SpectralTriple:
    """Bundle of (representation, Dirac operator) for one fuzzy sphere."""

    def __init__(self, sphere: FuzzySphere, representation: str, dirac: np.ndarray):
        self.sphere = sphere
        self.representation = representation
        self.dirac = dirac
        self.algebra_dim = dirac.shape[0] // 2  # matrix size of algebra elements

    def __repr__(self):
        return "SpectralTriple(n=%s, rep=%s)" % (self.sphere.n, self.representation)


def build_dirac(sphere: FuzzySphere, representation: str = "config", k: int = 0) -> SpectralTriple:
    """Assemble D_c = sigma.x/(lam r), or D_q = D_c (x) I for the quantum representation.

    k must be 0: the triple has no monopole sector, and any other k raises. Callers omit it;
    it stays in the signature only because the benchmark's perfbench/workloads.py passes 0.
    """
    if representation not in ("config", "quantum"):
        raise SphereDomainError("representation must be 'config' or 'quantum'")
    if k != 0:
        raise SphereDomainError("monopole index k = %r is not supported, only k = 0" % (k,))
    x3, xplus = np.diag(sphere._x3), np.diag(sphere._xplus, 1)
    # times reciprocals, the bits D had as a complex array: the ascent's work hangs on them
    D = np.block([[x3, xplus.T], [xplus, -x3]]) * (1.0 / sphere.lam) * (1.0 / sphere.radius)
    if representation == "config":
        return SpectralTriple(sphere, representation, D)
    return SpectralTriple(sphere, representation, np.kron(D, np.eye(sphere.dim)))


def _at_unit_scale(triple: SpectralTriple) -> SpectralTriple:
    """triple itself at lam = 1, else the same triple built at lam = 1; D scales as 1/lam."""
    s = triple.sphere
    return triple if s.lam == 1.0 else build_dirac(FuzzySphere(s.n), triple.representation)


def _commutator(triple: SpectralTriple, a: np.ndarray) -> np.ndarray:
    """[D, pi(a)] for Hermitian a or each slice of a stack: D pi(a) is one product with D
    viewed as a (4 dim) x dim matrix; D pi(a) - (D pi(a))^dag is written into the conj copy."""
    dim = triple.algebra_dim
    da = (triple.dirac.reshape(4 * dim, dim) @ a).reshape(a.shape[:-2] + (2 * dim, 2 * dim))
    c = np.conjugate(da.swapaxes(-1, -2), out=np.empty_like(da))
    return np.subtract(da, c, out=c)


def _hermitian_element(triple: SpectralTriple, a) -> np.ndarray:
    """_matrix_of(a), checked to be dim x dim (or a stack of them), finite, and Hermitian within
    SYMMETRY_TOL of its largest entry; SphereDomainError otherwise."""
    m = _matrix_of(a)
    dim = triple.algebra_dim
    if m.shape[-2:] != (dim, dim):
        raise SphereDomainError("algebra element shape %r does not match representation dim %d"
                                % (m.shape, dim))
    big = np.abs(m).max(initial=0.0)
    if not np.isfinite(big):
        raise SphereDomainError("algebra element has a non-finite entry")
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not dev <= SYMMETRY_TOL * max(big, 1.0):
        raise SphereDomainError("algebra element is not Hermitian (max |a - a^dag| = %.3e)" % dev)
    return m


def dirac_commutator(triple: SpectralTriple, a) -> np.ndarray:
    """[D, pi(a)] for a Hermitian algebra element or a stack of them (_hermitian_element)."""
    return _commutator(triple, _hermitian_element(triple, a))


def lipschitz_seminorm(triple: SpectralTriple, a) -> float:
    """Operator norm of [D, pi(a)]; the Lipschitz constraint functional."""
    return operator_norm(dirac_commutator(triple, a))


def dirac_eigenvalue_pattern(n, lam: float = 1.0):
    """Expected config Dirac spectrum: (1/r) n and (1/r)(-(n+1)).

    Returns ((value, multiplicity), (value, multiplicity)) with the positive
    branch first. The pattern follows from the total-spin decomposition of
    (spin n) x (spin 1/2).
    """
    n = _halfint(n)
    nf = n.twice / 2.0
    r = lam * np.sqrt(n.times_self_plus_one())
    return ((nf / r, n.twice + 2), (-(nf + 1.0) / r, n.twice))
