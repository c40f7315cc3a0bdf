"""Fuzzy sphere configuration space and its operator algebra.

The space at spin label n is the (2n+1)-dimensional irrep of su(2) with
position operators x1, x2, x3 obeying [xi, xj] = i lam eps_ijk xk and fixed
Casimir lam^2 n(n+1). Basis vectors are ordered by n3 descending, row 0
holding n3 = +n, which is the standard angular momentum convention. That
label ladder is stated once, in _labels; every module checks or enumerates
labels and steps through it.

Also provides the truncated two-oscillator (Jordan-Schwinger) construction
used as an independent cross-check of the matrices, and winding-number
bookkeeping for oscillator monomials.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .halfint import HalfInteger, ladder_radicand
from .linalg import SYMMETRY_TOL


class SphereDomainError(ValueError):
    pass


_halfint = HalfInteger.from_value


def _lam(lam) -> float:
    """lam as a float, checked positive and finite; nan fails the check."""
    if not 0 < lam < math.inf:
        raise SphereDomainError("lambda must be positive and finite, got %r" % lam)
    return float(lam)


def _random(seed) -> random.Random:
    """random.Random(seed) for an integer seed >= 0 (numpy integers included); a float raises
    TypeError and a negative seed ValueError, since Random(-s) repeats the stream of s. Every
    seeded draw in the package comes from here, so none imports numpy.random."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    return random.Random(seed)


class FuzzySphere:
    """Immutable container for the spin-n coordinates at scale lam, stored as x3's
    diagonal and x+'s superdiagonal; the dense matrices are built on access."""

    def __init__(self, n, lam: float = 1.0):
        n = _halfint(n)
        labels = _labels(n)
        self.n = n
        self.lam = _lam(lam)
        self.dim = len(labels)
        self.casimir = n.times_self_plus_one()  # n(n+1)
        self.radius = self.lam * math.sqrt(self.casimir)
        d = np.array([t / 2.0 for t in labels])  # n3 of each row
        # x+[i-1, i] / lam from n(n+1) - n3(n3+1), n3 of column i, rounded once
        a = np.array([math.sqrt(ladder_radicand(n, HalfInteger(t))) for t in labels[1:]])
        _check_su2_bands(d, a, self.casimir)
        # max a >= sqrt(n(n+1)) > n = max |d|, so both bands are finite when this product is
        if not math.isfinite(self.lam * float(a.max())):
            raise SphereDomainError("lambda = %r overflows the coordinates at n = %s" % (lam, n))
        self._x3, self._xplus = self.lam * d, self.lam * a

    @property
    def x3(self) -> np.ndarray:
        return np.diag(self._x3).astype(complex)

    @property
    def xplus(self) -> np.ndarray:
        return np.diag(self._xplus, 1).astype(complex)

    @property
    def xminus(self) -> np.ndarray:
        return self.xplus.conj().T

    @property
    def x1(self) -> np.ndarray:
        return (self.xplus + self.xminus) / 2.0

    @property
    def x2(self) -> np.ndarray:
        return (self.xplus - self.xminus) / 2.0j

    def n3_values(self):
        """All n3 labels, descending, matching row order."""
        return [HalfInteger(t) for t in _labels(self.n)]

    def index_of(self, n3) -> int:
        return _row(self.n, n3)

    def __repr__(self):
        return "FuzzySphere(n=%s, lam=%g)" % (self.n, self.lam)


def _check_su2_bands(d, a, casimir):
    """su(2) at lam = 1 as three band identities on n3 (d) and the x+ band (a), under the dense
    Casimir bound; each commutator band is twice the dense closure entries, so at
    n(n+1) >= 3/4 none is looser. lam scales them exactly, and leaving it out keeps every
    term in range for any finite lam > 0."""
    aa = np.concatenate(([0.0], a * a, [0.0]))  # (x+ x-)_ii = aa[i + 1], (x- x+)_ii = aa[i]
    devs = (("[x3, x+] = lam x+", (d[:-1] - d[1:]) * a - a),
            ("[x+, x-] = 2 lam x3", aa[1:] - aa[:-1] - 2.0 * d),
            ("Casimir", (aa[1:] + aa[:-1]) / 2.0 + d * d - casimir))
    for what, dev in devs:
        worst = float(np.abs(dev).max())
        if not worst <= SYMMETRY_TOL * max(casimir, 1.0):
            raise SphereDomainError("su(2) check %s failed: %.3e" % (what, worst))


def _labels(n) -> range:
    """2 n3 of every basis state at spin n, in row order (n3 = +n first).

    The one statement of the spin-n ladder: n in Z/2 with n >= 1/2 and
    n3 = n, n-1, ..., -n. The row of n3 is labels.index(2 n3); the steps
    n3 -> n3+1 start at labels[1:].
    """
    n = _halfint(n)
    if n.twice < 1:
        raise SphereDomainError("need n >= 1/2, got n = %s" % n)
    return range(n.twice, -n.twice - 1, -2)


def _row(n, n3, what: str = "n3") -> int:
    """Row of the basis state n3 at spin n; `what` names n3 in the error."""
    n, n3 = _halfint(n), _halfint(n3)
    labels = _labels(n)
    if n3.twice not in labels:
        raise SphereDomainError("%s = %s: no basis state at n = %s" % (what, n3, n))
    return labels.index(n3.twice)


def _steps(n) -> list:
    """The lower labels n3 of every step n3 -> n3+1 at spin n, ascending from -n."""
    return [HalfInteger(t) for t in reversed(_labels(n)[1:])]


def _adjacent_step(n, n3):
    """(n, n3) as half-integers, checked to label a step n3 -> n3+1 at spin n."""
    n, n3 = _halfint(n), _halfint(n3)
    steps = _labels(n)[1:]
    if n3.twice not in steps:
        if not steps[-1] <= n3.twice <= steps[0]:
            raise SphereDomainError("need -n <= n3 <= n-1 for a step, got n3 = %s at n = %s"
                                    % (n3, n))
        _row(n, n3)  # raises: in range but of the wrong parity, like n3 = 0 at n = 3/2
    return n, n3


def build_space(n, lam: float = 1.0) -> FuzzySphere:
    """Construct the spin-n space; raises SphereDomainError on bad input."""
    return FuzzySphere(n, lam)


@dataclass
class HSOperator:
    """A dense matrix regarded as an element of the spin-n operator algebra."""

    sphere: FuzzySphere
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _square(self.matrix, self.sphere.dim)


def _matrix_of(op) -> np.ndarray:
    """The matrix of an HSOperator, or any matrix-like as a complex array."""
    return op.matrix if isinstance(op, HSOperator) else np.asarray(op, dtype=complex)


def _square(op, dim: int) -> np.ndarray:
    """_matrix_of(op), checked to be dim x dim; SphereDomainError otherwise."""
    m = _matrix_of(op)
    if m.shape != (dim, dim):
        raise SphereDomainError("operator shape %r does not match dimension %d" % (m.shape, dim))
    return m


def pure_state(sphere: FuzzySphere, n3) -> HSOperator:
    """Projector |n,n3><n,n3|."""
    i = sphere.index_of(n3)
    m = np.zeros((sphere.dim, sphere.dim), dtype=complex)
    m[i, i] = 1.0
    return HSOperator(sphere, m)


# ---------------------------------------------------------------------------
# winding-number bookkeeping for oscillator monomials

@dataclass(frozen=True)
class FockMonomial:
    """Exponents of a two-mode monomial chi1^dag^m1 chi2^dag^m2 chi1^n1 chi2^n2."""

    m1: int
    m2: int
    n1: int
    n2: int

    def __post_init__(self):
        for v in (self.m1, self.m2, self.n1, self.n2):
            if not isinstance(v, int) or v < 0:
                raise SphereDomainError("monomial exponents must be nonnegative ints")


def winding_number(mono: FockMonomial) -> int:
    """Net creation count m1 + m2 - n1 - n2; the monopole index of the monomial."""
    return mono.m1 + mono.m2 - mono.n1 - mono.n2


# ---------------------------------------------------------------------------
# truncated two-mode Fock space and the oscillator realization

class TwoModeFock:
    """Two bosonic modes truncated at `cutoff` quanta per mode.

    The oscillators are normalized so [chi_a, chi_b^dag] = (lam/2) delta_ab,
    i.e. matrix elements sqrt(lam/2) sqrt(count). State (k1, k2) sits at
    flat index k1 * cutoff + k2.
    """

    def __init__(self, cutoff: int, lam: float = 1.0):
        if cutoff < 2:
            raise SphereDomainError("cutoff must be at least 2")
        self.cutoff = int(cutoff)
        self.lam = lam = _lam(lam)
        a = np.zeros((cutoff, cutoff), dtype=complex)
        for k in range(1, cutoff):
            a[k - 1, k] = math.sqrt(lam / 2.0) * math.sqrt(k)
        eye = np.eye(cutoff)
        self.chi1 = np.kron(a, eye)
        self.chi2 = np.kron(eye, a)
        self.number_op = (self.chi1.conj().T @ self.chi1
                          + self.chi2.conj().T @ self.chi2)

    def flat_index(self, k1: int, k2: int) -> int:
        return k1 * self.cutoff + k2

    def interior_indices(self):
        """Flat indices of states untouched by the truncation boundary."""
        c = self.cutoff
        return [self.flat_index(k1, k2)
                for k1 in range(c - 1) for k2 in range(c - 1)]

    def sphere_block_indices(self, n) -> list:
        """Flat indices of the n1+n2 = 2n block, n1 descending.

        With n1 descending, n3 = (n1 - n2)/2 runs from +n down to -n, matching
        the FuzzySphere row order.
        """
        n = _halfint(n)
        two_n = n.twice
        if self.cutoff < two_n + 2:
            raise SphereDomainError(
                "cutoff %d too small for n = %s (need >= %d)" % (self.cutoff, n, two_n + 2))
        return [self.flat_index(k1, two_n - k1) for k1 in range(two_n, -1, -1)]

    def embed_sphere_operator(self, sphere: FuzzySphere, op) -> np.ndarray:
        """Lift a dim x dim sphere operator into the full Fock space."""
        idx = self.sphere_block_indices(sphere.n)
        m = _square(op, sphere.dim)
        out = np.zeros((self.cutoff ** 2, self.cutoff ** 2), dtype=complex)
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                out[ia, ib] = m[a, b]
        return out

    def position_operators(self):
        """x_i = chi^dag sigma_i chi on the full truncated space."""
        chis = (self.chi1, self.chi2)
        dags = tuple(c.conj().T for c in chis)
        paulis = _pauli()
        out = []
        for s in paulis:
            x = np.zeros_like(self.chi1)
            for a in range(2):
                for b in range(2):
                    if s[a, b] != 0:
                        x = x + s[a, b] * (dags[a] @ chis[b])
            out.append(x)
        return out


def _pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return (s1, s2, s3)


def k_adjoint_action(cutoff: int, op, lam: float = 1.0) -> np.ndarray:
    """[N, op] on the truncated two-mode space.

    Algebra basis elements |n,n3><n,n3'| (winding 0) give zero away from the
    truncation boundary; a net-creation monomial of winding k gives
    k*(lam/2)*op there.
    """
    fock = TwoModeFock(cutoff, lam)
    m = _square(op, cutoff ** 2)
    return fock.number_op @ m - m @ fock.number_op


def jordan_schwinger_check(n, lam: float, cutoff: int) -> dict:
    """Rebuild the sphere matrices from oscillator bilinears and compare.

    Returns {"max_deviation": float, "block_dim": int}. The restriction of
    chi^dag sigma_i chi to the 2n-quanta block must reproduce build_space
    up to floating point noise.
    """
    n = _halfint(n)
    fock = TwoModeFock(cutoff, lam)
    idx = fock.sphere_block_indices(n)
    sphere = build_space(n, lam)
    worst = 0.0
    for x_full, x_direct in zip(fock.position_operators(), (sphere.x1, sphere.x2, sphere.x3)):
        block = x_full[np.ix_(idx, idx)]
        worst = max(worst, float(np.abs(block - x_direct).max()))
    return {"max_deviation": worst, "block_dim": len(idx)}
