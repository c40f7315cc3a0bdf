"""SU(2) coherent states and the coherent-state distance.

States are labelled by the stereographic coordinate z of a point on the
sphere and built as Perelomov's rotations of the highest-weight vector
|n,n>, from one checked eigendecomposition of J_y per spin (coherent_state).
The displacement between infinitesimally separated coherent states is
evaluated in the north-pole frame; distances at general z carry the analytic
1/(1+|z|^2) factor instead of a numerically rotated frame.

The numeric distance route here deliberately mirrors the closed-form
derivation: one commutator block with the dimensionless ladder matrix, one
overall radius factor. A separate finite-difference oracle builds the
displaced projector exactly and extrapolates in |dz|. The route is not the
same functional as the constrained supremum over the spectral triple's
Lipschitz ball; coherent_route_report measures both, the supremum as a
certified interval from a log-barrier method, and reports the gap rather than
hiding it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .halfint import HalfInteger
from .linalg import DECOMP_TOL, operator_norm
from .sphere import FuzzySphere, HSOperator, SphereDomainError, _halfint, _labels, _lam, _square


class CoherentState:
    def __init__(self, sphere: FuzzySphere, z: complex, amplitudes: np.ndarray):
        self.sphere = sphere
        self.z = complex(z)
        self.amplitudes = amplitudes
        _check_normalized(amplitudes)

    def projector(self) -> np.ndarray:
        v = self.amplitudes
        return np.outer(v, v.conj())

    def overlap_with_top(self) -> float:
        """|<n,n|z>|^2; analytically (1+|z|^2)^(-2n)."""
        return float(abs(self.amplitudes[0]) ** 2)


@functools.lru_cache(maxsize=64)
def _jy_eigh(two_n: int):
    """(mu, V) with J_y = V diag(mu) V^dag at spin two_n/2; J_y = x2/lam is lam-free."""
    jy = FuzzySphere(HalfInteger(two_n), 1.0).x2
    mu, v = np.linalg.eigh(jy)
    resid = np.abs((v * mu) @ v.conj().T - jy).max()
    if not resid <= DECOMP_TOL:
        raise SphereDomainError("J_y eigendecomposition residual %.3e" % resid)
    mu.setflags(write=False)  # shared by every caller through the cache
    v.setflags(write=False)
    return mu, v


def _check_normalized(amplitudes):
    """Raise unless every state (the last axis) has unit norm within 1e-12."""
    if not np.abs(np.linalg.norm(amplitudes, axis=-1) - 1.0).max() <= 1e-12:
        raise SphereDomainError("coherent state lost normalization")


def _rotated_amplitudes(two_n: int, theta, phi) -> np.ndarray:
    """|n,n> rotated to polar angle theta and azimuth phi, for arrays of angles.

    exp((theta/2)(e^{i phi} J- - e^{-i phi} J+)) = e^{-i phi J3} e^{-i theta J_y} e^{i phi J3}.
    With J_y = V diag(mu) V^dag the state is diag(e^{i phi (n - n3)}) V diag(e^{-i theta mu}) V^dag e_0.
    theta and phi broadcast against each other; the last axis holds n - n3.
    """
    mu, v = _jy_eigh(two_n)
    theta = np.asarray(theta, dtype=float)[..., None]
    rotated = (v @ (np.exp(-1j * theta * mu) * v[0].conj())[..., None])[..., 0]
    return np.exp(1j * np.asarray(phi, dtype=float)[..., None] * np.arange(two_n + 1)) * rotated


def coherent_state(sphere: FuzzySphere, z: complex) -> CoherentState:
    """Perelomov's rotation of |n,n> to the point with stereographic label z.

    The rotation is _rotated_amplitudes with tan(theta/2) = |z| and phi = arg z, read by
    math.atan2: cmath.phase raises OverflowError where atan2 underflows (z = 2 + 5e-324j).
    z = 0 gives e_0 exactly.
    """
    z = complex(z)
    if z == 0:
        e0 = np.zeros(sphere.dim, dtype=complex)
        e0[0] = 1.0
        return CoherentState(sphere, z, e0)
    theta, phi = 2.0 * math.atan(abs(z)), math.atan2(z.imag, z.real)
    return CoherentState(sphere, z, _rotated_amplitudes(sphere.n.twice, theta, phi))


def coherent_drho(sphere: FuzzySphere, dz: complex) -> HSOperator:
    """First-order displacement of the north-pole projector under z -> dz.

    drho = i sqrt(2n) (conj(dz) |n,n-1><n,n| - dz |n,n><n,n-1|); traceless,
    Hermitian, tr(drho^2) = 4n |dz|^2.
    """
    dz = complex(dz)
    if dz == 0:
        raise SphereDomainError("coherent_drho needs |dz| > 0")
    two_n = sphere.n.twice
    coeff = 1j * math.sqrt(two_n)  # sqrt(2n)
    m = np.zeros((sphere.dim, sphere.dim), dtype=complex)
    m[1, 0] = coeff * dz.conjugate()
    m[0, 1] = -coeff * dz
    return HSOperator(sphere, m)


def coherent_metric_coefficient(n, lam: float = 1.0, z: complex = 0j) -> float:
    """Closed-form distance per unit |dz|: lam sqrt(4 n^2 (n+1)/(3n-1)) / (1+|z|^2)."""
    n = _halfint(n)
    _labels(n)  # raises unless n >= 1/2, which keeps 3n - 1 > 0
    nf = n.twice / 2.0
    return _lam(lam) * math.sqrt(4.0 * nf * nf * (nf + 1.0) / (3.0 * nf - 1.0)) / _one_plus_abs2(z)


def _one_plus_abs2(z) -> float:
    """1 + |z|^2, the divisor of every distance at z; past |z| = 1e150, SphereDomainError."""
    if not abs(z) <= 1e150:
        raise SphereDomainError("|z| must be <= 1e150: 1/(1+|z|^2) < 1e-300 beyond it")
    return 1.0 + abs(z) ** 2


def ladder_commutator_norm(sphere: FuzzySphere, op) -> float:
    """Operator norm of [x_plus/lam, op], the single block the closed-form route diagonalizes.

    For the north-pole displacement this equals sqrt(4n(3n-1)) |dz| exactly;
    [x_minus/lam, op] gives the same value by conjugation. Note this is not
    the Lipschitz seminorm of the full Dirac commutator, which assembles all
    three coordinates against the Pauli matrices and comes out strictly
    larger for the same displacement.
    """
    op = _square(op, sphere.dim)
    j = sphere.xplus / sphere.lam
    return operator_norm(j @ op - op @ j)


def _ladder_functional(sphere: FuzzySphere, d: np.ndarray) -> float:
    """tr(d^2) r / ||[x_plus/lam, d]||, the distance both coherent routes evaluate."""
    num = float(np.real(np.trace(d @ d)))
    return num * sphere.radius / ladder_commutator_norm(sphere, d)


def coherent_distance_numeric(n, lam: float = 1.0, dz: complex = 1e-4, z: complex = 0j) -> float:
    """Distance for displacement dz at base point z, via the ladder commutator block.

    North-pole evaluation: tr(drho^2) * radius / ladder norm; the base point
    enters through the analytic 1/(1+|z|^2) factor (rotational invariance).
    Reproduces the closed-form metric coefficient per unit |dz|. Below |dz| = 1e-150,
    tr(drho^2) = 4n |dz|^2 leaves the normal range (1e-156 is already 6e-13 off, and
    1e-200 gives 0), so SphereDomainError unless 1e-150 <= |dz| <= 1e-3.
    """
    dz = complex(dz)
    if not 1e-150 <= abs(dz) <= 1e-3:
        raise SphereDomainError("numeric route needs 1e-150 <= |dz| <= 1e-3 (first order, "
                                "squares in the normal range)")
    sphere = FuzzySphere(n, lam)
    return _ladder_functional(sphere, coherent_drho(sphere, dz).matrix) / _one_plus_abs2(z)


def coherent_distance_fd(n, lam: float = 1.0, dz: complex = 1e-4) -> float:
    """Finite-difference oracle: exact displaced projector, no first-order expansion.

    Builds rho(dz) - rho(0) from coherent_state and runs the same norm
    pipeline. Carries O(|dz|) bias at n = 1/2 and O(|dz|^2) for n >= 1;
    use richardson_distance_coefficient to remove it. Rounding of the projectors then takes
    over: at 2n = 1..8 the oracle is within 2.7e-8 relative at |dz| = 1e-8, up to 2.2e-4 off
    at 1e-12 and over 30% off at 1e-16, so |dz| < 1e-8 raises SphereDomainError.
    """
    dz = complex(dz)
    if not abs(dz) >= 1e-8:
        raise SphereDomainError("finite-difference oracle needs |dz| >= 1e-8: rounding "
                                "swamps the difference below")
    sphere = FuzzySphere(n, lam)
    rho0 = coherent_state(sphere, 0j).projector()
    rho1 = coherent_state(sphere, dz).projector()
    return _ladder_functional(sphere, rho1 - rho0)


def richardson_distance_coefficient(n, lam: float = 1.0) -> float:
    """First-order coefficient d/|dz| extrapolated from the FD oracle.

    Fits the steps |dz| = 1e-4 and 1e-5 assuming the leading error power
    observed for the given n (linear at n = 1/2, quadratic above).
    """
    n = _halfint(n)
    h1, h0 = 1e-4, 1e-5
    v1, v0 = (coherent_distance_fd(n, lam, h) / h for h in (h1, h0))
    p = 1.0 if n.twice == 1 else 2.0
    r = (h1 / h0) ** p
    return (r * v0 - v1) / (r - 1.0)


def resolution_of_identity_residual(n, grid: int = 200) -> float:
    """Max deviation of the coherent-state completeness integral from identity.

    (2n+1)/(4 pi) integral |z(theta,phi)><z| sin(theta) dtheta dphi on a
    midpoint grid; the measure equals (2n+1)/pi d^2z/(1+|z|^2)^2 after
    stereographic projection.
    """
    sphere = FuzzySphere(n, 1.0)
    dim = sphere.dim
    acc = np.zeros((dim, dim), dtype=complex)
    dth = math.pi / grid
    dph = 2.0 * math.pi / grid
    for i in range(grid):
        th = (i + 0.5) * dth
        w = math.sin(th) * dth * dph
        # the ring's states as rows of A; sum_j |z_j><z_j| = A^T conj(A)
        ring = _rotated_amplitudes(sphere.n.twice, th, (np.arange(grid) + 0.5) * dph)
        _check_normalized(ring)
        acc += w * (ring.T @ ring.conj())
    acc *= (sphere.n.twice + 1) / (4.0 * math.pi)
    return float(np.abs(acc - np.eye(dim)).max())


def coherent_route_report(n, lam: float = 1.0) -> dict:
    """Reconcile the closed-form route against the constrained supremum.

    The closed-form derivation divides tr(drho^2) by the ladder commutator
    norm and multiplies by the radius. The Connes distance is instead the
    supremum of tr((rho' - rho) a) over the Lipschitz ball of the config
    triple. Both are computed here per unit |dz| at dz = 1e-4, together with
    the two commutator norms involved. The supremum is a certified interval,
    [sup_per_dz, sup_upper_per_dz], and both ends are reported against the
    closed form as they are: the routes agree at n = 1, the supremum is half
    the closed form at n = 1/2, and strictly larger for n >= 3/2. "sup_method"
    names the route behind the interval: "diagonal_exact" at n = 1/2, where every
    displacement is diagonal in the n.x eigenbasis and the interval is a point,
    and the log-barrier method ("barrier") from n = 1 on.
    """
    from .distance import _certified_supremum
    from .triple import build_dirac, lipschitz_seminorm

    n = _halfint(n)
    dz = 1e-4
    nf = n.twice / 2.0
    sphere = FuzzySphere(n, lam)
    drho = coherent_drho(sphere, complex(dz))
    triple = build_dirac(sphere, "config")
    rho0 = HSOperator(sphere, coherent_state(sphere, 0j).projector())
    rho1 = HSOperator(sphere, coherent_state(sphere, complex(dz)).projector())
    sup = _certified_supremum(triple, rho0, rho1)
    closed = coherent_metric_coefficient(n, lam, 0j)
    return {
        "closed_form": closed,
        "pipeline": coherent_distance_numeric(n, lam, complex(dz)) / dz,
        "ladder_norm_per_dz": ladder_commutator_norm(sphere, drho) / dz,
        "ladder_norm_closed": math.sqrt(4.0 * nf * (3.0 * nf - 1.0)),
        "dirac_seminorm_per_dz": lipschitz_seminorm(triple, drho) / dz,
        "sup_per_dz": sup.value / dz,
        "sup_upper_per_dz": sup.upper / dz,
        "sup_to_closed_ratio": sup.value / dz / closed,
        "sup_upper_to_closed_ratio": sup.upper / dz / closed,
        "sup_method": sup.method,
    }


def large_n_scaling_deviation(n) -> float:
    """Relative deviation of coefficient/n from its asymptote 2 lam/sqrt(3); lam cancels.

    Analytically the deviation is 2/(3n) + O(1/n^2); it crosses below 1%
    only at n = 67, not before.
    """
    n = _halfint(n)
    nf = n.twice / 2.0
    ratio = coherent_metric_coefficient(n, 1.0, 0j) / nf
    return abs(ratio / (2.0 / math.sqrt(3.0)) - 1.0)
