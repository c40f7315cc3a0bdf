"""Commutative-sphere validation suite.

Numeric checks of the classical constructions the fuzzy geometry contracts
to: the Euler-angle spinor parametrization of S^3 and the Hopf projection,
the round metric and its Killing fields, the curved-index Clifford
matrices, monopole connection components on the two charts, and the
tautological line-bundle connection in the stereographic chart.

Everything is checked numerically at sampled points; no computer algebra.

Broadcasting: every function of a point of S^3 (its angles, the fields of an
EulerPoint, or a spinor) takes arrays as well as numbers, and broadcasts over
their leading axes. A result that is one number per point comes back as a float
for scalar arguments and as an array of the broadcast shape for stacked ones; a
vector or matrix per point gets its own trailing axes, (..., 2) for a spinor,
(..., 3) for a Hopf image or Killing field, (..., 3, 3) for the metric and
(..., 2, 2) for a Clifford generator. Scalar and stacked calls run the same
code, so a sample of points is checked in one call. The stereographic
connection functions take one complex point each.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .sphere import _pauli, _random


class GeometryDomainError(ValueError):
    pass


def _real(x):
    """A per-point result as a float for a single point, as the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _uniform(rng, samples: int, *bounds) -> np.ndarray:
    """One column per (lo, hi) of `samples` rows of rng.uniform(lo, hi), drawn row by row."""
    draws = [rng.uniform(lo, hi) for _ in range(samples) for lo, hi in bounds]
    return np.array(draws).reshape(samples, len(bounds)).T


def _sin_off_poles(theta, what: str):
    """sin(theta), refused where it vanishes; a nan passes and propagates."""
    st = np.sin(theta)
    if np.any(np.abs(st) < 1e-12):
        raise GeometryDomainError("%s singular at the poles" % what)
    return st


@dataclass(frozen=True)
class EulerPoint:
    r: float
    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        if not np.all(np.greater(self.r, 0)):
            raise GeometryDomainError("radius must be positive")


def euler_to_spinor(p: EulerPoint) -> np.ndarray:
    """Two-component spinor of the S^3 point (r, theta, phi, psi), on the last axis.

    chi = sqrt(r) (cos(theta/2) e^{-i(phi+psi)/2}, sin(theta/2) e^{+i(phi-psi)/2}).
    The phase signs are fixed by requiring the Hopf projection chi^dag
    sigma_i chi to land on (r sin cos, r sin sin, r cos); the opposite
    (conjugated) choice flips the sign of the second component, see
    spinor_convention_report.
    """
    sr = np.sqrt(p.r)
    return np.stack([sr * np.cos(p.theta / 2.0) * np.exp(-0.5j * (p.phi + p.psi)),
                     sr * np.sin(p.theta / 2.0) * np.exp(0.5j * (p.phi - p.psi))], axis=-1)


def hopf_projection(chi: np.ndarray) -> np.ndarray:
    """x_i = chi^dag sigma_i chi, on the last axis."""
    return np.einsum("...a,iab,...b->...i", chi.conj(), _pauli(), chi).real


def hopf_deviation(p: EulerPoint, spinor_fn=euler_to_spinor):
    x = hopf_projection(spinor_fn(p))
    st = np.sin(p.theta)
    expect = np.stack(np.broadcast_arrays(st * np.cos(p.phi), st * np.sin(p.phi),
                                          np.cos(p.theta)), axis=-1)
    return _real(np.abs(x - np.expand_dims(p.r, -1) * expect).max(axis=-1))


def spinor_convention_report(samples: int = 50, seed: int = 7) -> dict:
    """Worst Hopf deviation for both phase conventions over random points.

    The implemented convention lands on the spherical coordinates to machine
    precision; the conjugated one misses the x2 sign (order-one deviation).
    """
    p = EulerPoint(*_uniform(_random(seed), samples, (0.5, 2.0), (0.05, math.pi - 0.05),
                             (0, 2 * math.pi), (0, 4 * math.pi)))
    # the alternative phase assignment is the conjugated spinor
    conj = hopf_deviation(p, lambda q: euler_to_spinor(q).conj())
    return {"implemented": float(np.max(hopf_deviation(p), initial=0.0)),
            "conjugated": float(np.max(conj, initial=0.0))}


# ---------------------------------------------------------------------------
# metric and Killing fields

def s3_metric(theta) -> np.ndarray:
    """Round S^3 metric in (theta, phi, psi) coordinates at unit radius."""
    g = np.zeros(np.shape(theta) + (3, 3))
    g[..., range(3), range(3)] = 0.25
    g[..., 1, 2] = g[..., 2, 1] = 0.25 * np.cos(theta)
    return g


def s3_metric_fd(theta, phi, psi) -> np.ndarray:
    """ds^2 = dchi^dag dchi reconstructed by central differences at steps 1e-5
    and 5e-6 plus one Richardson refinement."""
    base = np.broadcast_arrays(theta, phi, psi)

    def jac(step):
        cols = []
        for mu in range(3):
            up, dn = list(base), list(base)
            up[mu], dn[mu] = base[mu] + step, base[mu] - step
            cols.append((euler_to_spinor(EulerPoint(1.0, *up))
                         - euler_to_spinor(EulerPoint(1.0, *dn))) / (2 * step))
        cols = np.stack(cols, axis=-2)
        return np.einsum("...ma,...na->...mn", cols.conj(), cols).real

    g1 = jac(1e-5)
    g2 = jac(1e-5 / 2.0)
    return (4.0 * g2 - g1) / 3.0


def killing_fields(theta, phi):
    """Component vectors (d_theta, d_phi, d_psi) of the three rotation
    generators J1, J2, J3 and the fibre generator K."""
    st = _sin_off_poles(theta, "Killing components are")
    ct = np.cos(theta) / st
    sp, cp = np.sin(phi), np.cos(phi)
    j1 = np.stack(np.broadcast_arrays(1j * sp, 1j * cp * ct, -1j * cp / st), axis=-1)
    j2 = np.stack(np.broadcast_arrays(-1j * cp, 1j * sp * ct, -1j * sp / st), axis=-1)
    j3, k = np.zeros_like(j1), np.zeros_like(j1)
    j3[..., 1], k[..., 2] = -1j, 1j
    return j1, j2, j3, k


def killing_orthonormality_deviation(theta, phi):
    """Max deviation of g(J_i, J_j) from delta_ij/4 (sesquilinear contraction)."""
    js = np.stack(killing_fields(theta, phi)[:3], axis=-2)
    val = np.einsum("...mn,...im,...jn->...ij", s3_metric(theta), js, js.conj())
    return _real(np.abs(val - 0.25 * np.eye(3)).max(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Clifford generators

def clifford_sigmas(theta, phi):
    """The curved-index generators sigma^theta, sigma^phi.

    sigma^theta = [[1, -cot e^{-i phi}], [-cot e^{i phi}, -1]],
    sigma^phi   = [[0, -i e^{-i phi}], [i e^{i phi}, 0]].
    """
    cot = np.cos(theta) / _sin_off_poles(theta, "sigma matrices are")
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    st = np.zeros(np.broadcast(theta, phi).shape + (2, 2), dtype=complex)
    sf = np.zeros_like(st)
    st[..., 0, 0], st[..., 0, 1], st[..., 1, 0], st[..., 1, 1] = 1.0, -cot * em, -cot * ep, -1.0
    sf[..., 0, 1], sf[..., 1, 0] = -1j * em, 1j * ep
    return st, sf


def clifford_algebra_deviations(theta, phi) -> dict:
    """Measured identities of the printed generators.

    Note which square carries csc^2: sigma^theta squares to csc^2(theta) I
    and sigma^phi to I, the opposite pairing from a diag(1, 1/sin^2) inverse
    metric read off positionally.
    """
    st, sf = clifford_sigmas(theta, phi)
    eye = np.eye(2)

    def dev(m):
        return np.abs(m).max(axis=(-2, -1))

    devs = {
        "hermitian": np.maximum(dev(st - st.conj().swapaxes(-2, -1)),
                                dev(sf - sf.conj().swapaxes(-2, -1))),
        "anticommutator": dev(st @ sf + sf @ st),
        "sigma_phi_squared": dev(sf @ sf - eye),
        "sigma_theta_squared": dev(st @ st - eye / np.expand_dims(np.sin(theta), (-2, -1)) ** 2),
    }
    return {name: _real(v) for name, v in devs.items()}


# ---------------------------------------------------------------------------
# monopole connection

def monopole_connection(k, theta, chart: str):
    """A_phi on the chosen chart; A_theta vanishes on both.

    plus (regular at theta = 0):  (k/2)(cos theta - 1)
    minus (regular at theta = pi): (k/2)(cos theta + 1)
    The difference between charts is exactly -k, a pure gauge shift.
    """
    if chart not in ("plus", "minus"):
        raise GeometryDomainError("chart must be 'plus' or 'minus'")
    return _real(0.5 * k * (np.cos(theta) + (-1.0 if chart == "plus" else 1.0)))


def monopole_section_residual(k, theta):
    """Rebuild both A_phi components from explicit unit-spinor sections.

    Gauge-fixed sections (first/second component real) are differentiated in
    phi by central differences of step 1e-6; the worst deviation from the
    closed forms and from the -k gauge difference is returned.
    """
    phi, psi, h = 0.7, 1.3, 1e-6

    def section(which, ph):
        chi = euler_to_spinor(EulerPoint(1.0, theta, ph, psi))
        if which == "plus":
            return chi * cmath.exp(0.5j * (ph + psi))
        return chi * cmath.exp(-0.5j * (ph - psi))

    worst = 0.0
    vals = {}
    for which in ("plus", "minus"):
        c0 = section(which, phi)
        d = (section(which, phi + h) - section(which, phi - h)) / (2 * h)
        vals[which] = a = np.real(1j * k * np.sum(c0.conj() * d, axis=-1))
        worst = np.maximum(worst, np.abs(a - monopole_connection(k, theta, which)))
    return _real(np.maximum(worst, np.abs((vals["plus"] - vals["minus"]) - (-k))))


# ---------------------------------------------------------------------------
# tautological connection

def tautological_connection(rho: complex, drho: complex) -> float:
    """-i Z^dag dZ with Z = (1, rho)/sqrt(1+|rho|^2), evaluated exactly:

    (i/2)(rho conj(drho) - conj(rho) drho)/(1+|rho|^2), which is real.
    """
    rho = complex(rho)
    drho = complex(drho)
    val = 0.5j * (rho * drho.conjugate() - rho.conjugate() * drho) / (1.0 + abs(rho) ** 2)
    return float(val.real)


def tautological_connection_fd(rho: complex, drho: complex) -> float:
    """The same 1-form from finite differences of the normalized section."""
    def z(q):
        v = np.array([1.0, q], dtype=complex)
        return v / np.linalg.norm(v)

    dz = (z(rho + drho) - z(rho - drho)) / 2.0
    return float(np.real(-1j * np.vdot(z(rho), dz)))


def connection_fd_deviation(z: complex, dz: complex, form=tautological_connection) -> float:
    """|form(z, dz) - tautological_connection_fd(z, dz)| in units of the 1-form's scale
    |z||dz|/(1+|z|^2).

    The exact value vanishes where dz is parallel to z, so an error relative to it reads the
    finite-difference rounding as a large deviation there. On this scale that rounding stays
    near 1e-8 at |dz| = 1e-6, while the doubled normalization (-2 times the form) misses by
    at least 0.3 wherever |form| > 0.1 scale.
    """
    z, dz = complex(z), complex(dz)
    scale = abs(z) * abs(dz) / (1.0 + abs(z) ** 2)
    return abs(form(z, dz) - tautological_connection_fd(z, dz)) / scale


def doubled_connection_form(z: complex, dz: complex) -> float:
    """The alternative normalization i(conj(z) dz - z conj(dz))/(1+|z|^2).

    Equals exactly -2 times tautological_connection; the mismatch is
    surfaced by connection_mismatch_report rather than reconciled.
    """
    z = complex(z)
    dz = complex(dz)
    val = 1j * (z.conjugate() * dz - z * dz.conjugate()) / (1.0 + abs(z) ** 2)
    return float(val.real)


def connection_mismatch_report(samples: int = 25, seed: int = 11) -> dict:
    """Measured ratio of the two connection normalizations over random points."""
    rng = _random(seed)
    ratios = []
    for _ in range(samples):
        z = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        dz = 1e-6 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        t = tautological_connection(z, dz)
        if abs(t) < 1e-18:
            continue
        ratios.append(doubled_connection_form(z, dz) / t)
    ratios = np.array(ratios)
    return {"mean_ratio": float(ratios.mean()), "spread": float(np.ptp(ratios))}
