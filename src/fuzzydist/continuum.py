"""Commutative-sphere validation suite.

Numeric checks of the classical constructions the fuzzy geometry contracts
to: the Euler-angle spinor parametrization of S^3 and the Hopf projection,
the round metric and its Killing fields, the curved-index Clifford
matrices, monopole connection components on the two charts, and the
tautological line-bundle connection in the stereographic chart.

Everything is checked numerically at sampled points; no computer algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .sphere import _pauli, _random


class GeometryDomainError(ValueError):
    pass


@dataclass(frozen=True)
class EulerPoint:
    r: float
    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        if not self.r > 0:
            raise GeometryDomainError("radius must be positive")


def euler_to_spinor(p: EulerPoint) -> np.ndarray:
    """Two-component spinor of the S^3 point (r, theta, phi, psi).

    chi = sqrt(r) (cos(theta/2) e^{-i(phi+psi)/2}, sin(theta/2) e^{+i(phi-psi)/2}).
    The phase signs are fixed by requiring the Hopf projection chi^dag
    sigma_i chi to land on (r sin cos, r sin sin, r cos); the opposite
    (conjugated) choice flips the sign of the second component, see
    spinor_convention_report.
    """
    sr = math.sqrt(p.r)
    return np.array([
        sr * math.cos(p.theta / 2.0) * cmath.exp(-0.5j * (p.phi + p.psi)),
        sr * math.sin(p.theta / 2.0) * cmath.exp(0.5j * (p.phi - p.psi)),
    ])


def hopf_projection(chi: np.ndarray) -> np.ndarray:
    """x_i = chi^dag sigma_i chi."""
    return np.array([float(np.real(chi.conj() @ (s @ chi))) for s in _pauli()])


def hopf_deviation(p: EulerPoint, spinor_fn=euler_to_spinor) -> float:
    x = hopf_projection(spinor_fn(p))
    expect = p.r * np.array([
        math.sin(p.theta) * math.cos(p.phi),
        math.sin(p.theta) * math.sin(p.phi),
        math.cos(p.theta),
    ])
    return float(np.abs(x - expect).max())


def spinor_convention_report(samples: int = 50, seed: int = 7) -> dict:
    """Worst Hopf deviation for both phase conventions over random points.

    The implemented convention lands on the spherical coordinates to machine
    precision; the conjugated one misses the x2 sign (order-one deviation).
    """
    rng = _random(seed)
    worst_impl = worst_conj = 0.0
    for _ in range(samples):
        p = EulerPoint(rng.uniform(0.5, 2.0), rng.uniform(0.05, math.pi - 0.05),
                       rng.uniform(0, 2 * math.pi), rng.uniform(0, 4 * math.pi))
        worst_impl = max(worst_impl, hopf_deviation(p))
        # the alternative phase assignment is the conjugated spinor
        worst_conj = max(worst_conj, hopf_deviation(p, lambda q: euler_to_spinor(q).conj()))
    return {"implemented": worst_impl, "conjugated": worst_conj}


# ---------------------------------------------------------------------------
# metric and Killing fields

def s3_metric(theta: float) -> np.ndarray:
    """Round S^3 metric in (theta, phi, psi) coordinates at unit radius."""
    g = np.diag([0.25, 0.25, 0.25])
    g[1, 2] = g[2, 1] = 0.25 * math.cos(theta)
    return g


def s3_metric_fd(theta: float, phi: float, psi: float) -> np.ndarray:
    """ds^2 = dchi^dag dchi reconstructed by central differences at steps 1e-5
    and 5e-6 plus one Richardson refinement."""
    def jac(step):
        cols = []
        base = np.array([theta, phi, psi])
        for mu in range(3):
            e = np.zeros(3)
            e[mu] = step
            up = EulerPoint(1.0, *(base + e))
            dn = EulerPoint(1.0, *(base - e))
            cols.append((euler_to_spinor(up) - euler_to_spinor(dn)) / (2 * step))
        g = np.zeros((3, 3))
        for mu in range(3):
            for nu in range(3):
                g[mu, nu] = float(np.real(np.vdot(cols[mu], cols[nu])))
        return g

    g1 = jac(1e-5)
    g2 = jac(1e-5 / 2.0)
    return (4.0 * g2 - g1) / 3.0


def killing_fields(theta: float, phi: float):
    """Component vectors (d_theta, d_phi, d_psi) of the three rotation
    generators J1, J2, J3 and the fibre generator K."""
    if abs(math.sin(theta)) < 1e-12:
        raise GeometryDomainError("Killing components are singular at the poles")
    ct, st = math.cos(theta) / math.sin(theta), math.sin(theta)
    j1 = np.array([1j * math.sin(phi), 1j * math.cos(phi) * ct, -1j * math.cos(phi) / st])
    j2 = np.array([-1j * math.cos(phi), 1j * math.sin(phi) * ct, -1j * math.sin(phi) / st])
    j3 = np.array([0.0, -1j, 0.0])
    k = np.array([0.0, 0.0, 1j])
    return j1, j2, j3, k


def killing_orthonormality_deviation(theta: float, phi: float) -> float:
    """Max deviation of g(J_i, J_j) from delta_ij/4 (sesquilinear contraction)."""
    g = s3_metric(theta)
    js = killing_fields(theta, phi)[:3]
    worst = 0.0
    for i in range(3):
        for j in range(3):
            val = complex(np.einsum("mn,m,n->", g, js[i], js[j].conj()))
            expect = 0.25 if i == j else 0.0
            worst = max(worst, abs(val - expect))
    return worst


# ---------------------------------------------------------------------------
# Clifford generators

def clifford_sigmas(theta: float, phi: float):
    """The curved-index generators sigma^theta, sigma^phi.

    sigma^theta = [[1, -cot e^{-i phi}], [-cot e^{i phi}, -1]],
    sigma^phi   = [[0, -i e^{-i phi}], [i e^{i phi}, 0]].
    """
    if abs(math.sin(theta)) < 1e-12:
        raise GeometryDomainError("sigma matrices are singular at the poles")
    cot = math.cos(theta) / math.sin(theta)
    st = np.array([[1.0, -cot * cmath.exp(-1j * phi)],
                   [-cot * cmath.exp(1j * phi), -1.0]], dtype=complex)
    sf = np.array([[0.0, -1j * cmath.exp(-1j * phi)],
                   [1j * cmath.exp(1j * phi), 0.0]], dtype=complex)
    return st, sf


def clifford_algebra_deviations(theta: float, phi: float) -> dict:
    """Measured identities of the printed generators.

    Note which square carries csc^2: sigma^theta squares to csc^2(theta) I
    and sigma^phi to I, the opposite pairing from a diag(1, 1/sin^2) inverse
    metric read off positionally.
    """
    st, sf = clifford_sigmas(theta, phi)
    eye = np.eye(2)
    return {
        "hermitian": max(float(np.abs(st - st.conj().T).max()),
                         float(np.abs(sf - sf.conj().T).max())),
        "anticommutator": float(np.abs(st @ sf + sf @ st).max()),
        "sigma_phi_squared": float(np.abs(sf @ sf - eye).max()),
        "sigma_theta_squared": float(np.abs(st @ st - eye / math.sin(theta) ** 2).max()),
    }


# ---------------------------------------------------------------------------
# monopole connection

def monopole_connection(k: int, theta: float, chart: str) -> float:
    """A_phi on the chosen chart; A_theta vanishes on both.

    plus (regular at theta = 0):  (k/2)(cos theta - 1)
    minus (regular at theta = pi): (k/2)(cos theta + 1)
    The difference between charts is exactly -k, a pure gauge shift.
    """
    if chart == "plus":
        return 0.5 * k * (math.cos(theta) - 1.0)
    if chart == "minus":
        return 0.5 * k * (math.cos(theta) + 1.0)
    raise GeometryDomainError("chart must be 'plus' or 'minus'")


def monopole_section_residual(k: int, theta: float) -> float:
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
        a = float(np.real(1j * k * np.vdot(c0, d)))
        vals[which] = a
        worst = max(worst, abs(a - monopole_connection(k, theta, which)))
    worst = max(worst, abs((vals["plus"] - vals["minus"]) - (-k)))
    return worst


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
