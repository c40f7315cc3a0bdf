"""Commutative-limit geometry: Hopf map, round metric, monopoles, connections."""

import cmath
import math

import numpy as np
import pytest

from fuzzydist.continuum import (
    EulerPoint,
    GeometryDomainError,
    clifford_algebra_deviations,
    clifford_sigmas,
    connection_fd_deviation,
    connection_mismatch_report,
    doubled_connection_form,
    euler_to_spinor,
    hopf_deviation,
    hopf_projection,
    killing_orthonormality_deviation,
    monopole_connection,
    monopole_section_residual,
    s3_metric,
    s3_metric_fd,
    spinor_convention_report,
    tautological_connection,
    tautological_connection_fd,
)


def test_hopf_projection_hits_spherical_triple():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = EulerPoint(1.0, rng.uniform(0.05, math.pi - 0.05),
                       rng.uniform(0, 2 * math.pi), rng.uniform(0, 4 * math.pi))
        chi = euler_to_spinor(p)
        assert np.vdot(chi, chi).real == pytest.approx(1.0, abs=1e-12)
        v = hopf_projection(chi)
        want = np.array([math.sin(p.theta) * math.cos(p.phi),
                         math.sin(p.theta) * math.sin(p.phi),
                         math.cos(p.theta)])
        assert np.abs(v - want).max() <= 1e-12
        assert hopf_deviation(p) <= 1e-12


def test_spinor_convention_is_distinguishable():
    rep = spinor_convention_report(samples=50, seed=7)
    assert rep["implemented"] <= 1e-12
    assert rep["conjugated"] > 0.1  # swapping the phases breaks the projection


def test_s3_metric_structure():
    g = s3_metric(0.8)
    assert g[0, 0] == pytest.approx(0.25)
    assert g[1, 1] == pytest.approx(0.25) and g[2, 2] == pytest.approx(0.25)
    assert g[1, 2] == pytest.approx(0.25 * math.cos(0.8))
    assert g[0, 1] == 0.0 and g[0, 2] == 0.0
    assert np.linalg.det(g) == pytest.approx(math.sin(0.8) ** 2 / 64.0, rel=1e-12)


def test_s3_metric_fd_reconstruction():
    rng = np.random.default_rng(4)
    for _ in range(10):
        th = rng.uniform(0.2, math.pi - 0.2)
        ph = rng.uniform(0, 2 * math.pi)
        ps = rng.uniform(0, 4 * math.pi)
        assert np.abs(s3_metric_fd(th, ph, ps) - s3_metric(th)).max() <= 1e-8


def test_killing_orthonormality():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dev = killing_orthonormality_deviation(
            rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
        assert dev <= 1e-12


def test_clifford_worked_values():
    st, sp = clifford_sigmas(math.pi / 2, 0.3)
    assert np.allclose(st @ st, np.eye(2), atol=1e-12)  # cot(pi/2) = 0
    st, sp = clifford_sigmas(math.pi / 4, 0.3)
    assert np.allclose(st @ st, 2.0 * np.eye(2), atol=1e-12)  # csc^2(pi/4) = 2
    devs = clifford_algebra_deviations(math.pi / 3, math.pi / 5)
    assert max(devs.values()) <= 1e-12
    with pytest.raises(GeometryDomainError):
        clifford_sigmas(0.0, 0.3)


def test_monopole_connection_values():
    assert monopole_connection(1, math.pi / 2, "plus") == pytest.approx(-0.5)
    assert monopole_connection(1, math.pi / 2, "minus") == pytest.approx(0.5)
    for k in range(-2, 3):
        for th in np.linspace(0.1, math.pi - 0.1, 7):
            diff = monopole_connection(k, th, "plus") - monopole_connection(k, th, "minus")
            assert diff == pytest.approx(-k, abs=1e-14)
    with pytest.raises(GeometryDomainError):
        monopole_connection(1, 0.0, "nowhere")


def test_monopole_sections_rebuild_field():
    for k in (-2, 1, 2):
        for th in (0.4, 1.2, 2.6):
            assert monopole_section_residual(k, th) <= 1e-8


def test_tautological_connection():
    assert tautological_connection(0.0, 0.7 + 0.2j) == pytest.approx(0.0)
    eps = 1e-3
    # at rho = 1, drho = i*eps: (i/2)(rho*conj(drho) - conj(rho)*drho)/(1+|rho|^2)
    assert tautological_connection(1.0 + 0j, 1j * eps) == pytest.approx(eps / 2.0, rel=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = complex(rng.normal(), rng.normal())
        drho = complex(rng.normal(), rng.normal()) * 1e-3
        a = tautological_connection(rho, drho)
        assert isinstance(a, float)
        # FD truncation budget: central differences with Richardson refinement
        assert a == pytest.approx(tautological_connection_fd(rho, drho), abs=1e-8)


def test_connection_normalization_mismatch_is_reported():
    # the doubled convention differs by exactly -2 from -i Z^dag dZ
    rng = np.random.default_rng(8)
    for _ in range(10):
        rho = complex(rng.normal(), rng.normal())
        drho = complex(rng.normal(), rng.normal()) * 1e-4
        a = tautological_connection(rho, drho)
        if abs(a) < 1e-18:
            continue
        assert doubled_connection_form(rho, drho) / a == pytest.approx(-2.0, rel=1e-9)
    rep = connection_mismatch_report(samples=25, seed=11)
    assert rep["mean_ratio"] == pytest.approx(-2.0, abs=1e-9)
    assert rep["spread"] <= 1e-9


def test_connection_check_scale_survives_dz_parallel_to_z():
    """With dz parallel to z the exact form is near zero, and the FD rounding relative to it
    read as 2.7e-5 > 1e-6 (the continuum-connection check failed at some seeds); on the
    form's scale |z||dz|/(1+|z|^2) it is below 1e-10."""
    z = 0.6 + 0.8j
    dz = 1e-6 * z * cmath.exp(1e-6j)
    a, b = tautological_connection(z, dz), tautological_connection_fd(z, dz)
    assert abs(a - b) / max(abs(a), 1e-12) > 1e-6  # the old measure
    assert connection_fd_deviation(z, dz) <= 1e-10


@pytest.mark.parametrize("z", [0.6 + 0.8j, 1.3 - 0.4j, -0.2 + 2.1j, 1e-3 + 0j, 40j])
def test_connection_check_still_rejects_the_doubled_form(z):
    """The doubled normalization, -2 times the form, lies 3|form| from FD: at least 0.3 on the
    scale wherever |form| > 0.1 scale, against 1e-6 for the form itself."""
    for k in range(24):
        dz = 1e-6 * cmath.exp(1j * math.pi * k / 12)
        scale = abs(z) * abs(dz) / (1.0 + abs(z) ** 2)
        assert connection_fd_deviation(z, dz) <= 1e-6
        if abs(tautological_connection(z, dz)) > 0.1 * scale:
            assert connection_fd_deviation(z, dz, doubled_connection_form) >= 0.3
