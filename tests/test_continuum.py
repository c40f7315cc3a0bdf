"""Commutative-limit geometry: Hopf map, round metric, monopoles, connections."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzydist import continuum
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
    killing_fields,
    killing_orthonormality_deviation,
    monopole_connection,
    monopole_section_residual,
    s3_metric,
    s3_metric_fd,
    spinor_convention_report,
    tautological_connection,
    tautological_connection_fd,
)
from fuzzydist.sphere import TwoModeFock, k_adjoint_action


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


# ---------------------------------------------------------------------------
# broadcasting: a stack of points gives, point by point, what one point gives

_POINT = st.tuples(st.floats(0.5, 2.0), st.floats(0.05, math.pi - 0.05),
                   st.floats(0.0, 2 * math.pi), st.floats(0.0, 4 * math.pi), st.integers(-3, 3))

# name -> (function of stacked or scalar arguments, the arguments it takes of r, theta, phi,
# psi, k); vector and matrix results are stacked on trailing axes, so out[idx] is one point's.
# RESIDUALS vanish in exact arithmetic, so they are compared on the scale of their terms
RESIDUALS = {"hopf_deviation", "killing_orthonormality_deviation",
             "clifford_algebra_deviations", "monopole_section_residual"}
PER_POINT = {
    "euler_to_spinor": (lambda *a: euler_to_spinor(EulerPoint(*a)), "r th ph ps"),
    "hopf_projection": (lambda *a: hopf_projection(euler_to_spinor(EulerPoint(*a))),
                        "r th ph ps"),
    "hopf_deviation": (lambda *a: hopf_deviation(EulerPoint(*a)), "r th ph ps"),
    "s3_metric": (s3_metric, "th"),
    "s3_metric_fd": (s3_metric_fd, "th ph ps"),
    "killing_fields": (lambda t, p: np.stack(killing_fields(t, p), axis=-2), "th ph"),
    "killing_orthonormality_deviation": (killing_orthonormality_deviation, "th ph"),
    "clifford_sigmas": (lambda t, p: np.stack(clifford_sigmas(t, p), axis=-3), "th ph"),
    "clifford_algebra_deviations": (
        lambda t, p: np.stack(list(clifford_algebra_deviations(t, p).values()), axis=-1),
        "th ph"),
    "monopole_connection_plus": (lambda k, t: monopole_connection(k, t, "plus"), "k th"),
    "monopole_connection_minus": (lambda k, t: monopole_connection(k, t, "minus"), "k th"),
    "monopole_section_residual": (monopole_section_residual, "k th"),
}


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([(1,), (5,), (2, 3)]), st.data())
def test_stacked_calls_match_scalar_calls_point_by_point(shape, data):
    size = math.prod(shape)
    points = data.draw(st.lists(_POINT, min_size=size, max_size=size))
    cols = dict(zip(("r", "th", "ph", "ps", "k"),
                    (np.array(c).reshape(shape) for c in zip(*points))))
    for name, (fn, names) in PER_POINT.items():
        args = [cols[a] for a in names.split()]
        out = fn(*args)
        for idx in np.ndindex(shape):
            one = fn(*(a[idx].item() for a in args))
            # the same numpy code runs both; 1e-14 allows an ulp of cos or exp between them, or
            # a different summation order, on the largest term: r, csc^2 theta or |k|
            scale = cols["r"][idx] + np.sin(cols["th"][idx]) ** -2 + abs(cols["k"][idx])
            np.testing.assert_allclose(out[idx], one, rtol=1e-14, err_msg=name,
                                       atol=1e-14 * scale if name in RESIDUALS else 0.0)


def test_scalar_calls_keep_their_types_and_shapes():
    p = EulerPoint(1.3, 0.8, 0.4, 2.1)
    assert euler_to_spinor(p).shape == (2,) and hopf_projection(euler_to_spinor(p)).shape == (3,)
    assert s3_metric(0.8).shape == (3, 3) and s3_metric_fd(0.8, 0.4, 2.1).shape == (3, 3)
    assert [f.shape for f in killing_fields(0.8, 0.4)] == [(3,)] * 4
    assert [m.shape for m in clifford_sigmas(0.8, 0.4)] == [(2, 2)] * 2
    floats = [hopf_deviation(p), killing_orthonormality_deviation(0.8, 0.4),
              monopole_connection(2, 0.8, "plus"), monopole_section_residual(2, 0.8),
              *clifford_algebra_deviations(0.8, 0.4).values()]
    assert all(type(v) is float for v in floats)


@pytest.mark.parametrize("phase", [0.0, 0.5j])
def test_k_adjoint_action_on_a_stack_is_per_slice(phase):
    fock = TwoModeFock(4, 0.8)
    stack = np.stack([fock.chi1.T, fock.chi1.T @ fock.chi2, fock.chi2 @ fock.chi2.T]) + phase
    out = k_adjoint_action(4, stack, 0.8)
    assert out.shape == stack.shape and out.dtype == stack.dtype  # a real stack stays real
    for op, got in zip(stack, out):
        np.testing.assert_array_equal(got, k_adjoint_action(4, op, 0.8))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_euler_point_refuses_a_stack_with_a_bad_radius(r):
    with pytest.raises(GeometryDomainError):
        EulerPoint(np.array([1.0, r, 2.0]), np.full(3, 0.5), np.zeros(3), np.zeros(3))
    EulerPoint(np.array([1.0, 0.5, 2.0]), np.full(3, 0.5), np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# a nan point propagates: builtin max(worst, nan) keeps worst, so no fold may use it

def test_a_nan_angle_gives_a_nan_deviation(monkeypatch):
    assert math.isnan(killing_orthonormality_deviation(math.nan, 0.3))
    assert math.isnan(monopole_section_residual(1, math.nan))
    draw = continuum._uniform

    def nan_theta(*args):
        cols = draw(*args)
        cols[1, 3] = math.nan
        return cols

    monkeypatch.setattr(continuum, "_uniform", nan_theta)
    rep = spinor_convention_report(samples=10, seed=7)
    assert math.isnan(rep["implemented"]) and math.isnan(rep["conjugated"])
