"""Coherent states, the stereographic metric coefficient, and its oracles."""

import cmath
import math

import numpy as np
import pytest

from fuzzydist.coherent import (
    _jy_eigh,
    coherent_distance_fd,
    coherent_distance_numeric,
    coherent_drho,
    coherent_metric_coefficient,
    coherent_route_report,
    coherent_state,
    ladder_commutator_norm,
    large_n_scaling_deviation,
    resolution_of_identity_residual,
    richardson_distance_coefficient,
)
from fuzzydist.halfint import HalfInteger
from fuzzydist.sphere import SphereDomainError, build_space

H = HalfInteger


def test_z_zero_is_top_basis_state():
    s = build_space(H(3), 1.0)
    st = coherent_state(s, 0j)
    e0 = np.zeros(s.dim)
    e0[0] = 1.0
    assert np.array_equal(st.amplitudes, e0)


@pytest.mark.parametrize("twice_n", range(1, 13))
def test_amplitudes_match_binomial_law(twice_n):
    """<n,n3|z> = sqrt(C(2n,k)) z^k / (1+|z|^2)^n with k = n - n3, phases included.

    The closed form is only the reference: coherent_state rotates |n,n> with
    an eigendecomposition of J_y and never evaluates it.
    """
    k = np.arange(twice_n + 1)
    root_binom = np.sqrt([math.comb(twice_n, j) for j in k])
    for lam in (1.0, 0.37):
        s = build_space(H(twice_n), lam)
        for mag in (1e-5, 1e-2, 0.5, 1.0, 2.0, 5.0):
            for quadrant in range(4):
                z = mag * cmath.exp(1j * (0.4 + quadrant * math.pi / 2))
                want = root_binom * z ** k / (1 + abs(z) ** 2) ** (twice_n / 2)
                assert np.abs(coherent_state(s, z).amplitudes - want).max() <= 1e-12


def test_overlap_worked_values():
    s = build_space(H(1), 1.0)
    assert coherent_state(s, 1.0 + 0j).overlap_with_top() == pytest.approx(0.5, abs=1e-12)
    s = build_space(H(2), 1.0)
    assert coherent_state(s, 0.5 + 0j).overlap_with_top() == pytest.approx(0.64, abs=1e-12)


def test_drho_structure():
    s = build_space(H(2), 1.0)
    dz = 1e-3
    d = coherent_drho(s, dz)
    m = d.matrix
    assert np.trace(m) == pytest.approx(0.0)
    assert np.allclose(m, m.conj().T)
    # tr(drho^2) = 4n |dz|^2
    assert np.trace(m @ m).real == pytest.approx(4.0e-6, rel=1e-12)
    with pytest.raises(SphereDomainError):
        coherent_drho(s, 0)


def test_metric_coefficient_values():
    assert coherent_metric_coefficient(H(2), 1.0, 0j) == pytest.approx(2.0)
    assert coherent_metric_coefficient(H(1), 1.0, 0j) == pytest.approx(math.sqrt(3.0))
    assert coherent_metric_coefficient(H(2), 1.0, 1.0 + 0j) == pytest.approx(1.0)
    # lam scales linearly
    assert coherent_metric_coefficient(H(2), 2.5, 0j) == pytest.approx(5.0)


def test_base_point_beyond_1e150_rejected():
    # 1/(1+|z|^2) keeps its expression up to |z| = 1e150 and is refused beyond,
    # where |z|^2 would overflow from about 1.34e154 on
    for z in (1e150 + 0j, 1e150j):
        assert coherent_metric_coefficient(H(2), 1.0, z) == 2.0 / (1.0 + abs(z) ** 2)
        assert 0.0 < coherent_distance_numeric(H(2), 1.0, 1e-4, z) < 1e-303
    for z in (1e155 + 0j, 1.0000000000000002e150 + 0j, 1e155 * cmath.exp(1j)):
        for route in (lambda: coherent_metric_coefficient(H(2), 1.0, z),
                      lambda: coherent_distance_numeric(H(2), 1.0, 1e-4, z)):
            with pytest.raises(SphereDomainError, match=r"\|z\| must be <= 1e150"):
                route()


def test_ladder_commutator_norm_law():
    # |[x_plus/lam, drho]| = sqrt(4n(3n-1)) |dz|, all n, either phase of dz
    for t in (1, 2, 3, 4, 6):
        s = build_space(H(t), 1.0)
        nf = t / 2.0
        for dz in (1e-4, 1e-4j, (0.6 + 0.8j) * 1e-4):
            d = coherent_drho(s, dz)
            got = ladder_commutator_norm(s, d)
            assert got == pytest.approx(math.sqrt(4 * nf * (3 * nf - 1)) * abs(dz), rel=1e-10)


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 2)), np.ones((2, 3, 3))],
                         ids=["vector", "wrong-dim", "stack"])
def test_ladder_commutator_norm_takes_only_a_dim_by_dim_matrix(bad):
    # without the shape check a vector broadcasts through j @ op - op @ j to a norm
    with pytest.raises(SphereDomainError):
        ladder_commutator_norm(build_space(H(2), 1.0), bad)


@pytest.mark.parametrize("twice_n", [1, 2, 4])
@pytest.mark.parametrize("z", [0j, 0.5 + 0j, 0.3 + 0.4j])
def test_numeric_route_matches_coefficient(twice_n, z):
    got = coherent_distance_numeric(H(twice_n), 1.0, 1e-4, z)
    want = coherent_metric_coefficient(H(twice_n), 1.0, z) * 1e-4
    assert got == pytest.approx(want, rel=1e-12)


def test_numeric_route_worked_example():
    # (n=1, lam=1, dz=1e-4) -> 2.0e-4 within 1e-8
    assert abs(coherent_distance_numeric(H(2), 1.0, 1e-4) - 2.0e-4) <= 1e-8


def test_numeric_route_phase_independent():
    a = coherent_distance_numeric(H(4), 1.0, 1e-4)
    b = coherent_distance_numeric(H(4), 1.0, 1e-4j)
    assert a == b


def test_numeric_route_rejects_bad_dz():
    with pytest.raises(SphereDomainError):
        coherent_distance_numeric(H(2), 1.0, 0)
    with pytest.raises(SphereDomainError):
        coherent_distance_numeric(H(2), 1.0, 2e-3)


def test_each_coherent_route_raises_below_its_dz_floor():
    """tr(drho^2) = 4n |dz|^2 underflowed to a distance of 0.0 at |dz| = 1e-200, so the numeric
    route takes 1e-150 <= |dz|; rounding swamps the projector difference of the finite-difference
    oracle below |dz| = 1e-8. At its floor each route is within its accuracy."""
    for t in (1, 2, 4, 8):
        c = coherent_metric_coefficient(H(t), 1.0, 0j)
        for dz in (1e-150, 1e-150j):
            assert abs(coherent_distance_numeric(H(t), 1.0, dz) / 1e-150 - c) <= 1e-14 * c
        assert abs(coherent_distance_fd(H(t), 1.0, 1e-8) / 1e-8 - c) <= 3e-8 * c
    for route, dz in ((coherent_distance_numeric, 9.9e-151), (coherent_distance_numeric, 1e-200),
                      (coherent_distance_fd, 9.9e-9), (coherent_distance_fd, 1e-12j),
                      (coherent_distance_fd, math.nan)):
        with pytest.raises(SphereDomainError, match=r"\|dz\|"):
            route(H(2), 1.0, dz)


def test_fd_bias_orders():
    """Projector differences carry a linear bias at n = 1/2, quadratic above."""
    c_half = coherent_metric_coefficient(H(1), 1.0, 0j)
    b1 = coherent_distance_fd(H(1), 1.0, 1e-3) / 1e-3 / c_half - 1.0
    b2 = coherent_distance_fd(H(1), 1.0, 1e-4) / 1e-4 / c_half - 1.0
    assert b1 < 0 and b2 < 0
    assert b1 / b2 == pytest.approx(10.0, rel=5e-3)  # one power of dz

    c_one = coherent_metric_coefficient(H(2), 1.0, 0j)
    b1 = coherent_distance_fd(H(2), 1.0, 1e-3) / 1e-3 / c_one - 1.0
    b2 = coherent_distance_fd(H(2), 1.0, 1e-4) / 1e-4 / c_one - 1.0
    assert b1 / b2 == pytest.approx(100.0, rel=5e-3)  # two powers


def test_fd_within_criterion_tolerance():
    for t in (1, 2, 4):
        fd = coherent_distance_fd(H(t), 1.0, 1e-4) / 1e-4
        c = coherent_metric_coefficient(H(t), 1.0, 0j)
        assert abs(fd - c) / c <= 1e-4


def test_richardson_removes_bias():
    for t in (1, 2, 4):
        rich = richardson_distance_coefficient(H(t), 1.0)
        c = coherent_metric_coefficient(H(t), 1.0, 0j)
        assert rich == pytest.approx(c, rel=1e-6)


def test_route_report_sup_ratios():
    """The supremum and the closed-form route are distinct functionals.

    The route each supremum takes, and the ladder-block norm, which matches
    sqrt(4n(3n-1))|dz| while the full Dirac seminorm of the same displacement
    is larger; both are reported. The supremum is a certified interval: a point
    at n = 1/2, where the exact route answers, and within 1e-9 relative from the
    barrier above. At n = 3/2 and n = 2 it meets the intervals [1.2342597834,
    1.2342597838] and [1.3635305376, 1.3635305380] that independent log-barrier
    solvers outside the package certified (they are not in the repository, so
    these constants cannot be regenerated from it); the ascent stops at 1.145
    and 1.221 there. The ratios at
    n = 1/2 and 1 are the validate check coherent-sup-gap.
    """
    rep = coherent_route_report(H(1), 1.0)
    assert rep["sup_method"] == "diagonal_exact"  # every n = 1/2 displacement is n.x-diagonal
    assert rep["sup_upper_per_dz"] == rep["sup_per_dz"]
    assert rep["ladder_norm_per_dz"] == pytest.approx(rep["ladder_norm_closed"], rel=1e-10)
    assert rep["dirac_seminorm_per_dz"] > rep["ladder_norm_per_dz"]

    rep = coherent_route_report(H(2), 1.0)
    assert rep["sup_method"] == "barrier"
    assert rep["pipeline"] == pytest.approx(rep["closed_form"], rel=1e-12)

    for t, (ref_lo, ref_hi) in ((3, (1.2342597834, 1.2342597838)),
                                (4, (1.3635305376, 1.3635305380))):
        rep = coherent_route_report(H(t), 1.0)
        lo, hi = rep["sup_to_closed_ratio"], rep["sup_upper_to_closed_ratio"]
        assert rep["sup_method"] == "barrier"
        assert 0.0 <= hi - lo <= 1e-9 * lo * (1.0 + 1e-6)
        assert lo <= ref_hi and hi >= ref_lo


def test_jy_cache_is_bounded():
    """One J_y eigendecomposition is cached per spin: coherent states at 2n = 1..300 kept all
    300 of them, 140 MB of eigenvectors, before the cache was bounded at 64 entries."""
    for t in range(1, 101):
        coherent_state(build_space(H(t), 1.0), 0.3 + 0.4j)
    assert _jy_eigh.cache_info().currsize <= 64


def test_large_n_deviation_law():
    # 2/(3n) + O(1/n^2): 1.33% at n = 50, below 1% first at n = 67
    assert large_n_scaling_deviation(H(100)) == pytest.approx(0.013333922053284653, rel=1e-9)
    assert large_n_scaling_deviation(H(134)) < 1e-2
    assert large_n_scaling_deviation(H(132)) > 1e-2


def test_resolution_of_identity_small_grid():
    # coarse completeness check; the validation registry runs the fine grid
    res = resolution_of_identity_residual(H(2), grid=60)
    assert res <= 1e-2
