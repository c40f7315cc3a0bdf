"""Adjacent pure-state distances: closed form, norm pipeline, optimizer."""

import math

import numpy as np
import pytest

from fuzzydist.distance import (
    OptimizerError,
    _hermitize_traceless,
    _ratio_batch,
    adjacent_distance_closed_form,
    arc_length_step,
    connes_distance_optimized,
    distance_lower_bound,
    quantized_polar_angle,
)
from fuzzydist.halfint import HalfInteger
from fuzzydist.sphere import build_space, pure_state
from fuzzydist.triple import build_dirac, dirac_commutator, lipschitz_seminorm

H = HalfInteger


def test_closed_form_known_values():
    # lam * sqrt(n(n+1)) / sqrt(n(n+1) - n3(n3+1))
    assert adjacent_distance_closed_form(H(2), H(0)) == pytest.approx(1.0)
    assert adjacent_distance_closed_form(H(2), H(-2)) == pytest.approx(1.0)
    assert adjacent_distance_closed_form(H(1), H(-1)) == pytest.approx(math.sqrt(3.0) / 2.0)
    assert adjacent_distance_closed_form(H(3), H(1)) == pytest.approx(math.sqrt(5.0) / 2.0)


def test_closed_form_lambda_linearity():
    for t3 in (-3, -1, 1):
        one = adjacent_distance_closed_form(H(3), H(t3), 1.0)
        two = adjacent_distance_closed_form(H(3), H(t3), 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_closed_form_reflection_symmetry():
    # the pair (n3, n3+1) and its mirror (-n3-1, -n3) have equal separation
    for t in (2, 3, 5, 8):
        for t3 in range(-t, t - 1, 2):
            a = adjacent_distance_closed_form(H(t), H(t3))
            b = adjacent_distance_closed_form(H(t), H(-t3 - 2))
            assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("twice_n", [1, 2, 3, 5, 10])
def test_pipeline_matches_closed_form(twice_n):
    lam = 1.3
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config", 0)
    for t3 in range(-twice_n, twice_n - 1, 2):
        lo = pure_state(s, H(t3))
        hi = pure_state(s, H(t3 + 2))
        got = distance_lower_bound(tr, lo, hi)
        want = adjacent_distance_closed_form(H(twice_n), H(t3), lam)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert got.method == "norm_pipeline"
        assert got.ball_residual <= 1e-8


def test_lower_bound_zero_displacement():
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config", 0)
    rho = pure_state(s, H(0))
    res = distance_lower_bound(tr, rho, rho)
    assert res.value == 0.0


def test_optimizer_reaches_lower_bound():
    """Constrained ascent confirms tightness for adjacent pairs (n <= 3/2)."""
    for t in (1, 2, 3):
        s = build_space(H(t), 1.0)
        tr = build_dirac(s, "config", 0)
        for t3 in range(-t, t - 1, 2):
            lo = pure_state(s, H(t3))
            hi = pure_state(s, H(t3 + 2))
            lb = distance_lower_bound(tr, lo, hi).value
            opt = connes_distance_optimized(tr, lo, hi, seed=42)
            assert lb - 1e-6 <= opt.value <= lb + 1e-3
            assert opt.ball_residual <= 1e-8


def test_optimizer_spin_half_exact_value():
    # the optimum is forced analytically at n = 1/2: distance lam*sqrt(3)/2
    s = build_space(H(1), 1.0)
    tr = build_dirac(s, "config", 0)
    opt = connes_distance_optimized(tr, pure_state(s, H(-1)), pure_state(s, H(1)), seed=42)
    assert abs(opt.value - math.sqrt(3.0) / 2.0) <= 1e-6


def test_optimizer_seed_determinism():
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config", 0)
    for restarts in (0, 8):
        a, b = (connes_distance_optimized(tr, pure_state(s, H(0)), pure_state(s, H(2)),
                                          seed=7, restarts=restarts) for _ in range(2))
        assert a.value == b.value


def test_optimizer_max_iters_raises():
    # pole to pole at n = 2: three iterations leave the ascent well short of
    # the true 4.4495 (the sum of the adjacent closed forms)
    s = build_space(H(4), 1.0)
    tr = build_dirac(s, "config", 0)
    with pytest.raises(OptimizerError) as err:
        connes_distance_optimized(tr, pure_state(s, H(-4)), pure_state(s, H(4)), max_iters=3)
    assert 0.0 < err.value.best_value <= 4.4495


@pytest.mark.parametrize("twice_n", [1, 2, 3, 4])
def test_ratio_batch_matches_dense_seminorm(twice_n):
    """The stacked kernel against the dense seminorm and the per-vector subgradient."""
    s = build_space(H(twice_n), 1.0)
    tr = build_dirac(s, "config", 0)
    dim = tr.algebra_dim
    rng = np.random.default_rng(twice_n)
    z = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
    a = _hermitize_traceless(z)
    drho = _hermitize_traceless(rng.standard_normal((dim, dim)))
    R, G, h, val = _ratio_batch(tr, drho, a)
    for i in range(len(a)):
        want_h = lipschitz_seminorm(tr, a[i])
        assert abs(h[i] - want_h) <= 1e-12 * want_h
        assert abs(val[i] - np.trace(drho @ a[i]).real) <= 1e-12 * np.abs(drho).sum()
        assert R[i] == val[i] / h[i]
        # reference: average over the top singular set of W = outer(u, conj(vh))
        u, sv, vh = np.linalg.svd(dirac_commutator(tr, a[i]))
        grads = []
        for j in np.flatnonzero(sv >= sv[0] * (1.0 - 1e-8)):
            W = np.outer(u[:, j], vh[j].conj()).conj().T
            Q = W @ tr.dirac - tr.dirac @ W
            grads.append(_hermitize_traceless(Q[:dim, :dim] + Q[dim:, dim:]))
        want_G = sum(grads) / len(grads)
        assert np.abs(G[i] - want_G).max() <= 1e-12 * np.abs(want_G).max()


def test_polar_angle_and_arc_length():
    # theta(n3) = asin(n3 / sqrt(n(n+1))) measured from the equator
    t = quantized_polar_angle(H(2), H(2))
    assert t == pytest.approx(math.asin(1.0 / math.sqrt(2.0)))
    assert quantized_polar_angle(H(2), H(0)) == pytest.approx(0.0)
    # lam sqrt(n(n+1))/sqrt(n(n+1) - n3^2): agrees with the spectral step at
    # the equator, exceeds it strictly below (n3^2 > n3(n3+1) for n3 < 0)
    assert arc_length_step(H(2), H(0)) == pytest.approx(
        adjacent_distance_closed_form(H(2), H(0)), rel=1e-14)
    for t, t3 in [(2, -2), (4, -2), (8, -6)]:
        arc = arc_length_step(H(t), H(t3))
        spectral = adjacent_distance_closed_form(H(t), H(t3))
        assert arc > spectral


def test_out_of_range_labels_rejected():
    with pytest.raises(ValueError):
        adjacent_distance_closed_form(H(2), H(2))  # n3 + 1 would exceed +n
    with pytest.raises(ValueError):
        quantized_polar_angle(H(2), H(4))
    with pytest.raises(ValueError):
        arc_length_step(H(2), H(3))  # n3^2 >= n(n+1): arc undefined
