"""Adjacent pure-state distances: closed form, norm pipeline, optimizer."""

import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzydist import distance
from fuzzydist.coherent import coherent_state
from fuzzydist.distance import (
    _PATIENCE,
    _TOL,
    DistanceResult,
    OptimizerError,
    _ascend,
    _hermitize_traceless,
    _normalize,
    _ratio_batch,
    _starts,
    adjacent_distance_closed_form,
    arc_length_step,
    connes_distance_optimized,
    distance_lower_bound,
    quantized_polar_angle,
)
from fuzzydist.halfint import HalfInteger
from fuzzydist.sphere import HSOperator, build_space, pure_state
from fuzzydist.triple import _commutator, build_dirac, dirac_commutator, lipschitz_seminorm

H = HalfInteger


def _seminorm_batch(triple, a):
    """h = ||[D, pi(a)]|| per slice, from eigenvalues alone.

    [D, pi(a)] is anti-Hermitian, so i[D, pi(a)] is Hermitian and its
    operator norm is the largest eigenvalue modulus.
    """
    lam = np.linalg.eigvalsh(1j * _commutator(triple, a))
    return np.maximum(-lam[:, 0], lam[:, -1])


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


@pytest.mark.parametrize("twice_n", range(1, 17))
def test_pipeline_matches_closed_form(twice_n):
    """Every adjacent pair to n = 8, in both orders, within 1e-10 of the closed form."""
    lam = 1.3
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config")
    for t3 in range(-twice_n, twice_n - 1, 2):
        lo = pure_state(s, H(t3))
        hi = pure_state(s, H(t3 + 2))
        got = distance_lower_bound(tr, lo, hi)
        want = adjacent_distance_closed_form(H(twice_n), H(t3), lam)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert distance_lower_bound(tr, hi, lo).value == pytest.approx(want, rel=1e-10)
        assert got.method == "norm_pipeline"
        assert got.ball_residual <= 1e-8
        assert got.iterations is None and got.stop is None


def test_lower_bound_zero_displacement():
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config")
    rho = pure_state(s, H(0))
    res = distance_lower_bound(tr, rho, rho)
    assert res.value == 0.0
    assert connes_distance_optimized(tr, rho, rho) == DistanceResult(0.0, "diagonal_exact", None,
                                                                     None, 0, "exact")


def test_optimizer_reaches_lower_bound():
    """The exact diagonal route and the constrained ascent both confirm tightness
    for adjacent pairs (n <= 3/2)."""
    for t in (1, 2, 3):
        s = build_space(H(t), 1.0)
        tr = build_dirac(s, "config")
        for t3 in range(-t, t - 1, 2):
            lo = pure_state(s, H(t3))
            hi = pure_state(s, H(t3 + 2))
            lb = distance_lower_bound(tr, lo, hi).value
            exact = connes_distance_optimized(tr, lo, hi, seed=42)
            assert (exact.method, exact.stop, exact.iterations) == ("diagonal_exact", "exact", 0)
            assert abs(exact.value - lb) <= 1e-12 * lb
            assert exact.ball_residual <= 1e-12
            opt = _ascend(tr, hi.matrix - lo.matrix, 20000, 42, 8)
            assert lb - 1e-6 <= opt.value <= lb + 1e-3
            assert opt.ball_residual <= 1e-8
            assert opt.stop in ("stalled", "zero_gradient")
            assert opt.iterations >= (50 if opt.stop == "stalled" else 0)


def test_optimizer_seed_determinism():
    # coherent z = 0 -> 1e-4 at 2n = 2 is off the diagonal, so the ascent reads the seed
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config")
    rho, rho2 = (coherent_state(s, z).projector() for z in (0j, 1e-4 + 0j))
    a, b = (connes_distance_optimized(tr, rho, rho2, seed=7) for _ in range(2))
    assert a.method == "optimizer"
    assert (a.value, a.iterations, a.stop) == (b.value, b.iterations, b.stop)
    assert a.certificate.tobytes() == b.certificate.tobytes()


def test_starts_are_the_gauss_stream_of_the_seed():
    """Each restart is 2 dim^2 random.gauss draws from Random(seed), real parts first, up to
    numpy's last-bit cos, sin and log; numpy integers are seeds, negatives and floats are not."""
    drho = np.diag([1.0, 0.0, -1.0]).astype(complex)
    for seed in (0, 1, 7, 42, 2 ** 40):
        rnd = random.Random(seed)
        z = np.array([rnd.gauss(0.0, 1.0) for _ in range(4 * 2 * 9)]).reshape(4, 2, 3, 3)
        want = _normalize(_hermitize_traceless(z[:, 0] + 1j * z[:, 1]))
        got = _starts(drho, seed, 4)
        assert got.shape == (5, 3, 3) and got[0].tobytes() == (drho / math.sqrt(2)).tobytes()
        np.testing.assert_allclose(got[1:], want, rtol=0, atol=4e-16)
    assert _starts(drho, np.int64(7), 4)[1:].tobytes() == _starts(drho, 7, 4)[1:].tobytes()
    assert _starts(drho, 7, 0).shape == (1, 3, 3)
    with pytest.raises(ValueError):
        _starts(drho, -7, 4)
    with pytest.raises(TypeError):
        _starts(drho, 7.0, 4)


def test_the_ascent_imports_no_numpy_random():
    """The benchmark's coherent pairs reach the ascent at 2n = 2 and 3; drawing their restarts
    loads no numpy.random, which numpy 2 imports on first use (numpy 1 at import)."""
    code = ("import sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "from fuzzydist import build_dirac, build_space, coherent_state, HalfInteger\n"
            "from fuzzydist import connes_distance_optimized\n"
            "for t in (1, 2, 3):\n"
            "    s = build_space(HalfInteger(t), 1.0)\n"
            "    rho, rho2 = (coherent_state(s, z).projector() for z in (0j, 1e-4 + 0j))\n"
            "    res = connes_distance_optimized(build_dirac(s, 'config'), rho, rho2, seed=1)\n"
            "    print(res.method)\n"
            "print(before == ('numpy.random' in sys.modules))\n")
    src = str(Path(distance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["diagonal_exact", "optimizer", "optimizer", "True"]


def test_optimizer_max_iters_raises(monkeypatch):
    # pole to pole at n = 2: three iterations leave the ascent well short of
    # the true 4.4495 (the sum of the adjacent closed forms)
    s = build_space(H(4), 1.0)
    tr = build_dirac(s, "config")
    with pytest.raises(OptimizerError) as err:
        _ascend(tr, pure_state(s, H(4)).matrix - pure_state(s, H(-4)).matrix, 3, 42, 8)
    assert 0.0 < err.value.best_value <= 4.4495
    # a diagonal pair is exact, so the public call raises only off the diagonal:
    # coherent z = 0 -> 0.5, whose certified supremum is 1.909465
    rho, rho2 = (HSOperator(s, coherent_state(s, z).projector()) for z in (0j, 0.5 + 0j))
    monkeypatch.setattr(distance, "_MAX_ITERS", 3)
    with pytest.raises(OptimizerError) as err:
        connes_distance_optimized(tr, rho, rho2)
    assert 0.0 < err.value.best_value < 1.909465


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 12), st.floats(0.5, 2.0), st.integers(0, 2**32 - 1))
def test_diagonal_supremum_is_the_kantorovich_sum(twice_n, lam, seed):
    """Between diagonal states p, q the public call is exact: the ladder sum
    sum_k w_k |F_k| with F the cumulative sum of q - p and w_k the adjacent closed
    forms, at least the lower-bound formula, symmetric, linear in lam, and certified
    by a potential on the Lipschitz sphere. For 2n <= 3 the ascent, which rescales a
    feasible potential, stays below it."""
    p, q = np.random.default_rng(seed).dirichlet(np.ones(twice_n + 1), size=2)
    rho, rho2 = np.diag(p).astype(complex), np.diag(q).astype(complex)
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config")
    got = connes_distance_optimized(tr, rho, rho2)
    assert (got.method, got.stop, got.iterations) == ("diagonal_exact", "exact", 0)
    w = [adjacent_distance_closed_form(H(twice_n), H(t), lam)
         for t in range(-twice_n, twice_n - 1, 2)]
    want = float(np.dot(w, np.abs(np.cumsum(q - p)[:-1])))
    assert abs(got.value - want) <= 1e-12 * want
    assert got.value >= distance_lower_bound(tr, rho, rho2).value * (1.0 - 1e-12)
    assert abs(connes_distance_optimized(tr, rho2, rho).value - got.value) <= 1e-12 * want
    one = connes_distance_optimized(build_dirac(build_space(H(twice_n), 1.0), "config"),
                                    rho, rho2).value
    assert abs(got.value - lam * one) <= 1e-12 * want
    assert abs(lipschitz_seminorm(tr, got.certificate) - 1.0) <= 1e-12
    assert got.ball_residual <= 1e-12
    assert abs(np.trace((rho2 - rho) @ got.certificate).real - got.value) <= 1e-12 * want
    if twice_n <= 3:
        try:
            low = _ascend(tr, rho2 - rho, 500, 42, 8).value
        except OptimizerError as err:
            low = err.best_value
        assert low <= got.value * (1.0 + 1e-12)


@pytest.mark.parametrize("twice_n", list(range(1, 13)) + [40])
def test_band_weights_match_the_eigvalsh_stack(twice_n):
    """The exact route reads w_k = lam r/x+[k, k+1] from the band. Its reference is the dense
    route it replaced: 1/||[D, pi(P_k)]|| by eigvalsh on the stack of projectors P_k onto the
    first k + 1 basis states. The adjacent pair of rows k + 1 -> k is at distance w_k."""
    for lam in (0.7, 1.0, 2.3):
        s = build_space(H(twice_n), lam)
        tr = build_dirac(s, "config")
        want = 1.0 / _seminorm_batch(tr, np.tri(s.dim - 1, s.dim)[:, :, None] * np.eye(s.dim))
        for k, n3 in enumerate(s.n3_values()[1:]):  # n3 of row k + 1
            got = connes_distance_optimized(tr, pure_state(s, n3), pure_state(s, n3 + H(2)))
            assert got.method == "diagonal_exact"
            assert abs(got.value - want[k]) <= 1e-15 * want[k]


def test_exact_route_needs_no_seminorm_stack(monkeypatch):
    """With np.linalg.eigvalsh unavailable, the exact route still gives the pinned values of a
    config pole-to-pole pair and of the quantum flipped-column pairs, certified on the ball.
    Every eigenvalue stack (the ascent's screen, this module's _seminorm_batch) goes through
    np.linalg.eigvalsh, so blocking it fails the test if the exact route builds one."""
    def boom(*args):
        raise AssertionError("the exact route called an eigvalsh stack")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    s = build_space(H(4), 1.0)
    got = connes_distance_optimized(build_dirac(s, "config"), pure_state(s, H(4)),
                                    pure_state(s, H(-4)))
    assert got.method == "diagonal_exact" and got.ball_residual <= 1e-12
    assert abs(got.value - 4.449489742783178) <= 1e-12 * got.value
    for twice_n, want in ((1, 0.6196602723327878), (2, 1.2297271498300795),
                          (3, 1.0973662266217152)):
        dim = twice_n + 1
        tr = build_dirac(build_space(H(twice_n), 1.0), "quantum")
        w = np.random.default_rng(10 + twice_n).dirichlet(np.ones(dim * dim)).reshape(dim, dim)
        got = connes_distance_optimized(tr, np.diag(w.ravel()), np.diag(w[::-1].ravel()))
        assert got.method == "diagonal_exact" and got.ball_residual <= 1e-12
        assert abs(got.value - want) <= 1e-12 * want


def test_diagonal_mixed_pair_is_exact():
    """At 2n = 4 the ascent ran all 20 000 iterations on this pair and raised at
    0.4844; the exact route returns the W1 value."""
    rng = np.random.default_rng(5)
    for m in (3, 4, 5):
        p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
    s = build_space(H(4), 1.0)
    got = connes_distance_optimized(build_dirac(s, "config"), np.diag(p), np.diag(q))
    assert abs(got.value - 0.5648379587027474) <= 1e-12


def test_nonzero_trace_is_infinite_distance():
    """a + t I has seminorm 0, so a displacement with trace beyond rounding is at infinite
    distance on every route; the lower-bound formula's convention is ArithmeticError."""
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config")
    p, q = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 2.0, 0.0])
    for rho, rho2 in ((p, q), (q, p)):
        with pytest.raises(ArithmeticError, match="infinite distance"):
            connes_distance_optimized(tr, rho, rho2)
    rho = coherent_state(s, 0.3 + 0.4j).projector()
    with pytest.raises(ArithmeticError, match="infinite distance"):
        connes_distance_optimized(tr, rho, 1.5 * coherent_state(s, -0.5 + 0.1j).projector())


def test_quantum_triple_sums_the_config_route_over_right_sectors():
    """I (x) B commutes with D_q for every B, so on the quantum triple a displacement with
    a nonzero right marginal (partial trace over the left index) is at infinite distance
    on every route. With equal right marginals, a diagonal pair is exact: compressing to
    right sector j is a config problem, so the value is the config route summed over the
    columns of the weight matrix, certified by the block potential sum_j a_j (x) |j><j|.
    The single Kantorovich chain over the flattened dim^2 basis returned 0.866 for the first
    pair below and 0.7987, 1.3856 and 2.1856 with ball residual 2n for the others."""
    tr = build_dirac(build_space(H(1), 1.0), "quantum")
    psi = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    for rho2 in (np.diag([0.0, 1.0, 0.0, 0.0]), np.outer(psi, psi)):
        with pytest.raises(ArithmeticError, match="infinite distance"):
            connes_distance_optimized(tr, np.diag([1.0, 0.0, 0.0, 0.0]), rho2)
    for twice_n, want in ((1, 0.6196602723327878), (2, 1.2297271498300795),
                          (3, 1.0973662266217152)):
        dim = twice_n + 1
        s = build_space(H(twice_n), 1.0)
        tr = build_dirac(s, "quantum")
        w = np.random.default_rng(10 + twice_n).dirichlet(np.ones(dim * dim)).reshape(dim, dim)
        rho, rho2 = np.diag(w.ravel()), np.diag(w[::-1].ravel())  # each column flipped
        got = connes_distance_optimized(tr, rho, rho2)
        assert (got.method, got.stop, got.iterations) == ("diagonal_exact", "exact", 0)
        assert abs(got.value - want) <= 1e-12 * want
        assert got.ball_residual <= 1e-12
        assert abs(np.trace((rho2 - rho) @ got.certificate).real - got.value) <= 1e-12 * want
        cols = [connes_distance_optimized(build_dirac(s), np.diag(w[:, j]), np.diag(w[::-1, j]))
                for j in range(dim)]
        assert abs(sum(c.value for c in cols) - got.value) <= 1e-12 * want
        assert got.value >= distance_lower_bound(tr, rho, rho2).value
        if twice_n == 1:  # the ascent rescales a feasible potential and ends just below
            low = _ascend(tr, rho2 - rho, 20000, 42, 2).value
            assert want * (1.0 - 1e-8) <= low <= want * (1.0 + 1e-12)


def _bloch(z):
    """Unit vector of the stereographic label z; z = 0 is the north pole."""
    return np.array([2.0 * z.real, 2.0 * z.imag, 1.0 - abs(z) ** 2]) / (1.0 + abs(z) ** 2)


_Z = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None, database=None)
@given(_Z, _Z, st.floats(0.5, 2.0))
def test_spin_half_distance_is_the_bloch_chord(z, z2, lam):
    """At n = 1/2 every displacement is diagonal in the n.x eigenbasis, so the public call is
    exact on any pair of coherent states: (lam sqrt(3)/4) times the chord between their Bloch
    vectors, at least the lower-bound formula, certified on the Lipschitz sphere, and above
    what the ascent reaches."""
    chord = float(np.linalg.norm(_bloch(z) - _bloch(z2)))
    # forming the two projectors rounds drho by ~1e-16, about 3e-16/chord of the value
    # (4e-14 at chord 1e-2); against the chord read from drho itself the route is 1e-15
    assume(chord >= 1e-2)
    s = build_space(H(1), lam)
    tr = build_dirac(s, "config")
    rho, rho2 = (coherent_state(s, w).projector() for w in (z, z2))
    got = connes_distance_optimized(tr, rho, rho2)
    assert (got.method, got.stop, got.iterations) == ("diagonal_exact", "exact", 0)
    want = lam * math.sqrt(3.0) / 4.0 * chord
    assert abs(got.value - want) <= 1e-12 * want
    assert got.value >= distance_lower_bound(tr, rho, rho2).value * (1.0 - 1e-12)
    assert got.ball_residual <= 1e-12
    try:
        low = _ascend(tr, rho2 - rho, 500, 42, 8).value
    except OptimizerError as err:
        low = err.best_value
    assert low <= got.value * (1.0 + 1e-12)


@pytest.mark.parametrize("z, real", [(2 + 5e-324j, 2.0), (5e-324j, 5e-324)])
def test_subnormal_imaginary_part_is_a_point(z, real):
    """arg z by cmath.phase raised OverflowError on 2 + 5e-324j, where atan2 underflows to 0;
    hypothesis drew that z2. The state is the real-z state (bitwise when arg z is 0), and
    at n = 1/2 the distance is still the Bloch chord."""
    for t in (1, 4):
        s = build_space(H(t), 1.0)
        got, want = (coherent_state(s, w).amplitudes for w in (z, complex(real)))
        if z.real:
            assert got.tobytes() == want.tobytes()
        else:  # arg z = pi/2 rephases amplitudes of order 1e-16 beside the leading 1
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    s = build_space(H(1), 1.3)
    rho, rho2 = (coherent_state(s, w).projector() for w in (-0.5 + 0.25j, z))
    got = connes_distance_optimized(build_dirac(s, "config"), rho, rho2)
    want = 1.3 * math.sqrt(3.0) / 4.0 * float(np.linalg.norm(_bloch(-0.5 + 0.25j) - _bloch(z)))
    assert got.method == "diagonal_exact" and abs(got.value - want) <= 1e-12 * want


def _rotation(s, theta, phi):
    """e^{-i phi J3} e^{-i theta Jy} on the spin of sphere s, J = x/lam."""
    mu, v = np.linalg.eigh(s.x2 / s.lam)
    j3 = np.diag(s.x3).real / s.lam
    return (np.exp(-1j * phi * j3)[:, None] * v * np.exp(-1j * theta * mu)) @ v.conj().T


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 8), st.floats(0.5, 2.0), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
       st.integers(0, 2**32 - 1))
def test_rotated_diagonal_pair_is_exact(twice_n, lam, theta, phi, seed):
    """U_(1/2) (x) U_n commutes with D_c, so rotating both states of a diagonal pair keeps
    their distance: the public call finds the rotated frame from the spin-1 part of drho
    and returns the unrotated diagonal_exact value."""
    p, q = np.random.default_rng(seed).dirichlet(np.ones(twice_n + 1), size=2)
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config")
    want = connes_distance_optimized(tr, np.diag(p), np.diag(q)).value
    rot = _rotation(s, theta, phi)
    got = connes_distance_optimized(tr, rot @ np.diag(p) @ rot.conj().T,
                                    rot @ np.diag(q) @ rot.conj().T)
    assert (got.method, got.stop, got.iterations) == ("diagonal_exact", "exact", 0)
    assert abs(got.value - want) <= 1e-12 * want
    assert got.ball_residual <= 1e-12


def test_su2_invariance_routes():
    """Antipodal coherent states are pole to pole in a rotated frame, so their distance is
    exact. A displacement with no spin-1 part, one on the quantum triple, and coherent pairs
    at 2n >= 2 that are not antipodal go to the ascent, bitwise as if it were called directly."""
    s = build_space(H(4), 1.0)
    tr = build_dirac(s, "config")
    for z in (0.3 + 0.4j, 2.0 - 1.0j):
        rho, rho2 = (coherent_state(s, w).projector() for w in (z, -1.0 / z.conjugate()))
        got = connes_distance_optimized(tr, rho, rho2)
        assert got.method == "diagonal_exact"
        assert abs(got.value - 4.449489742783178) <= 1e-12
    # tr(drho x3) = 0 for this pair of diagonal states, and rotation keeps it 0
    s = build_space(H(2), 1.0)
    rot = _rotation(s, 0.7, 1.9)
    p, q = np.diag([0.5, 0.0, 0.5]), np.diag([0.0, 1.0, 0.0])
    got = connes_distance_optimized(build_dirac(s, "config"), rot @ p @ rot.conj().T,
                                    rot @ q @ rot.conj().T)
    assert got.method == "optimizer"
    # the quantum triple's algebra is M_(dim^2), on which the spin-1 part is not defined;
    # both states have right marginal I/2, so the distance is finite
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    got = connes_distance_optimized(build_dirac(build_space(H(1), 1.0), "quantum"),
                                    np.diag([0.5, 0.0, 0.0, 0.5]), np.outer(psi, psi))
    assert got.method == "optimizer"
    for twice_n in (1, 2, 3):
        s = build_space(H(twice_n), 1.0)
        tr = build_dirac(s, "config")
        rho, rho2 = (coherent_state(s, z).projector() for z in (0j, 1e-4 + 0j))
        got = connes_distance_optimized(tr, rho, rho2)
        if twice_n == 1:
            # tr drho = -2.6e-16, 3e-12 of the value, which the exact route drops: summed
            # with it, the value falls 1.3e-12 below the lower bound, tight at n = 1/2
            lb = distance_lower_bound(tr, rho, rho2).value
            assert got.method == "diagonal_exact"
            assert abs(got.value - lb) <= 1e-12 * lb
            continue
        want = _ascend(tr, rho2 - rho, 20000, 42, 8)
        assert (got.value, got.iterations, got.stop) == (want.value, want.iterations, want.stop)
        assert got.certificate.tobytes() == want.certificate.tobytes()
        assert got.method == "optimizer"


def _reference_pairs():
    for twice_n in (1, 2, 3):
        s = build_space(H(twice_n), 1.0)
        tr = build_dirac(s, "config")
        coh = [HSOperator(s, coherent_state(s, z).projector()) for z in (0j, 1e-4 + 0j)]
        yield "adjacent", tr, pure_state(s, H(twice_n - 2)), pure_state(s, H(twice_n))
        if twice_n > 1:  # at 2n = 1 the poles are the adjacent pair
            yield "poles", tr, pure_state(s, H(-twice_n)), pure_state(s, H(twice_n))
        yield "coherent", tr, coh[0], coh[1]


def _ladder_spec(triple, drho, max_iters, seed, restarts, svd_screen=False) -> DistanceResult:
    """The ascent's rule with none of its batching: each round, every live start screens its
    whole ladder normalize(a + step 0.5^j grad), j = 0..29, by the eigenvalues of i[D, pi(a)]
    (the top singular value with ``svd_screen``) and takes the first rung that beats R: step
    times 0.5^j 1.3, or 0.5^30 and a stall if none does. Stall tails run round by round, and
    "stalled" wins a tie with "max_iters". Ratios come from the ascent's einsum and
    _ratio_batch on the same commutator stack, so only the rule is compared; a rung equal to
    the one before it (a third of them) reuses that rung's commutator and screen."""
    dim = triple.algebra_dim
    a = _starts(drho, seed, restarts)
    R, G, h, val = _ratio_batch(triple, drho, a)
    half = 0.5 ** np.arange(30)
    step, grad = np.full(len(a), 0.1), np.empty_like(a)
    stall, iters = np.zeros((2, len(a)), dtype=int)
    stop = np.full(len(a), "" if max_iters > 0 else "max_iters", dtype=object)
    acc = np.arange(len(a))  # the starts whose point moved, with G, h and val there
    while True:
        if acc.size:  # gradient of the ratio, then tangent projection on the sphere
            hn = h[:, None, None]
            g = _hermitize_traceless((drho * hn - val[:, None, None] * G) / (hn * hn))
            g -= np.einsum("bij,bij->b", a[acc].conj(), g).real[:, None, None] * a[acc]
            grad[acc] = g
            zero = acc[np.add.reduce((g.conj() * g).real, axis=(-2, -1)) == 0.0]
            stop[zero[stop[zero] == ""]] = "zero_gradient"
        live = np.flatnonzero(stop == "")
        if not live.size:
            break
        moved = a[live, None] + (step[live, None] * half)[..., None, None] * grad[live, None]
        cand = _normalize(moved.reshape(-1, dim, dim))
        first = np.r_[True, (cand[1:] != cand[:-1]).any(axis=(-2, -1))]  # not a repeat
        c = _commutator(triple, cand[first])
        if svd_screen:
            hc = np.linalg.svd(c, compute_uv=False)[:, 0]
        else:
            ev = np.linalg.eigvalsh(1j * c)
            hc = np.maximum(-ev[:, 0], ev[:, -1])
        k = np.cumsum(first) - 1  # the row of c that holds each rung's commutator
        c, hc = c[k], hc[k]
        up = (np.einsum("ij,bji->b", drho, cand).real / hc).reshape(-1, 30) > R[live, None]
        hit, j = up.any(axis=1), up.argmax(axis=1)
        acc, out = live[hit], live[~hit]
        if acc.size:
            win = np.flatnonzero(hit) * 30 + j[hit]
            Ra, G, h, val = _ratio_batch(triple, drho, cand[win], c[win])
            gain = (Ra - R[acc]) / np.maximum(np.abs(Ra), 1.0)
            stall[acc] = np.where(gain < _TOL, stall[acc] + 1, 0)
            R[acc], a[acc], step[acc] = Ra, cand[win], step[acc] * half[j[hit]] * 1.3
        step[out] *= 0.5 ** 30
        stall[out] += 1
        iters[live] += 1
        stop[live[iters[live] >= max_iters]] = "max_iters"
        stop[live[stall[live] >= _PATIENCE]] = "stalled"

    best = int(np.argmax(R))
    if not np.isfinite(R[best]):
        raise OptimizerError("ascent produced no finite ratio", best_value=None)
    a_star = a[best] / lipschitz_seminorm(triple, a[best])
    value = float(np.real(np.trace(drho @ a_star)))
    if stop[best] == "max_iters":
        raise OptimizerError("best start stopped at max_iters = %d without converging"
                             % max_iters, best_value=value)
    residual = abs(lipschitz_seminorm(triple, a_star) - 1.0)
    return DistanceResult(value, "optimizer", a_star, residual, int(iters[best]), stop[best])


def _outcome(ascend, *args):
    """Everything an ascent reports, or its OptimizerError, as one comparable tuple."""
    try:
        got = ascend(*args)
    except OptimizerError as err:
        return "raised", str(err), err.best_value
    return (got.value, got.method, got.iterations, got.stop, got.ball_residual,
            got.certificate.tobytes())


@functools.lru_cache(maxsize=None)
def _converged(seed):
    """_ascend's outcome on each reference pair at (20000, 8), shared by the spec tests."""
    return [_outcome(_ascend, tr, rho2.matrix - rho.matrix, 20000, seed, 8)
            for _, tr, rho, rho2 in _reference_pairs()]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_ascent_matches_the_ladder_spec_bitwise(seed):
    """Chunked ladders, the eigenvalue screen and retired starts change no reported bit. Seed 7
    runs the reference pairs (their z = 0 -> 1e-4 pairs are the benchmark's); 1 and 42 add 2n = 4
    pole to pole and z = 0 -> 0.5, runs without restarts, and runs cut at 3 and 65 iterations,
    which raise or retire frozen starts."""
    # the ascent normalizes by the expression np.linalg.norm evaluates
    z = np.random.default_rng(seed).standard_normal((2, 5, 3, 3))
    x = z[0] + 1j * z[1]
    want = x / np.linalg.norm(x, axis=(-2, -1), keepdims=True)
    assert _normalize(x).tobytes() == want.tobytes()
    pairs = [(tr, rho2.matrix - rho.matrix) for _, tr, rho, rho2 in _reference_pairs()]
    for (tr, drho), got in zip(pairs, _converged(seed)):
        assert got == _outcome(_ladder_spec, tr, drho, 20000, seed, 8), tr
    if seed == 7:
        return
    s = build_space(H(4), 1.0)
    tr4 = build_dirac(s, "config")
    rho, rho2 = (coherent_state(s, z).projector() for z in (0j, 0.5 + 0j))
    poles = pure_state(s, H(4)).matrix - pure_state(s, H(-4)).matrix
    runs = [(*p, *run) for p in pairs for run in ((20000, 0), (3, 8), (65, 8))]
    runs += [(tr4, drho, *run) for drho in (poles, rho2 - rho)
             for run in ((20000, 8), (20000, 0), (3, 8), (65, 8))]
    for tr, drho, max_iters, restarts in runs:
        args = (tr, drho, max_iters, seed, restarts)
        assert _outcome(_ascend, *args) == _outcome(_ladder_spec, *args), args[2:]


@pytest.mark.parametrize("seed", [1, 7])
def test_ascent_value_matches_the_svd_screened_spec(seed):
    """Screening rungs by the top singular value instead of the eigenvalues moves the value
    by at most 1e-12 relative on the reference pairs."""
    for (kind, tr, rho, rho2), (got, *_) in zip(_reference_pairs(), _converged(seed)):
        want = _ladder_spec(tr, rho2.matrix - rho.matrix, 20000, seed, 8, svd_screen=True).value
        assert abs(got - want) <= 1e-12 * abs(want), (kind, tr, got, want)


def test_frozen_starts_retire_exactly(monkeypatch):
    """A start whose step no longer moves a is retired with the iterations and
    stop reason it would have run to; max_iters still binds over the tail."""
    s = build_space(H(4), 1.0)
    tr = build_dirac(s, "config")
    drho = pure_state(s, H(4)).matrix - pure_state(s, H(-4)).matrix
    with pytest.raises(OptimizerError) as err:
        _ascend(tr, drho, 65, 42, 8)
    assert err.value.best_value == 4.449489740606218
    opt = _ascend(tr, drho, 66, 42, 8)
    assert (opt.iterations, opt.stop) == (66, "stalled")
    # at n = 1/2 the displacement is already optimal: its first rung leaves it
    # unchanged, so all 50 stalled iterations are settled in one round, whose
    # screen is the ascent's only eigvalsh call
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(c):
        calls.append(len(c))
        return eigvalsh(c)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    s = build_space(H(1), 1.0)
    tr = build_dirac(s, "config")
    opt = _ascend(tr, pure_state(s, H(1)).matrix - pure_state(s, H(-1)).matrix, 20000, 42, 0)
    assert (opt.iterations, opt.stop) == (50, "stalled")
    assert len(calls) == 1


@pytest.mark.parametrize("twice_n", [1, 2, 3, 4])
def test_ratio_batch_matches_dense_seminorm(twice_n):
    """The stacked kernels against the dense seminorm and the per-vector subgradient."""
    s = build_space(H(twice_n), 1.0)
    tr = build_dirac(s, "config")
    dim = tr.algebra_dim
    rng = np.random.default_rng(twice_n)
    z = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
    a = _hermitize_traceless(z)
    drho = _hermitize_traceless(rng.standard_normal((dim, dim)))
    R, G, h, val = _ratio_batch(tr, drho, a)
    h_eig = _seminorm_batch(tr, a)
    for i in range(len(a)):
        want_h = lipschitz_seminorm(tr, a[i])
        assert abs(h[i] - want_h) <= 1e-12 * want_h
        assert abs(h_eig[i] - want_h) <= 1e-12 * want_h
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


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 12), st.floats(0.5, 2.0), st.data())
def test_lower_bound_symmetric_linear_and_below_the_ladder(twice_n, lam, data):
    """Between basis states a < c the lower-bound formula is symmetric in its states, linear
    in lam, and at most the exact ladder distance, the sum of adjacent closed forms a -> c."""
    i, j = sorted(data.draw(st.lists(st.integers(0, twice_n), min_size=2, max_size=2,
                                     unique=True)))
    a, c = H(2 * i - twice_n), H(2 * j - twice_n)

    def bound(lam, lo, hi):
        s = build_space(H(twice_n), lam)
        return distance_lower_bound(build_dirac(s, "config"), pure_state(s, lo),
                                    pure_state(s, hi)).value

    d = bound(lam, a, c)
    assert bound(lam, c, a) == pytest.approx(d, rel=1e-14)
    assert d == pytest.approx(lam * bound(1.0, a, c), rel=1e-12)
    ladder = sum(adjacent_distance_closed_form(H(twice_n), H(t), lam)
                 for t in range(a.twice, c.twice, 2))
    assert d <= ladder * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 8), st.floats(0.5, 2.0), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
       st.data())
def test_lower_bound_rotation_invariant(twice_n, lam, theta, phi, data):
    """The lower-bound formula of R rho R^dag, R rho' R^dag equals that of the basis states
    rho, rho' for R = e^{-i phi J3} e^{-i theta Jy}, J = x/lam: tr(drho^2) and the
    seminorm are both invariant."""
    i, j = data.draw(st.lists(st.integers(0, twice_n), min_size=2, max_size=2, unique=True))
    a, c = H(2 * i - twice_n), H(2 * j - twice_n)
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config")
    rot = _rotation(s, theta, phi)
    rho, rho2 = pure_state(s, a).matrix, pure_state(s, c).matrix
    want = distance_lower_bound(tr, rho, rho2).value
    got = distance_lower_bound(tr, rot @ rho @ rot.conj().T, rot @ rho2 @ rot.conj().T).value
    assert got == pytest.approx(want, rel=1e-12)
