"""Dirac operators, representations, and the Lipschitz seminorm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzydist.halfint import HalfInteger
from fuzzydist.sphere import HSOperator, SphereDomainError, build_space, pure_state
from fuzzydist.triple import (
    build_dirac,
    dirac_commutator,
    dirac_eigenvalue_pattern,
    lipschitz_seminorm,
)

H = HalfInteger


@pytest.mark.parametrize("twice_n,lam", [(1, 1.0), (2, 1.0), (3, 0.5), (6, 2.0)])
def test_config_dirac_spectrum(twice_n, lam):
    """Eigenvalues are n/r (multiplicity 2n+2) and -(n+1)/r (multiplicity 2n)."""
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config")
    assert np.array_equal(tr.dirac, tr.dirac.conj().T)  # eigvalsh reads one triangle only
    vals = np.linalg.eigvalsh(tr.dirac)
    (v_plus, m_plus), (v_minus, m_minus) = dirac_eigenvalue_pattern(H(twice_n), lam)
    expect = np.sort(np.concatenate([np.full(m_plus, v_plus), np.full(m_minus, v_minus)]))
    assert np.allclose(vals, expect, atol=1e-10)
    assert m_plus == twice_n + 2 and m_minus == twice_n


def test_spin_half_spectrum_values():
    # at n = 1/2, lam = 1: one eigenvalue -sqrt(3), three at 1/sqrt(3)
    s = build_space(H(1), 1.0)
    tr = build_dirac(s, "config")
    assert np.array_equal(tr.dirac, tr.dirac.conj().T)
    vals = np.linalg.eigvalsh(tr.dirac)
    assert vals[0] == pytest.approx(-np.sqrt(3.0))
    assert np.allclose(vals[1:], 1.0 / np.sqrt(3.0))


PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def _hermitian(rng, *shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z + z.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("representation,twice_n",
                         [("config", t) for t in range(1, 7)] + [("quantum", 1), ("quantum", 2)])
@pytest.mark.parametrize("lam", [0.7, 1.3])
def test_dirac_and_commutator_match_pauli_sums(representation, twice_n, lam):
    """D = sum_i sigma_i (x) x_i/(lam r), with (x) I on the right for the quantum
    triple, and [D, pi(a)] with pi(a) = I_2 (x) a, both assembled densely here. The sum is
    real in the |n3> basis: its imaginary part cancels exactly, and its real part is scaled
    by 1/lam and 1/r in real arithmetic, as build_dirac scales, so D matches bitwise."""
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, representation)
    eye = np.eye(s.dim)
    want = np.zeros((2 * tr.algebra_dim, 2 * tr.algebra_dim), dtype=complex)
    for sig, x in zip(PAULI, (s.x1, s.x2, s.x3)):
        want += np.kron(sig, x if representation == "config" else np.kron(x, eye))
    assert not np.any(want.imag)
    want = want.real * (1.0 / lam) * (1.0 / s.radius)
    assert tr.dirac.dtype == np.float64 and np.array_equal(tr.dirac, want)
    assert np.array_equal(tr.dirac, tr.dirac.T)   # symmetric exactly, with no check

    rng = np.random.default_rng(twice_n)
    dim = tr.algebra_dim
    for a in (_hermitian(rng, dim, dim), _hermitian(rng, 3, dim, dim)):
        got = dirac_commutator(tr, a)
        assert got.shape == a.shape[:-2] + (2 * dim, 2 * dim)
        # the kernel writes the difference into the conjugate copy: bit for bit the plain one
        da = (tr.dirac.reshape(4 * dim, dim) @ a).reshape(got.shape)
        assert np.array_equal(got, da - da.conj().swapaxes(-1, -2))
        for g, ai in zip(got.reshape(-1, 2 * dim, 2 * dim), a.reshape(-1, dim, dim)):
            pi = np.kron(np.eye(2), ai)
            ref = want @ pi - pi @ want
            assert np.abs(g - ref).max() <= 1e-14 * np.abs(ref).max()

    skew = _hermitian(rng, dim, dim) + 1e-6j * np.eye(dim)
    for bad in (skew, np.stack([_hermitian(rng, dim, dim), skew]), np.eye(dim + 1),
                np.ones(dim), np.zeros((dim, dim + 1))):
        with pytest.raises(SphereDomainError):
            dirac_commutator(tr, bad)


def test_commutator_accepts_state_operators():
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config")
    d = HSOperator(s, pure_state(s, H(2)).matrix - pure_state(s, H(0)).matrix)
    c1 = dirac_commutator(tr, d)
    c2 = dirac_commutator(tr, d.matrix)
    assert np.allclose(c1, c2)
    # commutator with the identity vanishes
    assert np.abs(dirac_commutator(tr, np.eye(s.dim))).max() <= 1e-14


def test_seminorm_scales_linearly():
    s = build_space(H(3), 1.0)
    tr = build_dirac(s, "config")
    d = HSOperator(s, pure_state(s, H(1)).matrix - pure_state(s, H(-1)).matrix)
    assert lipschitz_seminorm(tr, 2.5 * d.matrix) == pytest.approx(
        2.5 * lipschitz_seminorm(tr, d), rel=1e-12)


def test_adjacent_seminorm_value():
    # [D, pi(drho)] for the step at n3 has norm 2*sqrt(rad)/(lam*sqrt(n(n+1)))
    # with rad = n(n+1) - n3(n3+1); at n=1, n3=0, lam=1: 2*sqrt(2)/sqrt(2) = 2
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config")
    d = HSOperator(s, pure_state(s, H(2)).matrix - pure_state(s, H(0)).matrix)
    assert lipschitz_seminorm(tr, d) == pytest.approx(2.0, rel=1e-12)


def test_quantum_dirac_acts_from_the_left():
    """The operator-space Dirac left-multiplies by the coordinates.

    Discriminating check: the seminorm of a vectorized same-sector projector
    difference must reproduce the closed form 2*sqrt(rad)/(lam*sqrt(n(n+1)));
    the adjoint (left-minus-right) action would not.
    """
    from fuzzydist.quantum import same_sector_seminorm

    n = H(2)
    s = build_space(n, 1.0)
    tq = build_dirac(s, "quantum")
    dim2 = s.dim * s.dim
    assert tq.dirac.shape == (2 * dim2, 2 * dim2)
    w = np.zeros((s.dim, s.dim))   # |1, 1)(1, 1| - |0, 1)(0, 1|, left n3 by row
    w[s.index_of(H(2)), s.index_of(H(2))] = 1.0
    w[s.index_of(H(0)), s.index_of(H(2))] = -1.0
    drho = np.diag(w.ravel())
    got = lipschitz_seminorm(tq, drho)
    assert got == pytest.approx(same_sector_seminorm(n, 1.0, H(0)), rel=1e-12)


def test_quantum_dirac_rejects_monopole_sectors():
    """Only k = 0 exists: any other monopole index raises, in both representations."""
    s = build_space(H(2), 1.0)
    for representation in ("config", "quantum"):
        for k in (1, 0.5, -2):
            with pytest.raises(SphereDomainError):
                build_dirac(s, representation, k)
    with pytest.raises(ValueError):
        build_dirac(s, "nonsense")


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 6), st.floats(0.5, 2.0), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
def test_seminorm_rotation_invariant_and_linear_in_inverse_lambda(twice_n, lam, seed, theta, phi):
    """||[D, pi(R a R^dag)]|| = ||[D, pi(a)]|| for R = e^{-i phi J3} e^{-i theta Jy}, J = x/lam,
    because the combined spinor and coordinate rotation commutes with D; and
    lam ||[D_lam, pi(a)]|| equals the seminorm at lam = 1."""
    s = build_space(H(twice_n), lam)
    tr = build_dirac(s, "config")
    a = _hermitian(np.random.default_rng(seed), s.dim, s.dim)
    mu, v = np.linalg.eigh(s.x2 / lam)
    j3 = np.diag(s.x3).real / lam
    rot = (np.exp(-1j * phi * j3)[:, None] * v * np.exp(-1j * theta * mu)) @ v.conj().T
    h = lipschitz_seminorm(tr, a)
    assert lipschitz_seminorm(tr, rot @ a @ rot.conj().T) == pytest.approx(h, rel=1e-12)
    unit = build_dirac(build_space(H(twice_n), 1.0), "config")
    assert lam * h == pytest.approx(lipschitz_seminorm(unit, a), rel=1e-12)
