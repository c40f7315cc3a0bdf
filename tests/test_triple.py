"""Dirac operators, representations, and the Lipschitz seminorm."""

import numpy as np
import pytest

from fuzzydist.halfint import HalfInteger
from fuzzydist.linalg import hermitian_eigvals
from fuzzydist.sphere import adjacent_drho, build_space, pure_state
from fuzzydist.triple import (
    UnsupportedFeatureError,
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
    tr = build_dirac(s, "config", 0)
    vals = hermitian_eigvals(tr.dirac)
    (v_plus, m_plus), (v_minus, m_minus) = dirac_eigenvalue_pattern(H(twice_n), lam)
    expect = np.sort(np.concatenate([np.full(m_plus, v_plus), np.full(m_minus, v_minus)]))
    assert np.allclose(vals, expect, atol=1e-10)
    assert m_plus == twice_n + 2 and m_minus == twice_n


def test_spin_half_spectrum_values():
    # at n = 1/2, lam = 1: one eigenvalue -sqrt(3), three at 1/sqrt(3)
    s = build_space(H(1), 1.0)
    tr = build_dirac(s, "config", 0)
    vals = hermitian_eigvals(tr.dirac)
    assert vals[0] == pytest.approx(-np.sqrt(3.0))
    assert np.allclose(vals[1:], 1.0 / np.sqrt(3.0))


def test_representation_doubles_the_space():
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config", 0)
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    rep = tr.represent(a)
    assert rep.shape == (6, 6)
    assert np.allclose(rep[:3, :3], a)
    assert np.allclose(rep[3:, 3:], a)
    assert np.abs(rep[:3, 3:]).max() == 0.0


def test_commutator_accepts_state_operators():
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config", 0)
    d = adjacent_drho(s, H(0))
    c1 = dirac_commutator(tr, d)
    c2 = dirac_commutator(tr, d.matrix)
    assert np.allclose(c1, c2)
    # commutator with the identity vanishes
    assert np.abs(dirac_commutator(tr, np.eye(s.dim))).max() <= 1e-14


def test_seminorm_scales_linearly():
    s = build_space(H(3), 1.0)
    tr = build_dirac(s, "config", 0)
    d = adjacent_drho(s, H(-1))
    assert lipschitz_seminorm(tr, 2.5 * d.matrix) == pytest.approx(
        2.5 * lipschitz_seminorm(tr, d), rel=1e-12)


def test_adjacent_seminorm_value():
    # [D, pi(drho)] for the step at n3 has norm 2*sqrt(rad)/(lam*sqrt(n(n+1)))
    # with rad = n(n+1) - n3(n3+1); at n=1, n3=0, lam=1: 2*sqrt(2)/sqrt(2) = 2
    s = build_space(H(2), 1.0)
    tr = build_dirac(s, "config", 0)
    assert lipschitz_seminorm(tr, adjacent_drho(s, H(0))) == pytest.approx(2.0, rel=1e-12)


def test_quantum_dirac_acts_from_the_left():
    """The operator-space Dirac left-multiplies by the coordinates.

    Discriminating check: the seminorm of a vectorized same-sector projector
    difference must reproduce the closed form 2*sqrt(rad)/(lam*sqrt(n(n+1)));
    the adjoint (left-minus-right) action would not.
    """
    from fuzzydist.quantum import same_sector_seminorm

    n = H(2)
    s = build_space(n, 1.0)
    tq = build_dirac(s, "quantum", 0)
    dim2 = s.dim * s.dim
    assert tq.dirac.shape == (2 * dim2, 2 * dim2)
    w = np.zeros((s.dim, s.dim))   # |1, 1)(1, 1| - |0, 1)(0, 1|, left n3 by row
    w[s.index_of(H(2)), s.index_of(H(2))] = 1.0
    w[s.index_of(H(0)), s.index_of(H(2))] = -1.0
    drho = np.diag(w.ravel())
    got = lipschitz_seminorm(tq, drho)
    assert got == pytest.approx(same_sector_seminorm(n, 1.0, H(0)), rel=1e-12)


def test_quantum_dirac_rejects_monopole_sectors():
    s = build_space(H(2), 1.0)
    with pytest.raises(UnsupportedFeatureError):
        build_dirac(s, "quantum", 1)
    with pytest.raises(ValueError):
        build_dirac(s, "nonsense", 0)
