"""Coordinate matrices, state helpers, and the two-mode oscillator cross-check."""

import math
import re

import numpy as np
import pytest

from fuzzydist import cli
from fuzzydist.distance import adjacent_distance_closed_form, quantized_polar_angle
from fuzzydist.halfint import HalfInteger
from fuzzydist.quantum import (
    EnergySpectrum,
    ProbabilityProfile,
    distinct_sector_seminorm_literal,
    distinct_sector_seminorm_symmetrized,
    quantum_pure_distance,
    same_sector_seminorm,
    thermal_distance,
    trace_norm_distance,
)
from fuzzydist.sphere import (
    FockMonomial,
    FuzzySphere,
    HSOperator,
    SphereDomainError,
    TwoModeFock,
    adjacent_drho,
    build_space,
    jordan_schwinger_check,
    k_adjoint_action,
    pure_state,
    winding_number,
)

H = HalfInteger


@pytest.mark.parametrize("twice_n", [1, 2, 3, 5, 8, 16])
def test_su2_closure_and_casimir(twice_n):
    lam = 0.7
    s = build_space(H(twice_n), lam)
    xs = (s.x1, s.x2, s.x3)
    eye = np.eye(s.dim)
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (i, j), k in eps.items():
        dev = np.abs(xs[i] @ xs[j] - xs[j] @ xs[i] - 1j * lam * xs[k]).max()
        assert dev <= 1e-12 * lam * lam + 1e-15
    cas = xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2]
    nf = twice_n / 2.0
    assert np.abs(cas - lam * lam * nf * (nf + 1.0) * eye).max() <= 1e-12 * max(1.0, lam * lam * nf * nf)


def test_radius_and_dim():
    s = build_space(H(4), 2.0)
    assert s.dim == 5
    assert s.radius == pytest.approx(2.0 * math.sqrt(6.0))


def test_basis_is_descending_in_n3():
    s = build_space(H(2), 1.0)
    vals = list(s.n3_values())
    assert vals == [H(2), H(0), H(-2)]
    # x3 diagonal follows the same order
    assert np.allclose(np.diag(s.x3).real, [1.0, 0.0, -1.0])
    assert s.index_of(H(2)) == 0


def test_ladder_structure():
    s = build_space(H(2), 1.0)
    # raising matrix is strictly upper triangular, annihilates the top state
    assert np.abs(np.tril(s.xplus)).max() == 0.0
    top = np.zeros(3, dtype=complex)
    top[0] = 1.0
    assert np.abs(s.xplus @ top).max() == 0.0
    assert np.allclose(s.xminus, s.xplus.conj().T)
    # entry above the diagonal at column n3 is lam*sqrt(n(n+1) - n3(n3+1))
    assert s.xplus[0, 1] == pytest.approx(math.sqrt(2.0))
    assert s.xplus[1, 2] == pytest.approx(math.sqrt(2.0))


def test_domain_errors():
    with pytest.raises(SphereDomainError):
        build_space(H(0), 1.0)
    with pytest.raises(SphereDomainError):
        build_space(H(2), 0.0)
    s = build_space(H(2), 1.0)
    with pytest.raises(SphereDomainError):
        s.index_of(H(4))


def test_pure_state_and_drho():
    s = build_space(H(3), 1.0)
    rho = pure_state(s, H(1))
    rho.check_density()
    assert rho.is_pure()
    i = s.index_of(H(1))
    assert rho.matrix[i, i] == pytest.approx(1.0)
    d = adjacent_drho(s, H(1))
    assert np.trace(d.matrix) == pytest.approx(0.0)
    with pytest.raises(SphereDomainError):
        adjacent_drho(s, H(3))  # n3 + 1 would leave the spectrum


_STEP_ENTRY_POINTS = {
    "adjacent_drho": lambda n, n3: adjacent_drho(build_space(n, 1.0), n3),
    "adjacent_distance_closed_form": lambda n, n3: adjacent_distance_closed_form(n, n3),
    "quantum_pure_distance": lambda n, n3: quantum_pure_distance(n, 1.0, n3, True),
    "quantum_pure_distance_distinct": lambda n, n3: quantum_pure_distance(n, 1.0, n3, False),
    "thermal_distance": lambda n, n3: thermal_distance(n, 1.0, n3, EnergySpectrum.default(n),
                                                       0.5),
    "trace_norm_distance": lambda n, n3: trace_norm_distance(n, 1.0, n3,
                                                             ProbabilityProfile.uniform(n)),
    "same_sector_seminorm": lambda n, n3: same_sector_seminorm(n, 1.0, n3),
    "distinct_sector_seminorm_literal": lambda n, n3: distinct_sector_seminorm_literal(n, 1.0, n3),
    "distinct_sector_seminorm_symmetrized":
        lambda n, n3: distinct_sector_seminorm_symmetrized(n, 1.0, n3),
}
# entry point -> subcommand whose --n3 takes the step label
_STEP_COMMANDS = {"cli": "discrete", "cli-quantum-pure": "quantum-pure",
                  "cli-thermal": "thermal"}


@pytest.mark.parametrize("entry", sorted(_STEP_ENTRY_POINTS) + sorted(_STEP_COMMANDS))
@pytest.mark.parametrize("t3", [3, -5, 0])
def test_step_range_rule(entry, t3, capsys):
    """n3 = n, n3 = -n-1 and n3 = 0 label no step n3 -> n3+1 at n = 3/2, at every entry point.

    n3 = 0 lies inside -n..n-1 but has the wrong parity, so its error names
    the missing basis state instead of the range.
    """
    n = H(3)
    expect = "need -n <= n3 <= n-1" if t3 else "n3 = 0: no basis state at n = 3/2"
    if entry in _STEP_COMMANDS:
        argv = [_STEP_COMMANDS[entry], "--n", "3/2", "--n3=%s" % H(t3), "--no-timestamp"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("fuzzydist: error: " + expect)
    else:
        with pytest.raises(SphereDomainError, match=re.escape(expect)):
            _STEP_ENTRY_POINTS[entry](n, H(t3))


@pytest.mark.parametrize("entry", ["index_of", "quantized_polar_angle", "profile_delta"])
def test_wrong_parity_label_has_no_basis_state(entry):
    """n3 = 1/2 is no basis state at n = 1, wherever a single label is taken."""
    call = {"index_of": lambda: build_space(H(2), 1.0).index_of(H(1)),
            "quantized_polar_angle": lambda: quantized_polar_angle(H(2), H(1)),
            "profile_delta": lambda: ProbabilityProfile.delta(H(2), H(1))}[entry]
    with pytest.raises(SphereDomainError, match="no basis state at n = 1"):
        call()


def test_density_validation():
    s = build_space(H(2), 1.0)
    bad = HSOperator(s, np.diag([2.0, -1.0, 0.0]).astype(complex))
    with pytest.raises(SphereDomainError):
        bad.check_density()
    mixed = HSOperator(s, np.diag([0.5, 0.5, 0.0]).astype(complex))
    mixed.check_density()
    assert not mixed.is_pure()


def test_winding_numbers():
    assert winding_number(FockMonomial(2, 1, 0, 0)) == 3
    assert winding_number(FockMonomial(1, 0, 0, 1)) == 0
    assert winding_number(FockMonomial(0, 0, 1, 2)) == -3
    with pytest.raises(SphereDomainError):
        FockMonomial(-1, 0, 0, 0)


def test_k_adjoint_grades_operators():
    # [N, chi1dag chi2] = 0 (algebra element), [N, chi1dag] = +1 quantum
    fock = TwoModeFock(6, 1.0)
    balanced = fock.chi1.conj().T @ fock.chi2
    graded = k_adjoint_action(6, balanced, 1.0)
    interior = fock.interior_indices()
    assert np.abs(graded[np.ix_(interior, interior)]).max() <= 1e-12
    raiser = fock.chi1.conj().T
    graded = k_adjoint_action(6, raiser, 1.0)
    # eigenvalue +lam/2 on interior rows: [N, a_dag] = a_dag scaled by lam/2
    expect = 0.5 * raiser
    sub = np.ix_(interior, interior)
    assert np.abs(graded[sub] - expect[sub]).max() <= 1e-12


@pytest.mark.parametrize("twice_n", [1, 2, 3, 4])
def test_jordan_schwinger_reproduces_coordinates(twice_n):
    rep = jordan_schwinger_check(H(twice_n), 0.5, cutoff=10)
    assert rep["max_deviation"] <= 1e-12
    assert rep["block_dim"] == twice_n + 1


def test_two_mode_embedding_roundtrip():
    s = build_space(H(2), 1.0)
    fock = TwoModeFock(6, 1.0)
    op = np.diag([1.0, 2.0, 3.0]).astype(complex)
    emb = fock.embed_sphere_operator(s, op)
    idx = fock.sphere_block_indices(H(2))
    assert np.allclose(emb[np.ix_(idx, idx)], op)
    with pytest.raises(SphereDomainError):
        TwoModeFock(1, 1.0)
