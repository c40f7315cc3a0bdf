"""Coordinate matrices, state helpers, and the two-mode oscillator cross-check."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fuzzydist import cli, coherent, distance, quantum, sphere
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
    build_space,
    jordan_schwinger_check,
    k_adjoint_action,
    pure_state,
    winding_number,
)
from fuzzydist.triple import build_dirac, lipschitz_seminorm

H = HalfInteger


@pytest.mark.parametrize("twice_n", range(1, 26))
def test_su2_closure_and_casimir(twice_n):
    """Closure within 1e-12 lam^2 and the Casimir within 1e-12 of lam^2 n(n+1), n <= 25/2."""
    lam = 0.7
    s = build_space(H(twice_n), lam)
    xs = (s.x1, s.x2, s.x3)
    eye = np.eye(s.dim)
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (i, j), k in eps.items():
        dev = np.abs(xs[i] @ xs[j] - xs[j] @ xs[i] - 1j * lam * xs[k]).max()
        assert dev <= 1e-12 * lam * lam
    cas = xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2]
    nf = twice_n / 2.0
    want = lam * lam * nf * (nf + 1.0)
    assert np.abs(cas - want * eye).max() <= 1e-12 * want


def test_construction_rejects_a_ladder_band_off_by_1e6(monkeypatch):
    """A radicand 1e-6 off at one label breaks [x+, x-] = 2 lam x3 far beyond the bound, at
    any lam: the bands are checked before lam scales them, so neither lam^2 = 1e-400 (every
    term 0) nor lam^2 = 1e400 (inf - inf) hides it."""
    exact = sphere.ladder_radicand
    for lam in (0.7, 1e-200, 1e200):
        monkeypatch.setattr(sphere, "ladder_radicand", lambda n, n3: exact(n, n3) + (
            1e-6 if n3 == H(-1) else 0.0))
        with pytest.raises(SphereDomainError, match=re.escape("su(2) check [x+, x-] = 2 lam x3")):
            build_space(H(5), lam)
        monkeypatch.undo()
        build_space(H(5), lam)


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


def _nan_pair():
    """The config triple at n = 1, the state |1>, and |0> with a nan entry."""
    s = build_space(H(2))
    bad = pure_state(s, H(0)).matrix.copy()
    bad[0, 0] = math.nan
    return build_dirac(s), pure_state(s, H(2)), bad


@pytest.mark.parametrize("call", [
    lambda: FuzzySphere(H(2), math.inf),
    lambda: TwoModeFock(3, math.inf),
    lambda: FuzzySphere(H(2), 1.7e308),  # lam x+ overflows, though lam itself is finite
    lambda: coherent.coherent_state(build_space(H(2)), math.nan),
    lambda: coherent.coherent_metric_coefficient(H(2), 1.0, math.nan),
    lambda: coherent.coherent_distance_numeric(H(2), 1.0, math.nan),
    lambda: lipschitz_seminorm(_nan_pair()[0], _nan_pair()[2]),
    lambda: distance.distance_lower_bound(*_nan_pair()),
    lambda: distance.connes_distance_optimized(*_nan_pair()),
], ids=["sphere-inf", "fock-inf", "sphere-band-overflow", "coherent-nan-z", "metric-nan-z",
        "numeric-nan-dz", "seminorm-nan", "lower-bound-nan", "supremum-nan"])
def test_non_finite_inputs_raise_the_domain_error(call):
    # every guard is written so that nan fails it, rather than reaching LAPACK
    with pytest.raises(SphereDomainError):
        call()


_LAMBDA_ENTRY_POINTS = {
    "FuzzySphere": lambda lam: FuzzySphere(H(4), lam),
    "TwoModeFock": lambda lam: TwoModeFock(3, lam),
    "adjacent_distance_closed_form": lambda lam: adjacent_distance_closed_form(H(4), H(0), lam),
    "arc_length_step": lambda lam: distance.arc_length_step(H(4), H(0), lam),
    "coherent_metric_coefficient": lambda lam: coherent.coherent_metric_coefficient(H(4), lam),
    "same_sector_seminorm": lambda lam: same_sector_seminorm(H(4), lam, H(0)),
    "distinct_sector_seminorm_literal":
        lambda lam: distinct_sector_seminorm_literal(H(4), lam, H(0)),
    "distinct_sector_seminorm_symmetrized":
        lambda lam: distinct_sector_seminorm_symmetrized(H(4), lam, H(0)),
    "quantum_pure_distance": lambda lam: quantum_pure_distance(H(4), lam, H(0), True),
    "quantum_pure_distance_distinct": lambda lam: quantum_pure_distance(H(4), lam, H(0), False),
    "quantum_pure_distance_symmetrized":
        lambda lam: quantum.quantum_pure_distance_symmetrized(H(4), lam, H(0)),
    "uniform_minimized_distance": lambda lam: quantum.uniform_minimized_distance(H(4), lam, H(0)),
    "thermal_distance": lambda lam: thermal_distance(H(4), lam, H(0), EnergySpectrum.default(H(4)),
                                                     0.5),
    "trace_norm_distance": lambda lam: trace_norm_distance(H(4), lam, H(0),
                                                           ProbabilityProfile.uniform(H(4))),
    "path_distance": lambda lam: quantum.path_distance(H(4), lam, ProbabilityProfile.uniform(H(4)),
                                                       H(-4), H(4)),
    "delta_matrix": lambda lam: quantum.delta_matrix(H(4), lam, ProbabilityProfile.uniform(H(4)),
                                                     H(-4), H(4)),
    "minimize_path_distance": lambda lam: quantum.minimize_path_distance(H(4), lam, H(-4), H(4),
                                                                         starts=2),
    "EnergySpectrum.default": lambda lam: EnergySpectrum.default(H(4), lam),
}


@pytest.mark.parametrize("entry", sorted(_LAMBDA_ENTRY_POINTS))
@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
def test_lambda_rule(entry, lam):
    """Every entry point that takes lam rejects it unless 0 < lam < inf, through the one
    shared check, whether or not it builds a FuzzySphere."""
    with pytest.raises(SphereDomainError, match="lambda must be positive and finite"):
        _LAMBDA_ENTRY_POINTS[entry](lam)


@pytest.mark.parametrize("label, ok", [
    ("3/2", True), (1.5, True), (Fraction(3, 2), True), (np.float64(1.5), True),
    (np.float32(1.5), True), (np.float16(1.5), True), (1.3, False), ("1/3", False),
    (np.float32(0.3), False), (math.inf, False), (math.nan, False), (True, False),
], ids=["str", "float", "fraction", "float64", "float32", "float16", "1.3", "1/3", "float32-0.3",
        "inf", "nan", "bool"])
def test_spin_label_spellings(label, ok):
    """Every spelling of n = 3/2, numpy floats of every width included, builds the sphere and
    gives the distances of H(3), bitwise; any other value, a non-finite float or a bool
    included, raises ValueError."""
    routes = (lambda n: FuzzySphere(n, 0.7)._xplus.tobytes(),
              lambda n: adjacent_distance_closed_form(n, H(-1), 0.7),
              lambda n: quantum_pure_distance(n, 0.7, H(-1), False))
    for route in routes:
        if ok:
            assert route(label) == route(H(3))
        else:
            with pytest.raises(ValueError):
                route(label)


def test_pure_state_and_drho():
    s = build_space(H(3), 1.0)
    rho = pure_state(s, H(1))
    i = s.index_of(H(1))
    assert rho.matrix[i, i] == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((0, 2)), np.zeros((3, 3, 3))],
                         ids=["vector", "empty", "stack"])
def test_hs_operator_takes_only_a_dim_by_dim_matrix(bad):
    with pytest.raises(SphereDomainError):
        HSOperator(build_space(H(2), 1.0), bad)


_STEP_ENTRY_POINTS = {
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


def test_winding_numbers():
    assert winding_number(FockMonomial(2, 1, 0, 0)) == 3
    for balanced in ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)):
        assert winding_number(FockMonomial(*balanced)) == 0
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
    for lam in (0.5, 1.0):
        rep = jordan_schwinger_check(H(twice_n), lam, cutoff=10)
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


def test_jordan_schwinger_check_keeps_a_nan(monkeypatch):
    # the nan reaches x3 only, the last matrix compared: a builtin max fold kept the earlier
    # deviation and read it as a pass
    pauli = sphere._pauli

    def nan_in_sigma3():
        s = pauli()
        s[2, 0, 0] = math.nan
        return s

    monkeypatch.setattr(sphere, "_pauli", nan_in_sigma3)
    assert math.isnan(jordan_schwinger_check(H(2), 1.0, cutoff=6)["max_deviation"])
