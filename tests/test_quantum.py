"""Operator-space distances: two-branch pure formula, profiles, thermal states."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzydist import cli, quantum, triple
from fuzzydist.halfint import HalfInteger
from fuzzydist.quantum import (
    EnergySpectrum,
    MinimizationError,
    ProbabilityProfile,
    delta_matrix,
    distinct_branch_report,
    distinct_sector_seminorm_literal,
    distinct_sector_seminorm_symmetrized,
    minimize_path_distance,
    mixed_commutator_norms,
    mixed_distance_oracle,
    partition_function,
    path_distance,
    quantum_pure_distance,
    quantum_pure_distance_symmetrized,
    quantum_seminorm_oracle,
    same_sector_seminorm,
    thermal_distance,
    thermal_prefactor,
    thermal_profile,
    trace_norm_distance,
    uniform_minimized_distance,
)
from fuzzydist.sphere import SphereDomainError, build_space
from fuzzydist.triple import build_dirac, dirac_commutator, lipschitz_seminorm

H = HalfInteger


# ---------------------------------------------------------------------------
# pure two-branch formula

def test_same_sector_oracle_agreement():
    for t in range(1, 9):
        n = H(t)
        for t3 in range(-t, t - 1, 2):
            n3 = H(t3)
            got = quantum_seminorm_oracle(n, 1.0, n3, n, n)
            want = same_sector_seminorm(n, 1.0, n3)
            assert got == pytest.approx(want, rel=1e-10)


def test_same_sector_right_label_irrelevant():
    # any shared right sector gives the same seminorm
    n = H(4)
    a = quantum_seminorm_oracle(n, 1.0, H(0), H(4), H(4))
    b = quantum_seminorm_oracle(n, 1.0, H(0), H(-2), H(-2))
    assert a == pytest.approx(b, rel=1e-12)


def test_pure_distance_worked_values():
    assert quantum_pure_distance(H(3), 1.0, H(1), True) == pytest.approx(
        1.118033988749895, rel=1e-12)
    assert quantum_pure_distance(H(3), 1.0, H(1), False) == pytest.approx(
        1.9364916731037085, rel=1e-12)


def test_distinct_branch_literal_domain():
    """The printed distinct-sector expression holds for n3 >= -1 only.

    The eigensolver oracle disagrees with it exactly on the labels with
    2*n3 <= -3; the symmetrized completion matches everywhere. Both are held to
    1e-10 relative to the oracle, tighter than the report's 1e-10 * max(oracle, 1).
    """
    for t in range(1, 9):
        n = H(t)
        rows = distinct_branch_report(n)
        for row in rows:
            t3 = H.parse(row["n3"]).twice
            assert row["symmetrized_matches"]
            assert row["literal_matches"] == (t3 >= -2)
            assert row["oracle"] == pytest.approx(
                distinct_sector_seminorm_symmetrized(n, 1.0, H(t3)), rel=1e-10)
            if t3 >= -2:
                assert row["oracle"] == pytest.approx(
                    distinct_sector_seminorm_literal(n, 1.0, H(t3)), rel=1e-10)


def test_symmetrized_distance_against_oracle():
    n = H(5)
    for t3 in range(-5, 4, 2):
        n3 = H(t3)
        sem = quantum_seminorm_oracle(n, 1.0, n3, n3, n3 + H(2))
        d = quantum_pure_distance_symmetrized(n, 1.0, n3)
        assert d == pytest.approx(2.0 / sem, rel=1e-10)


# ---------------------------------------------------------------------------
# block route D_q = D_c (x) I_right against the dense quantum triple

def _dense_norms(tr, drho):
    """(operator, Frobenius, nuclear, numerator) from the dense dim^2 commutator."""
    sv = np.linalg.svd(dirac_commutator(tr, drho), compute_uv=False)
    return sv.max(), np.sqrt(np.sum(sv * sv)), sv.sum(), np.real(np.trace(drho @ drho))


def _profiles(t, rng):
    raw = rng.dirichlet(np.ones(t + 1), size=t + 1)
    return [ProbabilityProfile.uniform(H(t)), ProbabilityProfile.delta(H(t), H(t - 2)),
            ProbabilityProfile(H(t), {tt: raw[i] for i, tt in enumerate(range(t, -t - 1, -2))})]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_block_route_matches_dense_quantum_triple(t):
    n = H(t)
    s = build_space(n, 1.0)
    tr = build_dirac(s, "quantum")
    labels = s.n3_values()
    for t3 in range(-t, t - 1, 2):
        n3 = H(t3)
        up, down = s.index_of(n3 + H(2)), s.index_of(n3)
        for n3p in labels:
            for l3p in labels:
                w = np.zeros((s.dim, s.dim))   # |n3+1, l3p)(n3+1, l3p| - |n3, n3p)(n3, n3p|
                w[up, s.index_of(l3p)] += 1.0
                w[down, s.index_of(n3p)] -= 1.0
                dense = _dense_norms(tr, np.diag(w.ravel()))
                w, blocks = quantum._step_blocks(n, n3, w[up], -w[down])
                sv = np.linalg.svd(blocks, compute_uv=False)
                block = (quantum_seminorm_oracle(n, 1.0, n3, n3p, l3p),
                         np.sqrt(np.sum(sv * sv)), sv.sum(), np.sum(w * w))
                np.testing.assert_allclose(block, dense, rtol=1e-12, atol=0)
        for prof in _profiles(t, np.random.default_rng(t)):
            w = np.zeros((s.dim, s.dim))       # rho(n3+1) - rho(n3)
            w[up] = prof.at(n3 + H(2))
            w[down] = -prof.at(n3)
            op, frob, nuc, num = _dense_norms(tr, np.diag(w.ravel()))
            norms = mixed_commutator_norms(n, 1.0, n3, prof)
            np.testing.assert_allclose(
                [norms["operator"], norms["frobenius"], norms["nuclear"], norms["numerator"]],
                [op, frob, nuc, num], rtol=1e-12, atol=0)
            assert mixed_distance_oracle(n, 1.0, n3, prof) == pytest.approx(num / frob, rel=1e-12)


def test_seminorm_oracle_error_names_the_bad_label():
    """The right labels were checked under the name n3: l3p = 2 at n = 1 was reported as
    "n3 = 2" although n3 was 0."""
    with pytest.raises(SphereDomainError, match=r"^l3p = 2: no basis state at n = 1$"):
        quantum_seminorm_oracle(H(2), 1.0, H(0), H(0), H(4))
    with pytest.raises(SphereDomainError, match=r"^n3p = -2: no basis state at n = 1$"):
        quantum_seminorm_oracle(H(2), 1.0, H(0), H(-4), H(0))


def test_oracles_never_build_the_dense_quantum_triple(monkeypatch):
    built = []

    def config_only(sphere, representation="config", k=0):
        if representation == "quantum":
            raise AssertionError("dense quantum triple built")
        built.append(representation)
        return build_dirac(sphere, representation, k)

    monkeypatch.setattr(quantum, "build_dirac", config_only)
    monkeypatch.setattr(triple, "build_dirac", config_only)
    quantum._config_triple.cache_clear()
    n = H(4)
    assert quantum_seminorm_oracle(n, 1.0, H(0), H(0), H(2)) == pytest.approx(
        distinct_sector_seminorm_symmetrized(n, 1.0, H(0)), rel=1e-12)
    prof = ProbabilityProfile.uniform(n)
    assert mixed_commutator_norms(n, 1.0, H(0), prof)["operator"] > 0
    assert mixed_distance_oracle(n, 1.0, H(0), prof) == pytest.approx(
        trace_norm_distance(n, 1.0, H(0), prof), rel=1e-10)
    assert built == ["config"]   # one config triple per 2n, shared by the three oracles


def test_config_dirac_is_real_in_the_n3_basis():
    """sigma.x has real bands in the |n3> basis, so build_dirac assembles D as float64 in both
    representations; the oracles' blocks and SVDs run in real arithmetic on it."""
    for t in range(1, 41):
        for lam in (0.3, 1.0, 2.7):
            s = build_space(H(t), lam)
            for representation in ("config", "quantum"):
                assert build_dirac(s, representation).dirac.dtype == np.float64, (t, lam)


def test_config_triple_is_real_and_read_only():
    tr = quantum._config_triple(4)
    assert tr.dirac.dtype == np.float64 and tr.dirac.flags.c_contiguous
    assert not tr.dirac.flags.writeable
    with pytest.raises(ValueError):
        tr.dirac[0, 0] = 1.0


def test_large_n_seminorm_oracle():
    """n = 67: the dense 2 dim^2 = 36450-row commutator would need about 21 GB."""
    n = H(134)
    for t3, t3p, t3l in ((0, 0, 2), (-134, -134, -132), (132, 0, -2), (-2, 4, 4), (66, 66, 66)):
        got = quantum_seminorm_oracle(n, 1.0, H(t3), H(t3p), H(t3l))
        want = (same_sector_seminorm(n, 1.0, H(t3)) if t3p == t3l
                else distinct_sector_seminorm_symmetrized(n, 1.0, H(t3)))
        assert got == pytest.approx(want, rel=1e-10)


def test_large_n_quantum_pure_cli(capsys):
    code = cli.main(["quantum-pure", "--n", "67", "--n3", "0", "--right-sector", "distinct",
                     "--oracle", "--no-timestamp"])
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 0
    assert row["oracle"] == pytest.approx(row["symmetrized"], rel=1e-10)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_right_sector_projectors_commute_with_quantum_dirac(t):
    """I (x) |l><l| has seminorm exactly 0, so distinct right sectors are at infinite distance."""
    s = build_space(H(t), 1.0)
    tr = build_dirac(s, "quantum")
    for i in range(s.dim):
        proj = np.zeros((s.dim, s.dim))
        proj[i, i] = 1.0
        assert lipschitz_seminorm(tr, np.kron(np.eye(s.dim), proj)) == 0.0


# ---------------------------------------------------------------------------
# probability profiles

def test_profile_uniform_and_delta():
    u = ProbabilityProfile.uniform(H(2))
    assert np.allclose(u.at(H(0)), [1 / 3, 1 / 3, 1 / 3])
    d = ProbabilityProfile.delta(H(2), H(2))
    assert np.allclose(d.at(H(-2)), [1.0, 0.0, 0.0])


def test_profile_from_text_roundtrip():
    text = "# rows descend from n3 = +1\n0.2 0.3 0.5\n0.25 0.25 0.5\n1 0 0\n"
    p = ProbabilityProfile.from_text(text, H(2))
    assert np.allclose(p.at(H(2)), [0.2, 0.3, 0.5])
    assert np.allclose(p.at(H(-2)), [1.0, 0.0, 0.0])


def test_profile_text_errors_carry_line_numbers():
    with pytest.raises(SphereDomainError, match="line 1"):
        ProbabilityProfile.from_text("0.2 0.3\n", H(2))
    with pytest.raises(SphereDomainError, match="line 2"):
        ProbabilityProfile.from_text("0.5 0.5 0\nnot a number here\n", H(2))
    with pytest.raises(SphereDomainError, match="sums to"):
        ProbabilityProfile.from_text("0.2 0.3 0.6\n0.3 0.3 0.4\n1 0 0\n", H(2))
    with pytest.raises(SphereDomainError):
        ProbabilityProfile.from_text("0.5 0.5 0\n", H(2))  # missing rows


def test_profile_rejects_negative_and_bad_sum():
    with pytest.raises(SphereDomainError):
        ProbabilityProfile(H(2), {t: np.array([0.7, 0.6, -0.3]) for t in (-2, 0, 2)})
    with pytest.raises(SphereDomainError):
        ProbabilityProfile(H(2), {t: np.array([0.7, 0.6, 0.3]) for t in (-2, 0, 2)})


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_profile_rejects_non_finite_rows(cell):
    row = np.array([cell, 0.5, 0.5])
    with pytest.raises(SphereDomainError, match="n3 = 1: non-finite probability"):
        ProbabilityProfile(H(2), {2: row, 0: np.full(3, 1 / 3), -2: np.full(3, 1 / 3)})
    with pytest.raises(SphereDomainError, match="line 2: non-finite probability"):
        ProbabilityProfile.from_text("1 0 0\n%r 0.5 0.5\n0 0 1\n" % cell, H(2))


def test_profile_rows_share_the_file_rule():
    """A row of the library and a line of a file pass or fail the same check."""
    tiny = np.array([-1e-13, 0.5, 0.5 + 1e-13])   # the old library rule clipped this
    with pytest.raises(SphereDomainError, match="n3 = 0: negative probability"):
        ProbabilityProfile(H(2), {2: np.full(3, 1 / 3), 0: tiny, -2: np.full(3, 1 / 3)})
    with pytest.raises(SphereDomainError, match="line 3: row sums to"):
        ProbabilityProfile.from_text("1 0 0\n0 1 0\n0.5 0.5 0.5\n", H(2))
    with pytest.raises(SphereDomainError, match="n3 = -1: row sums to"):
        ProbabilityProfile(H(2), {2: np.full(3, 1 / 3), 0: np.full(3, 1 / 3), -2: np.ones(3)})


@pytest.mark.parametrize("bad", [4, -4, 1, -3])
def test_profile_rejects_rows_with_no_basis_state(bad):
    # at n = 1 the row keys 2 n3 are -2, 0 and 2: 4 and -4 lie outside
    # -2n..2n, 1 and -3 have the wrong parity (n3 = 1/2, -3/2)
    rows = {t: np.full(3, 1.0 / 3.0) for t in (-2, 0, 2, bad)}
    with pytest.raises(SphereDomainError, match="no basis state at n = 1"):
        ProbabilityProfile(H(2), rows)


_PROFILE_ROUTES = {
    "trace_norm_distance": lambda n, p: trace_norm_distance(n, 1.0, H(0), p),
    "path_distance": lambda n, p: path_distance(n, 1.0, p, H(-2), H(2)),
    "delta_matrix": lambda n, p: delta_matrix(n, 1.0, p, H(-2), H(2)),
    "mixed_distance_oracle": lambda n, p: mixed_distance_oracle(n, 1.0, H(0), p),
    "mixed_commutator_norms": lambda n, p: mixed_commutator_norms(n, 1.0, H(0), p),
}


@pytest.mark.parametrize("route", sorted(_PROFILE_ROUTES))
@pytest.mark.parametrize("twice_n, twice_p", [(2, 4), (4, 2)])
def test_profile_of_another_spin_is_refused(route, twice_n, twice_p):
    """A profile built for n = 2 read at n = 1 gave 0.2828 for the step 0 -> 1 (0.3651 is
    right) or failed inside numpy's broadcast, and one built for n = 1 read at n = 2 gave
    0.3430 without a word."""
    prof = ProbabilityProfile.uniform(H(twice_p))
    with pytest.raises(SphereDomainError, match="profile is for n = %s, not n = %s"
                       % (H(twice_p), H(twice_n))):
        _PROFILE_ROUTES[route](H(twice_n), prof)


# ---------------------------------------------------------------------------
# mixed-state distance functional

def test_mixed_norms_identify_the_display_norm():
    """The displayed norm is the Frobenius norm of the commutator.

    The nuclear norm is profile-independent at fixed n (6.0 at n = 1 for
    every profile), so it cannot be the norm in the distance formula.
    """
    n = H(2)
    rng = np.random.default_rng(5)
    profiles = [ProbabilityProfile.uniform(n), ProbabilityProfile.delta(n, H(2))]
    raw = rng.dirichlet(np.ones(3), size=3)
    profiles.append(ProbabilityProfile(n, {t: raw[i] for i, t in enumerate((-2, 0, 2))}))
    nukes = []
    for prof in profiles:
        norms = mixed_commutator_norms(n, 1.0, H(0), prof)
        assert norms["display"] == pytest.approx(norms["frobenius"], rel=1e-10)
        assert norms["numerator"] == pytest.approx(norms["numerator_closed"], rel=1e-10)
        nukes.append(norms["nuclear"])
        oracle = mixed_distance_oracle(n, 1.0, H(0), prof)
        closed = trace_norm_distance(n, 1.0, H(0), prof)
        assert oracle == pytest.approx(closed, rel=1e-10)
    assert np.ptp(nukes) <= 1e-10
    assert nukes[0] == pytest.approx(6.0, rel=1e-10)


def test_uniform_closed_form_factorization():
    # (1/sqrt(2n+1)) * lam sqrt(n(n+1)) / sqrt(3(n(n+1) - n3(n3+1)) - 1)
    for t in (1, 2, 3, 5):
        n = H(t)
        for t3 in range(-t, t - 1, 2):
            got = uniform_minimized_distance(n, 1.0, H(t3))
            want = trace_norm_distance(n, 1.0, H(t3), ProbabilityProfile.uniform(n))
            assert got == pytest.approx(want, rel=1e-10)
    assert uniform_minimized_distance(H(2), 1.0, H(0)) == pytest.approx(
        0.36514837167011077, rel=1e-12)
    assert uniform_minimized_distance(H(1), 1.0, H(-1)) == pytest.approx(
        0.4330127018922192, rel=1e-12)


def test_stationarity_residual():
    n = H(2)
    cert = delta_matrix(n, 1.0, ProbabilityProfile.uniform(n), H(-2), H(2))
    assert cert.residual <= 1e-10
    rows = {-2: np.array([0.5, 0.3, 0.2]), 0: np.array([0.2, 0.5, 0.3]),
            2: np.array([0.3, 0.2, 0.5])}
    cert = delta_matrix(n, 1.0, ProbabilityProfile(n, rows), H(-2), H(2))
    assert cert.residual > 1e-4


@pytest.mark.parametrize("lam", [1e-200, 1e200])
def test_stationarity_certificate_is_formed_at_lam_one(lam):
    """delta and alpha are the lam = 1 ones times lam, bitwise, and the residual is the lam = 1
    one: lam times it read 1e183 for an exactly stationary step at lam = 1e200."""
    n = H(2)
    rows = {-2: np.array([0.5, 0.3, 0.2]), 0: np.array([0.2, 0.5, 0.3]),
            2: np.array([0.3, 0.2, 0.5])}
    residuals = []
    for prof, n_i, n_f in [(ProbabilityProfile.uniform(n), H(0), H(2)),
                           (ProbabilityProfile(n, rows), H(-2), H(2))]:
        one = delta_matrix(n, 1.0, prof, n_i, n_f)
        got = delta_matrix(n, lam, prof, n_i, n_f)
        assert got.delta.tobytes() == (one.delta * lam).tobytes()
        assert got.alpha.tobytes() == (one.alpha * lam).tobytes()
        assert got.residual == one.residual
        residuals.append(got.residual)
    assert residuals[0] == 0.0 and residuals[1] > 1e-4


@pytest.mark.parametrize("lam", [1.0, 1.3])
@pytest.mark.parametrize("twice_n", [1, 2, 3, 4, 5])
def test_delta_times_profile_is_the_path_gradient(twice_n, lam):
    """delta P is the central-difference gradient of the path distance over the full path.
    delta's coupling of a step's two rows was twice the gradient's, which put delta P up to
    0.376 from the gradient on these profiles; the uniform profile hid it."""
    n = H(twice_n)
    labels = range(-twice_n, twice_n + 1, 2)
    prof = ProbabilityProfile(n, dict(zip(labels, quantum._dirichlet_rows(3, (twice_n + 1,) * 2))))
    x = prof._path(n, labels)                   # rows ascending in n3
    nn1, h = float(n.times_self_plus_one()), 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[idx] = h
        fd[idx] = (quantum._path_terms(nn1, lam, x + e, -twice_n)[0]
                   - quantum._path_terms(nn1, lam, x - e, -twice_n)[0]) / (2 * h)
    cert = delta_matrix(n, lam, prof, H(-twice_n), n)
    assert np.abs(cert.delta @ x[::-1] - fd[::-1]).max() <= 1e-8


def test_dirichlet_rows_lie_on_the_simplex():
    """Normalized expovariate(1.0) draws of Random(seed), row-major: the same seed gives the
    same rows, and the seed rule is the ascent's (negatives and floats refused)."""
    x = quantum._dirichlet_rows(7, (4, 3, 5))
    assert x.shape == (4, 3, 5) and np.all(x >= 0)
    np.testing.assert_allclose(x.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    assert x.tobytes() == quantum._dirichlet_rows(np.int64(7), (4, 3, 5)).tobytes()
    rnd = random.Random(7)
    e = np.array([rnd.expovariate(1.0) for _ in range(5)])
    assert x[0, 0].tobytes() == (e / e.sum()).tobytes()
    assert quantum._dirichlet_rows(8, (4, 3, 5)).tobytes() != x.tobytes()
    assert quantum._dirichlet_rows(7, (0, 3, 5)).shape == (0, 3, 5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        quantum._dirichlet_rows(-7, (2, 3))
    with pytest.raises(TypeError):
        quantum._dirichlet_rows(7.0, (2, 3))


def test_minimizer_recovers_uniform():
    out = minimize_path_distance(H(2), 1.0, H(-2), H(2), starts=6, seed=42)
    prof = out["profile"]
    for t3 in (-2, 0, 2):
        assert np.abs(prof.at(H(t3)) - 1.0 / 3.0).max() <= 1e-4
    want = path_distance(H(2), 1.0, ProbabilityProfile.uniform(H(2)), H(-2), H(2))
    assert out["distance"] <= want + 1e-8


@pytest.mark.parametrize("starts", [0, -3])
def test_minimizer_needs_a_start(starts):
    """starts = 0 and starts = -3 each ran the uniform start alone without a word."""
    with pytest.raises(SphereDomainError, match="starts must be >= 1, got %d" % starts):
        minimize_path_distance(H(2), 1.0, H(-2), H(2), starts=starts)


def test_minimizer_raises_with_the_best_rows(monkeypatch):
    """No start converges within zero iterations; the error carries the best start's rows.

    One iteration would not do: the uniform start is stationary (the functional is
    symmetric in l3), so it converges in its first iteration.
    """
    monkeypatch.setattr(quantum, "_DESCENT_ITERS", 0)
    with pytest.raises(MinimizationError, match="did not converge in 0 iterations") as info:
        minimize_path_distance(H(2), 1.0, H(-2), H(2), starts=3, seed=42)
    best = info.value.best
    assert np.array_equal(best["profile_rows"], np.full((3, 3), 1.0 / 3.0))
    assert best["distance"] == pytest.approx(
        path_distance(H(2), 1.0, ProbabilityProfile.uniform(H(2)), H(-2), H(2)), rel=1e-15)


def _serial_starts(n, lam, n_i, n_f, starts, seed):
    """Reference: the per-start descent, one start after another and one rung at a time.
    One (distance, rows, iterations, stop) per start, stop "max_iters" if it did not converge."""
    npts, m = len(quantum._path_labels(n, n_i, n_f)), n.twice + 1
    nn1, t0 = float(n.times_self_plus_one()), n_i.twice
    out = []
    for x in [np.full((npts, m), 1.0 / m),
              *quantum._dirichlet_rows(seed, (max(0, starts - 1), npts, m))]:
        fx, t, iters, stop = quantum._path_terms(nn1, lam, x, t0)[0], 1.0, 0, "max_iters"
        for iters in range(1, quantum._DESCENT_ITERS + 1):
            g = quantum._path_grad(x, *quantum._path_terms(nn1, lam, x, t0)[1:])
            for _ in range(40):
                cand = quantum._project_simplex(x - t * g)
                fc = quantum._path_terms(nn1, lam, cand, t0)[0]
                gap = x - cand
                if fc <= fx - 1e-4 * float(np.sum(gap * gap)) / max(t, 1e-16):
                    x, fx, t = cand, fc, t * 1.5
                    break
                t *= 0.5
            else:
                stop = "no_descent"
                break
            if np.abs(gap).max() < 1e-12:
                stop = "small_step"
                break
        out.append((float(fx), x, iters, stop))
    return out


def _assert_lockstep_is_serial(twice_n, twice_i, twice_f, starts, seed):
    """minimize_path_distance against the first least-distance start of _serial_starts:
    bitwise equal distance, iterations, stop and rows, or the same MinimizationError.
    Returns the stop reason of that start and of every start."""
    n, n_i, n_f = H(twice_n), H(twice_i), H(twice_f)
    runs = _serial_starts(n, 1.3, n_i, n_f, starts, seed)
    d, rows, iters, stop = min(runs, key=lambda r: r[0])  # the first of least distance
    if stop == "max_iters":
        with pytest.raises(MinimizationError, match="did not converge") as info:
            minimize_path_distance(n, 1.3, n_i, n_f, starts=starts, seed=seed)
        assert info.value.best["distance"] == d
        assert info.value.best["profile_rows"].tobytes() == rows.tobytes()
    else:
        got = minimize_path_distance(n, 1.3, n_i, n_f, starts=starts, seed=seed)
        assert (got["distance"], got["iterations"], got["stop"]) == (d, iters, stop)
        labels = quantum._path_labels(n, n_i, n_f)
        want = ProbabilityProfile(n, dict(zip(labels, rows)))
        assert all(got["profile"].rows[t].tobytes() == want.rows[t].tobytes() for t in labels)
    return stop, [r[3] for r in runs]


def test_lockstep_minimizer_matches_serial_loop(monkeypatch):
    """The starts run in lockstep but each takes exactly its own steps. Over paths at
    2n = 1..5, from 1 to 20 starts, with lam = 1.3: both stop reasons, then 3 iterations
    per start, where the stationary uniform start stops and the others run out, and 20,
    where the best start runs out and MinimizationError carries it."""
    best = {_assert_lockstep_is_serial(*case)[0]
            for case in [(2, -2, 2, 20, 1), (1, -1, 1, 5, 2), (3, -3, 3, 4, 3),
                         (4, -4, 2, 8, 4), (5, -3, 5, 4, 5), (4, -4, 4, 1, 6)]}
    assert best == {"small_step", "no_descent"}
    monkeypatch.setattr(quantum, "_DESCENT_ITERS", 3)
    for case in [(2, -2, 2, 20, 1), (3, -3, 3, 8, 3)]:
        best, stops = _assert_lockstep_is_serial(*case)
        assert best == "small_step" and set(stops) == {"small_step", "max_iters"}
    monkeypatch.setattr(quantum, "_DESCENT_ITERS", 20)
    best, stops = _assert_lockstep_is_serial(2, -2, 2, 20, 3)
    assert best == "max_iters" and stops[0] == "small_step"


@pytest.mark.parametrize("twice_n", [1, 2, 3, 4])
def test_path_gradient_matches_central_difference(twice_n):
    nn1 = float(H(twice_n).times_self_plus_one())
    x = np.random.default_rng(twice_n).dirichlet(np.ones(twice_n + 1), size=twice_n + 1)
    h = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[idx] = h
        fd[idx] = (quantum._path_terms(nn1, 1.3, x + e, -twice_n)[0]
                   - quantum._path_terms(nn1, 1.3, x - e, -twice_n)[0]) / (2 * h)
    terms = quantum._path_terms(nn1, 1.3, x, -twice_n)[1:]
    assert np.abs(quantum._path_grad(x, *terms) - fd).max() <= 1e-8


@pytest.mark.parametrize("twice_n", [1, 2, 7, 40])
def test_step_coefficients_match_the_per_step_formulas_bitwise(twice_n):
    """cu, cd and cx are quarter-integers, exact in floats, so forming them from the rows'
    n3^2 and neighbour products gives the per-step formulas bit for bit."""
    nn1 = float(H(twice_n).times_self_plus_one())
    for t0 in range(-twice_n, twice_n - 1, 2):
        x = np.ones(((twice_n - t0) // 2 + 1, twice_n + 1))
        _, _, (cu, cd, cx) = quantum._step_functional(nn1, x, t0)
        n3 = t0 / 2.0 + np.arange(len(x) - 1)
        for got, want in ((cu, nn1 - (n3 + 1.0) ** 2), (cd, nn1 - n3 ** 2),
                          (cx, nn1 - n3 * (n3 + 1.0))):
            assert np.array_equal(got, want)


def test_path_distance_adds_steps():
    # two adjacent steps from -1 to +1 at n = 1, uniform profile
    u = ProbabilityProfile.uniform(H(2))
    total = path_distance(H(2), 1.0, u, H(-2), H(2))
    step1 = trace_norm_distance(H(2), 1.0, H(-2), u)
    step2 = trace_norm_distance(H(2), 1.0, H(0), u)
    assert total == pytest.approx(step1 + step2, rel=1e-12)


@st.composite
def _profile_and_step(draw):
    """2n in 1..12, a Dirichlet profile over every n3, and one step n3 -> n3+1."""
    t = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.dirichlet(np.full(t + 1, draw(st.sampled_from([0.1, 1.0, 10.0]))), size=t + 1)
    prof = ProbabilityProfile(H(t), {tt: raw[i] for i, tt in enumerate(range(t, -t - 1, -2))})
    return H(t), prof, H(draw(st.sampled_from(range(-t, t - 1, 2))))


@settings(max_examples=60, deadline=None, database=None)
@given(_profile_and_step(), st.sampled_from([1.0, 1.3]))
def test_step_functional_matches_block_route(case, lam):
    """The vectorized functional against the independent right-sector block route."""
    n, prof, n3 = case
    assert trace_norm_distance(n, lam, n3, prof) == pytest.approx(
        mixed_distance_oracle(n, lam, n3, prof), rel=1e-10)
    steps = [trace_norm_distance(n, lam, H(t3), prof) for t3 in range(-n.twice, n.twice - 1, 2)]
    assert path_distance(n, lam, prof, H(-n.twice), n) == pytest.approx(sum(steps), rel=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 10), st.data(), st.integers(0, 2 ** 32 - 1))
def test_path_functional_finite_on_every_profile(twice_n, data, seed):
    """Every step has S >= n |pu|^2 >= n/(2n+1) > 0 on probability rows, so the path
    distance is finite and positive and the stationarity residual finite, with no guard."""
    i, f = sorted(data.draw(st.lists(st.integers(0, twice_n), min_size=2, max_size=2,
                                     unique=True)))
    n_i, n_f = H(2 * i - twice_n), H(2 * f - twice_n)
    raw = np.random.default_rng(seed).dirichlet(np.ones(twice_n + 1), size=twice_n + 1)
    prof = ProbabilityProfile(H(twice_n),
                              {t: raw[r] for r, t in enumerate(range(twice_n, -twice_n - 1, -2))})
    d = path_distance(H(twice_n), 1.0, prof, n_i, n_f)
    assert math.isfinite(d) and d > 0
    assert math.isfinite(delta_matrix(H(twice_n), 1.0, prof, n_i, n_f).residual)


# ---------------------------------------------------------------------------
# thermal profiles

def test_partition_function_and_profile():
    spectrum_ = EnergySpectrum(np.array([0.0, 1.0]))
    beta = math.log(2.0)
    assert partition_function(spectrum_, beta) == pytest.approx(1.5, rel=1e-14)
    w = thermal_profile(spectrum_, beta)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
def test_partition_function_takes_the_profile_beta_rule(beta):
    """nan gave nan and -1 gave 1.0 on the levels [-1000, 0], where thermal_profile raised."""
    spectrum_ = EnergySpectrum(np.array([-1000.0, 0.0]))
    for f in (partition_function, thermal_profile):
        with pytest.raises(SphereDomainError, match="beta must be finite and >= 0"):
            f(spectrum_, beta)


@pytest.mark.parametrize("levels", [[-1000.0, 0.0], [1000.0, 2000.0]])
def test_partition_function_outside_the_float_range(levels):
    """Z(1) overflowed to inf with a RuntimeWarning on [-1000, 0] and underflowed to 0.0 on
    [1000, 2000]; the shifted Boltzmann weights are finite on both."""
    spectrum_ = EnergySpectrum(np.array(levels))
    with pytest.raises(SphereDomainError, match=r"Z\(beta\) at beta = 1.0 leaves the float"):
        partition_function(spectrum_, 1.0)
    assert np.array_equal(thermal_profile(spectrum_, 1.0), [1.0, 0.0])


def test_thermal_prefactor_bounds_and_monotonicity():
    rng = np.random.default_rng(11)
    for levels in (np.array([0.0, 1.0]), np.array([1.0, 0.0, -1.0]),
                   np.sort(rng.normal(size=5))[::-1].copy()):
        spectrum_ = EnergySpectrum(levels)
        m = levels.size
        prev = None
        for beta in np.linspace(0.0, 8.0, 33):
            pf = thermal_prefactor(spectrum_, beta)
            assert 1.0 / math.sqrt(m) - 1e-12 <= pf <= 1.0 + 1e-12
            if prev is not None:
                assert pf >= prev - 1e-12  # nonincreasing in temperature
            prev = pf


def test_thermal_prefactor_is_the_profile_norm():
    """sqrt(Z(2 beta))/Z(beta) is read from the Boltzmann weights of thermal_profile, bitwise,
    up to beta = 1e4 and with negative levels, and stays in [1/sqrt(M), 1] up to rounding."""
    rng = np.random.default_rng(3)
    for levels in (np.array([0.0, 1.0]), np.array([1.0, 0.0, -1.0]),
                   np.array([-3.0, -7.5, 2.0, 0.25]), 5.0 * rng.normal(size=6)):
        spectrum_ = EnergySpectrum(levels)
        for beta in np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 29)]):
            pf = thermal_prefactor(spectrum_, beta)
            assert pf == np.linalg.norm(thermal_profile(spectrum_, beta)), beta
            assert (1.0 - 1e-15) / math.sqrt(levels.size) <= pf <= 1.0


def test_thermal_distance_is_profile_functional():
    n = H(2)
    spectrum_ = EnergySpectrum.default(n, 1.0)
    for beta in (0.0, 0.3, 1.0, 4.0):
        got = thermal_distance(n, 1.0, H(0), spectrum_, beta)
        weights = thermal_profile(spectrum_, beta)
        prof = ProbabilityProfile(n, {t: weights for t in (-2, 0, 2)})
        want = trace_norm_distance(n, 1.0, H(0), prof)
        assert got == pytest.approx(want, rel=1e-10)


def test_thermal_beta_zero_is_uniform():
    n = H(2)
    spectrum_ = EnergySpectrum.default(n, 1.0)
    got = thermal_distance(n, 1.0, H(0), spectrum_, 0.0)
    assert got == pytest.approx(uniform_minimized_distance(n, 1.0, H(0)), abs=1e-8)
    assert got == pytest.approx(0.365148, abs=1e-6)


def test_thermal_level_count_checked():
    with pytest.raises(SphereDomainError):
        thermal_distance(H(2), 1.0, H(0), EnergySpectrum(np.array([0.0, 1.0])), 1.0)


def test_energy_spectrum_text_errors():
    with pytest.raises(SphereDomainError, match="exactly one"):
        EnergySpectrum.from_text("1 2\n3 4\n")
    with pytest.raises(SphereDomainError, match="line 1"):
        EnergySpectrum.from_text("one two three\n")
