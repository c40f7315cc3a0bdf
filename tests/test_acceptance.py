"""Acceptance gate: one test per stated criterion, at the stated tolerance.

Each test prints a single pass/fail line (visible with -s; pytest -v shows
the same verdict per test name). Two sub-criteria are strict xfails because
the stated numbers are not attainable; the measured facts are pinned by
companion tests right next to them and the validation registry:

* large-n scaling of the coherent metric: the deviation from the asymptote
  2*lam/sqrt(3) is 2/(3n) + O(1/n^2), which is 1.33e-2 at n = 50, above the
  stated 1e-2. It first drops below 1% at n = 67.
* the distinct-sector seminorm expression as printed: the eigensolver oracle
  disagrees with it exactly on labels with 2*n3 <= -3; the symmetrized
  completion matches the oracle everywhere, and the printed form holds on
  n3 >= -1.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fuzzydist.halfint import HalfInteger
from fuzzydist import coherent, distance, quantum, sphere, triple, validate

H = HalfInteger


def _report(line):
    print(line)


# ---------------------------------------------------------------------------

def test_criterion_01_algebra_fidelity():
    """su(2) closure and Casimir within 1e-12*lam^2 for n up to 25/2, < 1 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (1.0, 0.7):
        tol_scale = lam * lam
        for t in range(1, 26):
            s = sphere.build_space(H(t), lam)
            xs = (s.x1, s.x2, s.x3)
            nf = t / 2.0
            for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                dev = np.abs(xs[i] @ xs[j] - xs[j] @ xs[i] - 1j * lam * xs[k]).max()
                worst = max(worst, dev / tol_scale)
            cas = xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2]
            dev = np.abs(cas - tol_scale * nf * (nf + 1.0) * np.eye(s.dim)).max()
            worst = max(worst, dev / (tol_scale * nf * (nf + 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("criterion 1 (algebra fidelity, n <= 25/2): %s  [dev %.2e, %.2fs]"
            % ("PASS" if ok else "FAIL", worst, elapsed))
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_closed_form_vs_pipeline():
    """Closed form vs eigensolver pipeline, 1e-10 relative, n <= 8, < 5 s."""
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for t in range(1, 17):
        s = sphere.build_space(H(t), 1.0)
        tr = triple.build_dirac(s, "config")
        for t3 in range(-t, t - 1, 2):
            lo = sphere.pure_state(s, H(t3))
            hi = sphere.pure_state(s, H(t3 + 2))
            want = distance.adjacent_distance_closed_form(H(t), H(t3))
            for a, b in ((lo, hi), (hi, lo)):  # both orderings
                got = distance.distance_lower_bound(tr, a, b).value
                worst = max(worst, abs(got - want) / want)
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("criterion 2 (closed form vs pipeline, %d pairs): %s  [dev %.2e, %.2fs]"
            % (pairs, "PASS" if ok else "FAIL", worst, elapsed))
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_connes_supremum():
    """Optimizer inside [lb - 1e-6, lb + 1e-3]; analytic value at n = 1/2; < 60 s."""
    t0 = time.perf_counter()
    ok = True
    for t in (1, 2, 3):
        s = sphere.build_space(H(t), 1.0)
        tr = triple.build_dirac(s, "config")
        for t3 in range(-t, t - 1, 2):
            lo = sphere.pure_state(s, H(t3))
            hi = sphere.pure_state(s, H(t3 + 2))
            lb = distance.distance_lower_bound(tr, lo, hi).value
            opt = distance.connes_distance_optimized(tr, lo, hi, seed=42)
            ok = ok and (lb - 1e-6 <= opt.value <= lb + 1e-3)
            if t == 1:
                ok = ok and abs(opt.value - math.sqrt(3.0) / 2.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report("criterion 3 (Connes supremum vs lower bound): %s  [%.2fs]"
            % ("PASS" if ok else "FAIL", elapsed))
    assert ok


def test_criterion_04a_coherent_metric_coefficient():
    """FD distance / |dz| within 1e-4 of the closed form at |dz| = 1e-4."""
    worst = 0.0
    for t in (1, 2, 4):
        fd_north = coherent.coherent_distance_fd(H(t), 1.0, 1e-4) / 1e-4
        for z in (0j, 0.5 + 0j, 0.3 + 0.4j):
            got = fd_north / (1.0 + abs(z) ** 2)  # rotational invariance
            want = coherent.coherent_metric_coefficient(H(t), 1.0, z)
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-4
    _report("criterion 4a (coherent metric, 9 points): %s  [dev %.6e]"
            % ("PASS" if ok else "FAIL", worst))
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="deviation is 2/(3n): 1.33e-2 at n = 50, first < 1e-2 at n = 67")
def test_criterion_04b_large_n_scaling_at_50():
    dev = coherent.large_n_scaling_deviation(H(100))
    _report("criterion 4b (large-n scaling at n=50): FAIL  [dev %.6e > 1e-2, "
            "documented defect]" % dev)
    assert dev < 1e-2


def test_criterion_04b_companion_true_asymptote():
    """Companion fact: the 1% threshold is crossed at n = 67, per the 2/(3n) law."""
    assert coherent.large_n_scaling_deviation(H(134)) < 1e-2
    assert coherent.large_n_scaling_deviation(H(132)) > 1e-2
    for t in (100, 200, 400):
        dev = coherent.large_n_scaling_deviation(H(t))
        assert abs(dev * 3 * (t / 2.0) / 2.0 - 1.0) < 0.02
    _report("criterion 4b companion (asymptote law 2/(3n), crossover n=67): PASS")


def test_criterion_05a_same_sector_branch():
    """Eigensolver reproduces the shared-sector expression, 1e-10, n <= 4."""
    worst = 0.0
    for t in range(1, 9):
        for t3 in range(-t, t - 1, 2):
            got = quantum.quantum_seminorm_oracle(H(t), 1.0, H(t3), H(t), H(t))
            want = quantum.same_sector_seminorm(H(t), 1.0, H(t3))
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-10
    _report("criterion 5a (same-sector branch, n <= 4): %s  [dev %.2e]"
            % ("PASS" if ok else "FAIL", worst))
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="printed distinct-sector expression fails for 2*n3 <= -3; "
                          "symmetrized completion matches the oracle everywhere")
def test_criterion_05a_distinct_sector_branch_as_printed():
    worst = 0.0
    for t in range(1, 9):
        for t3 in range(-t, t - 1, 2):
            got = quantum.quantum_seminorm_oracle(H(t), 1.0, H(t3), H(t3), H(t3 + 2))
            want = quantum.distinct_sector_seminorm_literal(H(t), 1.0, H(t3))
            worst = max(worst, abs(got - want) / want)
    _report("criterion 5a (distinct-sector branch as printed): FAIL  [dev %.2e, "
            "known domain restriction]" % worst)
    assert worst <= 1e-10


def test_criterion_05a_distinct_sector_companions():
    """Companion facts: printed form holds on n3 >= -1; symmetrized form everywhere."""
    worst_sym = 0.0
    worst_lit = 0.0
    for t in range(1, 9):
        for t3 in range(-t, t - 1, 2):
            got = quantum.quantum_seminorm_oracle(H(t), 1.0, H(t3), H(t3), H(t3 + 2))
            sym = quantum.distinct_sector_seminorm_symmetrized(H(t), 1.0, H(t3))
            worst_sym = max(worst_sym, abs(got - sym) / sym)
            if t3 >= -2:
                lit = quantum.distinct_sector_seminorm_literal(H(t), 1.0, H(t3))
                worst_lit = max(worst_lit, abs(got - lit) / lit)
    assert worst_sym <= 1e-10
    assert worst_lit <= 1e-10
    _report("criterion 5a companion (symmetrized everywhere, printed on n3 >= -1): "
            "PASS  [dev %.2e / %.2e]" % (worst_sym, worst_lit))


def test_criterion_05b_sector_monotonicity():
    ok = True
    for t in range(1, 9):
        for t3 in range(-t, t - 1, 2):
            same = quantum.quantum_pure_distance(H(t), 1.0, H(t3), True)
            dist = quantum.quantum_pure_distance(H(t), 1.0, H(t3), False)
            ok = ok and dist >= same - 1e-12
    _report("criterion 5b (distinct >= same for every pair): %s"
            % ("PASS" if ok else "FAIL"))
    assert ok


def test_criterion_06_mixed_state_minimization():
    n = H(2)
    uniform = quantum.ProbabilityProfile.uniform(n)
    cert = quantum.delta_matrix(n, 1.0, uniform, H(-2), H(2))
    res_ok = cert.residual <= 1e-10

    out = quantum.minimize_path_distance(n, 1.0, H(-2), H(2), starts=20, seed=42)
    dev = max(np.abs(out["profile"].at(H(t3)) - 1.0 / 3.0).max() for t3 in (-2, 0, 2))
    min_ok = dev <= 1e-4

    closed = quantum.uniform_minimized_distance(n, 1.0, H(0))
    func = quantum.trace_norm_distance(n, 1.0, H(0), uniform)
    val_ok = abs(closed - func) <= 1e-10 and abs(closed - 0.365148) <= 1e-6

    ok = res_ok and min_ok and val_ok
    _report("criterion 6 (mixed-state minimization): %s  [residual %.1e, "
            "profile dev %.1e]" % ("PASS" if ok else "FAIL", cert.residual, dev))
    assert ok


def test_criterion_07_thermal():
    rng = np.random.default_rng(11)
    spectra = (quantum.EnergySpectrum(np.array([0.0, 1.0])),
               quantum.EnergySpectrum.default(H(2), 1.0),
               quantum.EnergySpectrum(np.sort(rng.normal(size=5))[::-1].copy()))
    bounds_ok = True
    mono_ok = True
    for spectrum_ in spectra:
        m = spectrum_.levels.size
        prev = None
        for beta in np.linspace(0.0, 6.0, 25):
            pf = quantum.thermal_prefactor(spectrum_, beta)
            bounds_ok = bounds_ok and (1.0 / math.sqrt(m) - 1e-12 <= pf <= 1.0 + 1e-12)
            if prev is not None:
                mono_ok = mono_ok and pf >= prev - 1e-12
            prev = pf

    spectrum_ = quantum.EnergySpectrum.default(H(2), 1.0)
    beta0 = quantum.thermal_distance(H(2), 1.0, H(0), spectrum_, 0.0)
    uni = quantum.uniform_minimized_distance(H(2), 1.0, H(0))
    uniform_ok = abs(beta0 - uni) <= 1e-8

    two = quantum.thermal_prefactor(quantum.EnergySpectrum(np.array([0.0, 1.0])),
                                    math.log(2.0))
    ln2_ok = abs(two - 0.745356) <= 1e-6

    ok = bounds_ok and mono_ok and uniform_ok and ln2_ok
    _report("criterion 7 (thermal prefactor and limits): %s" % ("PASS" if ok else "FAIL"))
    assert ok


def test_criterion_08_continuum_suite():
    t0 = time.perf_counter()
    names = ("continuum-hopf", "continuum-metric", "continuum-killing",
             "continuum-clifford", "continuum-monopole", "continuum-connection")
    results = validate.run_checks(names=names, seed=42)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 2.0
    _report("criterion 8 (continuum geometry suite): %s  [%.2fs]"
            % ("PASS" if ok else "FAIL", elapsed))
    for r in results:
        assert r.passed, "%s: %s" % (r.name, r.note)
    assert elapsed < 2.0


def test_criterion_09_jordan_schwinger():
    worst = 0.0
    for t in (1, 2, 3, 4):
        rep = sphere.jordan_schwinger_check(H(t), 1.0, cutoff=10)
        worst = max(worst, rep["max_deviation"])
    # all balanced bilinears have winding zero
    windings = [sphere.winding_number(sphere.FockMonomial(*e))
                for e in ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0))]
    ok = worst <= 1e-12 and all(w == 0 for w in windings)
    _report("criterion 9 (oscillator cross-check, winding): %s  [dev %.2e]"
            % ("PASS" if ok else "FAIL", worst))
    assert ok


def test_criterion_10_cli_determinism():
    args = [sys.executable, "-m", "fuzzydist.cli", "validate", "--no-timestamp"]
    a = subprocess.run(args, capture_output=True, text=True, timeout=600)
    b = subprocess.run(args, capture_output=True, text=True, timeout=600)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    all_passed = all(row["passed"] for row in doc["results"])
    ok = ok and all_passed
    _report("criterion 10 (CLI validate, byte-identical reruns): %s  [%d checks]"
            % ("PASS" if ok else "FAIL", len(doc["results"])))
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert all_passed
