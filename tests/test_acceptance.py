"""Acceptance gate: one verdict per stated criterion, at the stated tolerance.

Criteria 1-9 are rows of CRITERIA: each names the validate checks
(src/fuzzydist/validate.py) that state it at its tolerance, and the wall
budget the criterion gives, if any. test_criterion runs those checks and
prints one pass/fail line per criterion (visible with -s; pytest -v shows
the same verdict per id). What a criterion states beyond its checks, such as
a wider grid or the swapped pair ordering, is pinned by the module tests.
Criterion 10 runs the CLI. Two sub-criteria are strict xfails because the
stated numbers are not attainable; the measured facts are pinned by the
registry next to them:

* large-n scaling of the coherent metric: the deviation from the asymptote
  2*lam/sqrt(3) is 2/(3n) + O(1/n^2), which is 1.33e-2 at n = 50, above the
  stated 1e-2. It first drops below 1% at n = 67.
* the distinct-sector seminorm expression as printed: the eigensolver oracle
  disagrees with it exactly on labels with 2*n3 <= -3; the symmetrized
  completion matches the oracle everywhere, and the printed form holds on
  n3 >= -1.
"""

import json
import subprocess
import sys
import time

import pytest

from fuzzydist.halfint import HalfInteger
from fuzzydist import coherent, quantum, validate

H = HalfInteger

# criterion -> (the validate checks that state it, wall budget in seconds or None)
CRITERIA = {
    "01_algebra_fidelity": (("sphere-algebra",), 1.0),
    "02_closed_form_vs_pipeline": (("distance-closed-vs-pipeline",), 5.0),
    "03_connes_supremum": (("distance-optimizer",), 60.0),
    "04a_coherent_metric_coefficient": (("coherent-distance",), None),
    "04b_companion_true_asymptote": (("coherent-large-n-scaling",), None),
    "05a_same_sector_branch": (("quantum-same-branch",), None),
    "05a_distinct_sector_companions": (("quantum-distinct-branch",), None),
    "05b_sector_monotonicity": (("quantum-monotonicity",), None),
    "06_mixed_state_minimization": (("stationarity-residual", "minimizer-recovers-uniform",
                                     "uniform-closed-form", "mixed-worked-values"), None),
    "07_thermal": (("thermal-prefactor", "thermal-distance"), None),
    "08_continuum_suite": (("continuum-hopf", "continuum-metric", "continuum-killing",
                            "continuum-clifford", "continuum-monopole",
                            "continuum-connection"), 2.0),
    "09_jordan_schwinger": (("jordan-schwinger", "sphere-winding"), None),
}


@pytest.mark.parametrize("criterion", list(CRITERIA))
def test_criterion(criterion):
    names, budget = CRITERIA[criterion]
    t0 = time.perf_counter()
    results = validate.run_checks(names=names)
    elapsed = time.perf_counter() - t0
    failed = ["%s: %s (max deviation %r)" % (r.name, r.note, r.max_deviation)
              for r in results if not r.passed]
    in_budget = budget is None or elapsed < budget
    print("criterion %s (%s): %s  [%.2fs%s]"
          % (criterion, ", ".join(names), "PASS" if in_budget and not failed else "FAIL",
             elapsed, "" if budget is None else " of %gs" % budget))
    assert not failed
    assert in_budget


@pytest.mark.xfail(strict=True,
                   reason="deviation is 2/(3n): 1.33e-2 at n = 50, first < 1e-2 at n = 67")
def test_criterion_04b_large_n_scaling_at_50():
    dev = coherent.large_n_scaling_deviation(H(100))
    print("criterion 4b (large-n scaling at n=50): FAIL  [dev %.6e > 1e-2, "
          "documented defect]" % dev)
    assert dev < 1e-2


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
    print("criterion 5a (distinct-sector branch as printed): FAIL  [dev %.2e, "
          "known domain restriction]" % worst)
    assert worst <= 1e-10


def test_criterion_10_cli_determinism():
    args = [sys.executable, "-m", "fuzzydist.cli", "validate", "--no-timestamp"]
    a = subprocess.run(args, capture_output=True, text=True, timeout=600)
    b = subprocess.run(args, capture_output=True, text=True, timeout=600)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    all_passed = all(row["passed"] for row in doc["results"])
    ok = ok and all_passed
    print("criterion 10 (CLI validate, byte-identical reruns): %s  [%d checks]"
          % ("PASS" if ok else "FAIL", len(doc["results"])))
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert all_passed
