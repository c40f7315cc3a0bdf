"""The check registry itself: naming, selection, result structure."""

import math

import numpy as np
import pytest

from fuzzydist import continuum, sphere
from fuzzydist.validate import _worst, check_names, run_checks


def test_registry_covers_every_module_family():
    names = check_names()
    assert len(names) == len(set(names))
    for prefix in ("sphere", "dirac", "distance", "coherent", "quantum",
                   "mixed", "thermal", "continuum"):
        assert any(n.startswith(prefix) for n in names), prefix


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        run_checks(names=["no-such-check"])


def test_selected_checks_pass_and_report():
    results = run_checks(names=["sphere-algebra", "dirac-spectrum", "mixed-worked-values"])
    assert [r.name for r in results] == ["sphere-algebra", "dirac-spectrum",
                                         "mixed-worked-values"]
    for r in results:
        assert r.passed, "%s: %s" % (r.name, r.note)
        assert r.max_deviation >= 0.0
        assert isinstance(r.note, str) and r.note


def test_empty_selection_runs_no_check():
    assert run_checks(names=[]) == []


# a check from each family -> one routine it folds, patched to return nan
NAN_ROUTINES = {
    "distance-closed-vs-pipeline": "fuzzydist.distance.adjacent_distance_closed_form",
    "coherent-block-norm": "fuzzydist.coherent.ladder_commutator_norm",
    "quantum-same-branch": "fuzzydist.quantum.same_sector_seminorm",
    "mixed-norm-identification": "fuzzydist.quantum.trace_norm_distance",
    "continuum-killing": "fuzzydist.continuum.killing_orthonormality_deviation",
}


@pytest.mark.parametrize("name", NAN_ROUTINES)
def test_a_nan_deviation_fails_its_check(monkeypatch, name):
    # the builtin max(worst, nan) returns worst: each fold must keep the nan instead
    monkeypatch.setattr(NAN_ROUTINES[name], lambda *args, **kwargs: math.nan)
    (result,) = run_checks(names=[name])
    assert not result.passed
    assert math.isnan(result.max_deviation)


def test_worst_keeps_a_nan_in_any_position():
    assert _worst(1.0, 2.0) == 2.0 and _worst(1.0, 2.0, pick=min) == 1.0
    for values in ((0.0, math.nan), (math.nan, 0.0), (0.0, math.nan, 1.0)):
        assert math.isnan(_worst(*values)) and math.isnan(_worst(*values, pick=min))


def test_seed_is_honored():
    a = run_checks(names=["continuum-metric"], seed=3)[0]
    b = run_checks(names=["continuum-metric"], seed=3)[0]
    assert a.max_deviation == b.max_deviation


@pytest.mark.parametrize("name", check_names())
def test_registry_check_passes(name):
    (result,) = run_checks(names=[name])
    assert result.name == name
    assert result.passed, "%s: %s (max deviation %r)" % (name, result.note, result.max_deviation)


def _offset_number_op(init):
    def offset(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.number_op[1, 1] += 1e-9  # (k1, k2) = (0, 1), an interior state
    return offset


def _scale_j3(fields):
    def scaled(theta, phi):
        j1, j2, j3, k = fields(theta, phi)
        return j1, j2, 1.001 * j3, k
    return scaled


# each check rewritten as one call over a stack -> (owner, name, change): owner.name is
# replaced by change(the original), a fault planted where the check reads its input
FAULTS = {
    "sphere-winding": (sphere.TwoModeFock, "__init__", _offset_number_op),
    "jordan-schwinger": (sphere, "_pauli",
                         lambda f: lambda: f() * np.array([1, -1, 1])[:, None, None]),  # -sigma2
    "continuum-hopf": (continuum, "hopf_projection", lambda f: lambda chi: f(chi)[..., [1, 0, 2]]),
    # s3_metric without its cos(theta) term: its value at the equator, everywhere
    "continuum-metric": (continuum, "s3_metric",
                         lambda f: lambda th: f(np.full(np.shape(th), math.pi / 2))),
    "continuum-killing": (continuum, "killing_fields", _scale_j3),
    "continuum-clifford": (continuum, "clifford_sigmas",
                           lambda f: lambda th, ph: (f(th, ph)[0], 1.001 * f(th, ph)[1])),
    "continuum-monopole": (continuum, "monopole_connection",
                           lambda f: lambda k, th, chart: f(k, th, "plus")),
}


@pytest.mark.parametrize("name", FAULTS)
def test_a_rewritten_check_fails_on_a_planted_fault(monkeypatch, name):
    owner, attr, change = FAULTS[name]
    monkeypatch.setattr(owner, attr, change(getattr(owner, attr)))
    (result,) = run_checks(names=[name])
    assert result.passed is False
