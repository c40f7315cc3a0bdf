"""The check registry itself: naming, selection, result structure."""

import math

import pytest

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
