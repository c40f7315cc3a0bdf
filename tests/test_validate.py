"""The check registry itself: naming, selection, result structure."""

import pytest

from fuzzydist.validate import check_names, run_checks


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


def test_seed_is_honored():
    a = run_checks(names=["continuum-metric"], seed=3)[0]
    b = run_checks(names=["continuum-metric"], seed=3)[0]
    assert a.max_deviation == b.max_deviation


@pytest.mark.parametrize("name", check_names())
def test_registry_check_passes(name):
    (result,) = run_checks(names=[name])
    assert result.name == name
    assert result.passed, "%s: %s (max deviation %r)" % (name, result.note, result.max_deviation)
