"""The package surface: lazy imports, exports derived from the submodules, the version."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzydist
from fuzzydist import cli

ROOT = Path(__file__).resolve().parents[1]


def _public_objects():
    """(module name, name, object) of each public class and function a library module defines."""
    for info in pkgutil.iter_modules(fuzzydist.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module("fuzzydist." + info.name)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
                    and obj.__module__ == mod.__name__):
                yield mod.__name__, name, obj


def test_bare_import_loads_no_numpy():
    """FUZZYDIST_THREADS must reach the BLAS variables before numpy loads."""
    code = ("import sys, fuzzydist, fuzzydist.cli\n"
            "print(hasattr(fuzzydist, '__wrapped__'), hasattr(fuzzydist, '_labels'),\n"
            "      'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(fuzzydist.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "False"]


def test_no_seeded_draw_imports_numpy_random():
    """Every seeded draw comes from random.Random, so none loads numpy.random, which numpy 2
    imports on first use (numpy 1 at import): not the ascent on the benchmark's coherent
    pairs (exact at 2n = 1, the ascent at 2n = 2 and 3), not the minimizer's Dirichlet starts,
    and not the checks of continuum-check and validate."""
    code = ("import contextlib, io, sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "from fuzzydist import HalfInteger as H, build_dirac, build_space, cli\n"
            "from fuzzydist import coherent_state, connes_distance_optimized\n"
            "from fuzzydist import minimize_path_distance\n"
            "def same(): return before == ('numpy.random' in sys.modules)\n"
            "for t in (1, 2, 3):\n"
            "    s = build_space(H(t), 1.0)\n"
            "    rho, rho2 = (coherent_state(s, z).projector() for z in (0j, 1e-4 + 0j))\n"
            "    res = connes_distance_optimized(build_dirac(s, 'config'), rho, rho2, seed=1)\n"
            "    print(res.method, same())\n"
            "print(minimize_path_distance(H(2), 1.0, H(-2), H(2), starts=5)['stop'], same())\n"
            "for command in ('continuum-check', 'validate'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main([command, '--seed', '1', '--no-timestamp'])\n"
            "    print(code, same())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(fuzzydist.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["diagonal_exact", "True", "optimizer", "True", "optimizer",
                                  "True", "small_step", "True", "0", "True", "0", "True"]


def test_distance_never_reads_the_representation():
    """The distance routes see D = D_c (x) I_k only through the matrix sizes, k = 1 on the
    config triple and dim on the quantum one, so fuzzydist.distance must not branch on the
    triple's label: no attribute `representation`, and no getattr of it by name."""
    import fuzzydist.distance

    tree = ast.parse(Path(fuzzydist.distance.__file__).read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "representation"
             or isinstance(node, ast.Constant) and node.value == "representation"]
    assert reads == []


def test_validate_imports_no_fractions_or_decimal():
    """Spin arithmetic runs in plain ints, and only HalfInteger.parse reads a decimal string
    through a local Fraction import, so a validate run loads neither fractions nor decimal."""
    code = ("import contextlib, io, sys\n"
            "from fuzzydist import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['validate', '--no-timestamp'])\n"
            "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(fuzzydist.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "False", "False"]


def test_every_public_class_and_function_is_a_package_attribute():
    owners = {}
    for modname, name, obj in _public_objects():
        assert name not in owners, "%s is defined in %s and %s" % (name, owners[name], modname)
        owners[name] = modname
        assert getattr(fuzzydist, name) is obj, name
    submodules = {info.name for info in pkgutil.iter_modules(fuzzydist.__path__)}
    assert set(fuzzydist.__all__) == {"__version__"} | submodules | set(owners)
    assert all(hasattr(fuzzydist, name) for name in fuzzydist.__all__)  # submodules load lazily
    assert len(fuzzydist.__all__) == len(set(fuzzydist.__all__))
    # a helper the hand-kept export table used to leave out
    assert owners.get("tautological_connection_fd") == "fuzzydist.continuum"


@pytest.mark.parametrize("name", ["no_such_name", "_labels", "UsageError", "main"])
def test_unknown_private_and_cli_names_are_not_exported(name):
    with pytest.raises(AttributeError):
        getattr(fuzzydist, name)


def test_version_is_stated_once(capsys):
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None and match.group(1) == fuzzydist.__version__
    assert cli.main(["quantum-pure", "--n", "1/2", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["version"] == fuzzydist.__version__
