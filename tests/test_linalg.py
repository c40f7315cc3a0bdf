import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzydist
from fuzzydist.linalg import operator_norm


def test_norms_on_known_matrix():
    # singular values of diag(3, -4) are 4 and 3
    m = np.diag([3.0, -4.0])
    assert operator_norm(m) == pytest.approx(4.0)


def test_package_imports_no_scipy():
    """Every fuzzydist submodule loads on numpy alone."""
    code = ("import importlib, pkgutil, sys, fuzzydist\n"
            "for m in pkgutil.iter_modules(fuzzydist.__path__):\n"
            "    importlib.import_module('fuzzydist.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n")
    src = str(Path(fuzzydist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
