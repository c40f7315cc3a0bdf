import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzydist
from fuzzydist.linalg import (
    LinalgDomainError,
    as_matrix,
    hermitian_eigh,
    hermitian_eigvals,
    is_hermitian,
    operator_norm,
)


def test_as_matrix_rejects_vectors():
    with pytest.raises(LinalgDomainError):
        as_matrix(np.zeros(3))
    with pytest.raises(LinalgDomainError):
        as_matrix(np.zeros((0, 2)))


def test_hermiticity_predicate():
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    assert is_hermitian(a)
    assert not is_hermitian(a + np.array([[0, 1e-6], [0, 0]]))
    assert not is_hermitian(np.zeros((2, 3)))


def test_eigvals_match_numpy_and_check_trace():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = m + m.conj().T
    vals = hermitian_eigvals(h)
    assert np.allclose(vals, np.linalg.eigvalsh(h))
    with pytest.raises(LinalgDomainError):
        hermitian_eigvals(m)  # not Hermitian


def test_eigh_reconstructs():
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    vals, vecs = hermitian_eigh(h)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h)


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
