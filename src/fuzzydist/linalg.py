"""Shared tolerances and the operator norm, the one dense kernel every oracle uses.

Callers use numpy.linalg directly otherwise. Tolerances are fixed once, here,
and imported by the other modules: SYMMETRY_TOL for Hermiticity, DECOMP_TOL
for decomposition residuals.
"""

from __future__ import annotations

import numpy as np

SYMMETRY_TOL = 1e-12
DECOMP_TOL = 1e-10


def operator_norm(m) -> float:
    """Largest singular value, i.e. sqrt of the top eigenvalue of M^dag M."""
    return float(np.linalg.norm(m, 2))
