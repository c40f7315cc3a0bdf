"""Tour of the fuzzy sphere: matrix coordinates, Dirac spectra, oscillators.

Run with:  python3 demos/01_fuzzy_sphere_tour.py
"""

import numpy as np

from fuzzydist import (FockMonomial, HalfInteger, build_dirac, build_space,
                       dirac_eigenvalue_pattern, jordan_schwinger_check, winding_number)


def main():
    # A spin-1 sphere at scale lam = 1. Three (2n+1) x (2n+1) Hermitian
    # matrices close the su(2) algebra and sit on a sphere of fixed radius.
    s = build_space(HalfInteger(2), 1.0)
    print("spin n = %s, dimension %d, radius %.6f" % (s.n, s.dim, s.radius))
    print("x3 diagonal:", np.real(np.diag(s.x3)))

    comm = s.x1 @ s.x2 - s.x2 @ s.x1 - 1j * s.lam * s.x3
    print("closure defect |[x1,x2] - i lam x3| = %.3e" % np.abs(comm).max())

    cas = s.x1 @ s.x1 + s.x2 @ s.x2 + s.x3 @ s.x3
    print("Casimir eigenvalue %.6f (expect lam^2 n(n+1) = %.6f)"
          % (np.real(cas[0, 0]), s.lam ** 2 * s.casimir))

    # The Dirac operator on configuration space has a two-value spectrum:
    # n/r with multiplicity 2n+2 and -(n+1)/r with multiplicity 2n.
    tr = build_dirac(s, "config")
    eigs = np.linalg.eigvalsh(tr.dirac)
    vals, counts = np.unique(np.round(eigs, 10), return_counts=True)
    print("Dirac spectrum:", dict(zip(vals.tolist(), counts.tolist())))
    pat = dirac_eigenvalue_pattern(s.n, s.lam)
    print("predicted pattern: %.10f x%d, %.10f x%d"
          % (pat[0][0], pat[0][1], pat[1][0], pat[1][1]))

    # Independent route: the same matrices arise from two-mode oscillator
    # bilinears restricted to the 2n-quanta block.
    rep = jordan_schwinger_check(s.n, s.lam, cutoff=8)
    print("oscillator rebuild deviation %.3e on a %d-dim block"
          % (rep["max_deviation"], rep["block_dim"]))

    # Coordinates are winding-zero bilinears; unbalanced monomials are not.
    for mono in (FockMonomial(1, 0, 0, 1), FockMonomial(2, 0, 1, 0)):
        print("winding of %s = %d" % (mono, winding_number(mono)))


if __name__ == "__main__":
    main()
