"""Distances on the quantum Hilbert space: pure branches, mixtures, heat.

States here are labeled by a position index n3 and an internal sector label.
Displacing n3 by one step costs a different amount depending on whether the
sector label moves along: the two branch expressions are checked against a
raw eigensolver, then mixtures over the sector are minimized, and thermal
weights interpolate between delta and uniform. Last, the supremum itself on
the quantum triple, whose Dirac operator is D_c (x) I: a product pair is at
its config distance (the slice map), and an entangled pair gets a certified
interval.

Run with:  python3 demos/04_quantum_and_mixed.py
"""

import math

import numpy as np

from fuzzydist import (EnergySpectrum, HalfInteger, ProbabilityProfile, build_dirac,
                       build_space, coherent_state, connes_distance_optimized, delta_matrix,
                       distance, distinct_sector_seminorm_symmetrized, minimize_path_distance,
                       quantum_pure_distance, quantum_seminorm_oracle,
                       same_sector_seminorm, thermal_distance, thermal_prefactor,
                       trace_norm_distance, uniform_minimized_distance)


def main():
    lam = 1.0
    n = HalfInteger(4)  # n = 2

    print("pure displacements at n = %s (seminorm: closed form vs eigensolver)" % n)
    print("%6s  %24s  %24s" % ("n3", "same sector", "distinct sector"))
    for t3 in range(-4, 3, 2):
        n3 = HalfInteger(t3)
        same = same_sector_seminorm(n, lam, n3)
        same_orc = quantum_seminorm_oracle(n, lam, n3, n, n)
        dist = distinct_sector_seminorm_symmetrized(n, lam, n3)
        dist_orc = quantum_seminorm_oracle(n, lam, n3, n3, n3 + HalfInteger(2))
        print("%6s  %11.8f | %10.8f  %11.8f | %10.8f"
              % (n3, same, same_orc, dist, dist_orc))

    # Between distinct sectors the Connes supremum is infinite (the sector
    # projectors commute with D), so that column is the lower-bound formula.
    print("\nsame-sector distance vs distinct-sector 2/seminorm (never cheaper):")
    for t3 in range(-4, 3, 2):
        n3 = HalfInteger(t3)
        d_same = quantum_pure_distance(n, lam, n3, True)
        d_dist = quantum_pure_distance(n, lam, n3, False)
        print("  n3 = %4s:  %.10f  <=  %.10f" % (n3, d_same, d_dist))

    # Mixing over the sector can only help. For the full path across a
    # spin-1 sphere the optimal profile is uniform, certified two ways:
    # the stationarity residual of the uniform profile vanishes, and a
    # 20-start projected gradient search lands on it.
    n = HalfInteger(2)
    uniform = ProbabilityProfile.uniform(n)
    cert = delta_matrix(n, lam, uniform, HalfInteger(-2), HalfInteger(2))
    print("\nuniform-profile stationarity residual: %.3e" % cert.residual)

    out = minimize_path_distance(n, lam, HalfInteger(-2), HalfInteger(2),
                                 starts=20, seed=42)
    dev = max(np.abs(out["profile"].at(HalfInteger(t)) - 1.0 / 3.0).max()
              for t in (-2, 0, 2))
    print("minimizer: distance %.10f, max deviation from uniform %.1e"
          % (out["distance"], dev))

    d_closed = uniform_minimized_distance(n, lam, HalfInteger(0))
    d_func = trace_norm_distance(n, lam, HalfInteger(0), uniform)
    print("uniform one-step distance: closed %.12f, functional %.12f" % (d_closed, d_func))

    # Thermal mixtures. The distance carries a prefactor sqrt(Z(2b))/Z(b)
    # pinned between 1/sqrt(levels) and 1; at two levels and beta = ln 2 it
    # is exactly sqrt(5)/3.
    two_level = EnergySpectrum(np.array([0.0, 1.0]))
    print("\ntwo-level prefactor at beta = ln 2: %.12f (expect sqrt(5)/3 = %.12f)"
          % (thermal_prefactor(two_level, math.log(2.0)), math.sqrt(5.0) / 3.0))

    spectrum = EnergySpectrum.default(n, lam)
    print("thermal distance at n = 1, n3 = 0:")
    for beta in (0.0, 0.5, 1.0, 2.0, 8.0):
        print("  beta = %4.1f: %.10f" % (beta, thermal_distance(n, lam, HalfInteger(0), spectrum, beta)))
    print("  (beta = 0 equals the uniform value %.10f)" % d_closed)

    # The quantum triple's D is D_c (x) I, so for any right state sigma the
    # pair rho (x) sigma -> rho' (x) sigma is at the config distance of
    # rho -> rho'. At n = 1/2 every config pair is exact.
    s = build_space(HalfInteger(1), lam)
    rho, rho2 = (coherent_state(s, z).projector() for z in (0j, 0.5 + 0.25j))
    sigma = np.diag([0.7, 0.3])
    config = connes_distance_optimized(build_dirac(s, "config"), rho, rho2)
    quantum = connes_distance_optimized(build_dirac(s, "quantum"), np.kron(rho, sigma),
                                        np.kron(rho2, sigma))
    print("\nslice map at n = 1/2, coherent z = 0 -> 0.5 + 0.25i:")
    print("  config  %.12f (%s)" % (config.value, config.method))
    print("  quantum %.12f (%s), right state diag(0.7, 0.3)" % (quantum.value, quantum.method))

    # An entangled pair with equal marginals has no config counterpart; the
    # log-barrier method brackets its supremum.
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    got = distance._certified_supremum(build_dirac(s, "quantum"), np.diag([0.5, 0.0, 0.0, 0.5]),
                                       np.outer(psi, psi))
    print("entangled pair diag(1/2, 0, 0, 1/2) -> (|00) + |11))/sqrt 2: [%.10f, %.10f] (%s),"
          " sqrt(6)/4 = %.10f" % (got.value, got.upper, got.method, math.sqrt(6.0) / 4.0))


if __name__ == "__main__":
    main()
