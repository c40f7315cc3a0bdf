"""Coherent states and the induced metric on the fuzzy sphere.

An infinitesimal displacement z -> z + dz of a coherent state has spectral
distance g(z) |dz| with g(z) = lam sqrt(4 n^2 (n+1) / (3n - 1)) / (1 + |z|^2).
The demo checks this three ways: the exact coefficient, a finite-difference
quotient at small |dz|, and Richardson extrapolation of that quotient, then
reports how the full Connes supremum compares with the closed-form route.

Run with:  python3 demos/03_coherent_states.py
"""

from fuzzydist import (HalfInteger, build_space, coherent_distance_fd,
                       coherent_metric_coefficient, coherent_route_report,
                       coherent_state, large_n_scaling_deviation,
                       resolution_of_identity_residual,
                       richardson_distance_coefficient)


def main():
    lam = 1.0

    # Overlap with the top basis state follows the stereographic law
    # |<top|z>|^2 = (1 + |z|^2)^(-2n).
    s = build_space(HalfInteger(2), lam)
    for z in (0j, 0.5 + 0j, 1j):
        c = coherent_state(s, z)
        print("z = %s: overlap with top = %.10f, expect %.10f"
              % (z, c.overlap_with_top(), (1.0 + abs(z) ** 2) ** (-s.n.twice)))

    print("\n%6s  %16s  %16s  %16s" % ("n", "coefficient", "fd / |dz|", "richardson"))
    for t in (1, 2, 4):
        n = HalfInteger(t)
        g = coherent_metric_coefficient(n, lam, 0j)
        fd = coherent_distance_fd(n, lam, 1e-4) / 1e-4
        rich = richardson_distance_coefficient(n, lam)
        print("%6s  %16.12f  %16.12f  %16.12f" % (n, g, fd, rich))

    # The closed-form route measures the displacement against a single
    # ladder commutator. The full Connes supremum over the Lipschitz ball is
    # a different functional: the two agree at n = 1, and the ratio drifts
    # away from 1 on either side. The supremum is a certified interval, a
    # point at n = 1/2. Both numbers are reported, not reconciled.
    print("\n%6s  %14s  %30s  %28s" % ("n", "closed/|dz|", "sup/|dz| interval", "ratio interval"))
    for t in (1, 2, 3, 4):
        rep = coherent_route_report(HalfInteger(t), lam)
        print("%6s  %14.8f  [%13.10f, %13.10f]  [%12.10f, %12.10f]"
              % (HalfInteger(t), rep["pipeline"], rep["sup_per_dz"], rep["sup_upper_per_dz"],
                 rep["sup_to_closed_ratio"], rep["sup_upper_to_closed_ratio"]))

    # Large n: the equator-scale distance approaches 2 lam / sqrt(3) from
    # above, with relative deviation 2/(3n). It crosses 1% at n = 67.
    print("\nlarge-n deviation from 2 lam / sqrt(3):")
    for t in (20, 100, 134, 400):
        n = HalfInteger(t)
        print("  n = %5s: %.6f  (2/(3n) = %.6f)"
              % (n, large_n_scaling_deviation(n), 2.0 / (3.0 * t / 2.0)))

    # Coherent projectors integrate to the identity against the SU(2)
    # invariant measure; the quadrature residual vanishes with grid size.
    print("\nresolution of identity residual (n = 1): %.3e"
          % resolution_of_identity_residual(HalfInteger(2), grid=120))


if __name__ == "__main__":
    main()
