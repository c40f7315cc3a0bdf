"""Spectral distances between adjacent pure states, three independent ways.

The closed form, the eigensolver pipeline (trace quotient over commutator
norm), and the exact Kantorovich supremum (the diagonal route of
connes_distance_optimized, the third column) all agree for adjacent pure
states. The quantized geometry is compared against the round sphere geodesic
it approximates.

Run with:  python3 demos/02_pure_state_distances.py
"""

import math

from fuzzydist import (HalfInteger, adjacent_distance_closed_form, arc_length_step,
                       build_dirac, build_space, connes_distance_optimized,
                       distance_lower_bound, pure_state, quantized_polar_angle)


def main():
    lam = 1.0
    n = HalfInteger(3)  # n = 3/2
    s = build_space(n, lam)
    tr = build_dirac(s, "config")

    print("adjacent-state distances at n = %s" % n)
    print("%6s  %14s  %14s  %14s" % ("n3", "closed_form", "pipeline", "optimizer"))
    for n3 in s.n3_values()[1:]:  # lower state of each adjacent pair
        lo = pure_state(s, n3)
        hi = pure_state(s, n3 + HalfInteger(2))
        closed = adjacent_distance_closed_form(n, n3, lam)
        pipe = distance_lower_bound(tr, lo, hi).value
        opt = connes_distance_optimized(tr, lo, hi).value
        print("%6s  %14.10f  %14.10f  %14.10f" % (n3, closed, pipe, opt))

    # The spin-1/2 distance is a known exact value.
    half = HalfInteger(1)
    print("\nspin-1/2 distance = %.12f (expect lam sqrt(3)/2 = %.12f)"
          % (adjacent_distance_closed_form(half, HalfInteger(-1), lam),
             lam * math.sqrt(3.0) / 2.0))

    # Each pure state sits at a quantized latitude. Compare the spectral
    # step against the naive continuum arc evaluated at the lower label:
    # the spectral column is symmetric under reflection through the equator,
    # the naive arc is not, and the two coincide exactly on the n3 = 0 row.
    n = HalfInteger(4)  # n = 2, so an n3 = 0 row exists
    s = build_space(n, lam)
    print("\n%6s  %10s  %14s  %14s" % ("n3", "latitude", "spectral", "arc"))
    for n3 in s.n3_values()[1:]:
        lat = quantized_polar_angle(n, n3)
        spectral = adjacent_distance_closed_form(n, n3, lam)
        arc = arc_length_step(n, n3, lam)
        print("%6s  %10.6f  %14.10f  %14.10f" % (n3, lat, spectral, arc))


if __name__ == "__main__":
    main()
