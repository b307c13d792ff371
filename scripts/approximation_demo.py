#!/usr/bin/env python3
"""Demonstrate the envelope and lattice-approximation machinery.

Prints the largest-modulus-below envelope of x^2 at two resolutions and
then approximates x^2 (with its correct Lipschitz modulus) by a lattice
of segment connectives over d(v0, v1), reporting the exact grid deviation.
"""

from fractions import Fraction as F

from mscott.family import lattice_approximate
from mscott.moduli import Linear, check_modulus, largest_modulus_below
from mscott.parser import parse_formula
from mscott.rationals import RatGrid, format_rational


def main() -> None:
    for step, kmax in ((F(1, 8), 8), (F(1, 16), 16)):
        grid = RatGrid(1, step, F(1))
        env = largest_modulus_below(lambda p: p[0] * p[0], kmax, grid=grid)
        rep = check_modulus(env, grid)
        print(f"envelope of x^2, grid {format_rational(step)}, k_max {kmax}:")
        print(f"  value at 1 = {format_rational(env((F(1),)))}, "
              f"modulus check: {'pass' if rep.passed else 'FAIL'}")

    grid = RatGrid(1, F(1, 8), F(1))
    atomics = (parse_formula("d(v0, v1)"),)
    res = lattice_approximate(lambda p: p[0] * p[0], Linear((F(2),)), F(1, 8), atomics, grid=grid)
    print(f"lattice approximation of x^2 under linear(2):")
    print(f"  leaves = {res.leaves}, grid deviation = {format_rational(res.deviation)}, "
          f"succeeded = {res.succeeded}")


if __name__ == "__main__":
    main()
