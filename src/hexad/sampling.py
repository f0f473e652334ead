"""Seeded random element generation for the verification suites.

Policy: integer entries are uniform in [-9, 9]; rational entries have
numerators in [-9, 9] and denominators from {1, 2, 3, 4, 6}.  Per-check
seeds are derived from the run seed by stable hashing of the check name,
so reports are reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .hscomplex import DiffCochain
from .plforms import WhitneyForm
from .simplicial import Chain, Cochain, Ring, combine

_DENOMS = (1, 2, 3, 4, 6)
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed, check_name):
    digest = hashlib.sha256(check_name.encode("utf-8")).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "big")) & _MASK64


def rng_for(base_seed, check_name):
    return random.Random(derive_seed(base_seed, check_name))


def random_int(rng):
    return rng.randint(-9, 9)


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(_DENOMS))


def random_chain(rng, complex, degree):
    return Chain(complex, degree,
                 [random_int(rng) for _ in range(complex.n_simplices(degree))])


def random_cochain(rng, complex, degree, ring):
    ring = Ring(ring) if not isinstance(ring, Ring) else ring
    n = complex.n_simplices(degree)
    if ring is Ring.Z:
        vals = [random_int(rng) for _ in range(n)]
    else:
        vals = [random_fraction(rng) for _ in range(n)]
    return Cochain(complex, degree, ring, vals)


def random_whitney(rng, complex, degree):
    return WhitneyForm(complex, degree,
                       [random_fraction(rng)
                        for _ in range(complex.n_simplices(degree))])


def random_diff_cochain(rng, complex, level, degree):
    curv = random_whitney(rng, complex, degree) if degree >= level else None
    return DiffCochain(complex, level, degree,
                       random_cochain(rng, complex, degree, Ring.Z),
                       random_cochain(rng, complex, degree - 1, Ring.Q),
                       curv)


def random_combination(rng, zero, lattice_elems, space_elems):
    """Random element of the group generated by `lattice_elems` over Z and
    `space_elems` over Q, starting from the given zero element.

    Draws one integer per lattice generator, then one fraction per space
    generator, zeros included, and sums them with `combine`."""
    lattice_coeffs = [random_int(rng) for _ in lattice_elems]
    space_coeffs = [random_fraction(rng) for _ in space_elems]
    return combine(zero, lattice_coeffs, lattice_elems, space_coeffs, space_elems)
