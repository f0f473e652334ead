"""Seeded random element generation for the verification suites.

Policy: integer entries are uniform in [-9, 9]; rational entries have
numerators in [-9, 9] and denominators from {1, 2, 3, 4, 6}.  Per-check
seeds are derived from the run seed by stable hashing of the check name,
so reports are reproducible byte for byte.

Every draw goes through `random_ints` or `random_row`, which read
`rng.getrandbits` under the rejection rule of `Random._randbelow`: an
integer is 5 bits, redrawn while >= 19, minus 9, and a denominator index
is 3 bits, redrawn while >= 5.  That is the stream `randint(-9, 9)` and
`choice(_DENOMS)` draw, without their per-call overhead.
"""

from __future__ import annotations

import hashlib
import random
from math import lcm

from .exactalg import IntRow
from .hscomplex import DiffCochain
from .plforms import WhitneyForm
from .simplicial import Chain, Cochain, Ring, combine

_DENOMS = (1, 2, 3, 4, 6)
_COMMON_DEN = lcm(*_DENOMS)
# a numerator over _DENOMS[i] is scaled by _SCALES[i] over _COMMON_DEN
_SCALES = tuple(_COMMON_DEN // d for d in _DENOMS)
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed, check_name):
    digest = hashlib.sha256(check_name.encode("utf-8")).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "big")) & _MASK64


def rng_for(base_seed, check_name):
    return random.Random(derive_seed(base_seed, check_name))


def random_ints(rng, n):
    """n integer draws, each uniform in [-9, 9]."""
    getrandbits = rng.getrandbits
    out = []
    for _ in range(n):
        r = getrandbits(5)
        while r >= 19:
            r = getrandbits(5)
        out.append(r - 9)
    return out


def random_row(rng, n):
    """The IntRow of n fraction draws (a numerator in [-9, 9], then a
    denominator from _DENOMS), built over the common denominator of
    _DENOMS without any Fraction object."""
    getrandbits = rng.getrandbits
    nums = []
    for _ in range(n):
        r = getrandbits(5)
        while r >= 19:
            r = getrandbits(5)
        i = getrandbits(3)
        while i >= 5:
            i = getrandbits(3)
        nums.append((r - 9) * _SCALES[i])
    return IntRow(nums, _COMMON_DEN)


def random_chain(rng, complex, degree):
    return Chain(complex, degree,
                 IntRow(random_ints(rng, complex.n_simplices(degree)), 1))


def random_cochain(rng, complex, degree, ring):
    ring = Ring(ring) if not isinstance(ring, Ring) else ring
    n = complex.n_simplices(degree)
    if ring is Ring.Z:
        return Cochain(complex, degree, ring, IntRow(random_ints(rng, n), 1))
    return Cochain(complex, degree, ring, random_row(rng, n))


def random_whitney(rng, complex, degree):
    return WhitneyForm(complex, degree,
                       random_row(rng, complex.n_simplices(degree)))


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
    lattice_coeffs = random_ints(rng, len(lattice_elems))
    space_coeffs = random_row(rng, len(space_elems)).fractions()
    return combine(zero, lattice_coeffs, lattice_elems, space_coeffs, space_elems)
