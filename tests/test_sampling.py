import random

import pytest

import oracles
from hexad.cone import ConeCochain
from hexad.hexagon import HexagonContext
from hexad.hscomplex import DiffCochain
from hexad.plforms import WhitneyForm
from hexad.sampling import random_combination
from hexad.simplicial import Cochain, Ring, catalog, catalog_names, combine


def generator_sets(ctx):
    """(label, zero, lattice, space) for every generator set of a context."""
    cx, k = ctx.complex, ctx.degree
    return (
        ("zhat", DiffCochain.zero(cx, k, k), ctx.zhat_lattice, ctx.zhat_space),
        ("cone", ConeCochain.zero(cx, k - 1), ctx.cone_lattice,
         ctx.cone_space),
        ("omega_k", WhitneyForm.zero(cx, k)) + tuple(ctx.omega_gens_k),
        ("omega_km1", WhitneyForm.zero(cx, k - 1)) + tuple(ctx.omega_gens_km1),
        ("closed_km1", WhitneyForm.zero(cx, k - 1), (), ctx.closed_km1),
        ("cocycle_basis_k", Cochain.zero(cx, k, Ring.Z), ctx.cocycle_basis_k,
         ()),
    )


@pytest.mark.parametrize("name", catalog_names())
def test_random_combination_matches_object_by_object_oracle(name):
    cx = catalog(name)
    for k in range(1, cx.dim + 2):
        ctx = HexagonContext(cx, k, seed=5, trials=1)
        for label, zero, lattice, space in generator_sets(ctx):
            for seed in range(3):
                rng = random.Random("%s@%d@%s@%d" % (name, k, label, seed))
                ref_rng = random.Random()
                ref_rng.setstate(rng.getstate())
                got = random_combination(rng, zero, lattice, space)
                want = oracles.oracle_random_combination(ref_rng, zero,
                                                         lattice, space)
                where = (name, k, label, seed)
                assert got == want, where
                assert repr(got) == repr(want), where
                assert rng.getstate() == ref_rng.getstate(), where


def test_combine_checks_compatibility():
    cx = catalog("circle")
    zero = Cochain.zero(cx, 1, Ring.Z)
    with pytest.raises(ValueError):
        combine(zero, [1], [Cochain.basis(cx, 1, Ring.Q, 0)], (), ())
    with pytest.raises(ValueError):
        combine(zero, [1], [Cochain.basis(cx, 0, Ring.Z, 0)], (), ())
    # zero coefficients are skipped, so they never combine anything
    assert combine(zero, [0], [Cochain.basis(cx, 0, Ring.Z, 0)], (), ()) == zero
