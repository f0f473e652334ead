import hashlib
import random
from fractions import Fraction

import pytest

import oracles
from hexad.cone import ConeCochain
from hexad.exactalg import IntRow
from hexad.hexagon import HexagonContext
from hexad.hscomplex import DiffCochain
from hexad.plforms import WhitneyForm
from hexad.sampling import (
    random_chain,
    random_cochain,
    random_combination,
    random_diff_cochain,
    random_ints,
    random_row,
    random_whitney,
)
from hexad.simplicial import (
    Cochain,
    Ring,
    SimplicialComplex,
    catalog,
    catalog_names,
    combine,
)


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


def clone(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def structured_samplers(ctx):
    """(label, sampler, zero, lattice, space): each structured sampler of
    a context with the full generator lists it must agree with."""
    cx, k = ctx.complex, ctx.degree
    return (
        ("zhat", ctx.random_zhat, DiffCochain.zero(cx, k, k),
         ctx.zhat_lattice, ctx.zhat_space),
        ("trivial_zhat", ctx.random_trivial_zhat, DiffCochain.zero(cx, k, k),
         ctx.zhat_lattice[:ctx.n_trivial], ctx.zhat_space),
        ("cone", ctx.random_cone_cocycle, ConeCochain.zero(cx, k - 1),
         ctx.cone_lattice, ctx.cone_space),
        ("omega_k", lambda rng: ctx.random_omega(rng, k),
         WhitneyForm.zero(cx, k)) + tuple(ctx.omega_gens_k),
        ("omega_km1", lambda rng: ctx.random_omega(rng, k - 1),
         WhitneyForm.zero(cx, k - 1)) + tuple(ctx.omega_gens_km1),
    )


@pytest.mark.parametrize("name", catalog_names())
def test_structured_samplers_equal_the_generator_by_generator_sum(name):
    # the closed forms (delta m, m), (-delta m, m + q, W(delta q)) and
    # W(delta q) must draw and return exactly what summing every generator
    # draws and returns
    cx = catalog(name)
    for k in range(1, cx.dim + 2):
        ctx = HexagonContext(cx, k, seed=5, trials=1)
        for label, sampler, zero, lattice, space in structured_samplers(ctx):
            for seed in range(3):
                rng = random.Random("%s@%d@%s@%d" % (name, k, label, seed))
                ref, oracle_rng = clone(rng), clone(rng)
                got = sampler(rng)
                want = random_combination(ref, zero, lattice, space)
                oracle = oracles.oracle_random_combination(oracle_rng, zero,
                                                           lattice, space)
                where = (name, k, label, seed)
                assert got == want == oracle, where
                assert repr(got) == repr(want) == repr(oracle), where
                assert rng.getstate() == ref.getstate(), where
                assert rng.getstate() == oracle_rng.getstate(), where


def test_random_row_equals_fraction_draws():
    for n in (0, 1, 7, 40):
        for seed in range(5):
            rng = random.Random(seed)
            ref = clone(rng)
            row = random_row(rng, n)
            assert row == IntRow.of([oracles.oracle_random_fraction(ref)
                                     for _ in range(n)])
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ring", [Ring.Q, Ring.QMODZ])
def test_rational_cochain_and_form_draws_equal_fraction_draws(ring):
    cx = catalog("torus")
    for deg in range(cx.dim + 1):
        n = cx.n_simplices(deg)
        rng = random.Random(deg)
        ref = clone(rng)
        assert random_cochain(rng, cx, deg, ring) == Cochain(
            cx, deg, ring, [oracles.oracle_random_fraction(ref)
                            for _ in range(n)])
        assert random_whitney(rng, cx, deg) == WhitneyForm(
            cx, deg, [oracles.oracle_random_fraction(ref) for _ in range(n)])
        assert rng.getstate() == ref.getstate()


# The vector draws read getrandbits directly; they must take exactly the
# values, and leave exactly the state, of the randint/choice calls the
# sampling policy names.  Each size is the vertex count of a discrete
# complex (size 0: the point's degree-1 cochains).

STREAM_SIZES = (0, 1, 2, 19, 64)
POLICY_DENOMS = (1, 2, 3, 4, 6)


def randint_draws(rng, n):
    return [rng.randint(-9, 9) for _ in range(n)]


def fraction_draws(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.choice(POLICY_DENOMS))
            for _ in range(n)]


def discrete(n):
    """(complex, degree) whose cochains have n values."""
    if n == 0:
        return catalog("point"), 1
    return SimplicialComplex.from_facets("discrete%d" % n, n,
                                         [(v,) for v in range(n)]), 0


def test_vector_draws_follow_the_randint_and_choice_stream():
    for n in STREAM_SIZES:
        cx, deg = discrete(n)
        assert cx.n_simplices(deg) == n
        for seed in range(100):
            rng = random.Random(seed)
            ref = clone(rng)
            draws = (
                (random_ints(rng, n), randint_draws(ref, n)),
                (random_row(rng, n), IntRow.of(fraction_draws(ref, n))),
                (random_cochain(rng, cx, deg, Ring.Z),
                 Cochain(cx, deg, Ring.Z, randint_draws(ref, n))),
                (random_cochain(rng, cx, deg, Ring.Q),
                 Cochain(cx, deg, Ring.Q, fraction_draws(ref, n))),
                (random_cochain(rng, cx, deg, Ring.QMODZ),
                 Cochain(cx, deg, Ring.QMODZ, fraction_draws(ref, n))),
                (random_whitney(rng, cx, deg),
                 WhitneyForm(cx, deg, fraction_draws(ref, n))),
            )
            for got, want in draws:
                assert got == want, (n, seed)
                assert repr(got) == repr(want), (n, seed)
            assert rng.getstate() == ref.getstate(), (n, seed)


# SHA-256 of every sampler's draws from one stream per (complex, degree);
# reports carry witness counts, not sample values, so a changed draw that
# leaves the identities true is seen here and not in the report digests
SAMPLE_STREAM_DIGEST = (
    "5a5f2c348ec774b7a98313218f2778a1bb34972ca5be62a8579d518ce3a8f22b")


def test_sample_stream_is_pinned():
    digest = hashlib.sha256()
    for name in catalog_names():
        cx = catalog(name)
        for k in range(1, cx.dim + 2):
            ctx = HexagonContext(cx, k, seed=0, trials=3)
            rng = ctx.rng("sample-stream")
            rationals = [z.rational for z in ctx.cone_space]
            draws = [
                ctx.random_zhat(rng),
                ctx.random_trivial_zhat(rng),
                ctx.random_cone_cocycle(rng),
                ctx.random_omega(rng, k),
                ctx.random_omega(rng, k - 1),
                ctx.random_closed(rng),
                ctx.random_coboundary(rng),
                random_combination(rng, Cochain.zero(cx, k, Ring.Z),
                                   ctx.cocycle_basis_k, ()),
                random_combination(rng, Cochain.zero(cx, k - 1, Ring.Q), (),
                                   rationals),
            ]
            draws += [random_cochain(rng, cx, k - 1, ring) for ring in Ring]
            draws += [random_whitney(rng, cx, k - 1),
                      random_chain(rng, cx, k - 1),
                      random_diff_cochain(rng, cx, k, k - 1),
                      random_diff_cochain(rng, cx, k, k),
                      rng.getstate()]
            for value in draws:
                digest.update(repr(value).encode("utf-8"))
                digest.update(b"\n")
    assert digest.hexdigest() == SAMPLE_STREAM_DIGEST
