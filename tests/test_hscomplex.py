import random
from fractions import Fraction

import pytest

import oracles
from hexad.hexagon import HexagonContext
from hexad.hscomplex import (
    CoboundarySolver,
    DiffCochain,
    dhat,
    evaluate_character,
    format_diff_cochain,
    is_cocycle,
    load_diff_cochain,
)
from hexad.plforms import WhitneyForm, d, derham_cochain, whitney
from hexad.sampling import random_cochain, random_diff_cochain
from hexad.simplicial import Chain, Cochain, Ring, catalog, catalog_names

CIRCLE_CYCLE = [1, -1, 1]


def test_dhat_zero_and_slot_validation():
    cx = catalog("circle")
    x = DiffCochain.zero(cx, 1, 1)
    assert dhat(x).is_zero()
    with pytest.raises(ValueError):
        DiffCochain(cx, 1, 1, Cochain.zero(cx, 1, Ring.Z),
                    Cochain.zero(cx, 0, Ring.Q), None)  # missing curvature
    with pytest.raises(ValueError):
        DiffCochain(cx, 2, 1, Cochain.zero(cx, 1, Ring.Z),
                    Cochain.zero(cx, 0, Ring.Q),
                    WhitneyForm.zero(cx, 1))  # curvature below the level


def test_diff_cochain_scale_is_exact_on_the_integral_slot():
    cx = catalog("circle")
    x = DiffCochain(cx, 1, 1, Cochain(cx, 1, Ring.Z, [2, 0, 0]),
                    Cochain(cx, 0, Ring.Q, [1, 0, 0]),
                    WhitneyForm(cx, 1, [0, 2, 0]))
    y = x.scale(Fraction(3, 2))
    assert y.integral == Cochain(cx, 1, Ring.Z, [3, 0, 0])
    assert y.potential == Cochain(cx, 0, Ring.Q, [Fraction(3, 2), 0, 0])
    assert y.curvature == WhitneyForm(cx, 1, [0, 3, 0])
    odd = DiffCochain(cx, 1, 1, Cochain(cx, 1, Ring.Z, [1, 0, 0]),
                      Cochain.zero(cx, 0, Ring.Q), WhitneyForm.zero(cx, 1))
    with pytest.raises(ValueError):
        odd.scale(Fraction(1, 2))


def test_dhat_circle_example():
    # level 1, degree 1: x = (0, indicator of vertex 0, 0)
    cx = catalog("circle")
    t = Cochain(cx, 0, Ring.Q, [1, 0, 0])
    x = DiffCochain(cx, 1, 1, Cochain.zero(cx, 1, Ring.Z), t,
                    WhitneyForm.zero(cx, 1))
    out = dhat(x)
    assert out.integral.is_zero()
    assert out.curvature.is_zero()
    assert out.potential == -t.coboundary()
    assert out.potential.values == (Fraction(1), Fraction(1), Fraction(0))


@pytest.mark.parametrize("name", ("point", "circle", "sphere",
                                  "projective-plane", "torus", "klein-bottle"))
def test_dhat_squares_to_zero_all_regimes(name):
    rng = random.Random(3)
    cx = catalog(name)
    for q in range(1, cx.dim + 2):
        for deg in (q - 2, q - 1, q):
            for _ in range(15):
                x = random_diff_cochain(rng, cx, q, deg)
                assert dhat(dhat(x)).is_zero()


def test_coboundary_witness_recovered():
    rng = random.Random(5)
    for name in ("circle", "torus"):
        cx = catalog(name)
        for k in range(1, cx.dim + 1):
            solver = CoboundarySolver(cx, k)
            for _ in range(6):
                y = DiffCochain(cx, k, k - 1,
                                random_cochain(rng, cx, k - 1, Ring.Z),
                                random_cochain(rng, cx, k - 2, Ring.Q), None)
                x = dhat(y)
                wit = solver.solve(x)
                assert wit is not None
                assert dhat(wit) == x
                assert is_cocycle(x)


def test_zero_is_coboundary_with_zero_witness():
    cx = catalog("circle")
    x = DiffCochain.zero(cx, 1, 1)
    wit = CoboundarySolver(cx, 1).solve(x)
    assert wit is not None and dhat(wit) == x


def test_circle_generator_is_cocycle_but_not_coboundary():
    cx = catalog("circle")
    c = Cochain(cx, 1, Ring.Z, [1, 0, 0])
    x = DiffCochain(cx, 1, 1, c, Cochain.zero(cx, 0, Ring.Q),
                    whitney(c.as_q()))
    assert is_cocycle(x)
    assert CoboundarySolver(cx, 1).solve(x) is None


def test_nonzero_curvature_is_never_a_coboundary():
    cx = catalog("circle")
    eta = WhitneyForm(cx, 0, [Fraction(1), 0, 0])
    x = DiffCochain(cx, 1, 1, Cochain.zero(cx, 1, Ring.Z),
                    derham_cochain(eta), d(eta))
    assert is_cocycle(x)
    assert CoboundarySolver(cx, 1).solve(x) is None


def test_evaluate_character_examples():
    cx = catalog("circle")
    z = Chain(cx, 1, CIRCLE_CYCLE)
    rng = random.Random(7)
    # coboundaries evaluate to zero on cycles
    for _ in range(10):
        y = DiffCochain(cx, 2, 1, random_cochain(rng, cx, 1, Ring.Z),
                        random_cochain(rng, cx, 0, Ring.Q), None)
        assert evaluate_character(dhat(y), z) == 0
    # a 1-form with holonomy 1/3 around the circle
    eta = WhitneyForm(cx, 1, [Fraction(1, 3), 0, 0])
    x = DiffCochain(cx, 2, 2, Cochain.zero(cx, 2, Ring.Z),
                    derham_cochain(eta), d(eta))
    assert is_cocycle(x)
    assert evaluate_character(x, z) == Fraction(1, 3)
    # additivity in the cocycle and the cycle
    x2 = x + x
    assert evaluate_character(x2, z) == Fraction(2, 3)
    assert evaluate_character(x, z + z) == Fraction(2, 3)


def test_evaluate_character_rejects_bad_input():
    cx = catalog("circle")
    e = Chain.basis(cx, 1, 0)
    eta = WhitneyForm(cx, 1, [Fraction(1, 3), 0, 0])
    x = DiffCochain(cx, 2, 2, Cochain.zero(cx, 2, Ring.Z),
                    derham_cochain(eta), d(eta))
    with pytest.raises(ValueError):
        evaluate_character(x, e)  # not a cycle
    # a non-cocycle triple is rejected outright
    sphere = catalog("sphere")
    t = Cochain.basis(sphere, 1, Ring.Q, 0)
    bad = DiffCochain(sphere, 2, 2, Cochain.zero(sphere, 2, Ring.Z), t,
                      WhitneyForm.zero(sphere, 2))
    assert not is_cocycle(bad)
    cyc = Chain(sphere, 1, list(sphere.homology_structure(1).cycle_basis[0]))
    assert cyc.is_cycle()
    with pytest.raises(ValueError):
        evaluate_character(bad, cyc)


def test_character_shift_invariance():
    rng = random.Random(11)
    cx = catalog("torus")
    st = cx.cohomology_structure(1)
    z_cochain = Cochain(cx, 1, Ring.Z, list(st.cocycle_basis[0]))
    x = DiffCochain(cx, 1, 1, z_cochain, Cochain.zero(cx, 0, Ring.Q),
                    whitney(z_cochain.as_q()))
    hst = cx.homology_structure(0)
    cycles = [Chain(cx, 0, list(c)) for c in hst.free_cycles]
    for _ in range(8):
        y = DiffCochain(cx, 1, 0, random_cochain(rng, cx, 0, Ring.Z),
                        random_cochain(rng, cx, -1, Ring.Q), None)
        shifted = x + dhat(y)
        for cyc in cycles:
            assert evaluate_character(x, cyc) == evaluate_character(shifted, cyc)


def test_diff_cochain_file_round_trip():
    cx = catalog("circle")
    c = Cochain(cx, 1, Ring.Z, [1, 0, 0])
    x = DiffCochain(cx, 1, 1, c, Cochain(cx, 0, Ring.Q, [Fraction(1, 2), 0, 0]),
                    whitney(c.as_q()))
    text = format_diff_cochain(x)
    assert load_diff_cochain(text, cx) == x
    y = DiffCochain(cx, 2, 1, c, Cochain(cx, 0, Ring.Q, [0, 0, 0]), None)
    assert load_diff_cochain(format_diff_cochain(y), cx) == y


def _slot_perturbations(rng, x):
    """x moved in one random coordinate of each nonempty slot: +1 in c,
    +1/2 in T, +1/3 in w."""
    cx, q, k = x.complex, x.level, x.degree
    zero = DiffCochain.zero(cx, q, k)
    out = []
    if cx.n_simplices(k):
        i = rng.randrange(cx.n_simplices(k))
        out.append(x + DiffCochain(cx, q, k, Cochain.basis(cx, k, Ring.Z, i),
                                   zero.potential, zero.curvature))
    if cx.n_simplices(k - 1):
        j = rng.randrange(cx.n_simplices(k - 1))
        out.append(x + DiffCochain(
            cx, q, k, zero.integral,
            Cochain.basis(cx, k - 1, Ring.Q, j).scale(Fraction(1, 2)),
            zero.curvature))
    if x.curvature is not None and cx.n_simplices(k):
        i = rng.randrange(cx.n_simplices(k))
        out.append(x + DiffCochain(
            cx, q, k, zero.integral, zero.potential,
            WhitneyForm.elementary(cx, k, i).scale(Fraction(1, 3))))
    return out


def _diff_cocycle_test_samples(rng, cx, q, k):
    """Basis generators, random cochains, cocycles (dhat images, the zero
    cochain and, at q == k, the hexagon context's generators and samples)
    and those cocycles perturbed in one coordinate of each slot."""
    zero = DiffCochain.zero(cx, q, k)
    samples = [DiffCochain(cx, q, k, Cochain.basis(cx, k, Ring.Z, i),
                           zero.potential, zero.curvature)
               for i in range(cx.n_simplices(k))]
    samples += [DiffCochain(cx, q, k, zero.integral,
                            Cochain.basis(cx, k - 1, Ring.Q, j),
                            zero.curvature)
                for j in range(cx.n_simplices(k - 1))]
    if k >= q:
        samples += [DiffCochain(cx, q, k, zero.integral, zero.potential,
                                WhitneyForm.elementary(cx, k, i))
                    for i in range(cx.n_simplices(k))]
    samples += [random_diff_cochain(rng, cx, q, k) for _ in range(3)]
    cocycles = [zero] + [dhat(random_diff_cochain(rng, cx, q, k - 1))
                         for _ in range(3)]
    if q == k:
        ctx = HexagonContext(cx, k, seed=3, trials=1)
        cocycles += ctx.zhat_lattice + ctx.zhat_space
        cocycles += [ctx.random_zhat(rng) for _ in range(3)]
    samples += cocycles
    for x in cocycles:
        samples += _slot_perturbations(rng, x)
    return samples


@pytest.mark.parametrize("name", catalog_names())
def test_dhat_equals_the_slot_by_slot_construction(name):
    # every level regime, on basis generators, random cochains, cocycles
    # and perturbed cocycles
    rng = random.Random("dhat@" + name)
    cx = catalog(name)
    for q in range(1, cx.dim + 2):
        for k in range(q - 2, q + 2):
            for x in _diff_cocycle_test_samples(rng, cx, q, k):
                got, want = dhat(x), oracles.oracle_dhat(x)
                assert got == want, (name, q, k, x)
                assert repr(got) == repr(want), (name, q, k, x)


@pytest.mark.parametrize("name", catalog_names())
def test_row_level_cocycle_test_agrees_with_the_image(name):
    # every level regime: degree k >= q, k == q - 1 and k < q - 1
    rng = random.Random("cocycle-test@" + name)
    cx = catalog(name)
    outcomes = set()
    for q in range(1, cx.dim + 2):
        for k in range(q - 2, q + 2):
            for x in _diff_cocycle_test_samples(rng, cx, q, k):
                want = oracles.oracle_is_cocycle(x)
                assert is_cocycle(x) == want, (name, q, k, x)
                outcomes.add((k >= q, want))
    # on the point every cochain at or above the level is zero
    assert outcomes == {(True, True), (False, True), (False, False)} | (
        {(True, False)} if cx.dim else set())
