import random
from fractions import Fraction

import pytest

import oracles
from hexad.cone import (
    ConeCoboundarySolver,
    ConeCochain,
    alpha_cone,
    cone_cocycle_generators,
    cone_cohomology_compare,
    delta_cone,
    gamma_cone,
    les_exactness,
)
from hexad.exactalg import MixedSolver, MixedSubgroup, NonMembership
from hexad.hexagon import HexagonContext
from hexad.sampling import random_cochain, random_combination
from hexad.simplicial import Cochain, Ring, catalog

ALL_NAMES = ("point", "interval", "circle", "sphere", "torus",
             "projective-plane", "klein-bottle")


def test_cone_scale_is_exact_on_the_integral_slot():
    cx = catalog("circle")
    x = ConeCochain(cx, 0, Cochain(cx, 1, Ring.Z, [2, 0, 0]),
                    Cochain(cx, 0, Ring.Q, [1, 0, 0]))
    half = x.scale(Fraction(1, 2))
    assert half.integral == Cochain(cx, 1, Ring.Z, [1, 0, 0])
    assert half.rational == Cochain(cx, 0, Ring.Q, [Fraction(1, 2), 0, 0])
    odd = ConeCochain(cx, 0, Cochain(cx, 1, Ring.Z, [1, 0, 0]),
                      Cochain.zero(cx, 0, Ring.Q))
    with pytest.raises(ValueError):
        odd.scale(Fraction(1, 2))


def test_delta_cone_formula():
    cx = catalog("circle")
    v = Cochain(cx, 0, Ring.Q, [1, 0, 0])
    x = ConeCochain(cx, 0, Cochain.zero(cx, 1, Ring.Z), v)
    out = delta_cone(x)
    assert out.integral.is_zero()
    assert out.rational == v.coboundary()
    u = Cochain(cx, 1, Ring.Z, [1, 0, 0])
    y = ConeCochain(cx, 0, u, Cochain.zero(cx, 0, Ring.Q))
    out = delta_cone(y)
    assert out.integral == -u.coboundary()
    assert out.rational == -u.as_q()


@pytest.mark.parametrize("name", ("circle", "torus", "projective-plane"))
def test_delta_cone_squares_to_zero(name):
    rng = random.Random(2)
    cx = catalog(name)
    for deg in range(-1, cx.dim + 1):
        for _ in range(15):
            x = ConeCochain(cx, deg,
                            random_cochain(rng, cx, deg + 1, Ring.Z),
                            random_cochain(rng, cx, deg, Ring.Q))
            assert delta_cone(delta_cone(x)).is_zero()


def test_alpha_gamma_formulas_and_split_exactness():
    rng = random.Random(4)
    cx = catalog("circle")
    for deg in (0, 1):
        # gamma(alpha(c)) == 0 and gamma(u, v) == -u
        for _ in range(10):
            c = random_cochain(rng, cx, deg, Ring.Q)
            assert gamma_cone(alpha_cone(c)).is_zero()
            u = random_cochain(rng, cx, deg + 1, Ring.Z)
            v = random_cochain(rng, cx, deg, Ring.Q)
            assert gamma_cone(ConeCochain(cx, deg, u, v)) == -u
        # exactness on the basis: kernel of gamma is exactly the alpha image
        for j in range(cx.n_simplices(deg)):
            c = Cochain.basis(cx, deg, Ring.Q, j)
            z = alpha_cone(c)
            assert z.integral.is_zero()
            assert z.rational == c
        # gamma surjectivity through the explicit preimage (-u, 0)
        for i in range(cx.n_simplices(deg + 1)):
            u = Cochain.basis(cx, deg + 1, Ring.Z, i)
            assert gamma_cone(ConeCochain(cx, deg, -u,
                                          Cochain.zero(cx, deg, Ring.Q))) == u
        # elements with zero gamma image are alpha images
        for _ in range(10):
            v = random_cochain(rng, cx, deg, Ring.Q)
            z = ConeCochain(cx, deg, Cochain.zero(cx, deg + 1, Ring.Z), v)
            assert z == alpha_cone(z.rational)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cone_cocycle_generators_are_cocycles(name):
    cx = catalog(name)
    for deg in range(0, cx.dim + 1):
        lattice, space = cone_cocycle_generators(cx, deg)
        for g in lattice + space:
            assert g.is_cocycle()


def test_cone_coboundary_solver_round_trip():
    rng = random.Random(6)
    cx = catalog("torus")
    for deg in (0, 1):
        solver = ConeCoboundarySolver(cx, deg)
        for _ in range(6):
            y = ConeCochain(cx, deg - 1,
                            random_cochain(rng, cx, deg, Ring.Z),
                            random_cochain(rng, cx, deg - 1, Ring.Q))
            x = delta_cone(y)
            wit = solver.solve(x)
            assert wit is not None and delta_cone(wit) == x


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cone_cohomology_compare_all_degrees(name):
    cx = catalog(name)
    for deg in range(0, cx.dim + 1):
        report = cone_cohomology_compare(
            HexagonContext(cx, deg + 1, seed=11, trials=6))
        assert report.status == "PASS", (name, deg, report.counterexample)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_les_exactness_all_degrees(name):
    cx = catalog(name)
    for deg in range(0, cx.dim + 1):
        report = les_exactness(HexagonContext(cx, deg + 1, seed=11, trials=6))
        assert report.status == "PASS", (name, deg, report.counterexample)


def test_compare_covers_torsion_on_projective_plane():
    # H^1(RP^2; Q/Z) = Z/2: the torsion lift is among the sampled targets
    # and its nonzero class is certified by a non-integral pairing
    cx = catalog("projective-plane")
    st = cx.cohomology_structure(2)
    assert len(st.torsion_gens) == 1
    tor = st.torsion_gens[0]
    v = Cochain(cx, 1, Ring.Q, [Fraction(x, tor.order) for x in tor.primitive])
    dv = v.coboundary()
    assert all(x.denominator == 1 for x in dv.values)
    u = Cochain(cx, 2, Ring.Z, [int(x) for x in dv.values])
    z = ConeCochain(cx, 1, u, v)
    assert z.is_cocycle()
    solver = ConeCoboundarySolver(cx, 1)
    assert solver.solve(z) is None  # genuinely nonzero class
    report = cone_cohomology_compare(HexagonContext(cx, 2, seed=3, trials=6))
    assert report.status == "PASS"


def test_comparison_constant_on_cone_classes():
    # [v mod Z] is unchanged when the representative moves by a cone
    # coboundary; the change is the explicit Q/Z coboundary of the shift
    rng = random.Random(12)
    cx = catalog("torus")
    lattice, space = cone_cocycle_generators(cx, 1)
    for z in lattice + space:
        for _ in range(3):
            y = ConeCochain(cx, 0,
                            random_cochain(rng, cx, 1, Ring.Z),
                            random_cochain(rng, cx, 0, Ring.Q))
            shifted = z + delta_cone(y)
            diff = shifted.rational.mod1() - z.rational.mod1()
            assert diff == y.rational.mod1().coboundary()


def test_les_gamma_hits_torsion_on_projective_plane():
    cx = catalog("projective-plane")
    st = cx.cohomology_structure(2)
    tor = st.torsion_gens[0]
    t = Cochain(cx, 2, Ring.Z, list(tor.gen))
    from hexad.exactalg import rational_solve
    v = rational_solve(cx.coboundary_matrix(1),
                       [Fraction(x) for x in t.values])
    assert v is not None
    z = ConeCochain(cx, 1, -t, Cochain(cx, 1, Ring.Q, v.scaled(-1)))
    assert z.is_cocycle()
    assert gamma_cone(z) == t


def _cone_solver_samples(rng, cx, deg):
    """Members and non-members of the cone coboundaries in cone degree deg:
    delta_cone images, torsion lifts, the 1/2 and 1/3 divisible classes,
    random cone cocycles and random cone cochains."""
    lattice, space = cone_cocycle_generators(cx, deg)
    samples = [delta_cone(ConeCochain(cx, deg - 1,
                                      random_cochain(rng, cx, deg, Ring.Z),
                                      random_cochain(rng, cx, deg - 1, Ring.Q)))
               for _ in range(4)]
    samples += lattice[cx.n_simplices(deg):]
    for g in cx.cohomology_structure(deg).free_gens:
        for den in (2, 3):
            v = Cochain(cx, deg, Ring.Q, [Fraction(x, den) for x in g])
            samples.append(ConeCochain(cx, deg, Cochain.zero(cx, deg + 1, Ring.Z),
                                       v))
    samples += [random_combination(rng, ConeCochain.zero(cx, deg),
                                   lattice, space) for _ in range(4)]
    samples += [ConeCochain(cx, deg, random_cochain(rng, cx, deg + 1, Ring.Z),
                            random_cochain(rng, cx, deg, Ring.Q))
                for _ in range(2)]
    return samples


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cone_solver_agrees_with_the_cone_subgroup_oracle(name):
    # the solver decides through dhat and i; the oracle through the mixed
    # subgroup of delta_cone laid out by hand, decided by MixedSolver and
    # by an independent invariant-factor comparison
    rng = random.Random("cone-oracle@" + name)
    cx = catalog(name)
    outcomes = set()
    for deg in range(0, cx.dim + 1):
        solver = ConeCoboundarySolver(cx, deg)
        n, lattice, space = oracles.oracle_cone_coboundary_generators(cx, deg)
        decide = MixedSolver(MixedSubgroup(n, lattice, space))
        member = oracles.oracle_mixed_member(n, lattice, space)
        for z in _cone_solver_samples(rng, cx, deg):
            wit = solver.solve(z)
            res = decide.membership(z._row())
            where = (name, deg, z)
            assert (wit is None) == isinstance(res, NonMembership), where
            coords = list(z.integral.values) + list(z.rational.values)
            assert (wit is None) == (not member(coords)), where
            if wit is not None:
                assert delta_cone(wit) == z, where
            outcomes.add(wit is None)
    assert outcomes == {True, False}  # members and non-members were asked


def _cone_cocycle_test_samples(rng, cx, deg):
    """Basis generators, random cochains, cocycles (delta_cone images and
    the cocycle generators) and those cocycles perturbed in one coordinate
    of each slot: +1 in u, +1/2 in v."""
    zero = ConeCochain.zero(cx, deg)
    samples = [ConeCochain(cx, deg, Cochain.basis(cx, deg + 1, Ring.Z, i),
                           zero.rational)
               for i in range(cx.n_simplices(deg + 1))]
    samples += [ConeCochain(cx, deg, zero.integral,
                            Cochain.basis(cx, deg, Ring.Q, j))
                for j in range(cx.n_simplices(deg))]
    samples += [ConeCochain(cx, deg, random_cochain(rng, cx, deg + 1, Ring.Z),
                            random_cochain(rng, cx, deg, Ring.Q))
                for _ in range(3)]
    lattice, space = cone_cocycle_generators(cx, deg)
    cocycles = [zero] + lattice + space
    cocycles += [delta_cone(ConeCochain(cx, deg - 1,
                                        random_cochain(rng, cx, deg, Ring.Z),
                                        random_cochain(rng, cx, deg - 1,
                                                       Ring.Q)))
                 for _ in range(3)]
    samples += cocycles
    for z in cocycles:
        if cx.n_simplices(deg + 1):
            i = rng.randrange(cx.n_simplices(deg + 1))
            samples.append(z + ConeCochain(
                cx, deg, Cochain.basis(cx, deg + 1, Ring.Z, i), zero.rational))
        if cx.n_simplices(deg):
            j = rng.randrange(cx.n_simplices(deg))
            samples.append(z + ConeCochain(
                cx, deg, zero.integral,
                Cochain.basis(cx, deg, Ring.Q, j).scale(Fraction(1, 2))))
    return samples


@pytest.mark.parametrize("name", ALL_NAMES)
def test_delta_cone_equals_the_slot_by_slot_construction(name):
    rng = random.Random("delta-cone@" + name)
    cx = catalog(name)
    for deg in range(-1, cx.dim + 2):
        for z in _cone_cocycle_test_samples(rng, cx, deg):
            got, want = delta_cone(z), oracles.oracle_delta_cone(z)
            assert got == want, (name, deg, z)
            assert repr(got) == repr(want), (name, deg, z)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_row_level_cone_cocycle_test_agrees_with_the_image(name):
    rng = random.Random("cone-cocycle-test@" + name)
    cx = catalog(name)
    outcomes = set()
    for deg in range(-1, cx.dim + 2):
        for z in _cone_cocycle_test_samples(rng, cx, deg):
            want = oracles.oracle_cone_is_cocycle(z)
            assert z.is_cocycle() == want, (name, deg, z)
            outcomes.add(want)
    assert outcomes == {True, False}
