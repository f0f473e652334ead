import random
from fractions import Fraction

import pytest

from hexad.cone import (
    ConeCoboundarySolver,
    ConeCochain,
    alpha_cone,
    cone_cocycle_generators,
    cone_cohomology_compare,
    cone_retraction,
    cone_section,
    delta_cone,
    gamma_cone,
    les_exactness,
)
from hexad.sampling import random_cochain
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
            assert cone_retraction(z) == c
        # gamma surjectivity through the explicit section
        for i in range(cx.n_simplices(deg + 1)):
            u = Cochain.basis(cx, deg + 1, Ring.Z, i)
            assert gamma_cone(cone_section(u)) == u
        # elements with zero gamma image are alpha images
        for _ in range(10):
            v = random_cochain(rng, cx, deg, Ring.Q)
            z = ConeCochain(cx, deg, Cochain.zero(cx, deg + 1, Ring.Z), v)
            assert z == alpha_cone(cone_retraction(z))


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
        report = cone_cohomology_compare(cx, deg, trials=6, seed=11)
        assert report.status == "PASS", (name, deg, report.counterexample)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_les_exactness_all_degrees(name):
    cx = catalog(name)
    for deg in range(0, cx.dim + 1):
        report = les_exactness(cx, deg, trials=6, seed=11)
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
    report = cone_cohomology_compare(cx, 1, trials=6, seed=3)
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
    z = ConeCochain(cx, 1, -t, Cochain(cx, 1, Ring.Q, [-x for x in v]))
    assert z.is_cocycle()
    assert gamma_cone(z) == t
