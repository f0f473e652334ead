import random
from fractions import Fraction

import pytest

from hexad.plforms import (
    NotExactError,
    WhitneyForm,
    d,
    derham_cochain,
    derham_representative,
    find_primitive,
    format_whitney_form,
    in_omega_A,
    integrate,
    load_whitney_form,
    period_vector,
    whitney,
)
from hexad.simplicial import Chain, Cochain, ComplexParseError, Ring, catalog

CIRCLE_CYCLE = [1, -1, 1]  # edges ordered (0,1),(0,2),(1,2)


def random_q_cochain(rng, cx, k):
    return Cochain(cx, k, Ring.Q,
                   [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6]))
                    for _ in range(cx.n_simplices(k))])


def test_integration_normalization():
    cx = catalog("circle")
    w = WhitneyForm.zero(cx, 1).units()[0]
    assert integrate(w, Chain(cx, 1, [0] * cx.n_simplices(1)).units()[0]) == 1
    assert integrate(w, Chain(cx, 1, [0] * cx.n_simplices(1)).units()[2]) == 0
    z = Chain(cx, 1, CIRCLE_CYCLE)
    assert integrate(w.scale(2), z) == 2 * CIRCLE_CYCLE[0]
    with pytest.raises(ValueError):
        integrate(w, Chain(cx, 0, [0] * cx.n_simplices(0)).units()[0])


def test_d_matches_coboundary_of_indicator():
    cx = catalog("circle")
    w0 = WhitneyForm.zero(cx, 0).units()[0]
    x = Cochain(cx, 0, Ring.Q, [1, 0, 0])
    assert derham_cochain(d(w0)) == x.coboundary()
    assert d(WhitneyForm.zero(cx, 0)).is_zero()


@pytest.mark.parametrize("name", ("circle", "sphere", "torus", "klein-bottle"))
def test_whitney_derham_identities(name):
    rng = random.Random(13)
    cx = catalog(name)
    for k in range(cx.dim + 1):
        for _ in range(15):
            x = random_q_cochain(rng, cx, k)
            w = whitney(x)
            assert derham_cochain(w) == x                      # int o W = id
            assert d(w) == whitney(x.coboundary())             # d W = W delta
            assert derham_cochain(d(w)) == x.coboundary()      # delta int = int d
            assert d(d(w)).is_zero()
            # closedness and cocycles are decided on the rows, as d and delta
            assert w.is_closed() == d(w).is_zero() == x.is_cocycle()
            assert d(w).is_closed() and x.coboundary().is_cocycle()


def test_periods_and_omega_A_membership():
    cx = catalog("circle")
    z = Chain(cx, 1, CIRCLE_CYCLE)
    half = WhitneyForm(cx, 1, [Fraction(1, 2), 0, 0])
    pv = period_vector(half)
    assert isinstance(pv, tuple)
    assert len(pv) == 1
    assert abs(pv[0]) == Fraction(1, 2)
    assert not in_omega_A(half)
    three = whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q())
    assert abs(period_vector(three)[0]) == 3
    assert in_omega_A(three)
    assert in_omega_A(WhitneyForm.zero(cx, 1))
    with pytest.raises(ValueError):
        period_vector(WhitneyForm.zero(cx, 0).units()[0])  # not closed


def test_omega_A_invariant_under_exact_shifts():
    rng = random.Random(31)
    cx = catalog("torus")
    st = cx.cohomology_structure(1)
    for zvec in st.basis:
        w = whitney(Cochain(cx, 1, Ring.Z, list(zvec)).as_q())
        eta = whitney(random_q_cochain(rng, cx, 0))
        assert in_omega_A(w) == in_omega_A(w + d(eta))
    frac = whitney(Cochain(cx, 1, Ring.Q,
                           [Fraction(x, 2) for x in st.free[0]]))
    eta = whitney(random_q_cochain(rng, cx, 0))
    assert in_omega_A(frac) == in_omega_A(frac + d(eta)) == False


def test_torsion_periods_vanish_on_projective_plane():
    cx = catalog("projective-plane")
    tor = cx.homology_structure(1).torsion[0]
    cycle = Chain(cx, 1, list(tor.gen))
    rng = random.Random(8)
    st = cx.cohomology_structure(1)
    for _ in range(20):
        acc = Cochain.zero(cx, 1, Ring.Q)
        for zvec in st.basis:
            acc = acc + Cochain(cx, 1, Ring.Q, list(zvec)).scale(
                Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
        w = whitney(acc)
        assert d(w).is_zero()
        assert integrate(w, cycle) == 0


def test_find_primitive_constructs_and_rejects():
    rng = random.Random(19)
    cx = catalog("sphere")
    for _ in range(10):
        t = random_q_cochain(rng, cx, 0).coboundary()
        eta = find_primitive(t)
        assert derham_cochain(d(eta)) == t
    assert find_primitive(Cochain.zero(cx, 1, Ring.Q)).is_zero()
    circle = catalog("circle")
    generator = Cochain(circle, 1, Ring.Q, [1, 0, 0])
    with pytest.raises(NotExactError):
        find_primitive(generator)


def test_derham_representative():
    cx = catalog("circle")
    u = Cochain(cx, 1, Ring.Q, [1, 0, 0])
    s = derham_representative(u)
    assert d(s).is_zero()
    assert abs(period_vector(s)[0]) == 1
    assert derham_representative(Cochain.zero(cx, 1, Ring.Q)).is_zero()
    # cohomologous inputs give forms differing by an exact form
    rng = random.Random(21)
    w = random_q_cochain(rng, cx, 0)
    s2 = derham_representative(u + w.coboundary())
    eta = find_primitive(derham_cochain(s2 - s))
    assert derham_cochain(d(eta)) == derham_cochain(s2 - s)
    sphere = catalog("sphere")
    with pytest.raises(ValueError):
        derham_representative(Cochain(sphere, 0, Ring.Q, [1, 0, 0, 0]))


def test_form_file_round_trip():
    cx = catalog("circle")
    w = WhitneyForm(cx, 1, [Fraction(1, 3), 0, Fraction(-2)])
    text = format_whitney_form(w)
    assert text.splitlines()[0] == "whitney-form"
    assert load_whitney_form(text, cx) == w
    with pytest.raises(ComplexParseError):
        load_whitney_form("degree 1\nring Q\n", cx)
