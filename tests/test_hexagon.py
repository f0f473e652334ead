import random
from fractions import Fraction

import pytest

import oracles
from hexad.cone import ConeCochain, delta_cone
from hexad import hexagon
from hexad.exactalg import MixedSolver
from hexad.hexagon import (
    HexagonContext,
    OmegaDecomposer,
    check_bunke_schick,
    check_character_compat,
    check_faces,
    check_induced_hexagon,
    check_main_diagonal,
    check_off_diagonal_note,
    map_I,
    map_R,
    map_a,
    map_b,
    map_beta,
    map_ch,
    map_der,
    map_i,
    map_iota,
    run_all_checks,
    witness_I_surjective,
    witness_R_surjective,
)
from hexad.hscomplex import DiffCochain, dhat, evaluate_character, is_cocycle
from hexad.plforms import WhitneyForm, d, derham_cochain, whitney
from hexad.sampling import random_cochain
from hexad.simplicial import Chain, Cochain, Ring, catalog

CIRCLE_CYCLE = [1, -1, 1]


def circle_ctx(k=1, seed=5, trials=6):
    return HexagonContext(catalog("circle"), k, seed=seed, trials=trials)


def test_map_formulas_on_zero():
    ctx = circle_ctx()
    cx = ctx.complex
    zero_x = DiffCochain.zero(cx, 1, 1)
    c, t = map_I(zero_x)
    assert c.is_zero() and t.is_zero()
    assert map_R(zero_x).is_zero()
    assert map_a(WhitneyForm.zero(cx, 0)).is_zero()
    assert map_i(ConeCochain.zero(cx, 0)).is_zero()
    assert map_ch(Cochain.zero(cx, 1, Ring.Z),
                  Cochain.zero(cx, 1, Ring.Q)).is_zero()


def test_map_preconditions():
    cx = catalog("sphere")
    t = Cochain.basis(cx, 1, Ring.Q, 0)
    bad = DiffCochain(cx, 2, 2, Cochain.zero(cx, 2, Ring.Z), t,
                      WhitneyForm.zero(cx, 2))
    with pytest.raises(ValueError):
        map_I(bad)
    with pytest.raises(ValueError):
        map_R(bad)
    noncocycle = ConeCochain(cx, 1, Cochain.basis(cx, 2, Ring.Z, 0),
                             Cochain.zero(cx, 1, Ring.Q))
    if not noncocycle.is_cocycle():
        with pytest.raises(ValueError):
            map_i(noncocycle)
        with pytest.raises(ValueError):
            map_beta(noncocycle)
    # ch rejects a non-coboundary second slot (circle generator cochain)
    circ = catalog("circle")
    with pytest.raises(ValueError):
        map_ch(Cochain.zero(circ, 1, Ring.Z),
               Cochain(circ, 1, Ring.Q, [1, 0, 0]))
    # b and iota reject non-closed forms
    eta = WhitneyForm.elementary(circ, 0, 0)
    assert not d(eta).is_zero()
    with pytest.raises(ValueError):
        map_b(eta)
    with pytest.raises(ValueError):
        map_iota(eta)


def test_map_a_always_lands_in_cocycles():
    rng = random.Random(1)
    for name in ("circle", "sphere", "torus"):
        cx = catalog(name)
        for k in range(1, cx.dim + 2):
            for _ in range(10):
                eta = WhitneyForm(cx, k - 1,
                                  [Fraction(rng.randint(-9, 9),
                                            rng.choice([1, 2, 3, 4, 6]))
                                   for _ in range(cx.n_simplices(k - 1))])
                assert is_cocycle(map_a(eta))


def test_triangle_identities_pointwise():
    ctx = circle_ctx()
    rng = random.Random(3)
    for z in ctx.cone_lattice + ctx.cone_space:
        assert map_I(map_i(z)) == map_beta(z)
        assert map_R(map_i(z)).is_zero()
    for w in ctx.closed_km1:
        assert map_i(map_b(w)) == map_a(map_iota(w))
    for _ in range(10):
        x = ctx.random_zhat(rng)
        c, t = map_I(x)
        assert map_ch(c, t) == map_der(map_R(x))


def test_a_image_character_on_circle():
    cx = catalog("circle")
    z = Chain(cx, 1, CIRCLE_CYCLE)
    eta = WhitneyForm(cx, 1, [Fraction(1, 3), 0, 0])
    x = map_a(eta)
    assert evaluate_character(x, z) == Fraction(1, 3)


def test_map_b_and_beta_formulas():
    cx = catalog("circle")
    # closed 1-form on the circle: b records its edge integrals
    w = WhitneyForm(cx, 1, [Fraction(1, 3), Fraction(2), Fraction(-1, 6)])
    z = map_b(w)
    assert z.integral.is_zero()
    assert z.rational == derham_cochain(w)
    assert map_iota(w) == w
    # beta on a cone cocycle (delta m, j m)
    m = Cochain(cx, 0, Ring.Z, [1, 0, 0])
    zc = ConeCochain(cx, 0, m.coboundary(), m.as_q())
    u, t = map_beta(zc)
    assert u == -m.coboundary()
    assert t == m.as_q().coboundary()


def test_witness_R_surjective():
    cx = catalog("circle")
    zero = WhitneyForm.zero(cx, 1)
    assert map_R(witness_R_surjective(zero)).is_zero()
    # an exact form gets a witness with nullhomologous class
    eta = WhitneyForm.elementary(cx, 0, 0)
    x = witness_R_surjective(d(eta))
    assert map_R(x) == d(eta)
    # circle form with period 3: the witness class pairs to 3
    w3 = whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q())
    x3 = witness_R_surjective(w3)
    assert map_R(x3) == w3
    assert x3.integral.evaluate(Chain(cx, 1, CIRCLE_CYCLE)) == 3
    # fractional periods are rejected
    with pytest.raises(ValueError):
        witness_R_surjective(WhitneyForm(cx, 1, [Fraction(1, 2), 0, 0]))


def test_witness_I_surjective():
    rng = random.Random(9)
    cx = catalog("torus")
    st = cx.cohomology_structure(1)
    for zvec in st.cocycle_basis:
        c = Cochain(cx, 1, Ring.Z, list(zvec))
        t = random_cochain(rng, cx, 0, Ring.Q).coboundary()
        x = witness_I_surjective(c, t)
        assert map_I(x) == (c, t)
        assert is_cocycle(x)
    # torsion class of H^2(RP^2; Z) is hit by I
    rp2 = catalog("projective-plane")
    tor = rp2.cohomology_structure(2).torsion_gens[0]
    c = Cochain(rp2, 2, Ring.Z, list(tor.gen))
    x = witness_I_surjective(c, Cochain.zero(rp2, 2, Ring.Q))
    assert map_I(x)[0] == c
    with pytest.raises(ValueError):
        witness_I_surjective(Cochain.zero(cx, 1, Ring.Z),
                             Cochain(catalog("circle"), 1, Ring.Q, [1, 0, 0]))


def test_omega_decomposer_matches_periods():
    cx = catalog("circle")
    dec = OmegaDecomposer(cx, 1)
    w3 = whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q())
    c, t = dec.decompose(w3)
    assert derham_cochain(w3) == c.as_q() + t.coboundary()
    assert dec.decompose(WhitneyForm(cx, 1, [Fraction(1, 2), 0, 0])) is None


@pytest.mark.parametrize("name,k", [("point", 1), ("circle", 1), ("circle", 2),
                                    ("sphere", 2), ("projective-plane", 2)])
def test_run_all_checks_pass(name, k):
    ctx = HexagonContext(catalog(name), k, seed=42, trials=6)
    reports = run_all_checks(ctx)
    for report in reports:
        assert report.status != "FAIL", (report.name, report.counterexample)
    names = [r.name for r in reports]
    assert names == sorted(names)


def test_off_diagonal_statuses():
    assert check_off_diagonal_note(circle_ctx()).status == "NOT-EXACT-CONFIRMED"
    point_ctx = HexagonContext(catalog("point"), 1, seed=1, trials=4)
    assert (check_off_diagonal_note(point_ctx).status
            == "NO-COUNTEREXAMPLE-AT-THIS-DEGREE")
    sphere_ctx = HexagonContext(catalog("sphere"), 2, seed=1, trials=4)
    report = check_off_diagonal_note(sphere_ctx)
    assert report.status == "NOT-EXACT-CONFIRMED"
    assert "coboundary_rank" in report.counterexample


@pytest.mark.parametrize("mutation", oracles.SIGN_FLIPS)
def test_single_sign_mutations_are_detected(mutation, monkeypatch):
    ctx = circle_ctx(seed=7)
    monkeypatch.setattr(hexagon, "map_" + mutation,
                        oracles.sign_flips()[mutation])
    report = check_faces(ctx)
    assert report.status == "FAIL", mutation
    assert report.counterexample is not None
    assert "check" in report.counterexample
    assert any(r.status == "FAIL" for r in run_all_checks(ctx)), mutation


def test_canonical_maps_pass_the_mutation_harness_checks():
    ctx = circle_ctx(seed=7)
    assert check_faces(ctx).status == "PASS"
    assert check_main_diagonal(ctx).status == "PASS"


def test_mutation_counterexamples_are_genuine_violations():
    # independent confirmation: under the beta flip some cone generator
    # violates the upper triangle, and under the iota flip some closed
    # form violates the left square
    ctx = circle_ctx(seed=7)
    flips = oracles.sign_flips()
    beta_flip = flips["beta"]
    assert any(map_I(map_i(z)) != beta_flip(z)
               for z in ctx.cone_lattice + ctx.cone_space)
    iota_flip = flips["iota"]
    assert any(map_i(map_b(w)) != map_a(iota_flip(w))
               for w in ctx.closed_km1)


def test_descent_consistency_under_coboundary_shift():
    rng = random.Random(15)
    ctx = HexagonContext(catalog("torus"), 1, seed=3, trials=5)
    cx = ctx.complex
    for _ in range(10):
        x = ctx.random_zhat(rng)
        shift, _ = ctx.random_coboundary(rng)
        xp = x + shift
        assert map_R(x) == map_R(xp)
        c0, t0 = map_I(x)
        c1, t1 = map_I(xp)
        # difference of I images is a coboundary pair with explicit primitive
        m = shift.integral
        assert c1 - c0 == m
        for cyc in ctx.cycles_km1:
            assert evaluate_character(x, cyc) == evaluate_character(xp, cyc)


def test_main_diagonal_kernel_witnesses():
    ctx = HexagonContext(catalog("torus"), 2, seed=13, trials=5)
    rng = random.Random(13)
    cx = ctx.complex
    for _ in range(10):
        z = ctx.random_cone_cocycle(rng)
        eta = ctx.random_closed(rng)
        x = map_i(z) + map_a(eta)
        assert map_R(x).is_zero()
        pre = ConeCochain(cx, 1, -x.integral, x.potential)
        assert pre.is_cocycle()
        assert map_i(pre) == x


def test_bunke_schick_period_examples_on_circle():
    ctx = circle_ctx()
    cx = ctx.complex
    # constant form with value 1 dies under a, with an explicit dhat preimage
    one = whitney(Cochain(cx, 0, Ring.Z, [1, 1, 1]).as_q())
    dec = ctx.decomposer_km1.decompose(one)
    assert dec is not None
    c, t = dec
    y = DiffCochain(cx, 1, 0, -c, -t, None)
    assert dhat(y) == map_a(one)
    assert ctx.bhat_solver.solve(map_a(one)) is not None
    # the constant 1/2 form survives
    half = whitney(Cochain(cx, 0, Ring.Q,
                           [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]))
    assert ctx.bhat_solver.solve(map_a(half)) is None
    assert check_bunke_schick(ctx).status == "PASS"


def test_character_compat_check():
    ctx = HexagonContext(catalog("projective-plane"), 2, seed=21, trials=5)
    assert check_character_compat(ctx).status == "PASS"


def test_induced_hexagon_torsion_injectivity():
    # the i image of the RP^2 torsion cone class is not a coboundary
    cx = catalog("projective-plane")
    ctx = HexagonContext(cx, 2, seed=2, trials=4)
    tor = cx.cohomology_structure(2).torsion_gens[0]
    t = Cochain(cx, 2, Ring.Z, list(tor.gen))
    s = Cochain(cx, 1, Ring.Q, [Fraction(v, tor.order) for v in tor.primitive])
    z = ConeCochain(cx, 1, t, s)
    assert z.is_cocycle()
    assert ctx.bhat_solver.solve(map_i(z)) is None
    assert check_induced_hexagon(ctx).status == "PASS"


def test_context_rejects_bad_degrees():
    cx = catalog("circle")
    with pytest.raises(ValueError):
        HexagonContext(cx, 0)
    with pytest.raises(ValueError):
        HexagonContext(cx, 4)
    with pytest.raises(ValueError):
        HexagonContext(cx, 1, trials=0)


@pytest.mark.parametrize("name,k", [("circle", 1), ("circle", 2),
                                    ("projective-plane", 2), ("torus", 3)])
def test_context_owns_every_membership_solver(name, k, monkeypatch):
    # the context builds bhat (shared with the cone solver), decomposer_k
    # and decomposer_km1; no check builds a solver of its own
    built = []
    init = MixedSolver.__init__

    def counting_init(self, subgroup):
        built.append(subgroup)
        init(self, subgroup)
    monkeypatch.setattr(MixedSolver, "__init__", counting_init)
    ctx = HexagonContext(catalog(name), k, seed=1, trials=2)
    assert len(built) == 3
    assert ctx.bhat_solver is ctx.cone_cb_solver.solver
    run_all_checks(ctx)
    assert len(built) == 3


def test_a_raising_check_fails_under_its_own_report_name(monkeypatch):
    # report name -> the module attribute run_all_checks calls for it
    checks = {
        "validate": "check_validate",
        "dhat_square_zero": "check_dhat_square",
        "delta_cone_square_zero": "check_cone_square",
        "derham_whitney": "check_derham_whitney",
        "character_compatibility": "check_character_compat",
        "faces": "check_faces",
        "main_diagonal": "check_main_diagonal",
        "induced_hexagon": "check_induced_hexagon",
        "bunke_schick": "check_bunke_schick",
        "off_diagonal": "check_off_diagonal_note",
        "cone_comparison": "cone_cohomology_compare",
        "les_exactness": "les_exactness",
    }
    ctx = HexagonContext(catalog("circle"), 1, seed=1, trials=1)
    assert sorted(r.name for r in run_all_checks(ctx)) == sorted(checks)
    for attr in checks.values():
        def boom(ctx, attr=attr):
            raise ArithmeticError(attr)
        monkeypatch.setattr(hexagon, attr, boom)
    reports = run_all_checks(ctx)
    assert {r.name: r.counterexample["error"] for r in reports} == checks
    assert all(r.status == "FAIL" and r.witness_count == 0
               and r.counterexample["error_type"] == "ArithmeticError"
               for r in reports)


@pytest.mark.parametrize("name,k", [("circle", 2), ("torus", 2),
                                    ("projective-plane", 2)])
def test_form_node_generators_are_solved_once_per_context(name, k,
                                                          monkeypatch):
    # the checks decompose only their own random samples one degree down
    # (trials per form node, two form nodes); the generators were solved
    # while the context was built
    trials = 2
    ctx = HexagonContext(catalog(name), k, seed=1, trials=trials)
    assert len(ctx.form_node_gens) == sum(map(len, ctx.omega_gens_km1)) > 0
    calls = []
    decompose = OmegaDecomposer.decompose

    def counting(self, form):
        if self is ctx.decomposer_km1:
            calls.append(form)
        return decompose(self, form)
    monkeypatch.setattr(OmegaDecomposer, "decompose", counting)
    assert all(r.ok for r in run_all_checks(ctx))
    assert len(calls) == 2 * trials
