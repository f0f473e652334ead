import gc
import hashlib
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from hexad.cone import ConeCochain
from hexad import exactalg, hexagon, hscomplex, simplicial
from hexad.exactalg import (
    MixedSolver,
    MixedSubgroup,
    NonMembership,
    SmithForm,
    smith_form,
)
from hexad.hexagon import (
    HexagonContext,
    Identity,
    OmegaDecomposer,
    check_bunke_schick,
    check_character_compat,
    check_cone_square,
    check_derham_whitney,
    check_dhat_square,
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
from hexad.report import CheckRun
from hexad.sampling import random_cochain, random_combination
from hexad.simplicial import Chain, Cochain, Ring, catalog, catalog_names

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
    t = Cochain.zero(cx, 1, Ring.Q).units()[0]
    bad = DiffCochain(cx, 2, 2, Cochain.zero(cx, 2, Ring.Z), t,
                      WhitneyForm.zero(cx, 2))
    with pytest.raises(ValueError):
        map_I(bad)
    with pytest.raises(ValueError):
        map_R(bad)
    noncocycle = ConeCochain(cx, 1, Cochain.zero(cx, 2, Ring.Z).units()[0],
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
    eta = WhitneyForm.zero(circ, 0).units()[0]
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
    eta = WhitneyForm.zero(cx, 0).units()[0]
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
    for zvec in st.basis:
        c = Cochain(cx, 1, Ring.Z, list(zvec))
        t = random_cochain(rng, cx, 0, Ring.Q).coboundary()
        x = witness_I_surjective(c, t)
        assert map_I(x) == (c, t)
        assert is_cocycle(x)
    # torsion class of H^2(RP^2; Z) is hit by I
    rp2 = catalog("projective-plane")
    tor = rp2.cohomology_structure(2).torsion[0]
    c = Cochain(rp2, 2, Ring.Z, list(tor.gen))
    x = witness_I_surjective(c, Cochain.zero(rp2, 2, Ring.Q))
    assert map_I(x)[0] == c
    with pytest.raises(ValueError):
        witness_I_surjective(Cochain.zero(cx, 1, Ring.Z),
                             Cochain(catalog("circle"), 1, Ring.Q, [1, 0, 0]))


def test_witness_I_decides_its_cocycle_condition_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return is_cocycle(x)
    monkeypatch.setattr(hexagon, "is_cocycle", counting)
    cx = catalog("torus")
    rng = random.Random(9)
    for zvec in cx.cohomology_structure(1).basis:
        c = Cochain(cx, 1, Ring.Z, list(zvec))
        t = random_cochain(rng, cx, 0, Ring.Q).coboundary()
        before = len(calls)
        x = witness_I_surjective(c, t)
        assert calls[before:] == [x]


def test_witness_I_refuses_another_degree_before_any_solve(monkeypatch):
    def refuse(self, k):
        raise AssertionError("solved against delta^%d" % k)
    monkeypatch.setattr(simplicial.SimplicialComplex, "coboundary_smith", refuse)
    cx = catalog("torus")
    with pytest.raises(ValueError, match="the coboundary has degree 2, but "
                       "the cocycle has degree 1"):
        witness_I_surjective(Cochain.zero(cx, 1, Ring.Z),
                             Cochain.zero(cx, 2, Ring.Q))


def test_omega_decomposer_matches_periods():
    cx = catalog("circle")
    dec = OmegaDecomposer(cx, 1)
    w3 = whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q())
    c, t = dec.decompose(w3)
    assert derham_cochain(w3) == c.as_q() + t.coboundary()
    assert dec.decompose(WhitneyForm(cx, 1, [Fraction(1, 2), 0, 0])) is None


def test_omega_decomposer_decides_closedness_once(monkeypatch):
    cx = catalog("torus")
    dec = OmegaDecomposer(cx, 1)
    closed = whitney(Cochain(cx, 1, Ring.Z,
                             list(cx.cohomology_structure(1).basis[0])).as_q())
    not_closed = WhitneyForm.zero(cx, 1).units()[0]
    calls = []
    is_closed = WhitneyForm.is_closed

    def counting(self):
        calls.append(self)
        return is_closed(self)
    monkeypatch.setattr(WhitneyForm, "is_closed", counting)
    assert dec.decompose(closed) is not None
    assert calls == [closed]
    calls.clear()
    assert dec.decompose(not_closed) is None
    assert calls == [not_closed]
    with pytest.raises(ValueError, match="not closed with integer periods"):
        witness_R_surjective(not_closed)


@pytest.mark.parametrize("name", sorted(oracles.TORSION_FACETS))
def test_run_all_checks_pass_on_odd_and_degree_three_torsion(name):
    n_vertices, facets = oracles.TORSION_FACETS[name]
    cx = simplicial.SimplicialComplex.from_facets(name, n_vertices, facets)
    for k in range(1, cx.dim + 2):
        reports = run_all_checks(HexagonContext(cx, k, seed=0, trials=2))
        assert [(r.name, r.counterexample) for r in reports
                if r.status == "FAIL"] == [], k


def test_run_all_checks_pass_on_projective_plane_times_circle():
    # degree 1 only: degrees 2-4 take several seconds each
    n_vertices, facets = oracles.PRODUCT_FACETS["projective-plane-times-circle"]
    cx = simplicial.SimplicialComplex.from_facets(
        "projective-plane-times-circle", n_vertices, facets)
    reports = run_all_checks(HexagonContext(cx, 1, seed=0, trials=2))
    assert [(r.name, r.counterexample) for r in reports
            if r.status == "FAIL"] == []


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
    tor = cx.cohomology_structure(2).torsion[0]
    t = Cochain(cx, 2, Ring.Z, list(tor.gen))
    s = Cochain(cx, 1, Ring.Q, [Fraction(v, tor.order) for v in tor.witness])
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
    # every membership question reads the complex's own Smith forms: the
    # context and the checks build no MixedSolver and no Smith form
    cx = catalog(name)
    built = []
    init = MixedSolver.__init__

    def counting_init(self, subgroup):
        built.append(subgroup)
        init(self, subgroup)

    def counting_smith(m):
        built.append(m)
        return smith_form(m)
    monkeypatch.setattr(MixedSolver, "__init__", counting_init)
    for module in (exactalg, simplicial):
        monkeypatch.setattr(module, "smith_form", counting_smith)
    ctx = HexagonContext(cx, k, seed=1, trials=2)
    assert ctx.bhat_solver is ctx.cone_cb_solver.solver
    assert all(r.ok for r in run_all_checks(ctx))
    assert built == []


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


@pytest.mark.parametrize("name", ["torus", "projective-plane",
                                  "klein-bottle"])
def test_form_node_generators_are_tested_once_per_context(name, monkeypatch):
    # each generator's dhat preimage and solver witness were tested while
    # the context was built; the checks read the kept verdicts
    ctx = HexagonContext(catalog(name), 2, seed=0, trials=3)
    kept = [obj for target in ctx.form_node_gens for obj in target
            if isinstance(obj, DiffCochain)]
    assert len(kept) == 2 * len(ctx.form_node_gens) > 0
    calls = []

    def counting(x):
        calls.append(any(x is y for y in kept))
        return dhat(x)
    monkeypatch.setattr(hexagon, "dhat", counting)
    monkeypatch.setattr(hscomplex, "dhat", counting)
    assert all(r.ok for r in run_all_checks(ctx))
    assert calls and sum(calls) == 0


@pytest.mark.parametrize("name", ["circle", "torus", "projective-plane"])
def test_basis_i_witnesses_are_built_once_per_context(name, monkeypatch):
    # both checks that need the I-witness of (z, 0) read the context's one
    # list, and each witness is one rational solve against delta
    ctx = HexagonContext(catalog(name), 2, seed=0, trials=3)
    solves, basis_calls, per_call = [], [], []
    solve_q = exactalg.SmithForm.solve_q

    def counting_solve(self, b):
        solves.append(b)
        return solve_q(self, b)

    def counting_witness(c, t):
        before = len(solves)
        x = witness_I_surjective(c, t)
        per_call.append(len(solves) - before)
        basis_calls.append(t.is_zero()
                           and any(c is z for z in ctx.cocycle_basis_k))
        return x
    monkeypatch.setattr(exactalg.SmithForm, "solve_q", counting_solve)
    monkeypatch.setattr(hexagon, "witness_I_surjective", counting_witness)
    assert all(r.ok for r in run_all_checks(ctx))
    assert sum(basis_calls) == len(ctx.cocycle_basis_k)
    assert per_call and set(per_call) == {1}


@pytest.mark.parametrize("name,k", [("circle", 1), ("torus", 2),
                                    ("projective-plane", 2)])
def test_a_raising_i_witness_fails_both_checks_that_ask(name, k, monkeypatch):
    # the raise is not kept with the context: each check that reads the
    # basis witnesses fails on it, and the other checks are untouched
    expected = run_all_checks(HexagonContext(catalog(name), k, seed=0,
                                             trials=3))
    ctx = HexagonContext(catalog(name), k, seed=0, trials=3)
    assert ctx.cocycle_basis_k

    def refuse(c, t):
        raise ArithmeticError("I-witness refused")
    monkeypatch.setattr(hexagon, "witness_I_surjective", refuse)
    reports = run_all_checks(ctx)
    asked = ("bunke_schick", "induced_hexagon")
    raised = {"check": "check raised an exception",
              "error_type": "ArithmeticError", "error": "I-witness refused"}
    assert [(r.name, r.status, r.counterexample) for r in reports
            if r.name in asked] == [(n, "FAIL", raised) for n in asked]
    others = [r for r in reports if r.name not in asked]
    assert len(others) == 10 and all(r.ok for r in others)
    assert others == [r for r in expected if r.name not in asked]


def test_witness_R_surjective_does_not_reapply_R(monkeypatch):
    calls = []
    monkeypatch.setattr(hexagon, "map_R", lambda x: calls.append(x) or map_R(x))
    for name, k in (("circle", 1), ("torus", 2), ("projective-plane", 2)):
        ctx = HexagonContext(catalog(name), k, seed=0, trials=1)
        lattice, space = ctx.omega_gens_k
        for omega in lattice + space:
            x = witness_R_surjective(omega)
            assert is_cocycle(x) and x.curvature == omega
    assert calls == []


def _omega_decomposer_samples(rng, cx, m):
    """Forms of degree m: the oracle's generators, integer-period
    combinations of them, the 1/2 and 1/3 multiples of the free classes,
    and eight of those with 1/2 added to one coordinate."""
    n, lattice, space = oracles.oracle_integer_period_generators(cx, m)
    gens = [whitney(Cochain(cx, m, Ring.Q, v)) for v in lattice + space]
    base = gens + [random_combination(rng, WhitneyForm.zero(cx, m),
                                      gens[:len(lattice)], gens[len(lattice):])
                   for _ in range(4)]
    base += [whitney(Cochain(cx, m, Ring.Q, [Fraction(x, den) for x in g]))
             for g in cx.cohomology_structure(m).free for den in (2, 3)]
    if n:
        for eta in rng.sample(base, min(8, len(base))):
            j = rng.randrange(n)
            base.append(eta + WhitneyForm(
                cx, m, [Fraction(int(i == j), 2) for i in range(n)]))
    return base


@pytest.mark.parametrize("name", catalog_names())
def test_omega_decomposer_agrees_with_the_mixed_subgroup_oracle(name):
    # the decomposer decides by periods and splits on the complex's Smith
    # form of delta^{m-1}; the references decide in the hand-laid subgroup
    # (integer cocycles over Z, coboundaries over Q), by MixedSolver and by
    # an independent invariant-factor comparison
    rng = random.Random("omega-oracle@" + name)
    cx = catalog(name)
    outcomes = set()
    for m in range(0, cx.dim + 2):
        dec = OmegaDecomposer(cx, m)
        n, lattice, space = oracles.oracle_integer_period_generators(cx, m)
        decide = MixedSolver(MixedSubgroup(n, lattice, space))
        member = oracles.oracle_mixed_member(n, lattice, space)
        for eta in _omega_decomposer_samples(rng, cx, m):
            got = dec.decompose(eta)
            where = (name, m, eta)
            assert (got is None) == isinstance(decide.membership(eta.row),
                                               NonMembership), where
            assert (got is None) == (not member(eta.coeffs)), where
            if got is not None:
                c, t = got
                assert c.is_cocycle(), where
                assert derham_cochain(eta) == c.as_q() + t.coboundary(), where
            outcomes.add(got is None)
    assert outcomes == {True, False}  # members and non-members were asked


def test_omega_decomposer_raises_when_periods_and_split_disagree(monkeypatch):
    # an integer-period form that does not split is an internal
    # inconsistency, never an ordinary "no solution"
    cx = catalog("circle")
    dec = OmegaDecomposer(cx, 1)
    monkeypatch.setattr(SmithForm, "split", lambda self, b: None)
    with pytest.raises(ArithmeticError):
        dec.decompose(whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q()))
    assert dec.decompose(WhitneyForm(cx, 1, [Fraction(1, 2), 0, 0])) is None


@pytest.mark.parametrize("name", catalog_names())
def test_map_ch_accepts_exactly_the_cochains_killing_every_cycle(
        name, monkeypatch):
    # ch decides "t is a rational coboundary" on the complex's Smith form,
    # with no cycle basis read; the cycle rule in `oracles` is the reference
    rng = random.Random("map-ch@" + name)
    cx = catalog(name)

    def refuse(self, k):
        raise AssertionError("homology_structure called")
    outcomes = set()
    for k in range(cx.dim + 1):
        st = cx.cohomology_structure(k)
        samples = [random_cochain(rng, cx, k - 1, Ring.Q).coboundary()
                   for _ in range(3)]
        samples += [random_cochain(rng, cx, k, Ring.Q) for _ in range(3)]
        classes = list(st.free) + [tor.gen for tor in st.torsion]
        samples += [Cochain(cx, k, Ring.Q, list(g)) + samples[0]
                    for g in classes]
        c = Cochain.zero(cx, k, Ring.Z)
        with monkeypatch.context() as m:
            m.setattr(simplicial.SimplicialComplex, "homology_structure",
                      refuse)
            for t in samples:
                accepted = oracles.oracle_is_rational_coboundary(cx, k,
                                                                 t.values)
                if accepted:
                    assert map_ch(c, t) == t, (name, k, t)
                else:
                    with pytest.raises(ValueError, match="rational coboundary"):
                        map_ch(c, t)
                outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name,k", [("circle", 1), ("projective-plane", 1),
                                    ("projective-plane", 2),
                                    ("klein-bottle", 2), ("torus", 2)])
def test_rational_coboundary_solves_read_the_smith_form(name, k, monkeypatch):
    # every rational solve and rank against delta reads the complex's Smith
    # form: on a built context they run with smith_form made to raise, so
    # the verify path factors nothing once the context is built
    from hexad.cone import les_exactness
    from hexad.plforms import find_primitive
    from hexad.simplicial import cohomology, expected_homology
    cx = catalog(name)
    ctx = HexagonContext(cx, k, seed=3, trials=4)

    def refuse(m):
        raise AssertionError("smith_form called")
    monkeypatch.setattr(exactalg, "smith_form", refuse)
    monkeypatch.setattr(simplicial, "smith_form", refuse)
    rng = random.Random(k)
    zero = Cochain.zero(cx, k, Ring.Q)
    for z in ctx.cocycle_basis_k:
        t = random_cochain(rng, cx, k - 1, Ring.Q).coboundary()
        for target in (zero, t):
            assert map_I(witness_I_surjective(z, target)) == (z, target)
        assert derham_cochain(d(find_primitive(t))) == t
    assert les_exactness(ctx).ok
    assert check_off_diagonal_note(ctx).ok
    assert [cohomology(cx, j, "Q") for j in range(cx.dim + 1)] == [
        expected_homology(name)[j][0] for j in range(cx.dim + 1)]


# SHA-256 of the label and element of every `require` the identity checks
# make on four contexts; reports count witnesses and cannot see which
# element was checked under which label, or in what order
EVALUATED_STREAM_DIGEST = (
    "5c7ec1ec545cbcd634cb11b0f547a1e56b0d48dabd6abf8388b335c9f351dbff")
STREAM_KEYS = ("eta", "z", "w", "x", "y", "degree", "cycle")


def test_evaluated_stream_is_pinned(monkeypatch):
    digest = hashlib.sha256()
    require = CheckRun.require

    def hashing(self, condition, label, **detail):
        digest.update(label.encode("utf-8"))
        for key in STREAM_KEYS:
            if key in detail:
                digest.update(("\t%s=%s" % (key, detail[key])).encode("utf-8"))
        digest.update(b"\n")
        return require(self, condition, label, **detail)
    monkeypatch.setattr(CheckRun, "require", hashing)
    for name, k in (("circle", 1), ("torus", 2), ("projective-plane", 2),
                    ("klein-bottle", 2)):
        ctx = HexagonContext(catalog(name), k, seed=0, trials=3)
        for check in (check_faces, check_dhat_square, check_cone_square,
                      check_derham_whitney, check_main_diagonal,
                      check_induced_hexagon):
            assert check(ctx).status == "PASS", (name, k, check.__name__)
    assert digest.hexdigest() == EVALUATED_STREAM_DIGEST


# SHA-256 of the label and every detail item of every `require` that all
# twelve checks make on five contexts, items sorted by key; the compared
# values `lhs`, `rhs` and `image` are left out
ALL_CHECKS_STREAM_DIGEST = (
    "1bb896a11b7c8b896483c33eaf72900db9470420f964172f81dd5d31a0fe76fa")
UNHASHED_KEYS = {"lhs", "rhs", "image"}


def test_all_checks_stream_is_pinned(monkeypatch):
    digest = hashlib.sha256()
    require = CheckRun.require

    def hashing(self, condition, label, **detail):
        digest.update(label.encode("utf-8"))
        for key in sorted(detail.keys() - UNHASHED_KEYS):
            digest.update(("\t%s=%s" % (key, detail[key])).encode("utf-8"))
        digest.update(b"\n")
        return require(self, condition, label, **detail)
    monkeypatch.setattr(CheckRun, "require", hashing)
    for name, k in (("circle", 1), ("torus", 2), ("projective-plane", 2),
                    ("klein-bottle", 2), ("sphere", 3)):
        ctx = HexagonContext(catalog(name), k, seed=0, trials=3)
        assert all(r.ok for r in run_all_checks(ctx)), (name, k)
    assert digest.hexdigest() == ALL_CHECKS_STREAM_DIGEST


def test_a_false_row_fails_under_its_label():
    # one row is one identity: a false one added to the table fails the
    # check under its own label, at its first generator
    ctx = circle_ctx()
    etas = WhitneyForm.zero(ctx.complex, 0).units()
    ctx.identities["faces"] += (
        Identity(("R(a(eta)) == -d(eta)",), "eta",
                 lambda eta: map_R(map_a(eta)), lambda eta: -d(eta),
                 lambda: etas),)
    report = check_faces(ctx)
    assert report.status == "FAIL"
    assert report.counterexample["check"] == "R(a(eta)) == -d(eta)"
    assert report.counterexample["eta"] == str(etas[0])
    assert report.witness_count == check_faces(circle_ctx()).witness_count


def test_a_map_rejecting_a_row_input_fails_under_the_row_label(monkeypatch):
    def reject(z):
        raise ValueError("beta rejects")
    monkeypatch.setattr(hexagon, "map_beta", reject)
    report = check_faces(circle_ctx())
    assert report.status == "FAIL"
    assert report.counterexample["check"] == (
        "I(i(z)) == beta(z) (map rejected input)")
    assert report.counterexample["error"] == "beta rejects"


def test_each_row_label_gets_one_witness_per_element(monkeypatch):
    # on the circle at degree 1 every label of every row is required once
    # per generator and once per sample, and by nothing else
    ctx = circle_ctx(k=1)
    counts = {}
    require = CheckRun.require

    def counting(self, condition, label, **detail):
        counts[label] = counts.get(label, 0) + 1
        return require(self, condition, label, **detail)
    monkeypatch.setattr(CheckRun, "require", counting)
    for check in (check_faces, check_dhat_square, check_cone_square,
                  check_derham_whitney, check_main_diagonal,
                  check_induced_hexagon):
        assert check(ctx).status == "PASS"
    expected = {}
    for rows in ctx.identities.values():
        for row in rows:
            for label in row.labels:
                expected[label] = (expected.get(label, 0)
                                   + len(row.gens()) + row.count)
    assert len(expected) == 14
    assert {label: counts[label] for label in expected} == expected


def test_each_tabled_label_is_written_once():
    ctx = HexagonContext(catalog("torus"), 2, seed=0, trials=1)
    source = "".join(path.read_text(encoding="utf-8") for path in
                     sorted(Path(hexagon.__file__).parent.glob("*.py")))
    labels = [label for rows in ctx.identities.values() for row in rows
              for label in row.labels]
    assert len(set(labels)) == 14
    for label in set(labels):
        assert source.count(label) == 1, label


def test_a_context_is_freed_without_the_cyclic_collector():
    # the identity table reaches its context weakly, so dropping the last
    # reference frees the context and everything it holds at once
    ctx = circle_ctx()
    assert all(r.ok for r in run_all_checks(ctx))
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()
