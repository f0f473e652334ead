"""Acceptance suite: one test per criterion, all arithmetic exact.

Every criterion runs over the complete complex catalog at every hexagon
degree (1 .. dim+1) unless stated otherwise, with seeded randomness so
the run is reproducible.  Each test prints a single summary line.
"""

import json
from fractions import Fraction

import oracles
from hexad.cli import main as cli_main
from hexad.cone import cone_cohomology_compare, les_exactness
from hexad.exactalg import FgAbelianGroup
from hexad import hexagon
from hexad.hexagon import (
    HexagonContext,
    check_bunke_schick,
    check_character_compat,
    check_cone_square,
    check_derham_whitney,
    check_dhat_square,
    check_faces,
    check_induced_hexagon,
    check_main_diagonal,
    map_I,
    map_R,
    map_a,
    run_all_checks,
    witness_I_surjective,
    witness_R_surjective,
)
from hexad.hscomplex import DiffCochain, dhat
from hexad.plforms import integrate, whitney
from hexad.sampling import random_cochain, rng_for
from hexad.simplicial import Chain, Cochain, Ring, catalog, catalog_names, cohomology

SEED = 2024
CATALOG = tuple(catalog_names())

_context_cache = {}


def ctx_for(name, degree, trials=25):
    key = (name, degree, trials)
    if key not in _context_cache:
        _context_cache[key] = HexagonContext(catalog(name), degree,
                                             seed=SEED, trials=trials)
    return _context_cache[key]


def hexagon_degrees(name):
    return range(1, catalog(name).dim + 2)


def all_pairs():
    for name in CATALOG:
        for k in hexagon_degrees(name):
            yield name, k


def test_criterion_01_differentials_square_to_zero():
    # basis elements plus 100 seeded random elements per degree, exact
    for name, k in all_pairs():
        ctx = ctx_for(name, k, trials=100)
        rep = check_dhat_square(ctx)
        assert rep.status == "PASS", (name, k, rep.counterexample)
        rep = check_cone_square(ctx)
        assert rep.status == "PASS", (name, k, rep.counterexample)
    print("PASS criterion 1: dhat^2 = 0 (all three regimes) and "
          "delta_cone^2 = 0 on the whole catalog")


def test_criterion_02_face_identities():
    for name, k in all_pairs():
        rep = check_faces(ctx_for(name, k))
        assert rep.status == "PASS", (name, k, rep.counterexample)
    print("PASS criterion 2: R.a = d, I.i = beta, i.b = a.iota, "
          "ch.I = int.R exactly on spanning bases and samples")


def test_criterion_03_main_diagonal_exactness():
    for name, k in all_pairs():
        # trials=25 drives 25 sampled kernel elements through the witness
        # path; the two zero kernels are certified by a unit pivot per
        # image of a basis of the domain
        rep = check_main_diagonal(ctx_for(name, k))
        assert rep.status == "PASS", (name, k, rep.counterexample)
    print("PASS criterion 3: im(i) = ker(R) witnessed; i and a have zero "
          "kernel by a unit pivot per basis image")


def test_criterion_04_constructive_surjectivity():
    for name, k in all_pairs():
        ctx = ctx_for(name, k)
        rng = rng_for(SEED, "acceptance_c4@%s@%d" % (name, k))
        for _ in range(25):
            omega = ctx.random_omega(rng, k)
            x = witness_R_surjective(omega)
            assert map_R(x) == omega
            c = Cochain.zero(ctx.complex, k, Ring.Z)
            for basis in ctx.cocycle_basis_k:
                n = oracles.oracle_random_int(rng)
                if n:
                    c = c + basis.scale(n)
            t = random_cochain(rng, ctx.complex, k - 1, Ring.Q).coboundary()
            # witness_I_surjective re-verifies that its witness is a
            # cocycle with I image (c, t) before returning it
            xi = witness_I_surjective(c, t)
            assert map_I(xi) == (c, t)
    print("PASS criterion 4: witness_R/witness_I re-verify on 25 random "
          "targets per (complex, degree)")


def test_criterion_05_descent_to_cohomology_hexagon():
    for name, k in all_pairs():
        rep = check_induced_hexagon(ctx_for(name, k))
        assert rep.status == "PASS", (name, k, rep.counterexample)
    # specific group facts, cross-checked against the independent oracle
    for name, facets, degree, expected in [
            ("circle", oracles.CIRCLE, 1, FgAbelianGroup(1)),
            ("projective-plane", oracles.PROJECTIVE_PLANE, 2,
             FgAbelianGroup(0, (2,))),
            ("torus", oracles.TORUS, 1, FgAbelianGroup(2))]:
        assert cohomology(catalog(name), degree, Ring.Z) == expected
        # oracle: H^k(Z) has rank of H_k and torsion of H_{k-1}
        rank_k, _ = oracles.oracle_homology(list(facets), degree)
        _, tors_km1 = (oracles.oracle_homology(list(facets), degree - 1)
                       if degree >= 1 else (0, []))
        assert expected == FgAbelianGroup(rank_k, tuple(tors_km1))
    print("PASS criterion 5: four well-definedness lemmas, both diagonal "
          "sequences, induced faces; H^1(S^1)=Z, H^2(RP^2)=Z/2, H^1(T^2)=Z^2")


def test_criterion_06_character_compatibility():
    for name, k in all_pairs():
        rep = check_character_compat(ctx_for(name, k))
        assert rep.status == "PASS", (name, k, rep.counterexample)
    print("PASS criterion 6: T(boundary b) = int_b omega mod Z exactly; "
          "coboundary characters vanish on cycles")


def test_criterion_07_mapping_cone_comparison_and_les():
    for name in CATALOG:
        cx = catalog(name)
        for deg in range(0, cx.dim + 1):
            rep = cone_cohomology_compare(ctx_for(name, deg + 1))
            assert rep.status == "PASS", (name, deg, rep.counterexample)
            rep = les_exactness(ctx_for(name, deg + 1))
            assert rep.status == "PASS", (name, deg, rep.counterexample)
    # the 2-torsion classes of RP^2 and the Klein bottle are among the
    # sampled targets at degree 1 because H^2(X; Z) has a Z/2 summand
    for name in ("projective-plane", "klein-bottle"):
        tors = catalog(name).cohomology_structure(2).torsion
        assert [t.order for t in tors] == [2]
    print("PASS criterion 7: cone comparison two-sided witnesses plus LES "
          "exactness on all complexes and degrees, 2-torsion included")


def test_criterion_08_derham_whitney_identities():
    for name in CATALOG:
        # the check iterates every internal degree of the complex itself
        rep = check_derham_whitney(ctx_for(name, 1))
        assert rep.status == "PASS", (name, rep.counterexample)
    # explicit torsion-period vanishing on the projective plane
    cx = catalog("projective-plane")
    tor = cx.homology_structure(1).torsion[0]
    cycle = Chain(cx, 1, list(tor.gen))
    rng = rng_for(SEED, "acceptance_c8")
    st = cx.cohomology_structure(1)
    for _ in range(25):
        acc = Cochain.zero(cx, 1, Ring.Q)
        for zvec in st.basis:
            acc = acc + Cochain(cx, 1, Ring.Q, list(zvec)).scale(
                Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])))
        assert integrate(whitney(acc), cycle) == 0
    print("PASS criterion 8: int.W = id, d.W = W.delta, delta.int = int.d "
          "exact everywhere; torsion periods vanish on RP^2")


def test_criterion_09_bunke_schick_axioms():
    for name, k in all_pairs():
        rep = check_bunke_schick(ctx_for(name, k))
        assert rep.status == "PASS", (name, k, rep.counterexample)
    # circle, degree 1: the period-1 constant dies under a with an explicit
    # dhat preimage, the period-1/2 constant survives
    ctx = ctx_for("circle", 1)
    cx = ctx.complex
    one = whitney(Cochain(cx, 0, Ring.Z, [1, 1, 1]).as_q())
    c, t = ctx.decomposer_km1.decompose(one)
    preimage = DiffCochain(cx, 1, 0, -c, -t, None)
    assert dhat(preimage) == map_a(one)
    half = whitney(Cochain(cx, 0, Ring.Q, [Fraction(1, 2)] * 3))
    assert ctx.bhat_solver.solve(map_a(half)) is None
    print("PASS criterion 9: square (3) commutes and sequence (4) is "
          "exactness-witnessed in both directions at the form node")


def test_criterion_10_mutation_sensitivity(monkeypatch):
    ctx = ctx_for("circle", 1, trials=8)
    detected = []
    for name, flip in oracles.sign_flips().items():
        with monkeypatch.context() as patch:
            patch.setattr(hexagon, "map_" + name, flip)
            faces = check_faces(ctx)
            assert faces.status == "FAIL", "mutation %s went undetected" % name
            assert faces.counterexample is not None
            assert any(r.status == "FAIL" for r in run_all_checks(ctx)), name
        detected.append(name)
    assert len(detected) == 9
    print("PASS criterion 10: all 9 single-sign map mutations trigger "
          "failures on the circle at degree 1")


def test_criterion_11_report_determinism(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    args = ["verify", "--complex", "projective-plane", "--degree", "2",
            "--seed", "42", "--trials", "5"]
    assert cli_main(args + ["--report", str(out1)]) == 0
    assert cli_main(args + ["--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["complex"] == "projective-plane"
    assert all(c["status"] != "FAIL" for c in payload["checks"])
    print("PASS criterion 11: verify reports are byte-identical across "
          "re-runs with the same seed")
