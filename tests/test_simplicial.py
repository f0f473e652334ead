import random
from fractions import Fraction

import pytest

from hexad.exactalg import FgAbelianGroup, MixedSubgroup, quotient_group
from hexad.simplicial import (
    MAX_FACE_ENUMERATION,
    Chain,
    Cochain,
    ComplexParseError,
    InvalidComplexError,
    Ring,
    SimplicialComplex,
    catalog,
    catalog_names,
    cohomology,
    expected_homology,
    format_cochain,
    load_cochain,
    load_complex,
    validate,
    validate_data,
)
import oracles

ORACLE_FACETS = {
    "point": oracles.POINT,
    "interval": oracles.INTERVAL,
    "circle": oracles.CIRCLE,
    "sphere": oracles.SPHERE,
    "torus": oracles.TORUS,
    "projective-plane": oracles.PROJECTIVE_PLANE,
    "klein-bottle": oracles.KLEIN_BOTTLE,
}


@pytest.mark.parametrize("name", sorted(ORACLE_FACETS))
def test_catalog_matches_oracle_homology(name):
    cx = catalog(name)
    stored = expected_homology(name)
    for k in range(cx.dim + 1):
        rank, torsion = oracles.oracle_homology(list(ORACLE_FACETS[name]), k)
        assert cx.homology_structure(k).group == FgAbelianGroup(rank, tuple(torsion))
        assert stored[k] == (rank, tuple(torsion))


@pytest.mark.parametrize("name", sorted(ORACLE_FACETS))
def test_boundary_squares_to_zero(name):
    cx = catalog(name)
    for k in range(2, cx.dim + 1):
        assert cx.boundary(k - 1).mul(cx.boundary(k)).is_zero()


def test_boundary_matrix_circle_columns():
    cx = catalog("circle")
    m = cx.boundary(1)
    assert (m.rows, m.cols) == (3, 3)
    for j in range(3):
        col = m.column(j)
        assert sorted(col) == [-1, 0, 1]
    # off-range degrees have a zero shape: no 2-simplices on the circle
    off = cx.boundary(2)
    assert (off.rows, off.cols) == (3, 0)


def test_coboundary_indicator_example():
    # indicator of vertex 0 on the circle; edges ordered (0,1),(0,2),(1,2)
    cx = catalog("circle")
    t = Cochain(cx, 0, Ring.Q, [1, 0, 0])
    assert t.coboundary().values == (Fraction(-1), Fraction(-1), Fraction(0))
    const = Cochain(cx, 0, Ring.Q, [1, 1, 1])
    assert const.coboundary().is_zero()


@pytest.mark.parametrize("name", sorted(ORACLE_FACETS))
@pytest.mark.parametrize("ring", (Ring.Z, Ring.Q, Ring.QMODZ))
def test_coboundary_squares_to_zero(name, ring):
    rng = random.Random(9)
    cx = catalog(name)
    for k in range(cx.dim + 1):
        for _ in range(8):
            if ring is Ring.Z:
                vals = [rng.randint(-9, 9) for _ in range(cx.n_simplices(k))]
            else:
                vals = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6]))
                        for _ in range(cx.n_simplices(k))]
            x = Cochain(cx, k, ring, vals)
            assert x.coboundary().coboundary().is_zero()


def test_cohomology_examples():
    assert cohomology(catalog("circle"), 1, Ring.Z) == FgAbelianGroup(1)
    assert cohomology(catalog("sphere"), 1, Ring.Q) == 0
    assert cohomology(catalog("projective-plane"), 2, Ring.Z) == FgAbelianGroup(0, (2,))


@pytest.mark.parametrize("name", sorted(ORACLE_FACETS))
def test_cohomology_ranks_match_universal_coefficients(name):
    cx = catalog(name)
    for k in range(cx.dim + 1):
        hz = cohomology(cx, k, Ring.Z)
        assert hz.rank == cohomology(cx, k, Ring.Q)
        divisible, finite = cohomology(cx, k, Ring.QMODZ)
        hom = cx.homology_structure(k).group
        assert divisible == hom.rank
        assert finite.torsion_factors == hom.torsion_factors


@pytest.mark.parametrize("name", sorted(ORACLE_FACETS))
def test_cohomology_z_matches_quotient_group_oracle(name):
    # H^k(Z) is read off the complex's cohomology structure; quotient_group
    # recomputes cocycles modulo coboundaries from the generators alone
    cx = catalog(name)
    for k in range(cx.dim + 1):
        st = cx.cohomology_structure(k)
        n = cx.n_simplices(k)
        oracle = quotient_group(MixedSubgroup(n, st.cocycle_basis, ()),
                                MixedSubgroup(n, st.coboundary_gens, ()))
        assert cohomology(cx, k, Ring.Z) == oracle


def test_homology_basis_circle_sphere_torus():
    circle = catalog("circle")
    free = circle.homology_structure(1).free_cycles
    assert len(free) == 1
    z = Chain(circle, 1, list(free[0]))
    assert z.is_cycle() and not z.is_zero()
    assert catalog("sphere").homology_structure(1).free_cycles == ()
    assert len(catalog("torus").homology_structure(1).free_cycles) == 2


def test_homology_basis_certified_independent():
    # classes are Z-independent modulo boundaries: membership in the
    # boundary lattice is rejected for nonzero combinations
    from hexad.exactalg import MixedSolver, MixedSubgroup, NonMembership
    cx = catalog("torus")
    free = [Chain(cx, 1, list(v))
            for v in cx.homology_structure(1).free_cycles]
    boundaries = [list(c) for c in cx.homology_structure(1).boundary_gens]
    solver = MixedSolver(MixedSubgroup(cx.n_simplices(1), boundaries, []))
    rng = random.Random(3)
    for _ in range(10):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a == 0 and b == 0:
            a = 1
        combo = free[0].scale(a) + free[1].scale(b)
        res = solver.membership(list(combo.coeffs))
        assert isinstance(res, NonMembership)


def test_torsion_witnesses_on_projective_plane():
    cx = catalog("projective-plane")
    hst = cx.homology_structure(1)
    assert len(hst.torsion_cycles) == 1
    tor = hst.torsion_cycles[0]
    assert tor.order == 2
    cycle = Chain(cx, 1, list(tor.cycle))
    bound = Chain(cx, 2, list(tor.bounding_chain))
    assert cycle.is_cycle()
    assert bound.boundary() == cycle.scale(2)
    cst = cx.cohomology_structure(2)
    assert cst.group == FgAbelianGroup(0, (2,))
    tg = cst.torsion_gens[0]
    gen = Cochain(cx, 2, Ring.Z, list(tg.gen))
    prim = Cochain(cx, 1, Ring.Z, list(tg.primitive))
    assert prim.coboundary() == gen.scale(2)


def test_validate_detects_violations():
    assert validate(catalog("sphere")) == []
    assert validate(catalog("torus")) == []
    viol = validate_data(2, [[(0,), (1,)], [(0, 1), (0, 2)]])
    assert any("outside" in v for v in viol)
    viol = validate_data(3, [[(0,), (1,)], [(0, 1), (1, 2)]])
    assert any("missing face" in v for v in viol)
    viol = validate_data(3, [[(0,), (1,), (2,)], [(1, 0)]])
    assert any("strictly increasing" in v for v in viol)
    with pytest.raises(InvalidComplexError):
        SimplicialComplex("bad", 2, [[(0,), (1,)], [(0, 1), (0, 2)]])


def test_from_facets_closes_faces():
    cx = SimplicialComplex.from_facets("tri", 3, [(0, 1, 2)])
    assert cx.n_simplices(0) == 3
    assert cx.n_simplices(1) == 3
    assert cx.n_simplices(2) == 1


def test_load_complex_and_errors():
    text = """# a triangle ring
name ring3
vertices 3
facet 0 1
facet 1 2
facet 0 2
"""
    cx = load_complex(text)
    assert cx.name == "ring3"
    assert cx.n_simplices(1) == 3
    with pytest.raises(ComplexParseError) as err:
        load_complex("name x\nvertices 2\nfacet 0 5\n")
    assert err.value.line == 3
    assert "5" in str(err.value)
    with pytest.raises(ComplexParseError) as err:
        load_complex("name x\nvertices 2\nfacet 0 q\n")
    assert err.value.line == 3
    with pytest.raises(ComplexParseError):
        load_complex("vertices 2\nfacet 0 1\n")
    with pytest.raises(ComplexParseError):
        load_complex("name x\nfacet 0 1\n")
    with pytest.raises(ComplexParseError):
        load_complex("name x\nvertices 2\nwibble\n")


def _refuse_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("face closure ran on an over-bound file")
    monkeypatch.setattr(SimplicialComplex, "from_facets", refuse)


def test_load_complex_bounds_face_enumeration(monkeypatch):
    # arithmetic only: the closure is never allowed to run on these files
    assert MAX_FACE_ENUMERATION == 1 << 20
    _refuse_closure(monkeypatch)
    # one 30-vertex facet asks for 2^30 - 1 faces
    text = ("name big\nvertices 30\n  facet "
            + " ".join(str(v) for v in range(30)) + "\n")
    with pytest.raises(ComplexParseError) as err:
        load_complex(text)
    assert (err.value.line, err.value.column) == (3, 3)
    assert str(MAX_FACE_ENUMERATION) in str(err.value)
    # the sum runs over facets: a 20-vertex facet fits (2^20 - 1 faces),
    # a second one passes the bound on its own line
    facet20 = "facet " + " ".join(str(v) for v in range(20)) + "\n"
    with pytest.raises(ComplexParseError) as err:
        load_complex("name two\nvertices 21\n" + facet20 + "# gap\n"
                     + "facet " + " ".join(str(v) for v in range(1, 21)))
    assert (err.value.line, err.value.column) == (5, 1)
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(SimplicialComplex, "from_facets",
                        lambda *args: calls.append(args) or "built")
    assert load_complex("name one\nvertices 20\n" + facet20) == "built"
    assert len(calls) == 1


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("mystery-manifold")
    assert "circle" in catalog_names()


def test_cochain_file_round_trip():
    cx = catalog("circle")
    c = Cochain(cx, 1, Ring.Q, [Fraction(1, 2), 0, -3])
    assert load_cochain(format_cochain(c), cx) == c
    z = Cochain(cx, 0, Ring.Z, [1, -2, 0])
    assert load_cochain(format_cochain(z), cx) == z
    with pytest.raises(ComplexParseError):
        load_cochain("degree 1\nring Q\nvalue 0,9 1\n", cx)
    with pytest.raises(ComplexParseError):
        load_cochain("degree 1\nring W\n", cx)


def test_qmodz_representatives_reduced():
    cx = catalog("circle")
    c = Cochain(cx, 0, Ring.QMODZ, [Fraction(7, 3), Fraction(-1, 4), 2])
    assert c.values == (Fraction(1, 3), Fraction(3, 4), Fraction(0))
    assert (c + c).values == (Fraction(2, 3), Fraction(1, 2), Fraction(0))


def test_chain_boundary_and_cycles():
    cx = catalog("circle")
    z = Chain(cx, 1, [1, -1, 1])
    assert z.is_cycle()
    e = Chain.basis(cx, 1, 0)
    assert not e.is_cycle()
    assert e.boundary().coeffs == (-1, 1, 0)


def test_chain_rejects_fractional_coefficients():
    cx = catalog("circle")
    with pytest.raises(ValueError, match="non-integer"):
        Chain(cx, 1, [Fraction(1, 2), 0, 0])
    with pytest.raises(ValueError, match="non-integer"):
        Chain(cx, 1, [1, 0, 0]).scale(Fraction(1, 2))
    assert Chain(cx, 1, [2, 0, 0]).scale(Fraction(1, 2)) == Chain(cx, 1, [1, 0, 0])


@pytest.mark.parametrize("name", sorted(ORACLE_FACETS))
def test_construction_reduces_no_matrix_twice(name, monkeypatch):
    # top-degree cohomology and H_0 reuse the Smith form the complex
    # already keeps instead of reducing their relations matrix again
    import hexad.simplicial as simplicial
    reduced = []
    real = simplicial.smith_form

    def recording(m):
        if m.rows and m.cols:
            reduced.append(m)
        return real(m)

    monkeypatch.setattr(simplicial, "smith_form", recording)
    facets = ORACLE_FACETS[name]
    SimplicialComplex.from_facets(name, 1 + max(max(f) for f in facets), facets)
    assert len(reduced) == len(set(reduced))
