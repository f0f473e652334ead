import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hexad import simplicial
from hexad.exactalg import (
    FgAbelianGroup,
    Matrix,
    MixedSubgroup,
    SparseVectors,
    quotient_group,
)
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


@pytest.mark.parametrize("name", sorted(oracles.CATALOG_FACETS))
def test_catalog_matches_oracle_homology(name):
    cx = catalog(name)
    stored = expected_homology(name)
    for k in range(cx.dim + 1):
        rank, torsion = oracles.oracle_homology(
            list(oracles.CATALOG_FACETS[name]), k)
        assert cx.homology_structure(k).group == FgAbelianGroup(rank, tuple(torsion))
        assert stored[k] == (rank, tuple(torsion))


@pytest.mark.parametrize("name", sorted(oracles.CATALOG_FACETS))
def test_boundary_squares_to_zero(name):
    cx = catalog(name)
    for k in range(2, cx.dim + 1):
        dd = oracles.mat_mul(cx.coboundary_matrix(k - 2).transpose(),
                             cx.coboundary_matrix(k - 1).transpose())
        assert dd == Matrix(dd.rows, dd.cols,
                            [[0] * dd.cols for _ in range(dd.rows)])


def test_boundary_matrix_circle_columns():
    cx = catalog("circle")
    m = cx.coboundary_matrix(0).transpose()
    assert (m.rows, m.cols) == (3, 3)
    for j in range(3):
        col = oracles.column(m, j)
        assert sorted(col) == [-1, 0, 1]
    # off-range degrees have a zero shape: no 2-simplices on the circle
    off = cx.coboundary_matrix(1).transpose()
    assert (off.rows, off.cols) == (3, 0)


def test_coboundary_indicator_example():
    # indicator of vertex 0 on the circle; edges ordered (0,1),(0,2),(1,2)
    cx = catalog("circle")
    t = Cochain(cx, 0, Ring.Q, [1, 0, 0])
    assert t.coboundary().values == (Fraction(-1), Fraction(-1), Fraction(0))
    const = Cochain(cx, 0, Ring.Q, [1, 1, 1])
    assert const.coboundary().is_zero()


@pytest.mark.parametrize("name", sorted(oracles.CATALOG_FACETS))
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


@pytest.mark.parametrize("name", sorted(oracles.CATALOG_FACETS))
def test_cohomology_ranks_match_universal_coefficients(name):
    cx = catalog(name)
    for k in range(cx.dim + 1):
        hz = cohomology(cx, k, Ring.Z)
        assert hz.rank == cohomology(cx, k, Ring.Q)
        divisible, finite = cohomology(cx, k, Ring.QMODZ)
        hom = cx.homology_structure(k).group
        assert divisible == hom.rank
        assert finite.torsion_factors == hom.torsion_factors


@pytest.mark.parametrize("name", sorted(oracles.CATALOG_FACETS))
def test_cohomology_z_matches_quotient_group_oracle(name):
    # H^k(Z) is read off the complex's cohomology structure; quotient_group
    # recomputes cocycles modulo coboundaries from the generators alone
    cx = catalog(name)
    for k in range(cx.dim + 1):
        st = cx.cohomology_structure(k)
        n = cx.n_simplices(k)
        delta = cx.coboundary_matrix(k - 1)
        coboundaries = [oracles.column(delta, j) for j in range(delta.cols)]
        oracle = quotient_group(MixedSubgroup(n, st.basis, ()),
                                MixedSubgroup(n, coboundaries, ()))
        assert cohomology(cx, k, Ring.Z) == oracle


@pytest.mark.parametrize("name", sorted(oracles.TORSION_FACETS)
                         + sorted(oracles.PRODUCT_FACETS))
def test_odd_and_degree_three_torsion_presentations(name):
    # M(Z/3, 1), M(Z/5, 1), the suspended projective plane, whose H^3 is
    # Z/2, and RP^2 x S^1, whose H^2 and H^3 are Z/2: both presentations
    # against the oracle's groups and boundaries
    n_vertices, facets = {**oracles.TORSION_FACETS,
                          **oracles.PRODUCT_FACETS}[name]
    cx = SimplicialComplex.from_facets(name, n_vertices, facets)
    by_dim = oracles.close_facets(facets)
    groups = [oracles.oracle_homology(facets, k) for k in range(cx.dim + 1)]
    for k in range(cx.dim + 1):
        assert cx.simplices_of(k) == tuple(by_dim[k])
        n = len(by_dim[k])
        up = oracles.oracle_boundary(by_dim, k + 1)  # boundary_{k+1}
        down = oracles.oracle_boundary(by_dim, k) if k else []  # boundary_k
        delta_prev = [list(col) for col in zip(*down)]  # delta^{k-1}
        rank, torsion = groups[k]
        prev_torsion = groups[k - 1][1] if k else []
        for st, group, image in (
                (cx.homology_structure(k), (rank, torsion), up),
                (cx.cohomology_structure(k), (rank, prev_torsion), delta_prev)):
            assert st.group == FgAbelianGroup(group[0], tuple(group[1]))
            assert [t.order for t in st.torsion] == group[1]
            for t in st.torsion:
                assert [t.order * x for x in t.gen] == [
                    oracles.vec_dot(row, t.witness) for row in image]
        assert cohomology(cx, k, Ring.Q) == (
            n - oracles.oracle_rank(up, len(by_dim.get(k + 1, ())))
            - oracles.oracle_rank(down, n))
    torsion = {k: t for k, (_, t) in enumerate(groups) if t}
    assert torsion == {"moore-3": {1: [3]}, "moore-5": {1: [5]},
                       "suspended-projective-plane": {2: [2]},
                       "projective-plane-times-circle": {1: [2], 2: [2]}}[name]


def test_staircase_products_match_the_benchmark_oracle():
    # the cylinder and the torus from the circle, and RP^2 x S^1: simplex
    # counts and integral homology from the facets alone
    complexes = oracles.perfbench_complexes()
    circle, interval = oracles.CIRCLE, oracles.INTERVAL
    cylinder = oracles.staircase_product(circle, interval, 2)
    torus = oracles.staircase_product(circle, circle, 3)
    assert complexes.homology(cylinder) == [(1, ()), (1, ()), (0, ())]
    assert complexes.homology(torus) == [(1, ()), (2, ()), (1, ())]
    n_vertices, facets = oracles.PRODUCT_FACETS["projective-plane-times-circle"]
    by_dim = oracles.close_facets(facets)
    assert n_vertices == 18
    assert [len(by_dim[k]) for k in range(4)] == [18, 108, 180, 90]
    assert complexes.homology(facets) == [(1, ()), (1, (2,)), (0, (2,)),
                                          (0, ())]


FACE_TABLE_INPUTS = {
    **{name: (len({v for f in facets for v in f}), facets)
       for name, facets in oracles.CATALOG_FACETS.items()},
    **oracles.TORSION_FACETS,
    "T5": oracles.perfbench_complexes().grid_torus(5),
    # dimension 4: delta^3 has 5 faces per simplex, past the unrolled cases
    "double-suspension-projective-plane": (10, oracles.suspension(
        oracles.suspension(oracles.PROJECTIVE_PLANE, 6), 8)),
}


@pytest.mark.parametrize("name", sorted(FACE_TABLE_INPUTS))
def test_one_face_table_serves_boundary_and_coboundary(name):
    # d_{k+1} by the face table against the oracle's dense matrix, with
    # delta^k its transpose and Chain.boundary the same map, and delta^k by
    # coboundary_values against the oracle's face-by-face sum, for every k
    # from -1 to dim + 1: every face count the complex has, and the zero
    # operators off the range
    n_vertices, facets = FACE_TABLE_INPUTS[name]
    cx = (catalog(name) if name in oracles.CATALOG_FACETS
          else SimplicialComplex.from_facets(name, n_vertices, facets))
    by_dim = oracles.close_facets(facets)
    rng = random.Random("faces@" + name)
    for k in range(-1, cx.dim + 2):
        lower, upper = len(by_dim.get(k, ())), len(by_dim.get(k + 1, ()))
        oracle = oracles.oracle_boundary(by_dim, k + 1) if k >= 0 else []
        assert cx.coboundary_matrix(k) == Matrix(
            upper, lower, [[row[j] for row in oracle] for j in range(upper)])
        assert cx.coboundary_matrix(k).transpose() == Matrix(lower, upper,
                                                             oracle)
        for _ in range(4):
            c = [rng.randint(-9, 9) for _ in range(upper)]
            expected = [oracles.vec_dot(row, c) for row in oracle]
            assert cx.boundary_values(k, c) == expected
            assert Chain(cx, k + 1, c).boundary() == Chain(cx, k, expected)
            x = [rng.randint(-9, 9) for _ in range(lower)]
            expected = (oracles.oracle_coboundary_values(
                by_dim.get(k, []), by_dim.get(k + 1, []), x) if k >= 0
                else [0] * upper)
            assert cx.coboundary_values(k, x) == expected
            assert cx.coboundary_values(k, tuple(x)) == expected


def test_homology_basis_circle_sphere_torus():
    circle = catalog("circle")
    free = circle.homology_structure(1).free
    assert len(free) == 1
    z = Chain(circle, 1, list(free[0]))
    assert z.is_cycle() and not z.is_zero()
    assert catalog("sphere").homology_structure(1).free == ()
    assert len(catalog("torus").homology_structure(1).free) == 2


def test_homology_basis_certified_independent():
    # classes are Z-independent modulo boundaries: membership in the
    # boundary lattice is rejected for nonzero combinations
    from hexad.exactalg import MixedSolver, MixedSubgroup, NonMembership
    cx = catalog("torus")
    free = [Chain(cx, 1, list(v))
            for v in cx.homology_structure(1).free]
    bd = cx.coboundary_matrix(1).transpose()
    boundaries = [oracles.column(bd, j) for j in range(bd.cols)]
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
    assert len(hst.torsion) == 1
    tor = hst.torsion[0]
    assert tor.order == 2
    cycle = Chain(cx, 1, list(tor.gen))
    bound = Chain(cx, 2, list(tor.witness))
    assert cycle.is_cycle()
    assert bound.boundary() == cycle.scale(2)
    cst = cx.cohomology_structure(2)
    assert cst.group == FgAbelianGroup(0, (2,))
    tg = cst.torsion[0]
    gen = Cochain(cx, 2, Ring.Z, list(tg.gen))
    prim = Cochain(cx, 1, Ring.Z, list(tg.witness))
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


def test_load_complex_refuses_a_vertex_in_no_facet():
    # three vertices and one edge would load as two 0-simplices, H_0 = Z;
    # the count is refused, and an isolated vertex is written `facet v`
    with pytest.raises(ComplexParseError) as err:
        load_complex("name x\nvertices 3\nfacet 0 1\n")
    assert (err.value.line, err.value.column) == (2, 10)
    assert "vertex 2" in err.value.reason and "'facet 2'" in err.value.reason
    with pytest.raises(ComplexParseError) as err:
        load_complex("name x\n# two unused\n  vertices   4\nfacet 1 3\n")
    assert (err.value.line, err.value.column) == (3, 14)
    assert "vertex 0 " in err.value.reason
    cx = load_complex("name x\nvertices 3\nfacet 0 1\nfacet 2\n")
    assert cx.n_simplices(0) == 3
    assert cx.homology_structure(0).group == FgAbelianGroup(2)


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


def test_the_simplex_bound_admits_every_benchmark_complex(monkeypatch):
    # the catalog and the benchmark's generated complexes, T_3 to T_13 of
    # the grid table and sd(RP^2), counted from their facets; a complex at
    # the bound passes the check and reaches its first Smith form
    complexes = oracles.perfbench_complexes()
    rp2 = catalog("projective-plane").simplices
    facet_lists = list(oracles.CATALOG_FACETS.values())
    facet_lists += [complexes.grid_torus(n)[1] for n in range(3, 14)]
    facet_lists.append(complexes.barycentric_subdivision(
        [s for layer in rp2 for s in layer])[1])
    largest = max(len(layer) for facets in facet_lists
                  for layer in oracles.close_facets(facets).values())
    bound = simplicial.MAX_SIMPLICES_PER_DIMENSION
    assert largest == 507 <= bound  # the edges of T_13

    class Reached(Exception):
        pass

    def reached(m):
        raise Reached
    monkeypatch.setattr(simplicial, "smith_form", reached)
    with pytest.raises(Reached):
        SimplicialComplex("points", bound, [[(v,) for v in range(bound)]])
    with pytest.raises(InvalidComplexError, match="over the limit"):
        SimplicialComplex("points", bound + 1,
                          [[(v,) for v in range(bound + 1)]])


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
    # degree and ring take exactly one argument
    for text, line in (("degree\nring Z\n", 1), ("degree 1 2\nring Z\n", 1),
                       ("degree 1\nring\n", 2), ("degree 1\nring Q Z\n", 2)):
        with pytest.raises(ComplexParseError) as err:
            load_cochain(text, cx)
        assert (err.value.line, err.value.column) == (line, 1)


def test_load_cochain_refuses_degrees_outside_the_complex():
    # a negative degree must not wrap around to the top simplices
    cx = catalog("circle")
    for degree in (-1, 2):
        with pytest.raises(KeyError):
            cx.index_of(degree, (0, 2))
        with pytest.raises(ComplexParseError) as err:
            load_cochain("degree %d\nring Q\nvalue 0,2 5\n" % degree, cx)
        assert (err.value.line, err.value.column) == (3, 7)
    assert cx.index_of(1, (0, 2)) == 1


def _parse_error(text):
    """The (line, column, reason) at which a complex or circle-cochain text
    is refused; a text that opens with `name` is a complex file."""
    with pytest.raises(ComplexParseError) as err:
        if text.startswith("name"):
            load_complex(text)
        else:
            load_cochain(text, catalog("circle"))
    return err.value.line, err.value.column, err.value.reason


@pytest.mark.parametrize("text,where,reason", [
    ("name x\nvertices 1_0\nfacet 0 1\n", (2, 10), "expected a vertex count"),
    ("name x\nvertices 4\nfacet \u0663 1\n", (3, 7), "expected a vertex index"),
    ("name x\nvertices 4\nfacet 0 \uff11\n", (3, 9), "expected a vertex index"),
    ("degree \u0661\nring Q\n", (1, 8), "expected a degree"),
    ("degree 1\nring Q\nvalue 0,\u0661 1_0/3\n", (3, 7), "bad simplex tuple"),
    ("degree 1\nring Q\nvalue 0,1_0 1\n", (3, 7), "bad simplex tuple"),
    ("degree 1\nring Q\nvalue 0,1 1_0/3\n", (3, 11), "expected p or p/q"),
    ("degree 1\nring Q\nvalue 0,1 1/\u0663\n", (3, 11), "expected p or p/q"),
    ("degree 1\nring Q\nvalue 0,1 1/0\n", (3, 11), "expected p or p/q"),
], ids=["count-underscore", "index-arabic-indic", "index-fullwidth",
        "degree-arabic-indic", "simplex-arabic-indic", "simplex-underscore",
        "value-underscore", "value-denominator-arabic-indic", "value-over-zero"])
def test_integers_are_ascii_digits(text, where, reason):
    line, column, got = _parse_error(text)
    assert (line, column) == where and reason in got


def test_signed_ascii_integers_still_load():
    cx = catalog("circle")
    c = load_cochain("degree 1\nring Q\nvalue +0,+1 -3/-4\nvalue 0,2 +5\n", cx)
    assert c.values == (Fraction(3, 4), Fraction(5), Fraction(0))
    assert load_complex("name x\nvertices +2\nfacet 0 +1\n").n_vertices == 2


@pytest.mark.parametrize("text,where,reason", [
    # a vertex value would land on an edge under the second degree
    ("degree 0\nring Z\nvalue 2 7\ndegree 1\n", (4, 1),
     "degree repeats the one on line 1"),
    ("degree 1\nring Z\nvalue 0,1 5\nring Q\nvalue 0,1 1/2\n", (4, 1),
     "ring repeats the one on line 2"),
    ("degree 1\nring Q\nvalue 0,1 1\n  value 0,1 2\n", (4, 3),
     "value for 0,1 repeats the one on line 3"),
    ("name x\nvertices 3\nfacet 0 1\nvertices 2\n", (4, 1),
     "vertices repeats the one on line 2"),
    ("name a\n name b\nvertices 2\nfacet 0 1\n", (2, 2),
     "name repeats the one on line 1"),
    # the other half of the single-valued rule: exactly one argument
    ("name\nvertices 2\nfacet 0 1\n", (1, 1), "name takes one identifier"),
    ("name a b\nvertices 2\nfacet 0 1\n", (1, 1), "name takes one identifier"),
    ("name x\n  vertices\nfacet 0 1\n", (2, 3), "vertices takes one count"),
    ("name x\nvertices 2 3\nfacet 0 1\n", (2, 1), "vertices takes one count"),
    ("degree\nring Q\n", (1, 1), "degree takes one argument"),
    ("degree 1 2\nring Q\n", (1, 1), "degree takes one argument"),
    ("degree 1\n ring # Q\n", (2, 2), "ring takes one argument"),
    ("degree 1\nring Q Z\n", (2, 1), "ring takes one argument"),
], ids=["degree", "ring", "value", "vertices", "name",
        "name-no-argument", "name-two-arguments", "vertices-no-argument",
        "vertices-two-arguments", "degree-no-argument", "degree-two-arguments",
        "ring-no-argument", "ring-two-arguments"])
def test_repeated_directives_are_parse_errors(text, where, reason):
    line, column, got = _parse_error(text)
    assert (line, column) == where and got == reason


def test_qmodz_representatives_reduced():
    cx = catalog("circle")
    c = Cochain(cx, 0, Ring.QMODZ, [Fraction(7, 3), Fraction(-1, 4), 2])
    assert c.values == (Fraction(1, 3), Fraction(3, 4), Fraction(0))
    assert (c + c).values == (Fraction(2, 3), Fraction(1, 2), Fraction(0))


def test_qmodz_cocycles_are_decided_mod_the_denominator():
    # the rational coboundary of the representative may be a nonzero
    # integer vector: the cochain is then a cocycle mod 1, and one whose
    # coboundary is 1/2 is not
    cx = SimplicialComplex.from_facets("tri", 3, [(0, 1, 2)])
    half = Fraction(1, 2)
    mod1_cocycle = Cochain(cx, 1, Ring.QMODZ, [half, 0, half])
    assert Cochain(cx, 1, Ring.Q, mod1_cocycle.row).coboundary().values == (1,)
    assert mod1_cocycle.is_cocycle()
    assert mod1_cocycle.coboundary().is_zero()
    not_cocycle = Cochain(cx, 1, Ring.QMODZ, [half, 0, 0])
    assert Cochain(cx, 1, Ring.Q, not_cocycle.row).coboundary().values == (
        half,)
    assert not not_cocycle.is_cocycle()
    assert not not_cocycle.coboundary().is_zero()


def test_chain_boundary_and_cycles():
    cx = catalog("circle")
    z = Chain(cx, 1, [1, -1, 1])
    assert z.is_cycle()
    e = Chain(cx, 1, [0] * cx.n_simplices(1)).units()[0]
    assert not e.is_cycle()
    assert e.boundary().coeffs == (-1, 1, 0)


def test_chain_rejects_fractional_coefficients():
    cx = catalog("circle")
    with pytest.raises(ValueError, match="non-integer"):
        Chain(cx, 1, [Fraction(1, 2), 0, 0])
    with pytest.raises(ValueError, match="non-integer"):
        Chain(cx, 1, [1, 0, 0]).scale(Fraction(1, 2))
    assert Chain(cx, 1, [2, 0, 0]).scale(Fraction(1, 2)) == Chain(cx, 1, [1, 0, 0])


@pytest.mark.parametrize("name", ["torus", "projective-plane"])
def test_presentation_refuses_a_wrong_kernel_transform(name):
    # the image generators are written in the kernel basis read off v and
    # re-checked against v: one wrong value in any kernel column of v is an
    # ArithmeticError, never a wrong group
    cx = catalog(name)
    f = cx.coboundary_smith(1)
    image = cx.coboundary_matrix(0).transpose().data
    assert f.rank and simplicial._presentation(
        1, f, image, cx.coboundary_smith(0)) == cx.cohomology_structure(1)
    for j in range(f.rank, len(f.v_cols.indices)):
        for t in range(len(f.v_cols.values[j])):
            values = list(f.v_cols.values)
            values[j] = values[j][:t] + [values[j][t] + 1] + values[j][t + 1:]
            wrong = replace(f, v_cols=SparseVectors(f.v_cols.indices,
                                                    tuple(values)))
            with pytest.raises(ArithmeticError, match="kernel lattice"):
                simplicial._presentation(1, wrong, image, cx.coboundary_smith(0))


@pytest.mark.parametrize("name", sorted(oracles.CATALOG_FACETS))
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
    facets = oracles.CATALOG_FACETS[name]
    SimplicialComplex.from_facets(name, 1 + max(max(f) for f in facets), facets)
    assert len(reduced) == len(set(reduced))
