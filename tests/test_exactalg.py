import random
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from hexad.exactalg import (
    FgAbelianGroup,
    IntRow,
    Matrix,
    MixedSolver,
    MixedSubgroup,
    MixedWitness,
    NonMembership,
    column_lattice_basis,
    hnf_solve,
    kernel_basis,
    quotient_group,
    rational_kernel,
    rational_rank,
    rational_solve,
    smith_form,
    xgcd,
)
from hexad.simplicial import SimplicialComplex, catalog
from oracles import (
    CATALOG_FACETS,
    CIRCLE,
    PRODUCT_FACETS,
    TORSION_FACETS,
    DenseSmith,
    close_facets,
    column,
    dense_transforms,
    det_bareiss,
    mat_mul,
    mat_vec,
    oracle_boundary,
    oracle_smith_diagonal,
    oracle_solve,
    reference_smith_form,
    verify_non_membership,
    verify_witness,
    perfbench_complexes,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return Matrix(rows, cols,
                  [[rng.randint(lo, hi) for _ in range(cols)]
                   for _ in range(rows)])


def transforms(f):
    """(u, v, u_inv) of a SmithForm as dense square Matrix objects."""
    return tuple(Matrix(len(t), len(t), t) for t in dense_transforms(f))


def test_xgcd_basic():
    for a, b in product(range(-12, 13), repeat=2):
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_snf_identity_and_zero():
    ident = Matrix(3, 3, [[int(i == j) for j in range(3)] for i in range(3)])
    f = smith_form(ident)
    assert f.diagonal == (1, 1, 1) and f.rank == 3
    u, v, _ = transforms(f)
    assert u == ident and v == ident
    zero = smith_form(Matrix(2, 3, [[0] * 3 for _ in range(2)]))
    assert zero.diagonal == (0, 0) and zero.rank == 0


def test_snf_circle_boundary_matches_textbook_reduction():
    # boundary_1 of the 3-vertex circle reduces to diag(1, 1, 0)
    by_dim = close_facets(CIRCLE)
    b1 = oracle_boundary(by_dim, 1)
    m = Matrix.from_rows(b1, cols=3)
    f = smith_form(m)
    assert f.diagonal == (1, 1, 0)
    assert oracle_smith_diagonal(b1) == [1, 1]


def test_snf_random_invariants():
    rng = random.Random(11)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        f = smith_form(m)
        u, v, u_inv = transforms(f)
        diag = f.diagonal
        assert len(diag) == min(m.rows, m.cols)
        assert mat_mul(mat_mul(u, m), v) == Matrix(
            m.rows, m.cols, [[diag[i] if i == j else 0 for j in range(m.cols)]
                             for i in range(m.rows)])
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        assert mat_mul(u, u_inv) == Matrix(
            m.rows, m.rows, [[int(i == j) for j in range(m.rows)]
                             for i in range(m.rows)])
        assert f.rank == sum(1 for x in diag if x != 0)
        for i in range(len(diag)):
            assert diag[i] >= 0
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            elif b != 0:
                assert b % a == 0
        # invariant factors agree with the independent oracle
        assert [x for x in diag if x != 0] == oracle_smith_diagonal(
            [list(r) for r in m.data])


def test_kernel_and_column_lattice():
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        for vec in kernel_basis(m):
            assert all(x == 0 for x in mat_vec(m.data, vec))
        basis = column_lattice_basis(m)
        if basis:
            bm = Matrix.from_columns(basis, rows=m.rows)
            for j in range(m.cols):
                sol = rational_solve(bm, [Fraction(x) for x in column(m, j)])
                assert sol is not None
                assert sol.den == 1


def test_matrix_refuses_data_of_the_wrong_shape():
    assert Matrix.from_columns([[1, 2]], rows=2).data == ((1,), (2,))
    for columns in ([[1, 2, 3]], [[1]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            Matrix.from_columns(columns, rows=2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2, 3]], cols=2)


def test_hnf_solve_trivial_cases():
    assert hnf_solve(Matrix(1, 1, [[2]]), [4]) == [2]
    assert hnf_solve(Matrix(1, 1, [[2]]), [3]) is None


def test_hnf_solve_circle_boundary_with_enumeration_oracle():
    by_dim = close_facets(CIRCLE)
    m = Matrix.from_rows(oracle_boundary(by_dim, 1), cols=3)
    rng = random.Random(7)
    for _ in range(20):
        chain = [rng.randint(-2, 2) for _ in range(3)]
        b = mat_vec(m.data, chain)
        x = hnf_solve(m, b)
        assert x is not None and mat_vec(m.data, x) == b
        # brute-force enumeration confirms a small solution exists
        found = None
        for cand in product(range(-3, 4), repeat=3):
            if mat_vec(m.data, list(cand)) == b:
                found = cand
                break
        assert found is not None


def test_hnf_solve_random_consistency():
    rng = random.Random(23)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = [rng.randint(-4, 4) for _ in range(m.cols)]
        b = mat_vec(m.data, x0)
        x = hnf_solve(m, b)
        assert x is not None and mat_vec(m.data, x) == b


def test_rational_solve_examples():
    ident = Matrix(2, 2, [[1, 0], [0, 1]])
    b = [Fraction(3), Fraction(1, 2)]
    assert rational_solve(ident, b) == IntRow.of(b)
    m = Matrix(2, 2, [[1, 1], [2, 2]])
    assert rational_solve(m, [1, 3]) is None
    x = rational_solve(m, [1, 2])
    assert x is not None and sum(x.fractions()) == 1


def test_rational_kernel_and_rank():
    rng = random.Random(2)
    for _ in range(60):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = Matrix(rows, cols,
                   [[Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                     for _ in range(cols)] for _ in range(rows)])
        assert rational_rank(m) + len(rational_kernel(m)) == cols
        for vec in rational_kernel(m):
            assert all(v == 0 for v in mat_vec(m.data, vec))


def test_mixed_membership_examples():
    s1 = MixedSubgroup(1, [[2]], [])
    assert isinstance(MixedSolver(s1).membership([0]), MixedWitness)
    res = MixedSolver(s1).membership([1])
    assert isinstance(res, NonMembership)
    assert verify_non_membership([1], s1, res)
    s2 = MixedSubgroup(2, [[2, 0]], [[0, 1]])
    res2 = MixedSolver(s2).membership([4, Fraction(1, 3)])
    assert isinstance(res2, MixedWitness)
    assert res2.lattice_coeffs == (2,)
    assert res2.space_coeffs == IntRow.of([Fraction(1, 3)])


def test_mixed_membership_sound_and_complete():
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(250):
        n = rng.randint(1, 5)
        lattice = [[rng.randint(-4, 4) for _ in range(n)]
                   for _ in range(rng.randint(0, 3))]
        space = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                  for _ in range(n)] for _ in range(rng.randint(0, 2))]
        sub = MixedSubgroup(n, lattice, space)
        solver = MixedSolver(sub)
        # membership by construction is always accepted with a witness
        x = [Fraction(0)] * n
        for g in lattice:
            z = rng.randint(-3, 3)
            x = [a + z * gi for a, gi in zip(x, g)]
        for g in space:
            q = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            x = [a + q * gi for a, gi in zip(x, g)]
        res = solver.membership(x)
        assert isinstance(res, MixedWitness)
        assert verify_witness(x, sub, res)
        # arbitrary vectors: every answer carries re-verifiable evidence
        y = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5]))
             for _ in range(n)]
        res = solver.membership(y)
        if isinstance(res, MixedWitness):
            accepted += 1
            assert verify_witness(y, sub, res)
        else:
            rejected += 1
            assert verify_non_membership(y, sub, res)
    assert accepted > 0 and rejected > 0


def test_smith_split_examples():
    # 1/2 = 0 + 2 * 1/4; nothing rational can be split off a 1 x 0 matrix
    c, x = smith_form(Matrix(1, 1, [[2]])).split([Fraction(1, 2)])
    assert (c, x) == ([0], IntRow((1,), 4))
    assert smith_form(Matrix(1, 0, [[]])).split([Fraction(1, 2)]) is None
    assert smith_form(Matrix(1, 0, [[]])).split(IntRow((3,), 1)) == (
        [3], IntRow((), 1))
    # the circle's delta^0 (edges 01, 12, 02): a cochain splits exactly when
    # its period b01 + b12 - b02 is an integer
    delta0 = Matrix(3, 3, [[-1, 1, 0], [0, -1, 1], [-1, 0, 1]])
    f = smith_form(delta0)
    assert f.split([Fraction(1, 2)] * 3) is None
    b = [Fraction(1, 2), Fraction(1, 2), 0]
    c, x = f.split(b)
    assert [ci + v
            for ci, v in zip(c, mat_vec(delta0.data, x.fractions()))] == b
    with pytest.raises(ValueError):
        f.split([0, 0])


SPLIT_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                          database=None)
split_fractions = st.builds(Fraction, st.integers(-6, 6),
                            st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def split_queries(draw):
    """A small integer matrix m (0 rows or 0 columns allowed) and a b that
    is an integer vector plus m times a rational vector, moved in one
    coordinate by a fraction half the time."""
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    m = Matrix(n, k, [[draw(st.integers(-3, 3)) for _ in range(k)]
                      for _ in range(n)])
    b = [draw(st.integers(-3, 3)) + v
         for v in mat_vec(m.data, [draw(split_fractions) for _ in range(k)])]
    if n and draw(st.booleans()):
        b[draw(st.integers(0, n - 1))] += draw(split_fractions)
    return m, [Fraction(v) for v in b]


@SPLIT_PROPERTY
@given(split_queries())
def test_smith_split_is_sound_and_complete(case):
    # complete: split answers exactly when MixedSolver finds b in Z^n + m Q^k;
    # sound: the split is an integral c and a rational x with c + m x == b
    m, b = case
    res = smith_form(m).split(b)
    assert res == smith_form(m).split(IntRow.of(b))
    oracle = MixedSolver(MixedSubgroup(
        m.rows, [[int(i == j) for j in range(m.rows)] for i in range(m.rows)],
        [column(m, j) for j in range(m.cols)]))
    assert (res is not None) == isinstance(oracle.membership(b), MixedWitness)
    if res is not None:
        c, x = res
        assert all(type(v) is int for v in c)
        assert [ci + v for ci, v in zip(c, mat_vec(m.data, x.fractions()))] == b


@SPLIT_PROPERTY
@given(split_queries())
def test_smith_solve_q_answers_exactly_when_elimination_does(case):
    # split_queries moves b off m Q^k by a fraction half the time, so both
    # answers occur; 0-row and 0-column matrices are drawn too
    m, b = case
    x = smith_form(m).solve_q(b)
    assert x == smith_form(m).solve_q(IntRow.of(b))
    assert (x is None) == (oracle_solve(m.data, m.cols, b) is None)
    if x is not None:
        assert mat_vec(m.data, x.fractions()) == b


def test_smith_solve_q_examples():
    # 1/2 = 2 * 1/4 over Q though not over Z; a 1 x 0 matrix solves only 0
    assert smith_form(Matrix(1, 1, [[2]])).solve_q([1]) == IntRow((1,), 2)
    assert smith_form(Matrix(1, 0, [[]])).solve_q([0]) == IntRow((), 1)
    assert smith_form(Matrix(1, 0, [[]])).solve_q([1]) is None
    assert smith_form(Matrix(0, 2, [])).solve_q([]) == IntRow((0, 0), 1)
    # the circle's delta^0: a rational coboundary has zero period
    delta0 = Matrix(3, 3, [[-1, 1, 0], [0, -1, 1], [-1, 0, 1]])
    assert smith_form(delta0).solve_q([1, 0, 0]) is None
    x = smith_form(delta0).solve_q([Fraction(1, 2), 0, Fraction(1, 2)])
    assert mat_vec(delta0.data, x.fractions()) == [Fraction(1, 2), 0,
                                                   Fraction(1, 2)]
    with pytest.raises(ValueError):
        smith_form(delta0).solve_q([0, 0])


def test_in_image_q_decides_what_solve_q_answers():
    # seeded random matrices and every catalog delta^k, with right-hand
    # sides m x (inside the image) and random ones (mostly outside)
    rng = random.Random(23)
    mats = [random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), -3, 3)
            for _ in range(120)]
    for name in sorted(CATALOG_FACETS):
        cx = catalog(name)
        mats += [cx.coboundary_matrix(k) for k in range(-1, cx.dim + 1)]
    outcomes = set()
    for m in mats:
        f = smith_form(m)
        x = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
             for _ in range(m.cols)]
        inside = mat_vec(m.data, x)
        outside = [Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                   for _ in range(m.rows)]
        for b in (inside, outside):
            answer = f.in_image_q(b)
            assert answer == (f.solve_q(b) is not None)
            assert answer == f.in_image_q(IntRow.of(b))
            outcomes.add(answer)
        assert f.in_image_q(inside)
        with pytest.raises(ValueError):
            f.in_image_q([0] * (m.rows + 1))
    assert outcomes == {True, False}


# name -> (vertex count, facets); the catalog complexes are built by name
SMITH_INPUTS = {**TORSION_FACETS, **PRODUCT_FACETS,
                "T5": perfbench_complexes().grid_torus(5)}


def smith_complex(name):
    if name in CATALOG_FACETS:
        return catalog(name)
    if name == "sd-projective-plane":
        rp2 = catalog("projective-plane")
        n_vertices, facets = perfbench_complexes().barycentric_subdivision(
            [s for layer in rp2.simplices for s in layer])
    else:
        n_vertices, facets = SMITH_INPUTS[name]
    return SimplicialComplex.from_facets(name, n_vertices, facets)


def _is_sparse(vectors, count, n):
    # `count` vectors of length n, each listing its nonzero entries once,
    # in index order
    indices, values = vectors
    return (len(indices) == len(values) == count
            and all(len(idx) == len(vals) and all(vals)
                    and idx == sorted(set(idx)) and all(0 <= i < n for i in idx)
                    for idx, vals in zip(indices, values)))


@pytest.mark.parametrize("name", sorted(CATALOG_FACETS) + sorted(SMITH_INPUTS)
                         + ["sd-projective-plane"])
def test_sparse_smith_products_agree_with_the_dense_reference(name):
    # every coboundary Smith form of the complex: split, solve_q, solve,
    # in_image_q and kernel() against today's dense products, on right-hand
    # sides inside the rational and the integral image, inside Z^n plus the
    # rational image, and random ones (mostly outside all three)
    cx = smith_complex(name)
    rng = random.Random("sparse-smith@" + name)
    outcomes = set()
    for k in range(-1, cx.dim + 1):
        m = cx.coboundary_matrix(k)
        f = cx.coboundary_smith(k)
        ref = DenseSmith(f)
        assert _is_sparse(f.u_rows, m.rows, m.rows)
        assert _is_sparse(f.u_inv_cols, m.rows, m.rows)
        assert _is_sparse(f.v_cols, m.cols, m.cols)
        assert f.kernel() == ref.kernel()
        for j in range(m.rows):
            assert ref.u_times_u_inv_column(j) == [int(i == j)
                                                   for i in range(m.rows)]
        for _ in range(3):
            x = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                 for _ in range(m.cols)]
            z = [rng.randint(-6, 6) for _ in range(m.cols)]
            lift = [rng.randint(-3, 3) + v for v in mat_vec(m.data, x)]
            outside = [Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                       for _ in range(m.rows)]
            for b in (mat_vec(m.data, x), mat_vec(m.data, z), lift, outside):
                assert f.split(b) == ref.split(b)
                assert f.solve_q(b) == ref.solve_q(b)
                assert f.solve(b) == ref.solve(b)
                assert f.in_image_q(b) == ref.in_image_q(b)
                outcomes.add((f.split(b) is None, f.solve_q(b) is None,
                              f.solve(b) is None))
    assert (False, False, False) in outcomes
    if cx.dim >= 1:
        assert (True, True, True) in outcomes


def test_no_smith_form_field_is_a_dense_matrix():
    # the transforms are kept sparse only; a dense copy would be a Matrix
    for name in sorted(CATALOG_FACETS):
        cx = catalog(name)
        for k in range(-1, cx.dim + 1):
            f = cx.coboundary_smith(k)
            assert not [field.name for field in fields(f)
                        if isinstance(getattr(f, field.name), Matrix)]


REFERENCE_TORI = {"T%d" % n: perfbench_complexes().grid_torus(n)
                  for n in range(3, 7)}


@pytest.mark.parametrize("name", sorted(CATALOG_FACETS) + sorted(REFERENCE_TORI)
                         + ["sd-projective-plane"])
def test_smith_form_equals_the_full_scan_reference_on_complexes(name):
    # the pivot scan stops at the first unit and the transforms are updated
    # by whole vectors; every field must equal that of the reduction that
    # reads every entry and keeps dense rows, on each coboundary matrix and
    # its transpose
    if name in REFERENCE_TORI:
        cx = SimplicialComplex.from_facets(name, *REFERENCE_TORI[name])
    else:
        cx = smith_complex(name)
    for k in range(-1, cx.dim + 1):
        for m in (cx.coboundary_matrix(k), cx.coboundary_matrix(k).transpose()):
            assert smith_form(m) == reference_smith_form(m), k


@st.composite
def small_matrices(draw):
    """Integer matrices up to 6x6 with entries in [-6, 6], empty shapes
    included."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return Matrix(rows, cols, [[draw(st.integers(-6, 6)) for _ in range(cols)]
                               for _ in range(rows)])


@SPLIT_PROPERTY
@given(small_matrices())
@example(Matrix(2, 2, [[2, 0], [0, 3]]))  # the divisibility chain
@example(Matrix(1, 2, [[2, 3]]))  # a column xgcd step
@example(Matrix(2, 1, [[2], [3]]))  # a row xgcd step
def test_smith_form_equals_the_full_scan_reference(m):
    assert smith_form(m) == reference_smith_form(m)


def test_quotient_group_examples():
    z = MixedSubgroup(1, [[1]], [])
    b = MixedSubgroup(1, [[2]], [])
    assert quotient_group(z, b) == FgAbelianGroup(0, (2,))
    z2 = MixedSubgroup(2, [[1, 0], [0, 1]], [])
    assert quotient_group(z2, MixedSubgroup(2, [], [])) == FgAbelianGroup(2)
    with pytest.raises(ValueError):
        quotient_group(b, z)


def test_quotient_group_circle_cohomology():
    # 1-cocycles mod 1-coboundaries of the circle: H^1(S^1; Z) = Z
    by_dim = close_facets(CIRCLE)
    delta0 = Matrix.from_rows(oracle_boundary(by_dim, 1), cols=3).transpose()
    cocycles = MixedSubgroup(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [])
    coboundaries = MixedSubgroup(3, [column(delta0, j) for j in range(3)], [])
    assert quotient_group(cocycles, coboundaries) == FgAbelianGroup(1)


def test_quotient_group_invariant_under_generator_change():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        zgens = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(1, 3))]
        bgens = []
        for _ in range(rng.randint(0, 3)):
            combo = [0] * n
            for g in zgens:
                c = rng.randint(-2, 2) * rng.choice([1, 2])
                combo = [a + c * gi for a, gi in zip(combo, g)]
            bgens.append(combo)
        base = quotient_group(MixedSubgroup(n, zgens, []),
                              MixedSubgroup(n, bgens, []))
        # unimodular remix of the generating sets
        zmix = list(zgens)
        if len(zmix) >= 2:
            zmix[0] = [a + 3 * b for a, b in zip(zmix[0], zmix[1])]
        bmix = list(bgens) + [[0] * n]
        if len(bmix) >= 2:
            bmix[1], bmix[0] = bmix[0], bmix[1]
        remixed = quotient_group(MixedSubgroup(n, zmix, []),
                                 MixedSubgroup(n, bmix, []))
        assert base == remixed


def test_fg_abelian_group_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))
    assert str(FgAbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(FgAbelianGroup(0)) == "0"
