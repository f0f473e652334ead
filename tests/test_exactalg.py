import random
from fractions import Fraction
from itertools import product

import pytest

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
from oracles import (
    CIRCLE,
    close_facets,
    det_bareiss,
    oracle_boundary,
    oracle_smith_diagonal,
    verify_non_membership,
    verify_witness,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return Matrix(rows, cols,
                  [[rng.randint(lo, hi) for _ in range(cols)]
                   for _ in range(rows)])


def test_xgcd_basic():
    for a, b in product(range(-12, 13), repeat=2):
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_snf_identity_and_zero():
    ident = Matrix.identity(3)
    f = smith_form(ident)
    assert f.d == ident and f.u == ident and f.v == ident
    zero = Matrix.zeros(2, 3)
    assert smith_form(zero).d == zero


def test_snf_circle_boundary_matches_textbook_reduction():
    # boundary_1 of the 3-vertex circle reduces to diag(1, 1, 0)
    by_dim = close_facets(CIRCLE)
    b1 = oracle_boundary(by_dim, 1)
    m = Matrix.from_rows(b1)
    f = smith_form(m)
    assert f.diagonal == [1, 1, 0]
    assert oracle_smith_diagonal(b1) == [1, 1]


def test_snf_random_invariants():
    rng = random.Random(11)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        f = smith_form(m)
        assert f.u.mul(m).mul(f.v) == f.d
        assert abs(det_bareiss(f.u)) == 1
        assert abs(det_bareiss(f.v)) == 1
        assert f.u.mul(f.u_inv) == Matrix.identity(m.rows)
        diag = f.diagonal
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(m.cols):
                if j != i and j < m.cols:
                    assert f.d.data[i][j] == 0
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
            assert all(x == 0 for x in m.mul_vec(vec))
        basis = column_lattice_basis(m)
        if basis:
            bm = Matrix.from_columns(basis, rows=m.rows)
            for j in range(m.cols):
                sol = rational_solve(bm, [Fraction(x) for x in m.column(j)])
                assert sol is not None
                assert sol.den == 1


def test_hnf_solve_trivial_cases():
    assert hnf_solve(Matrix(1, 1, [[2]]), [4]) == [2]
    assert hnf_solve(Matrix(1, 1, [[2]]), [3]) is None


def test_hnf_solve_circle_boundary_with_enumeration_oracle():
    by_dim = close_facets(CIRCLE)
    m = Matrix.from_rows(oracle_boundary(by_dim, 1))
    rng = random.Random(7)
    for _ in range(20):
        chain = [rng.randint(-2, 2) for _ in range(3)]
        b = m.mul_vec(chain)
        x = hnf_solve(m, b)
        assert x is not None and m.mul_vec(x) == b
        # brute-force enumeration confirms a small solution exists
        found = None
        for cand in product(range(-3, 4), repeat=3):
            if m.mul_vec(list(cand)) == b:
                found = cand
                break
        assert found is not None


def test_hnf_solve_random_consistency():
    rng = random.Random(23)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = [rng.randint(-4, 4) for _ in range(m.cols)]
        b = m.mul_vec(x0)
        x = hnf_solve(m, b)
        assert x is not None and m.mul_vec(x) == b


def test_rational_solve_examples():
    ident = Matrix.identity(2)
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
            assert all(v == 0 for v in m.mul_vec(vec))


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
    delta0 = Matrix.from_rows(oracle_boundary(by_dim, 1)).transpose()
    cocycles = MixedSubgroup(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [])
    coboundaries = MixedSubgroup(3, [delta0.column(j) for j in range(3)], [])
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
