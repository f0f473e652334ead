"""The one-shot rational solvers, read off a Smith form of the matrix with
its rows cleared of their denominators, agree with a fresh elimination.

The reference is the Gauss-Jordan elimination in `oracles.py`, run anew
for every right-hand side.  Smith's free coordinates differ from the
elimination's, so a solution must exist exactly when the oracle finds one
and solve the system; where the oracle's rank is the column count the
solution is unique and must equal the oracle's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hexad import exactalg
from hexad.exactalg import (
    IntRow,
    Matrix,
    SparseVectors,
    rational_kernel,
    rational_rank,
    rational_solve,
)
from oracles import column, mat_vec, oracle_kernel, oracle_rank, oracle_solve

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

integers = st.integers(-4, 4)
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def matrices(draw):
    """Integer or rational matrices up to 5x5, empty shapes included; half
    of the non-empty ones are products through a smaller inner dimension,
    so they are rank-deficient."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = draw(st.sampled_from([integers, rationals]))
    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left = [[draw(integers) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
        data = [[sum(left[i][t] * right[t][j] for t in range(inner))
                 for j in range(cols)] for i in range(rows)]
    else:
        data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, data)


@st.composite
def systems(draw):
    """A matrix with several right-hand sides: consistent ones (a*y),
    arbitrary ones, and sparse ones (zero, a unit vector, a column of a),
    whose zero entries a solve skips."""
    a = draw(matrices())
    rhs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["image", "arbitrary", "zero", "unit",
                                     "column"]))
        if kind == "image":
            rhs.append(mat_vec(a.data,
                               [draw(rationals) for _ in range(a.cols)]))
        elif kind == "arbitrary":
            rhs.append([draw(rationals) for _ in range(a.rows)])
        elif kind == "unit" and a.rows:
            i = draw(st.integers(0, a.rows - 1))
            rhs.append([int(j == i) for j in range(a.rows)])
        elif kind == "column" and a.cols:
            rhs.append(column(a, draw(st.integers(0, a.cols - 1))))
        else:
            rhs.append([0] * a.rows)
    return a, rhs


@PROPERTY
@given(systems())
def test_reused_factorization_solves_like_fresh_elimination(system):
    # one Smith form of the cleared matrix answers every right-hand side,
    # as MixedSolver and quotient_group reuse theirs
    a, rhs = system
    cleared = exactalg._cleared(a)
    unique = oracle_rank(a.data, a.cols) == a.cols
    for b in rhs:
        expected = oracle_solve(a.data, a.cols, b)
        x = exactalg._solve_cleared(cleared, b)
        assert x == rational_solve(a, b)
        assert (x is None) == (expected is None)
        if x is not None:
            assert type(x) is IntRow
            assert ([Fraction(v) for v in mat_vec(a.data, x.fractions())]
                    == [Fraction(v) for v in b])
            if unique:
                assert x == IntRow.of(expected)


def span_rank(vectors, n):
    return oracle_rank([list(v) for v in vectors], n)


@PROPERTY
@given(matrices())
def test_factorization_rank_and_kernel_match_fresh_elimination(a):
    assert rational_rank(a) == oracle_rank(a.data, a.cols)
    kernel = rational_kernel(a)
    expected = oracle_kernel(a.data, a.cols)
    for vec in kernel:
        assert all(type(v) is int for v in vec)
        assert not any(mat_vec(a.data, vec))
    # the same space: independent, as many, and no bigger together
    assert (span_rank(kernel, a.cols) == len(kernel) == len(expected)
            == span_rank(kernel + expected, a.cols))


def test_failed_recheck_raises_instead_of_reading_as_inconsistent(monkeypatch):
    a = Matrix(2, 2, [[1, 1], [0, 1]])
    assert rational_solve(a, [1, 1]) == IntRow.of([0, 1])
    true_smith = exactalg.smith_form

    def corrupted(m):
        # every column of v off by one in its first entry: full rank, so
        # solve_q still answers, with a wrong x
        f = true_smith(m)
        values = tuple([vals[0] + 1] + vals[1:] for vals in f.v_cols.values)
        return exactalg.SmithForm(f.u_rows, f.diagonal,
                                  SparseVectors(f.v_cols.indices, values),
                                  f.u_inv_cols, f.rank)
    monkeypatch.setattr(exactalg, "smith_form", corrupted)
    with pytest.raises(ArithmeticError):
        rational_solve(a, [1, 1])


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        rational_solve(Matrix(2, 2, [[1, 0], [0, 1]]), [1])
    with pytest.raises(ValueError):
        rational_solve(Matrix(2, 2, [[1, 0], [0, 1]]), [1, 2, 3])
