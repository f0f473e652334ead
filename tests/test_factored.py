"""One factorization reused for many solves agrees with a fresh elimination.

The reference is the Gauss-Jordan elimination in `oracles.py`, run anew
for every right-hand side.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hexad.exactalg import (
    Factored,
    IntRow,
    Matrix,
    rational_kernel,
    rational_rank,
    rational_solve,
)
from oracles import mat_vec, oracle_eliminate, oracle_kernel, oracle_solve

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
            rhs.append(a.column(draw(st.integers(0, a.cols - 1))))
        else:
            rhs.append([0] * a.rows)
    return a, rhs


@PROPERTY
@given(systems())
def test_reused_factorization_solves_like_fresh_elimination(system):
    a, rhs = system
    f = Factored(a)
    for b in rhs:
        expected = oracle_solve(a.data, a.cols, b)
        if expected is not None:
            expected = IntRow.of(expected)
        x = f.solve(b)
        assert x == expected
        assert rational_solve(a, b) == expected
        if x is not None:
            assert type(x) is IntRow
            assert ([Fraction(v) for v in mat_vec(a.data, x.fractions())]
                    == [Fraction(v) for v in b])


@PROPERTY
@given(matrices())
def test_factorization_rank_and_kernel_match_fresh_elimination(a):
    f = Factored(a)
    _, _, pivots = oracle_eliminate(a.data, a.cols)
    assert f.pivots == tuple(pivots)
    assert f.rank == rational_rank(a) == len(pivots)
    assert f.kernel() == rational_kernel(a) == oracle_kernel(a.data, a.cols)


def test_failed_recheck_raises_instead_of_reading_as_inconsistent():
    a = Matrix(2, 2, [[1, 1], [0, 1]])
    f = Factored(a)
    assert f.solve([1, 1]) == IntRow.of([0, 1])
    # E is kept by sparse columns over per-row denominators
    assert f._e_cols.indices[0][0] == 0
    f._e_cols.values[0][0] += f._e_dens[0]  # E[0][0] is now off by one
    with pytest.raises(ArithmeticError):
        f.solve([1, 1])


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        Factored(Matrix(2, 2, [[1, 0], [0, 1]])).solve([1])
