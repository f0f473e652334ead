"""The integer-numerator vector core agrees with the Fraction-per-coordinate
core it replaced.

Every value is read back through its public read-outs (`values`, `coeffs`)
and compared, in value and in `repr`, with the reference operations in
`oracles.py`; the rows themselves must be in canonical form.  The exact
solvers must answer an `IntRow` exactly as they answer the equivalent list
of Fractions.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hexad.cone import ConeCochain
from hexad.exactalg import (
    Factored,
    IntRow,
    Matrix,
    MixedSolver,
    MixedSubgroup,
    MixedWitness,
)
from hexad.hscomplex import DiffCochain
from hexad.plforms import WhitneyForm, d, integrate
from hexad.simplicial import Chain, Cochain, Ring, catalog, catalog_names, combine

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

NAMES = catalog_names()
DENOMS = [1, 2, 3, 4, 5, 6, 12]
rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMS))
scalars = st.one_of(st.integers(-5, 5),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMS)))


# ---------------------------------------------------------------------------
# values as slots (ring, coordinates), read through the public read-outs

def slots_of(x):
    if isinstance(x, Cochain):
        return [(x.ring.value, x.values)]
    if isinstance(x, WhitneyForm):
        return [("Q", x.coeffs)]
    if isinstance(x, ConeCochain):
        return [("Z", x.integral.values), ("Q", x.rational.values)]
    slots = [("Z", x.integral.values), ("Q", x.potential.values)]
    if x.curvature is not None:
        slots.append(("Q", x.curvature.coeffs))
    return slots


def build(proto, slots):
    """A value of proto's type and key with the given slot coordinates."""
    cx = proto.complex
    vals = [v for _, v in slots]
    if isinstance(proto, Cochain):
        return Cochain(cx, proto.degree, proto.ring, vals[0])
    if isinstance(proto, WhitneyForm):
        return WhitneyForm(cx, proto.degree, vals[0])
    if isinstance(proto, ConeCochain):
        k = proto.degree
        return ConeCochain(cx, k, Cochain(cx, k + 1, Ring.Z, vals[0]),
                           Cochain(cx, k, Ring.Q, vals[1]))
    k = proto.degree
    curv = WhitneyForm(cx, k, vals[2]) if len(vals) == 3 else None
    return DiffCochain(cx, proto.level, k, Cochain(cx, k, Ring.Z, vals[0]),
                       Cochain(cx, k - 1, Ring.Q, vals[1]), curv)


def oracle_repr(proto, slots):
    """The repr the Fraction-based core printed for these slots."""
    strs = [[str(v) for v in vals] for _, vals in slots]
    if isinstance(proto, Cochain):
        return "Cochain(%s, deg=%d, %s)" % (proto.ring.value, proto.degree, strs[0])
    if isinstance(proto, WhitneyForm):
        return "WhitneyForm(deg=%d, %s)" % (proto.degree, strs[0])
    if isinstance(proto, ConeCochain):
        return "ConeCochain(deg=%d, u=%r, v=%r)" % (
            proto.degree, list(slots[0][1]), strs[1])
    return "DiffCochain(q=%d, k=%d, c=%r, T=%r, w=%r)" % (
        proto.level, proto.degree, list(slots[0][1]), strs[1],
        strs[2] if len(slots) == 3 else None)


def rows_of(x):
    """(ring, IntRow) of every stored row of a value."""
    if isinstance(x, Cochain):
        return [(x.ring.value, x.row)]
    if isinstance(x, WhitneyForm):
        return [("Q", x.row)]
    if isinstance(x, ConeCochain):
        return rows_of(x.integral) + rows_of(x.rational)
    out = rows_of(x.integral) + rows_of(x.potential)
    if x.curvature is not None:
        out += rows_of(x.curvature)
    return out


def assert_canonical(row):
    assert isinstance(row, IntRow)
    assert type(row.nums) is tuple and type(row.den) is int
    assert all(type(n) is int for n in row.nums)
    assert row.den >= 1 and gcd(row.den, *row.nums) == 1


def assert_matches(got, proto, want):
    """`got` equals the oracle's slots `want` in value, type and repr, and
    keeps its rows in canonical form."""
    got_slots = slots_of(got)
    assert got_slots == want
    for (ring, vals) in got_slots:
        assert all(type(v) is (int if ring == "Z" else Fraction) for v in vals)
    assert repr(got) == oracle_repr(proto, want)
    assert got == build(proto, want)
    for ring, row in rows_of(got) + [("Q", got._row())]:
        assert_canonical(row)
        if ring == "Z":
            assert row.den == 1
        if ring == "QmodZ":
            assert all(0 <= n < row.den for n in row.nums)


def same_outcome(new, old, proto):
    """Run the package operation and the oracle one: both raise ValueError,
    or both succeed and agree."""
    try:
        want = old()
    except ValueError:
        with pytest.raises(ValueError):
            new()
        return
    assert_matches(new(), proto, want)


# ---------------------------------------------------------------------------
# strategies

def coords(draw, ring, n, clear_z=False):
    if ring == "Z":
        return [0 if clear_z else draw(st.integers(-9, 9)) for _ in range(n)]
    return [draw(rationals) for _ in range(n)]


KINDS = ("Cochain", "WhitneyForm", "ConeCochain", "DiffCochain")
PAIR_KINDS = ("ConeCochain", "DiffCochain")


@st.composite
def layouts(draw, kinds=KINDS):
    """(proto, slot layout [(ring, length)]) for a random kind and key."""
    cx = catalog(draw(st.sampled_from(NAMES)))
    kind = draw(st.sampled_from(kinds))
    if kind == "Cochain":
        k = draw(st.integers(0, cx.dim))
        ring = draw(st.sampled_from(list(Ring)))
        proto = Cochain.zero(cx, k, ring)
    elif kind == "WhitneyForm":
        proto = WhitneyForm.zero(cx, draw(st.integers(0, cx.dim)))
    elif kind == "ConeCochain":
        proto = ConeCochain.zero(cx, draw(st.integers(-1, cx.dim)))
    else:
        k = draw(st.integers(0, cx.dim + 1))
        proto = DiffCochain.zero(cx, k + draw(st.integers(-1, 1)), k)
    return proto, [(ring, len(vals)) for ring, vals in slots_of(proto)]


def draw_value(draw, proto, layout, clear_z=False):
    return build(proto, [(ring, coords(draw, ring, n, clear_z))
                         for ring, n in layout])


@st.composite
def value_pairs(draw):
    proto, layout = draw(layouts())
    return (proto, draw_value(draw, proto, layout),
            draw_value(draw, proto, layout), draw(scalars))


@st.composite
def combinations(draw):
    """A zero, lattice generators with integer coefficients and space
    generators with rational ones; the space generators' integral slots are
    zero half of the time, as in the package's generator systems."""
    proto, layout = draw(layouts())
    clear_z = draw(st.booleans())
    lattice = [draw_value(draw, proto, layout) for _ in range(draw(st.integers(0, 3)))]
    space = [draw_value(draw, proto, layout, clear_z)
             for _ in range(draw(st.integers(0, 3)))]
    return (proto, [draw(st.integers(-9, 9)) for _ in lattice], lattice,
            [draw(rationals) for _ in space], space)


# ---------------------------------------------------------------------------
# group operations on every kind

@PROPERTY
@given(value_pairs())
def test_group_operations_match_fraction_oracle(case):
    proto, x, y, s = case
    sx, sy = slots_of(x), slots_of(y)
    same_outcome(lambda: x + y, lambda: oracles.oracle_add(sx, sy), proto)
    same_outcome(lambda: x - y, lambda: oracles.oracle_sub(sx, sy), proto)
    same_outcome(lambda: -x, lambda: oracles.oracle_neg(sx), proto)
    same_outcome(lambda: x.scale(s), lambda: oracles.oracle_scale(sx, s), proto)
    same_outcome(lambda: x.scale(int(s)), lambda: oracles.oracle_scale(sx, int(s)),
                 proto)
    assert (x - x).is_zero() and (x == y) == (sx == sy)
    assert x.is_zero() == (not any(v for _, vals in sx for v in vals))


@PROPERTY
@given(combinations())
def test_combine_matches_fraction_oracle(case):
    proto, lc, lattice, sc, space = case
    same_outcome(lambda: combine(proto, lc, lattice, sc, space),
                 lambda: oracles.oracle_combine(slots_of(proto), lc,
                                                [slots_of(g) for g in lattice],
                                                sc, [slots_of(g) for g in space]),
                 proto)


# ---------------------------------------------------------------------------
# cone and differential cochains keep their joined row

def joined(x):
    """The join of a value's slot rows, computed afresh."""
    return IntRow.join([row for _, row in rows_of(x)])


@PROPERTY
@given(st.data())
def test_pair_values_keep_the_joined_row_of_their_slots(data):
    proto, layout = data.draw(layouts(PAIR_KINDS))
    x, y = (draw_value(data.draw, proto, layout) for _ in range(2))
    s = data.draw(scalars)
    lattice = [draw_value(data.draw, proto, layout) for _ in range(2)]
    space = [draw_value(data.draw, proto, layout, clear_z=True)
             for _ in range(2)]
    lc = [data.draw(st.integers(-9, 9)) for _ in lattice]
    sc = [data.draw(rationals) for _ in space]
    assert x._row() == joined(x)
    ops = (lambda: x + y, lambda: x - y, lambda: -x,
           lambda: x.scale(s), lambda: x.scale(int(s)),
           lambda: proto._like(joined(y)),
           lambda: combine(proto, lc, lattice, sc, space))
    for op in ops:
        try:
            got = op()
        except ValueError:
            continue  # a fractional multiple of an odd integral slot
        # built with its row kept, and that row is the join of its slots
        assert got._joined is not None
        assert got._joined == joined(got) == got._row()


def test_operations_on_kept_rows_join_nothing(monkeypatch):
    cx = catalog("torus")
    x = DiffCochain(cx, 2, 2, Cochain(cx, 2, Ring.Z, [1] * 14),
                    Cochain(cx, 1, Ring.Q, [Fraction(1, 2)] * 21),
                    WhitneyForm(cx, 2, [Fraction(1, 3)] * 14))
    z = ConeCochain(cx, 1, Cochain(cx, 2, Ring.Z, [2] * 14),
                    Cochain(cx, 1, Ring.Q, [Fraction(1, 6)] * 21))
    for v in (x, z):
        v._row()
    calls = []
    join = IntRow.join
    monkeypatch.setattr(IntRow, "join", classmethod(
        lambda cls, rows: calls.append(rows) or join(rows)))
    for v in (x, z):
        w = combine(v, [2], [v], [], [])  # 3v
        assert w - v == v + v == (-v).scale(-2)
        assert w == v.scale(3) and w != v
    assert calls == []


# ---------------------------------------------------------------------------
# coboundary, evaluation, integration, ring changes

@st.composite
def cochains(draw):
    cx = catalog(draw(st.sampled_from(NAMES)))
    k = draw(st.integers(0, cx.dim))
    ring = draw(st.sampled_from(list(Ring)))
    x = Cochain(cx, k, ring, coords(draw, ring.value, cx.n_simplices(k)))
    chain = Chain(cx, k, coords(draw, "Z", cx.n_simplices(k)))
    return x, chain


@PROPERTY
@given(cochains())
def test_cochain_maps_match_fraction_oracle(case):
    x, chain = case
    cx, k, ring = x.complex, x.degree, x.ring.value
    delta = oracles.oracle_coboundary_values(cx.simplices_of(k),
                                             cx.simplices_of(k + 1), x.values)
    assert_matches(x.coboundary(), Cochain.zero(cx, k + 1, x.ring),
                   [(ring, tuple(oracles.oracle_normalize(ring, v) for v in delta))])
    value = x.evaluate(chain)
    want = oracles.oracle_evaluate(ring, x.values, chain.coeffs)
    assert value == want and type(value) is type(want)
    mod1 = [("QmodZ", tuple(oracles.oracle_normalize("QmodZ", v) for v in x.values))]
    assert_matches(x.mod1(), Cochain.zero(cx, k, Ring.QMODZ), mod1)
    if x.ring is Ring.QMODZ:
        with pytest.raises(ValueError):
            x.as_q()
    else:
        as_q = [("Q", tuple(Fraction(v) for v in x.values))]
        assert_matches(x.as_q(), Cochain.zero(cx, k, Ring.Q), as_q)


@PROPERTY
@given(cochains())
def test_form_maps_match_fraction_oracle(case):
    x, chain = case
    cx, k = x.complex, x.degree
    form = WhitneyForm(cx, k, list(x.values))
    delta = oracles.oracle_coboundary_values(cx.simplices_of(k),
                                             cx.simplices_of(k + 1), form.coeffs)
    assert_matches(d(form), WhitneyForm.zero(cx, k + 1),
                   [("Q", tuple(Fraction(v) for v in delta))])
    value = integrate(form, chain)
    assert value == oracles.oracle_integrate(form.coeffs, chain.coeffs)
    assert type(value) is Fraction


# ---------------------------------------------------------------------------
# the row type itself

@PROPERTY
@given(st.lists(rationals, max_size=6), st.integers(1, 12))
def test_introw_is_canonical(vals, k):
    row = IntRow.of(vals)
    assert_canonical(row)
    assert row.fractions() == tuple(Fraction(v) for v in vals)
    assert IntRow([k * n for n in row.nums], k * row.den) == row
    assert IntRow.of(row) is row


def test_introw_edge_cases():
    assert IntRow((2, 4), 6) == IntRow((1, 2), 3) == ((1, 2), 3)
    assert IntRow((0, 0), 5) == ((0, 0), 1)
    assert IntRow((), 4) == ((), 1)
    assert IntRow.of([Fraction(1, 2), "1/3", 2]) == ((3, 2, 12), 6)
    with pytest.raises(ValueError):
        IntRow((1,), 0)
    cx = catalog("circle")
    with pytest.raises(ValueError, match="non-integer value"):
        Cochain(cx, 1, Ring.Z, IntRow((1, 0, 0), 2))
    assert Cochain(cx, 1, Ring.Z, IntRow((2, 0, 4), 2)).values == (1, 0, 2)
    assert Cochain(cx, 1, Ring.QMODZ, IntRow((3, -1, 4), 2)).row == ((1, 1, 0), 2)


# ---------------------------------------------------------------------------
# solvers answer an IntRow as they answer the equivalent Fractions

small = st.integers(-3, 3)


@st.composite
def mixed_queries(draw):
    n = draw(st.integers(1, 4))
    lattice = [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(0, 3)))]
    space = [[draw(rationals) for _ in range(n)] for _ in range(draw(st.integers(0, 2)))]
    sub = MixedSubgroup(n, lattice, space)
    xs = []
    for _ in range(3):
        if draw(st.booleans()):
            # a member: an integer plus a rational combination
            x = [Fraction(0)] * n
            for g in lattice:
                c = draw(small)
                x = [a + c * b for a, b in zip(x, g)]
            for g in space:
                c = draw(rationals)
                x = [a + c * b for a, b in zip(x, g)]
        else:
            x = [draw(rationals) for _ in range(n)]
        xs.append(x)
    return sub, xs


@PROPERTY
@given(mixed_queries())
def test_membership_of_introw_matches_fraction_list(case):
    sub, xs = case
    solver = MixedSolver(sub)
    for x in xs:
        res = solver.membership(IntRow.of(x))
        assert res == solver.membership(x)
        if isinstance(res, MixedWitness):
            assert oracles.verify_witness(x, sub, res)
        else:
            assert oracles.verify_non_membership(x, sub, res)


@st.composite
def solves(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = Matrix(rows, cols, [[draw(st.one_of(small, rationals)) for _ in range(cols)]
                            for _ in range(rows)])
    rhs = [a.mul_vec([draw(rationals) for _ in range(cols)]) for _ in range(2)]
    rhs += [[draw(rationals) for _ in range(rows)]]
    return a, rhs


@PROPERTY
@given(solves())
def test_factored_solve_of_introw_matches_fraction_list(case):
    a, rhs = case
    f = Factored(a)
    for b in rhs:
        expected = oracles.oracle_solve(a.data, a.cols, b)
        if expected is not None:
            expected = IntRow.of(expected)
        x = f.solve(IntRow.of(b))
        assert x == f.solve(b) == expected


def test_solvers_reject_wrong_length_introw():
    with pytest.raises(ValueError):
        Factored(Matrix.identity(2)).solve(IntRow((1, 2, 3), 1))
    with pytest.raises(ValueError):
        MixedSolver(MixedSubgroup(2, [[1, 0]])).membership(IntRow((1,), 1))
